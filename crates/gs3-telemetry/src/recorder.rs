//! Bounded, deterministic flight recorder.
//!
//! Two modes:
//!
//! * [`RecorderMode::Counters`] (default, always on): only per-class
//!   `u64` counters advance — O(1), no allocation, cache-friendly. This
//!   is the mode every ordinary simulation runs in; its cost is one
//!   array increment per event.
//! * [`RecorderMode::Full`]: additionally keeps the most recent
//!   `capacity` structured [`Event`]s in a drop-oldest ring. Export
//!   paths (`gs3 trace`, `gs3 chaos --timeline`) switch this on. The
//!   ring stores each event as a 32-byte [`Record`] — its label a
//!   [`Label`] id, its node ids `u32`s — and decodes it when read.
//!
//! Either way, recording is pure observation: no RNG, no scheduling, no
//! feedback into the simulation.

use std::collections::VecDeque;

use crate::event::{Event, EventClass, NO_PEER};
use crate::label::Label;

/// The flag bit of a [`Record`]'s class byte: the event has a peer.
const HAS_PEER: u8 = 0x80;

/// One ring entry: an [`Event`] packed into 32 bytes (a 56-byte `Event`
/// carries its label as a fat pointer and its node ids as `u64`s). The
/// peer's absence is a flag beside the class, so every `u32` id, the
/// largest included, is a peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    t_us: u64,
    data: u64,
    node: u32,
    /// Meaningful only when `class` has [`HAS_PEER`].
    peer: u32,
    episode: u32,
    kind: Label,
    /// [`EventClass::index`], plus [`HAS_PEER`].
    class: u8,
}

const _: () = assert!(std::mem::size_of::<Record>() == 32);

impl Record {
    /// Packs one event; `kind` is its label's id.
    ///
    /// # Panics
    ///
    /// Panics when `node`, or a `peer` other than [`NO_PEER`], exceeds
    /// `u32::MAX` (node ids never do: they are dense `u32` spawn ranks).
    #[inline]
    #[must_use]
    pub fn new(
        t_us: u64,
        node: u64,
        class: EventClass,
        kind: Label,
        peer: u64,
        episode: u32,
        data: u64,
    ) -> Self {
        let narrow = |id: u64| u32::try_from(id).expect("the recorder stores node ids as u32");
        let (peer, flag) = if peer == NO_PEER { (0, 0) } else { (narrow(peer), HAS_PEER) };
        Record { t_us, data, node: narrow(node), peer, episode, kind, class: class.index() as u8 | flag }
    }

    /// The event's class.
    #[inline]
    fn class(&self) -> EventClass {
        EventClass::ALL[usize::from(self.class & !HAS_PEER)]
    }

    /// The event this record packs.
    fn event(&self) -> Event {
        Event {
            t_us: self.t_us,
            node: self.node.into(),
            class: self.class(),
            kind: self.kind.name(),
            peer: if self.class & HAS_PEER == 0 { NO_PEER } else { self.peer.into() },
            episode: self.episode,
            data: self.data,
        }
    }
}

impl From<&Event> for Record {
    fn from(ev: &Event) -> Self {
        Record::new(ev.t_us, ev.node, ev.class, Label::of(ev.kind), ev.peer, ev.episode, ev.data)
    }
}

/// Recording mode: cheap counters only, or full ring-buffer capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecorderMode {
    /// Per-class counters only (the always-on default).
    Counters,
    /// Counters plus a drop-oldest ring of the last `capacity` events.
    Full {
        /// Maximum number of events retained; older events are dropped.
        capacity: usize,
    },
}

/// Bounded structured-event recorder. See the module docs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    recording: bool,
    capacity: usize,
    ring: VecDeque<Record>,
    total: u64,
    dropped: u64,
    per_class: [u64; EventClass::COUNT],
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self {
            recording: false,
            capacity: 0,
            ring: VecDeque::new(),
            total: 0,
            dropped: 0,
            per_class: [0; EventClass::COUNT],
        }
    }
}

impl FlightRecorder {
    /// A counters-only recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Switch modes. Entering [`RecorderMode::Full`] pre-allocates the
    /// ring; leaving it drops captured events (counters are kept).
    pub fn set_mode(&mut self, mode: RecorderMode) {
        match mode {
            RecorderMode::Counters => {
                self.recording = false;
                self.capacity = 0;
                self.ring = VecDeque::new();
            }
            RecorderMode::Full { capacity } => {
                let capacity = capacity.max(1);
                self.recording = true;
                self.capacity = capacity;
                self.ring.reserve(capacity.saturating_sub(self.ring.capacity()));
                while self.ring.len() > capacity {
                    self.ring.pop_front();
                    self.dropped += 1;
                }
            }
        }
    }

    /// Is full ring capture enabled?
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Cheap path: count an event of `class` without materializing it.
    #[inline]
    pub fn count_only(&mut self, class: EventClass) {
        self.total += 1;
        self.per_class[class.index()] += 1;
    }

    /// Record a full event (counts it too). In counters-only mode this
    /// degenerates to [`Self::count_only`].
    pub fn record(&mut self, ev: Event) {
        self.record_with(ev.class, || Record::from(&ev));
    }

    /// Counts an event of `class` and, only when ring capture is on,
    /// builds its record with `make` and stores it — so counters-only runs
    /// never pay for packing one.
    #[inline]
    pub fn record_with(&mut self, class: EventClass, make: impl FnOnce() -> Record) {
        self.count_only(class);
        if self.recording {
            let rec = make();
            debug_assert_eq!(rec.class(), class);
            self.store(rec);
        }
    }

    /// Appends `rec` to the ring, evicting the oldest record when full;
    /// kept out of line so the counting path above stays small enough to
    /// inline at every engine call site.
    fn store(&mut self, rec: Record) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }

    /// Events currently held in the ring, oldest first, each decoded from
    /// its record.
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        self.ring.iter().map(Record::event)
    }

    /// Total events observed (counted) since construction.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events evicted from the ring because it was at capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count of events observed for one class.
    #[must_use]
    pub fn of_class(&self, class: EventClass) -> u64 {
        self.per_class[class.index()]
    }

    /// Number of events currently retained in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_PEER;

    fn ev(t: u64) -> Event {
        Event {
            t_us: t,
            node: 1,
            class: EventClass::Protocol,
            kind: "x",
            peer: NO_PEER,
            episode: 0,
            data: 0,
        }
    }

    #[test]
    fn counters_mode_counts_but_stores_nothing() {
        let mut r = FlightRecorder::new();
        r.record(ev(1));
        r.count_only(EventClass::Delivery);
        assert_eq!(r.total(), 2);
        assert_eq!(r.of_class(EventClass::Protocol), 1);
        assert_eq!(r.of_class(EventClass::Delivery), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn full_mode_drops_oldest_at_capacity() {
        let mut r = FlightRecorder::new();
        r.set_mode(RecorderMode::Full { capacity: 3 });
        for t in 0..5 {
            r.record(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ts: Vec<u64> = r.events().map(|e| e.t_us).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    /// What the 32-byte record cannot hold plainly reads back exactly: no
    /// peer, the largest node id as node and as peer, episode 0 and the
    /// largest data and time, in every class.
    #[test]
    fn records_round_trip_at_the_edges() {
        let mut r = FlightRecorder::new();
        r.set_mode(RecorderMode::Full { capacity: 64 });
        let leaked: &'static str = String::from("x").leak();
        let mut sent = Vec::new();
        for class in EventClass::ALL {
            for (node, peer) in [(0, NO_PEER), (u64::from(u32::MAX), u64::from(u32::MAX)), (7, 0)] {
                for (episode, data) in [(0, u64::MAX), (u32::MAX, 0)] {
                    let kind = if data == 0 { leaked } else { "x" };
                    sent.push(Event { t_us: u64::MAX - data, node, class, kind, peer, episode, data });
                }
            }
        }
        for ev in &sent {
            r.record(ev.clone());
        }
        assert!(r.events().eq(sent.iter().cloned()));
    }

    #[test]
    #[should_panic(expected = "u32")]
    fn a_node_id_past_u32_is_refused() {
        let _ = Record::from(&Event { node: 1 << 32, ..ev(0) });
    }

    #[test]
    fn leaving_full_mode_clears_ring_keeps_counters() {
        let mut r = FlightRecorder::new();
        r.set_mode(RecorderMode::Full { capacity: 8 });
        r.record(ev(1));
        r.set_mode(RecorderMode::Counters);
        assert!(r.is_empty());
        assert_eq!(r.total(), 1);
    }
}
