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
//!   paths (`gs3 trace`, `gs3 chaos --timeline`) switch this on.
//!
//! Either way, recording is pure observation: no RNG, no scheduling, no
//! feedback into the simulation.

use std::collections::VecDeque;

use crate::event::{Event, EventClass};

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
    ring: VecDeque<Event>,
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
        self.total += 1;
        self.per_class[ev.class.index()] += 1;
        if !self.recording {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Counts an event of `class` and, only when ring capture is on,
    /// builds it with `make` and stores it — so counters-only runs never
    /// pay for constructing an [`Event`].
    #[inline]
    pub fn record_with(&mut self, class: EventClass, make: impl FnOnce() -> Event) {
        if self.recording {
            let ev = make();
            debug_assert_eq!(ev.class, class);
            self.record(ev);
        } else {
            self.count_only(class);
        }
    }

    /// Events currently held in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
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
