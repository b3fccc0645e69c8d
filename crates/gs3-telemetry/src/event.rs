//! The structured event model: what one flight-recorder entry looks like.

use crate::json::{self, JsonWriter};

/// Sentinel for [`Event::peer`] when the event has no peer node.
pub const NO_PEER: u64 = u64::MAX;

/// Coarse event class — the always-on counter granularity. Every event
/// belongs to exactly one class; in counters-only mode the recorder keeps
/// one `u64` per class and nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// A message delivered to a node (engine `Deliver` path).
    Delivery,
    /// A timer fired at a node (engine `Timer` path).
    Timer,
    /// A protocol-level event emitted by a node handler via `Ctx::event`.
    Protocol,
    /// A send attempt deferred by carrier sense (engine contention path;
    /// never recorded while contention is disabled).
    MacDefer,
    /// A frame corrupted by an overlapping transmission at the receiver
    /// (engine contention path; never recorded while contention is
    /// disabled).
    MacCollision,
}

impl EventClass {
    /// Number of distinct classes (size of the per-class counter array).
    pub const COUNT: usize = 5;

    /// Every class, in [`Self::index`] order.
    pub const ALL: [EventClass; Self::COUNT] =
        [Self::Delivery, Self::Timer, Self::Protocol, Self::MacDefer, Self::MacCollision];

    /// Dense index for per-class counter arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Self::Delivery => 0,
            Self::Timer => 1,
            Self::Protocol => 2,
            Self::MacDefer => 3,
            Self::MacCollision => 4,
        }
    }

    /// Stable lower-case name used in exports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Delivery => "delivery",
            Self::Timer => "timer",
            Self::Protocol => "protocol",
            Self::MacDefer => "mac_defer",
            Self::MacCollision => "mac_collision",
        }
    }
}

/// One structured flight-recorder event: *when*, *where*, *what*.
///
/// `kind` is a `&'static str` so recording never allocates; protocol
/// handlers pass string literals ("head_elected", "quarantine_enter", …).
/// The recorder's ring does not hold `Event`s: it packs each into a
/// 32-byte [`crate::Record`] and decodes it back when read.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Simulation time in microseconds.
    pub t_us: u64,
    /// The node the event happened at.
    pub node: u64,
    /// Coarse class (delivery / timer / protocol).
    pub class: EventClass,
    /// Fine-grained kind — message kind, timer kind, or protocol label.
    pub kind: &'static str,
    /// Peer node (message sender, …) or [`NO_PEER`].
    pub peer: u64,
    /// Healing episode this event is causally attributed to; 0 = none.
    pub episode: u32,
    /// Free-form numeric payload (counter value, latency, …).
    pub data: u64,
}

impl Event {
    /// Serialize as a single JSON object (one JSONL line, no trailing
    /// newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }

    /// Writes the [`Event::to_json`] object in place.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("t_us").u64(self.t_us);
            w.key("node").u64(self.node);
            w.key("class").str(self.class.name());
            w.key("kind").str(self.kind);
            self.write_optional_fields(w);
        });
    }

    /// Writes the `peer` / `episode` / `data` members, each only when set.
    pub(crate) fn write_optional_fields(&self, w: &mut JsonWriter<'_>) {
        if self.peer != NO_PEER {
            w.key("peer").u64(self.peer);
        }
        if self.episode != 0 {
            w.key("episode").u64(self.episode.into());
        }
        if self.data != 0 {
            w.key("data").u64(self.data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense() {
        assert_eq!(EventClass::Delivery.index(), 0);
        assert_eq!(EventClass::Timer.index(), 1);
        assert_eq!(EventClass::Protocol.index(), 2);
        assert_eq!(EventClass::MacDefer.index(), 3);
        assert_eq!(EventClass::MacCollision.index(), 4);
        assert_eq!(EventClass::MacCollision.index() + 1, EventClass::COUNT);
        for (i, class) in EventClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn json_omits_absent_fields() {
        let ev = Event {
            t_us: 5,
            node: 7,
            class: EventClass::Protocol,
            kind: "head_elected",
            peer: NO_PEER,
            episode: 0,
            data: 0,
        };
        assert_eq!(
            ev.to_json(),
            "{\"t_us\":5,\"node\":7,\"class\":\"protocol\",\"kind\":\"head_elected\"}"
        );
    }

    #[test]
    fn json_includes_present_fields() {
        let ev = Event {
            t_us: 1,
            node: 2,
            class: EventClass::Delivery,
            kind: "join_request",
            peer: 3,
            episode: 4,
            data: 9,
        };
        assert!(ev.to_json().contains("\"peer\":3"));
        assert!(ev.to_json().contains("\"episode\":4"));
        assert!(ev.to_json().contains("\"data\":9"));
    }
}
