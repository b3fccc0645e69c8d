//! The transmission records: one per frame, shared by every queued copy.

use super::*;

/// Whom a frame is addressed to.
#[derive(Debug, Clone, Copy)]
pub(super) enum Dest {
    /// A unicast: one receiver, taint-propagating.
    Node(NodeId),
    /// A broadcast: everyone within the requested (pre-clamp) radius.
    Disk(f64),
}

impl Dest {
    /// Unicast (taint-propagating) rather than ambient broadcast.
    #[inline]
    pub(super) fn is_directed(self) -> bool {
        matches!(self, Dest::Node(_))
    }
}

/// One frame on the air — or parked between carrier-sense retries —
/// shared by every queued copy of it.
#[derive(Debug, Clone)]
pub(super) struct Transmission<M> {
    pub(super) from: NodeId,
    pub(super) msg: M,
    /// Packed healing-episode tag ([`gs3_telemetry::pack_tag`]); 0 = none.
    /// Rides the record so causal attribution needs no RNG and no extra
    /// scheduling — the digest stream is untouched by telemetry.
    pub(super) tag: u64,
    /// The frame's airtime window ([`TxWindow::NONE`] unless contention is
    /// enabled), consulted at delivery time for receiver-side collision
    /// detection. Like `tag`, excluded from every determinism hash.
    pub(super) tx: TxWindow,
    /// The addressee — what a parked frame retries towards.
    pub(super) dest: Dest,
    /// Queued events referencing this record, plus the sender's own hold
    /// while it is still scheduling copies.
    pub(super) refs: u32,
}

/// The live [`Transmission`]s: an index slab with a LIFO free list. Slot
/// indices are handles, not identities — they depend on release order, so
/// no hash or digest ever folds one.
#[derive(Debug, Clone)]
pub(super) struct Flights<M> {
    slots: Vec<Option<Transmission<M>>>,
    free: Vec<u32>,
}

impl<M> Flights<M> {
    pub(super) fn new() -> Self {
        Flights { slots: Vec::new(), free: Vec::new() }
    }

    #[inline]
    pub(super) fn open(&mut self, t: Transmission<M>) -> u32 {
        if let Some(flight) = self.free.pop() {
            self.slots[flight as usize] = Some(t);
            return flight;
        }
        let flight = u32::try_from(self.slots.len()).expect("fewer than 2^32 frames in flight");
        self.slots.push(Some(t));
        flight
    }

    #[inline]
    pub(super) fn get(&self, flight: u32) -> &Transmission<M> {
        self.slots[flight as usize].as_ref().expect("a queued event references a live record")
    }

    #[inline]
    pub(super) fn retain(&mut self, flight: u32) {
        self.slots[flight as usize].as_mut().expect("retaining a live record").refs += 1;
    }

    /// Drops one reference; hands the record back when it was the last.
    #[inline]
    pub(super) fn release(&mut self, flight: u32) -> Option<Transmission<M>> {
        let slot = &mut self.slots[flight as usize];
        let t = slot.as_mut().expect("releasing a live record");
        t.refs -= 1;
        if t.refs > 0 {
            return None;
        }
        self.free.push(flight);
        slot.take()
    }

    /// Releases one reference and yields the message by value: moved out
    /// when this was the last reference, cloned otherwise.
    #[inline]
    pub(super) fn take_msg(&mut self, flight: u32) -> M
    where
        M: Clone,
    {
        match self.release(flight) {
            Some(t) => t.msg,
            None => self.get(flight).msg.clone(),
        }
    }

    pub(super) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

impl<N: Node> Engine<N> {
    /// Number of live transmission records: frames with a delivery still
    /// queued, or parked awaiting a carrier-sense retry.
    #[must_use]
    pub fn in_flight_transmissions(&self) -> usize {
        self.flights.live()
    }

    /// Audits the transmission conservation law: the live records are
    /// exactly the handles pending events reference, each record's
    /// reference count equals the number of events referencing it, and
    /// the free list accounts for every vacant slot. Holds between any
    /// two events; `Err` names the first slot that breaks it.
    pub fn audit_transmissions(&self) -> Result<(), String> {
        let mut seen = vec![0u32; self.flights.slots.len()];
        for (_, _, ev) in self.queue.entries() {
            if let Some(flight) = ev.kind.flight() {
                match seen.get_mut(flight as usize) {
                    Some(n) => *n += 1,
                    None => return Err(format!("event for {} references unknown slot {flight}", ev.to)),
                }
            }
        }
        for (slot, (t, &events)) in self.flights.slots.iter().zip(&seen).enumerate() {
            let refs = t.as_ref().map_or(0, |t| t.refs);
            if refs != events || t.is_some() != (events > 0) {
                return Err(format!("slot {slot}: refs {refs}, {events} referencing events"));
            }
        }
        let live = self.flights.slots.iter().flatten().count();
        if live != self.flights.live() {
            return Err(format!("{live} occupied slots, free list implies {}", self.flights.live()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs3_telemetry::NO_TAG;
    use std::sync::Arc;

    fn frame<M>(msg: M) -> Transmission<M> {
        Transmission {
            from: NodeId::new(0),
            msg,
            tag: NO_TAG,
            tx: TxWindow::NONE,
            dest: Dest::Disk(1.0),
            refs: 1,
        }
    }

    #[test]
    fn vacated_slots_are_reused_last_freed_first() {
        let mut f = Flights::new();
        let slots: Vec<u32> = (0..4u32).map(|i| f.open(frame(i))).collect();
        assert_eq!(slots, [0, 1, 2, 3]);
        assert!(f.release(1).is_some() && f.release(3).is_some());
        assert_eq!(f.live(), 2);
        assert_eq!(f.open(frame(10)), 3, "LIFO: the slot freed last is taken first");
        assert_eq!(f.open(frame(11)), 1);
        assert_eq!(f.open(frame(12)), 4, "free list empty: the slab grows");
        assert_eq!((f.get(3).msg, f.get(1).msg, f.get(2).msg), (10, 11, 2));
        assert_eq!(f.live(), 5);
    }

    #[test]
    fn a_record_lives_until_its_last_reference_goes() {
        let mut f = Flights::new();
        let flight = f.open(frame('x'));
        f.retain(flight);
        f.retain(flight);
        assert_eq!(f.get(flight).refs, 3);
        assert!(f.release(flight).is_none());
        assert!(f.release(flight).is_none());
        assert_eq!(f.live(), 1, "still referenced once");
        assert_eq!(f.release(flight).map(|t| t.msg), Some('x'));
        assert_eq!(f.live(), 0);
    }

    #[test]
    #[should_panic(expected = "a queued event references a live record")]
    fn a_released_handle_is_dead() {
        let mut f = Flights::new();
        let flight = f.open(frame(()));
        f.release(flight);
        f.get(flight);
    }

    #[test]
    fn take_msg_clones_until_the_last_reference_and_then_moves() {
        // An `Arc` payload counts its own clones.
        let payload = Arc::new(7u8);
        let mut f = Flights::new();
        let flight = f.open(frame(Arc::clone(&payload)));
        f.retain(flight);
        let first = f.take_msg(flight);
        assert_eq!(Arc::strong_count(&payload), 3, "an earlier copy clones");
        let last = f.take_msg(flight);
        assert_eq!(Arc::strong_count(&payload), 3, "the last copy moves the record's own");
        assert_eq!((*first, *last, f.live()), (7, 7, 0));
    }
}
