//! Bounded aggregation queues and the credit gate — the per-head hot
//! state of the data plane.
//!
//! Kept deliberately small: every head in a million-node run carries one
//! [`AggQueue`] and one [`CreditGate`], so both are flat (a `VecDeque`
//! plus a few words) with no per-node heap-heavy structures.

use std::collections::VecDeque;

use gs3_sim::{NodeId, SimTime};

/// One aggregated report batch queued at (or in flight between) heads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    /// The immediate child the batch arrived from (`self` for a head's
    /// own cell aggregate) — the hop a returned credit goes back to.
    pub from: NodeId,
    /// The head that produced the batch. Unlike `from`, this never
    /// changes as the batch relays hop by hop — the sink dedups on
    /// `(origin, seq)`.
    pub origin: NodeId,
    /// The originating head's batch sequence number (provenance).
    pub seq: u64,
    /// Leaf reports summed into the batch.
    pub count: u32,
    /// When the oldest report in the batch was produced — end-to-end
    /// latency is measured against this at the sink.
    pub born: SimTime,
}

/// What [`AggQueue::push`] did with the new batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Enqueue {
    /// Stored without eviction.
    Stored,
    /// Stored, but the queue was full: the oldest batch was evicted and
    /// is returned for accounting (and possible credit return).
    Evicted(BatchEntry),
}

/// A bounded FIFO of report batches with drop-oldest overflow.
///
/// Convergecast favors fresh data: when the queue is full the *oldest*
/// batch is sacrificed for the new one, mirroring the quarantine buffer's
/// drop-oldest policy (this queue *is* the quarantine buffer while the
/// head is partitioned — quarantine just stops the drain).
#[derive(Debug, Clone, Default)]
pub struct AggQueue {
    entries: VecDeque<BatchEntry>,
}

impl AggQueue {
    /// An empty queue.
    #[must_use]
    pub const fn new() -> Self {
        AggQueue { entries: VecDeque::new() }
    }

    /// Appends a batch, evicting the oldest when `capacity` is reached.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn push(&mut self, entry: BatchEntry, capacity: usize) -> Enqueue {
        assert!(capacity > 0, "queue capacity must be positive");
        let evicted = if self.entries.len() >= capacity { self.entries.pop_front() } else { None };
        self.entries.push_back(entry);
        match evicted {
            Some(old) => Enqueue::Evicted(old),
            None => Enqueue::Stored,
        }
    }

    /// Removes and returns the oldest batch.
    pub fn pop(&mut self) -> Option<BatchEntry> {
        self.entries.pop_front()
    }

    /// Queued batches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total leaf reports across every queued batch.
    #[must_use]
    pub fn queued_reports(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.count)).sum()
    }

    /// Drops everything (head retirement / role loss).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates the queued batches oldest-first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &BatchEntry> {
        self.entries.iter()
    }
}

/// Credit-based backpressure state a head holds against its parent.
///
/// One credit = permission to put one batch in flight upstream. Credits
/// are granted back by the parent as it drains (or by the sink on
/// consumption), capped at the configured window. Re-parenting resets the
/// gate to a full window — the old parent's unreturned credits die with
/// the old attachment.
#[derive(Debug, Clone, Default)]
pub struct CreditGate {
    credits: u32,
    /// Consecutive starved ticks (zero credits with work queued).
    starved_ticks: u32,
}

impl CreditGate {
    /// A gate holding a full `window` of credits.
    #[must_use]
    pub const fn full(window: u32) -> Self {
        CreditGate { credits: window, starved_ticks: 0 }
    }

    /// Credits currently held.
    #[must_use]
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Consecutive starved ticks so far (see [`CreditGate::note_tick`]).
    #[must_use]
    pub fn starved_ticks(&self) -> u32 {
        self.starved_ticks
    }

    /// Consumes one credit for an upstream send. Returns false (and
    /// consumes nothing) when starved.
    pub fn try_consume(&mut self) -> bool {
        if self.credits == 0 {
            return false;
        }
        self.credits -= 1;
        true
    }

    /// Returns `grant` credits, capped at `window`.
    pub fn grant(&mut self, grant: u32, window: u32) {
        self.credits = self.credits.saturating_add(grant).min(window);
        self.starved_ticks = 0;
    }

    /// Resets to a full window (fresh attachment to a parent).
    pub fn reset(&mut self, window: u32) {
        self.credits = window;
        self.starved_ticks = 0;
    }

    /// Ticks the stall detector: called once per report tick with whether
    /// the head has queued work it cannot send. After `recovery_ticks`
    /// consecutive starved ticks, restores one credit and returns true —
    /// the caller counts the recovery. Lost credits (a parent that died
    /// holding our batches, a dropped grant message) thereby degrade to a
    /// slow drip instead of a permanent stall.
    pub fn note_tick(&mut self, starved_with_work: bool, recovery_ticks: u32) -> bool {
        if !starved_with_work {
            self.starved_ticks = 0;
            return false;
        }
        self.starved_ticks = self.starved_ticks.saturating_add(1);
        if self.starved_ticks >= recovery_ticks.max(1) {
            self.starved_ticks = 0;
            self.credits = 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, count: u32) -> BatchEntry {
        BatchEntry { from: NodeId::new(1), origin: NodeId::new(1), seq, count, born: SimTime::ZERO }
    }

    #[test]
    fn push_pop_fifo() {
        let mut q = AggQueue::new();
        assert_eq!(q.push(entry(1, 3), 4), Enqueue::Stored);
        assert_eq!(q.push(entry(2, 5), 4), Enqueue::Stored);
        assert_eq!(q.len(), 2);
        assert_eq!(q.queued_reports(), 8);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut q = AggQueue::new();
        for seq in 1..=3 {
            assert_eq!(q.push(entry(seq, 1), 3), Enqueue::Stored);
        }
        match q.push(entry(4, 1), 3) {
            Enqueue::Evicted(old) => assert_eq!(old.seq, 1, "oldest evicted"),
            Enqueue::Stored => panic!("full queue must evict"),
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let mut q = AggQueue::new();
        let _ = q.push(entry(1, 1), 0);
    }

    #[test]
    fn credits_consume_and_grant_capped() {
        let mut g = CreditGate::full(2);
        assert!(g.try_consume());
        assert!(g.try_consume());
        assert!(!g.try_consume(), "starved gate must refuse");
        g.grant(5, 2);
        assert_eq!(g.credits(), 2, "grants cap at the window");
        g.reset(4);
        assert_eq!(g.credits(), 4);
    }

    #[test]
    fn stall_recovery_drips_one_credit() {
        let mut g = CreditGate::full(1);
        assert!(g.try_consume());
        // Three starved ticks under recovery_ticks = 3: fires on the third.
        assert!(!g.note_tick(true, 3));
        assert!(!g.note_tick(true, 3));
        assert!(g.note_tick(true, 3), "third consecutive starved tick recovers");
        assert_eq!(g.credits(), 1);
        // A non-starved tick resets the streak.
        assert!(g.try_consume());
        assert!(!g.note_tick(true, 3));
        assert!(!g.note_tick(false, 3));
        assert!(!g.note_tick(true, 3));
        assert!(!g.note_tick(true, 3));
        assert!(g.note_tick(true, 3));
    }
}
