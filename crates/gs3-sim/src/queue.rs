//! The pending-event queue.
//!
//! Pops come in ascending `(at, seq)` order, where `seq` is the scheduling
//! rank, so simultaneous events process in schedule order (deterministic
//! replay).
//!
//! [`RadixQueue`] is the engine's queue: a radix heap keyed on the
//! discrete µs tick clock. O(1) amortized per operation against the
//! engine's *monotone* schedule pattern (every event is scheduled at
//! `now + Δ`, never in the past), and cache-friendly — entries live in
//! per-bucket deques, not a pointer-chased heap.
//!
//! `HeapQueue`, the original `BinaryHeap` implementation, is compiled for
//! tests only, as the differential oracle the mirror property tests below
//! drive in lockstep with the radix queue.

#[cfg(test)]
use std::cmp::Ordering;
#[cfg(test)]
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::time::SimTime;

/// A scheduled entry: fires at `at`; `seq` breaks ties FIFO so simultaneous
/// events process in schedule order (deterministic replay).
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

// Heap ordering for the `HeapQueue` test oracle; the radix queue bins by
// tick and never compares entries.
#[cfg(test)]
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
#[cfg(test)]
impl<E> Eq for Entry<E> {}
#[cfg(test)]
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
#[cfg(test)]
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event queue the engine runs on.
pub type EventQueue<E> = RadixQueue<E>;

/// One bucket per possible position of the highest bit differing from the
/// last popped key (0 = no differing bit), for 64-bit µs tick keys.
const BUCKETS: usize = 65;

/// A deterministic monotone min-queue of timed events: a radix heap over
/// the µs tick clock.
///
/// Entries are binned by the highest bit in which their firing tick
/// differs from the last popped tick (`bucket 0` ⇔ equal ticks). Each
/// bucket is an append-only FIFO deque; a pop finding bucket 0 empty
/// redistributes the lowest non-empty bucket relative to its minimum key.
/// Classic radix-heap bounds apply: every entry is redistributed at most
/// 64 times, so scheduling and popping are O(1) amortized (plus the O(64)
/// bucket scan), independent of queue depth.
///
/// # Determinism contract
///
/// Pop order is exactly ascending `(at, seq)` — bit-identical to
/// `HeapQueue`. The argument: the radix invariant keeps every live entry
/// in bucket `b(key, last)`, a function of the key and the last popped key
/// only, so two entries with equal keys always share a bucket, where FIFO
/// appends keep them in `seq` order; and the lowest non-empty bucket always
/// contains the minimum key, which redistribution sends (in stored order)
/// to bucket 0.
///
/// # Monotonicity
///
/// `schedule` panics if `at` precedes the last popped time. The engine
/// never does this — events are scheduled at `now + Δ` and the clock never
/// runs backwards — and asserting (rather than clamping) keeps a would-be
/// causality violation loud instead of silently reordering replay.
#[derive(Debug, Clone)]
pub struct RadixQueue<E> {
    /// `buckets[b]` holds entries whose key differs from `last` first at
    /// bit `b − 1` (bucket 0: key == `last`), each in FIFO `seq` order.
    buckets: Vec<VecDeque<Entry<E>>>,
    /// The last popped key (µs ticks); all live keys are ≥ this.
    last: u64,
    next_seq: u64,
    len: usize,
    peak: usize,
}

impl<E> RadixQueue<E> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        RadixQueue {
            buckets: (0..BUCKETS).map(|_| VecDeque::new()).collect(),
            last: 0,
            next_seq: 0,
            len: 0,
            peak: 0,
        }
    }

    /// The bucket a key belongs in relative to the current `last`.
    fn bucket_of(&self, key: u64) -> usize {
        let diff = key ^ self.last;
        (64 - diff.leading_zeros()) as usize
    }

    /// Schedules `payload` to fire at `at`. Events scheduled for the same
    /// instant fire in scheduling order.
    ///
    /// # Panics
    ///
    /// Panics when `at` precedes the last popped time (see the type-level
    /// monotonicity contract).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let key = at.as_micros();
        assert!(
            key >= self.last,
            "radix queue requires monotone schedules: {key} µs is before the last pop at {} µs",
            self.last
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let b = self.bucket_of(key);
        self.buckets[b].push_back(Entry { at, seq, payload });
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// The lowest non-empty bucket and the minimum key in it — the
    /// queue's minimum. Caller guarantees `len > 0` and bucket 0 empty.
    fn lowest(&self) -> (usize, u64) {
        let i = (1..BUCKETS)
            .find(|&i| !self.buckets[i].is_empty())
            .expect("non-empty queue with empty bucket 0 has a higher bucket");
        let min = self.buckets[i].iter().map(|e| e.at.as_micros()).min().expect("bucket non-empty");
        (i, min)
    }

    /// Pulls bucket `i` forward: `last` becomes its minimum key `min` and
    /// its entries rebin relative to that (the minimum itself landing in
    /// bucket 0). `(i, min)` comes from [`Self::lowest`].
    fn redistribute(&mut self, i: usize, min: u64) {
        self.last = min;
        let mut moved = std::mem::take(&mut self.buckets[i]);
        for e in moved.drain(..) {
            let b = self.bucket_of(e.at.as_micros());
            debug_assert!(b < i, "redistribution strictly lowers bucket indices");
            self.buckets[b].push_back(e);
        }
        // Hand the (now empty) deque back so its capacity is reused.
        self.buckets[i] = moved;
    }

    fn pop_bucket_zero(&mut self) -> (SimTime, E) {
        let e = self.buckets[0].pop_front().expect("bucket 0 holds the minimum");
        self.len -= 1;
        (e.at, e.payload)
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            let (i, min) = self.lowest();
            self.redistribute(i, min);
        }
        Some(self.pop_bucket_zero())
    }

    /// Removes and returns the earliest event unless it fires after
    /// `deadline` — `peek_time` and `pop` in one scan of the lowest bucket.
    /// A refusal leaves the queue as it was, `last` included, so the
    /// caller may still schedule anywhere from its own clock onwards.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            let (i, min) = self.lowest();
            if min > deadline.as_micros() {
                return None;
            }
            self.redistribute(i, min);
        } else if self.last > deadline.as_micros() {
            // Bucket 0 holds exactly the entries keyed `last`.
            return None;
        }
        Some(self.pop_bucket_zero())
    }

    /// The firing time of the earliest event, if any.
    ///
    /// O(1) while bucket 0 is populated (the common case between
    /// redistributions); otherwise a scan of the lowest non-empty bucket —
    /// work the next `pop` would do anyway.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(e) = self.buckets[0].front() {
            return Some(e.at);
        }
        self.buckets
            .iter()
            .find(|b| !b.is_empty())
            .and_then(|b| b.iter().map(|e| e.at).min())
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The highest number of events ever pending at once — a measure of
    /// simulation memory pressure reported by the perf suite.
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Visits every pending entry as `(fire time, scheduling seq, payload)`.
    /// Iteration order is the bucket layout's internal order — unspecified —
    /// so callers that need a canonical view (the model checker's state
    /// fingerprint) must sort by `(at, seq)` themselves.
    pub fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.buckets.iter().flatten().map(|e| (e.at, e.seq, &e.payload))
    }
}

impl<E> Default for RadixQueue<E> {
    fn default() -> Self {
        RadixQueue::new()
    }
}

/// A deterministic min-heap of timed events — the original `BinaryHeap`
/// implementation, retained verbatim as the property-test oracle for
/// [`RadixQueue`].
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    peak: usize,
}

#[cfg(test)]
impl<E> HeapQueue<E> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new(), next_seq: 0, peak: 0 }
    }

    /// Schedules `payload` to fire at `at`. Events scheduled for the same
    /// instant fire in scheduling order.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        self.peak = self.peak.max(self.heap.len());
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// The firing time of the earliest event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The highest number of events ever pending at once.
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Visits every pending entry as `(fire time, scheduling seq, payload)`.
    /// Iteration order is the heap's internal order — unspecified.
    pub fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.heap.iter().map(|e| (e.at, e.seq, &e.payload))
    }
}

#[cfg(test)]
impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), "c");
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peak_survives_drain() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime::from_micros(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.peak_len(), 5);
        q.schedule(SimTime::from_micros(99), 0);
        assert_eq!(q.peak_len(), 5, "peak is a high-water mark");
    }

    #[test]
    fn empty_queue() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn radix_rejects_schedule_before_last_pop() {
        let mut q = RadixQueue::new();
        q.schedule(SimTime::from_micros(100), ());
        let _ = q.pop();
        q.schedule(SimTime::from_micros(99), ());
    }

    #[test]
    fn radix_entries_cover_all_pending() {
        let mut q = RadixQueue::new();
        for i in [7u64, 3, 3, 1 << 40, 12] {
            q.schedule(SimTime::from_micros(i), i);
        }
        let _ = q.pop(); // force a redistribution so entries span buckets
        let mut seen: Vec<(u64, u64)> = q.entries().map(|(at, _, &p)| (at.as_micros(), p)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(3, 3), (7, 7), (12, 12), (1 << 40, 1 << 40)]);
    }

    /// Drives a [`RadixQueue`] and the [`HeapQueue`] oracle through the
    /// same operation sequence, asserting identical observable behavior at
    /// every step.
    struct Mirror {
        radix: RadixQueue<u64>,
        oracle: HeapQueue<u64>,
        /// Lower bound for new schedules (the radix monotone contract —
        /// exactly what the engine guarantees via its `now` clock).
        floor: u64,
        tag: u64,
    }

    impl Mirror {
        fn new() -> Self {
            Mirror { radix: RadixQueue::new(), oracle: HeapQueue::new(), floor: 0, tag: 0 }
        }

        fn schedule(&mut self, at: u64) {
            assert!(at >= self.floor);
            self.tag += 1;
            self.radix.schedule(SimTime::from_micros(at), self.tag);
            self.oracle.schedule(SimTime::from_micros(at), self.tag);
            assert_eq!(self.radix.len(), self.oracle.len());
            assert_eq!(self.radix.peak_len(), self.oracle.peak_len());
        }

        fn pop(&mut self) {
            assert_eq!(self.radix.peek_time(), self.oracle.peek_time());
            let a = self.radix.pop();
            let b = self.oracle.pop();
            assert_eq!(a, b, "pop order diverged");
            if let Some((at, _)) = a {
                self.floor = at.as_micros();
            }
            assert_eq!(self.radix.len(), self.oracle.len());
        }

        /// `pop_at_or_before` against the oracle's peek-then-pop. A
        /// refusal must not move the radix queue's monotone floor: the
        /// next `schedule(self.floor + Δ)` would trip the assert if it did.
        fn pop_at_or_before(&mut self, deadline: u64) {
            let deadline = SimTime::from_micros(deadline);
            let expected = match self.oracle.peek_time() {
                Some(t) if t <= deadline => self.oracle.pop(),
                _ => None,
            };
            let got = self.radix.pop_at_or_before(deadline);
            assert_eq!(got, expected, "deadline pop diverged");
            if let Some((at, _)) = got {
                self.floor = at.as_micros();
            }
            assert_eq!(self.radix.len(), self.oracle.len());
            assert_eq!(self.radix.peek_time(), self.oracle.peek_time());
        }

        fn drain(&mut self) {
            while !self.oracle.is_empty() {
                self.pop();
            }
            assert!(self.radix.is_empty());
            assert_eq!(self.radix.pop(), None);
        }
    }

    #[test]
    fn radix_matches_oracle_on_same_instant_ties() {
        let mut m = Mirror::new();
        for round in 0..5u64 {
            let t = m.floor + round * 17;
            for _ in 0..50 {
                m.schedule(t);
            }
            for _ in 0..30 {
                m.pop();
            }
        }
        m.drain();
    }

    #[test]
    fn radix_matches_oracle_on_far_future_events() {
        let mut m = Mirror::new();
        // A mix of near ticks and keys with high bits set (decades of
        // simulated time), exercising the top radix buckets.
        for at in [5u64, 1 << 62, 6, u64::MAX / 3, 5, 1 << 40, 7, (1 << 40) + 1] {
            m.schedule(at);
        }
        m.drain();
    }

    #[test]
    fn radix_matches_oracle_on_randomized_interleaving() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Mirror::new();
            for _ in 0..400 {
                if rng.gen_bool(0.6) || m.oracle.is_empty() {
                    // Schedule relative to the monotone floor the way the
                    // engine does (`now + Δ`), with occasional same-instant
                    // bursts and far-future jumps.
                    let delta = match rng.gen_range(0u32..10) {
                        0 => 0,
                        1..=6 => rng.gen_range(0u64..1_000),
                        7 | 8 => rng.gen_range(0u64..10_000_000),
                        _ => rng.gen_range(0u64..(1 << 45)),
                    };
                    let burst = if rng.gen_bool(0.2) { rng.gen_range(2usize..6) } else { 1 };
                    for _ in 0..burst {
                        m.schedule(m.floor + delta);
                    }
                } else if rng.gen_bool(0.5) {
                    m.pop();
                } else {
                    // Deadlines on both sides of the minimum, the floor
                    // itself included.
                    let deadline = m.floor + rng.gen_range(0u64..2_000);
                    m.pop_at_or_before(deadline);
                }
            }
            m.drain();
        }
    }

    #[test]
    fn radix_entries_match_oracle_as_sets() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = Mirror::new();
        for _ in 0..200 {
            if rng.gen_bool(0.7) || m.oracle.is_empty() {
                m.schedule(m.floor + rng.gen_range(0u64..50_000));
            } else {
                m.pop();
            }
        }
        // `entries()` order is unspecified for both; canonicalized by
        // (at, seq) they must agree exactly (the model checker relies on
        // this for fingerprints).
        let canon = |it: Vec<(SimTime, u64, &u64)>| {
            let mut v: Vec<(u64, u64, u64)> =
                it.into_iter().map(|(at, seq, &p)| (at.as_micros(), seq, p)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(canon(m.radix.entries().collect()), canon(m.oracle.entries().collect()));
    }
}
