//! The pending-event queue.
//!
//! Pops come in ascending `(at, seq)` order, where `seq` is the scheduling
//! rank, so simultaneous events process in schedule order (deterministic
//! replay).
//!
//! [`EventQueue`] is the engine's queue: a timing wheel of 1 µs slots for
//! the next [`WINDOW`] ticks, where every message delivery lands, in front
//! of [`RadixQueue`] for everything later (DESIGN.md §6.2).
//!
//! [`RadixQueue`] is a radix heap keyed on the
//! discrete µs tick clock. O(1) amortized per operation against the
//! engine's *monotone* schedule pattern (every event is scheduled at
//! `now + Δ`, never in the past), and cache-friendly — a bucket is a list of
//! 64-entry chunks drawn from one recycled pool, not a pointer-chased heap,
//! and not a ring per bucket that keeps its high-water mark for good.
//!
//! `HeapQueue`, the original `BinaryHeap` implementation, is compiled for
//! tests only, as the differential oracle the mirror property tests below
//! drive in lockstep with the engine's queue.

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

/// One bucket per possible position of the highest bit differing from the
/// last popped key (0 = no differing bit), for 64-bit µs tick keys.
const BUCKETS: usize = 65;

/// Entries per chunk (3 KiB of engine entries): the most room one bucket
/// holds beyond what is in it.
const CHUNK: usize = 64;

const NIL: u32 = u32::MAX; // end of an index-linked list

/// A run of one bucket's entries — or, on the free list, an empty buffer
/// waiting for the next bucket that needs one.
#[derive(Debug)]
struct Chunk<E> {
    /// At most `CHUNK` entries in FIFO order: a ring that is allocated
    /// once and never grows. Empty exactly when the chunk is free.
    items: VecDeque<Entry<E>>,
    /// The next chunk of the same bucket, or of the free list.
    next: u32,
}

impl<E: Clone> Clone for Chunk<E> {
    fn clone(&self) -> Self {
        // A free chunk's buffer is scratch, not state: the copy allocates
        // its own if it ever opens the chunk.
        let mut items = VecDeque::new();
        if !self.items.is_empty() {
            items.reserve_exact(CHUNK);
            items.extend(self.items.iter().cloned());
        }
        Chunk { items, next: self.next }
    }
}

/// A deterministic monotone min-queue of timed events: a radix heap over
/// the µs tick clock.
///
/// Entries are binned by the highest bit in which their firing tick
/// differs from the last popped tick (`bucket 0` ⇔ equal ticks). Each
/// bucket is an append-only FIFO; a pop finding bucket 0 empty
/// redistributes the lowest non-empty bucket relative to its minimum key.
/// Classic radix-heap bounds apply: every entry is redistributed at most
/// 64 times, so scheduling and popping are O(1) amortized, independent of
/// queue depth. Which bucket that is, and its minimum, are kept as entries
/// arrive (a word of non-empty bits, a least key per bucket — exact,
/// because a bucket above 0 only ever loses all its entries at once), so
/// finding the queue's minimum reads two words and scans nothing.
///
/// # Storage
///
/// A bucket is a linked list of 64-entry chunks, and all 65 draw them from —
/// and return them to — one arena with a LIFO free list. Whenever `last`
/// is about to cross an odd multiple of 2^k, everything due in the next
/// 2^k µs sits in bucket k + 1, so a growable ring per bucket would leave
/// each high bucket holding room for most of the population for good
/// (DESIGN.md §6.2); here redistribution frees each
/// chunk as it drains it, the destination buckets take it straight back,
/// and the slots linked into buckets never exceed `len + 65·CHUNK`: a
/// non-empty bucket wastes less than one chunk at its tail, and bucket 0,
/// the only one popped from, less than one more at its head (66 × 63
/// slots in all).
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
    /// Every chunk ever allocated, linked into a bucket or the free list.
    chunks: Vec<Chunk<E>>,
    /// Head of the LIFO list of free chunks.
    free: u32,
    /// `ends[b]` is bucket `b`'s first and last chunk (`NIL` when empty).
    /// The bucket holds the entries whose key differs from `last` first at
    /// bit `b − 1` (bucket 0: key == `last`), in FIFO `seq` order.
    ends: [(u32, u32); BUCKETS],
    /// Bit `b − 1` set ⇔ bucket `b` ≥ 1 holds an entry.
    nonempty: u64,
    /// `mins[b]` is the least key in bucket `b`; `u64::MAX` when empty.
    mins: [u64; BUCKETS],
    /// The last popped key (µs ticks); all live keys are ≥ this.
    last: u64,
    next_seq: u64,
    len: usize,
}

impl<E> RadixQueue<E> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        RadixQueue {
            chunks: Vec::new(),
            free: NIL,
            ends: [(NIL, NIL); BUCKETS],
            nonempty: 0,
            mins: [u64::MAX; BUCKETS],
            last: 0,
            next_seq: 0,
            len: 0,
        }
    }

    /// The bucket a key belongs in relative to the current `last`.
    fn bucket_of(&self, key: u64) -> usize {
        let diff = key ^ self.last;
        (64 - diff.leading_zeros()) as usize
    }

    /// Bucket `b`'s bit in `nonempty`; bucket 0 has none.
    fn bit(b: usize) -> u64 {
        if b == 0 { 0 } else { 1 << (b - 1) }
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
        self.push(Entry { at, seq, payload });
    }

    /// Files an entry that already carries its scheduling rank.
    fn push(&mut self, e: Entry<E>) {
        self.file(e);
        self.len += 1;
    }

    /// Appends an entry to the bucket its key selects.
    fn file(&mut self, e: Entry<E>) {
        let key = e.at.as_micros();
        let b = self.bucket_of(key);
        self.mins[b] = self.mins[b].min(key);
        let tail = self.ends[b].1;
        // `NIL` indexes no chunk, so one lookup covers the empty bucket too.
        match self.chunks.get_mut(tail as usize) {
            Some(chunk) if chunk.items.len() < CHUNK => chunk.items.push_back(e),
            _ => self.file_in_new_chunk(b, e),
        }
    }

    /// [`Self::file`] when bucket `b` is empty or its last chunk is full:
    /// the entry opens a chunk, the last one freed if there is one. Out of
    /// line even though a sparse queue takes it often: inlined, the
    /// redistribution loop measured 4–9 % slower.
    #[cold]
    fn file_in_new_chunk(&mut self, b: usize, e: Entry<E>) {
        if self.free == NIL {
            self.chunks.push(Chunk { items: VecDeque::new(), next: NIL });
            self.free = self.chunks.len() as u32 - 1;
        }
        let c = self.free;
        let chunk = &mut self.chunks[c as usize];
        self.free = std::mem::replace(&mut chunk.next, NIL);
        chunk.items.reserve_exact(CHUNK); // a new chunk's, or a clone's, first use
        chunk.items.push_back(e);
        let tail = std::mem::replace(&mut self.ends[b].1, c);
        if tail == NIL {
            self.ends[b].0 = c;
            self.nonempty |= Self::bit(b);
        } else {
            self.chunks[tail as usize].next = c;
        }
    }

    /// Unlinks bucket `b`'s first chunk, which the caller has emptied, and
    /// puts it on the free list.
    fn release_head(&mut self, b: usize) {
        let c = self.ends[b].0;
        debug_assert!(self.chunks[c as usize].items.is_empty());
        let next = std::mem::replace(&mut self.chunks[c as usize].next, self.free);
        self.free = c;
        if next == NIL {
            self.ends[b] = (NIL, NIL);
            self.nonempty &= !Self::bit(b);
            self.mins[b] = u64::MAX;
        } else {
            self.ends[b].0 = next;
        }
    }

    /// The lowest non-empty bucket and the minimum key in it — the
    /// queue's minimum. Caller guarantees `len > 0` and bucket 0 empty.
    fn lowest(&self) -> (usize, u64) {
        debug_assert!(self.nonempty != 0, "non-empty queue with empty bucket 0 has a higher bucket");
        let i = self.nonempty.trailing_zeros() as usize + 1;
        (i, self.mins[i])
    }

    /// Pulls bucket `i` forward: `last` becomes its minimum key `min` and
    /// its entries rebin relative to that (the minimum itself landing in
    /// bucket 0). `(i, min)` comes from [`Self::lowest`].
    fn redistribute(&mut self, i: usize, min: u64) {
        self.last = min;
        while self.ends[i].0 != NIL {
            // One chunk at a time, freed before the next is touched, so
            // the buckets it drains into reuse it.
            let c = self.ends[i].0 as usize;
            let mut items = std::mem::take(&mut self.chunks[c].items);
            while let Some(e) = items.pop_front() {
                debug_assert!(self.bucket_of(e.at.as_micros()) < i, "redistribution strictly lowers bucket indices");
                self.file(e);
            }
            self.chunks[c].items = items;
            self.release_head(i);
        }
    }

    /// Removes the earliest entry unless its key exceeds `deadline`; a
    /// refusal reports the minimum key (`None` when empty) and leaves the
    /// queue as it was, `last` included.
    fn pop_entry(&mut self, deadline: u64) -> Result<Entry<E>, Option<u64>> {
        if self.len == 0 {
            return Err(None);
        }
        if self.ends[0].0 == NIL {
            let (i, min) = self.lowest();
            if min > deadline {
                return Err(Some(min));
            }
            self.redistribute(i, min);
        } else if self.last > deadline {
            // Bucket 0 holds exactly the entries keyed `last`.
            return Err(Some(self.last));
        }
        self.len -= 1;
        let items = &mut self.chunks[self.ends[0].0 as usize].items;
        let e = items.pop_front().expect("bucket 0 holds the minimum");
        if items.is_empty() {
            self.release_head(0);
        }
        Ok(e)
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry(u64::MAX).ok().map(|e| (e.at, e.payload))
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

    /// Visits every pending entry as `(fire time, scheduling seq, payload)`.
    /// Iteration order is the arena's internal order — unspecified —
    /// so callers that need a canonical view (the model checker's state
    /// fingerprint) must sort by `(at, seq)` themselves.
    pub fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.chunks.iter().flat_map(|c| &c.items).map(|e| (e.at, e.seq, &e.payload))
    }
}

impl<E> Default for RadixQueue<E> {
    fn default() -> Self {
        RadixQueue::new()
    }
}

/// Ticks the near tier covers: `[last, last + WINDOW)`. A delivery fires
/// `BASE_LATENCY + 3 µs·⌊d⌋ + jitter` ≈ 2.0–3.6 ms after its send, so
/// 4096 is the smallest power of two that takes them all, and the one
/// that keeps what an engine fork copies at 16.5 KiB (DESIGN.md §6.2).
pub const WINDOW: u64 = 4096;
const SLOTS: usize = WINDOW as usize;
const MASK: u64 = WINDOW - 1;

/// One slab element: a queued entry linked into its slot's circular list,
/// or a vacant element linked into the free list.
#[derive(Debug, Clone)]
struct Link<E> {
    entry: Option<Entry<E>>,
    next: u32,
}

/// The event queue the engine runs on: a timing wheel of 1 µs slots (the
/// *near* tier, ticks `[last, last + WINDOW)`), each a FIFO list threaded
/// through one index slab, in front of a [`RadixQueue`] (the *far* tier).
///
/// Pop order is exactly ascending `(at, seq)`, as for [`RadixQueue`]: a
/// window tick maps to one slot, and a slot's list is in `seq` order,
/// because whenever a pop advances `last` the far entries whose tick
/// entered the window move to their slots, in the heap's order, before a
/// direct insert for such a tick can happen.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Per slot, the element at the tail of its circular list (whose
    /// `next` is the head); meaningful only where `occupied` says so.
    tails: Vec<u32>,
    /// Bit `s` set ⇔ slot `s` holds an entry.
    occupied: [u64; SLOTS / 64],
    /// Bit `w` set ⇔ `occupied[w] != 0`.
    summary: u64,
    /// The least key in the wheel, meaningful only while `summary != 0`:
    /// `link` lowers it, and a pop that empties its slot scans the bitmap
    /// for the next one — the only scan, so a pop, a refused pop, a
    /// [`Self::peek`] and a [`Self::peek_time`] each read it in O(1).
    near_min: u64,
    links: Vec<Link<E>>,
    /// Head of the LIFO list of vacant elements.
    free: u32,
    far: RadixQueue<E>,
    /// The far tier's minimum key (`u64::MAX` when empty), ≥ `last + WINDOW`.
    far_min: u64,
    /// The last popped key (µs ticks); all live keys are ≥ this.
    last: u64,
    next_seq: u64,
    len: usize,
    peak: usize,
}

impl<E> EventQueue<E> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            tails: vec![NIL; SLOTS],
            occupied: [0; SLOTS / 64],
            summary: 0,
            near_min: u64::MAX,
            links: Vec::new(),
            free: NIL,
            far: RadixQueue::new(),
            far_min: u64::MAX,
            last: 0,
            next_seq: 0,
            len: 0,
            peak: 0,
        }
    }

    /// Schedules `payload` to fire at `at`. Events scheduled for the same
    /// instant fire in scheduling order. Panics when `at` precedes the last
    /// popped time, like [`RadixQueue::schedule`].
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let key = at.as_micros();
        assert!(key >= self.last, "monotone schedules only: {key} µs precedes the last pop at {} µs", self.last);
        let e = Entry { at, seq: self.next_seq, payload };
        self.next_seq += 1;
        if key - self.last < WINDOW {
            self.link(e);
        } else {
            self.far_min = self.far_min.min(key);
            self.far.push(e);
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Appends an entry inside the window to its slot's list.
    fn link(&mut self, e: Entry<E>) {
        let key = e.at.as_micros();
        let slot = (key & MASK) as usize;
        if self.free == NIL {
            self.links.push(Link { entry: None, next: NIL });
            self.free = self.links.len() as u32 - 1;
        }
        let i = self.free as usize;
        self.free = self.links[i].next;
        self.links[i].entry = Some(e);
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.occupied[w] & bit == 0 {
            // An empty wheel's `near_min` is stale, not an upper bound.
            self.near_min = if self.summary == 0 { key } else { self.near_min.min(key) };
            self.occupied[w] |= bit;
            self.summary |= 1 << w;
            self.links[i].next = i as u32;
        } else {
            let tail = self.tails[slot] as usize;
            self.links[i].next = std::mem::replace(&mut self.links[tail].next, i as u32);
        }
        self.tails[slot] = i as u32;
    }

    /// Moves every far entry inside the window to its slot, in the heap's
    /// `(at, seq)` order.
    fn migrate(&mut self) {
        let horizon = self.last.saturating_add(MASK);
        loop {
            match self.far.pop_entry(horizon) {
                Ok(e) => self.link(e),
                Err(min) => return self.far_min = min.unwrap_or(u64::MAX),
            }
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Removes and returns the earliest event unless it fires after
    /// `deadline`. A refusal leaves the queue as it was, `last` included, so
    /// the caller may still schedule anywhere from its own clock onwards.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let key = self.peek_time().filter(|&at| at <= deadline)?.as_micros();
        if key != self.last {
            self.last = key;
            if self.far_min - key < WINDOW {
                self.migrate();
            }
        }
        let slot = (key & MASK) as usize;
        let tail = self.tails[slot] as usize;
        let head = self.links[tail].next as usize;
        if head == tail {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            if self.occupied[slot / 64] == 0 {
                self.summary &= !(1 << (slot / 64));
            }
            self.near_min = self.scan();
        } else {
            self.links[tail].next = self.links[head].next;
        }
        let e = self.links[head].entry.take().expect("an occupied slot's head holds an entry");
        self.links[head].next = std::mem::replace(&mut self.free, head as u32);
        self.len -= 1;
        Some((e.at, e.payload))
    }

    /// The key of the first occupied slot at or after `last`'s, wrapping
    /// round the wheel; `u64::MAX` when the wheel is empty.
    fn scan(&self) -> u64 {
        let at = (self.last & MASK) as usize;
        let (w, rest) = (at / 64, self.occupied[at / 64] & (!0 << (at % 64)));
        let slot = if rest != 0 {
            w * 64 + rest.trailing_zeros() as usize
        } else if self.summary != 0 {
            // Later words first, then the wrap — which can end in word `w`'s
            // bits below `last`'s.
            let later = self.summary & (!0 << w << 1);
            let w = (if later != 0 { later } else { self.summary }).trailing_zeros() as usize;
            w * 64 + self.occupied[w].trailing_zeros() as usize
        } else {
            return u64::MAX;
        };
        self.last + ((slot as u64).wrapping_sub(self.last) & MASK)
    }

    /// The firing time of the earliest event, if any: the wheel's least
    /// key, else the far tier's minimum. O(1), no scan.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.summary != 0 {
            Some(SimTime::from_micros(self.near_min))
        } else {
            (!self.far.is_empty()).then_some(SimTime::from_micros(self.far_min))
        }
    }

    /// The entry the next pop returns, while it sits in the wheel: `None`
    /// when the queue is empty or its earliest entry is still in the far
    /// tier. O(1) — the head of the slot `near_min` names — so the engine
    /// can look one event ahead after every pop (DESIGN.md §6.2).
    #[must_use]
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        if self.summary == 0 {
            return None;
        }
        let tail = self.tails[(self.near_min & MASK) as usize] as usize;
        let e = self.links[self.links[tail].next as usize].entry.as_ref()?;
        Some((e.at, &e.payload))
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

    /// Visits every pending entry as `(fire time, scheduling seq, payload)`
    /// in unspecified order: callers that need a canonical view (the model
    /// checker's state fingerprint) sort by `(at, seq)` themselves.
    pub fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        let near = self.links.iter().filter_map(|l| l.entry.as_ref());
        near.map(|e| (e.at, e.seq, &e.payload)).chain(self.far.entries())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
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

    /// The earliest event, if any, without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.at, &e.payload))
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
        assert_eq!(q.peek(), Some((SimTime::from_micros(7), &())));
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
    fn rejects_schedule_before_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), ());
        let _ = q.pop();
        q.schedule(SimTime::from_micros(99), ());
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

    /// The far tier's storage bound: the slots of the chunks linked into
    /// buckets (a free chunk is empty, a linked one never is) exceed what
    /// is pending by less than a chunk per bucket.
    fn assert_reserved_bound<E>(far: &RadixQueue<E>) {
        let linked = far.chunks.iter().filter(|c| !c.items.is_empty());
        let reserved: usize = linked.map(|c| c.items.capacity()).sum();
        assert!(reserved <= far.len + BUCKETS * CHUNK, "{reserved} slots reserved for {} entries", far.len);
    }

    /// The position of `last`'s highest set bit: it moves exactly when
    /// `last` crosses a 2^k boundary, the pop that finds every pending
    /// entry in one high bucket.
    fn top_bit<E>(far: &RadixQueue<E>) -> u32 {
        64 - far.last.leading_zeros()
    }

    /// Drives an [`EventQueue`] and the [`HeapQueue`] oracle through the
    /// same operation sequence, asserting identical observable behavior at
    /// every step.
    #[derive(Clone)]
    struct Mirror {
        queue: EventQueue<u64>,
        oracle: HeapQueue<u64>,
        /// Lower bound for new schedules (the monotone contract — exactly
        /// what the engine guarantees via its `now` clock).
        floor: u64,
        tag: u64,
        /// Wheel peeks checked right after a refused deadline pop, and
        /// right after a pop that moved far entries into the wheel.
        peeks_after_refusal: u32,
        peeks_after_migration: u32,
    }

    impl Mirror {
        fn new() -> Self {
            Mirror {
                queue: EventQueue::new(),
                oracle: HeapQueue::new(),
                floor: 0,
                tag: 0,
                peeks_after_refusal: 0,
                peeks_after_migration: 0,
            }
        }

        /// `peek` names exactly the entry the next pop returns, and may
        /// decline only while that entry is still in the far tier (the
        /// wheel is empty). Returns whether it named one.
        fn assert_peek(&self) -> bool {
            assert_eq!(self.queue.peek_time(), self.oracle.peek_time());
            match self.queue.peek() {
                Some(got) => assert_eq!(Some(got), self.oracle.peek(), "peek diverged from the next pop"),
                None => assert!(near(self) == 0, "peek declined with {} entries in the wheel", near(self)),
            }
            self.queue.peek().is_some()
        }

        fn schedule(&mut self, at: u64) {
            assert!(at >= self.floor);
            self.tag += 1;
            self.queue.schedule(SimTime::from_micros(at), self.tag);
            self.oracle.schedule(SimTime::from_micros(at), self.tag);
            assert_eq!(self.queue.len(), self.oracle.len());
            assert_eq!(self.queue.peak_len(), self.oracle.peak_len());
            assert_reserved_bound(&self.queue.far);
            self.assert_peek();
        }

        fn pop(&mut self) {
            self.assert_peek();
            let far = self.queue.far.len();
            let a = self.queue.pop();
            let b = self.oracle.pop();
            assert_eq!(a, b, "pop order diverged");
            if let Some((at, _)) = a {
                self.floor = at.as_micros();
            }
            assert_eq!(self.queue.len(), self.oracle.len());
            assert_reserved_bound(&self.queue.far);
            let migrated = self.queue.far.len() < far;
            self.peeks_after_migration += u32::from(self.assert_peek() && migrated);
        }

        /// `pop_at_or_before` against the oracle's peek-then-pop. A
        /// refusal must not move the queue's monotone floor: the next
        /// `schedule(self.floor + Δ)` would trip the assert if it did.
        fn pop_at_or_before(&mut self, deadline: u64) {
            let deadline = SimTime::from_micros(deadline);
            let expected = match self.oracle.peek_time() {
                Some(t) if t <= deadline => self.oracle.pop(),
                _ => None,
            };
            let got = self.queue.pop_at_or_before(deadline);
            assert_eq!(got, expected, "deadline pop diverged");
            if let Some((at, _)) = got {
                self.floor = at.as_micros();
            }
            assert_eq!(self.queue.len(), self.oracle.len());
            assert_reserved_bound(&self.queue.far);
            self.peeks_after_refusal += u32::from(self.assert_peek() && got.is_none());
        }

        /// `entries()` order is unspecified for both; canonicalized by
        /// (at, seq) they must agree exactly (the model checker relies on
        /// this for fingerprints).
        fn assert_same_entries(&self) {
            let canon = |it: Vec<(SimTime, u64, &u64)>| {
                let mut v: Vec<(u64, u64, u64)> =
                    it.into_iter().map(|(at, seq, &p)| (at.as_micros(), seq, p)).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(canon(self.queue.entries().collect()), canon(self.oracle.entries().collect()));
        }

        fn drain(&mut self) {
            while !self.oracle.is_empty() {
                self.pop();
            }
            assert_eq!(self.queue.len(), 0);
            assert_eq!(self.queue.pop(), None);
        }

        /// A seeded interleaving of schedules, pops and deadline pops.
        /// Schedules are relative to the monotone floor the way the
        /// engine's are (`now + Δ`): same-instant bursts, the delivery
        /// band, both sides of the window edge, timers, far-future jumps.
        fn randomized(seed: u64, ops: usize) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Self::new();
            for _ in 0..ops {
                if rng.gen_bool(0.6) || m.oracle.is_empty() {
                    let delta = match rng.gen_range(0u32..12) {
                        0 => 0,
                        1..=3 => rng.gen_range(0u64..1_000),
                        4..=6 => rng.gen_range(2_000u64..3_600),
                        7 => rng.gen_range(WINDOW - 2..WINDOW + 2),
                        8 | 9 => rng.gen_range(0u64..10_000_000),
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
            m
        }
    }

    #[test]
    fn matches_oracle_on_same_instant_ties() {
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
    fn matches_oracle_on_far_future_events() {
        let mut m = Mirror::new();
        // A mix of near ticks and keys with high bits set (decades of
        // simulated time), exercising the top radix buckets.
        for at in [5u64, 1 << 62, 6, u64::MAX / 3, 5, 1 << 40, 7, (1 << 40) + 1, u64::MAX] {
            m.schedule(at);
        }
        m.drain();
    }

    #[test]
    fn matches_oracle_on_randomized_interleaving() {
        let (mut after_refusal, mut after_migration) = (0, 0);
        for seed in 0..20u64 {
            let mut m = Mirror::randomized(seed, 400);
            m.drain();
            after_refusal += m.peeks_after_refusal;
            after_migration += m.peeks_after_migration;
        }
        // Every step checks `peek`; these two are where a cached next key
        // could go stale, so the interleaving must actually reach them.
        assert!(after_refusal >= 20 && after_migration >= 20, "{after_refusal} / {after_migration}");
    }

    /// How many of the composed queue's entries sit in the wheel.
    fn near(m: &Mirror) -> usize {
        m.queue.len() - m.queue.far.len()
    }

    #[test]
    fn entries_match_oracle_as_sets_after_migrations() {
        let mut m = Mirror::randomized(11, 300);
        assert!(near(&m) > 0 && !m.queue.far.is_empty(), "both tiers populated");
        m.assert_same_entries();
        // Walk far enough that timers have migrated into the wheel, and
        // that the far tier has rebinned everything it holds.
        let top = top_bit(&m.queue.far);
        for _ in 0..m.oracle.len() / 2 {
            m.pop();
            m.assert_same_entries();
        }
        assert!(top_bit(&m.queue.far) > top && !m.queue.far.is_empty(), "crossed a 2^k boundary");
    }

    #[test]
    fn far_tier_reserves_what_is_pending() {
        let (n, keep) = if cfg!(miri) { (2_000, 20) } else { (100_000, 1_000) };
        let mut rng = StdRng::seed_from_u64(24);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_micros(rng.gen_range(1_000_000u64..30_000_000)), i);
        }
        assert_eq!(q.far.len(), n);
        let (mut top, mut crossings) = (top_bit(&q.far), 0);
        while q.len() > keep {
            q.pop();
            assert_reserved_bound(&q.far);
            crossings += u32::from(top_bit(&q.far) > top);
            top = top_bit(&q.far);
        }
        assert!(crossings >= 3, "timers 1–30 s out span 2^20 … 2^24 µs");
    }

    #[test]
    fn window_edge_keys_land_in_their_tiers() {
        let mut m = Mirror::new();
        m.schedule(WINDOW - 1);
        m.schedule(WINDOW);
        assert_eq!((near(&m), m.queue.far.len()), (1, 1));
        // The same two offsets from a non-zero `last` that is not a
        // multiple of the wheel size, so the slots wrap.
        m.schedule(1_000);
        m.pop();
        m.schedule(1_000 + WINDOW - 1);
        m.schedule(1_000 + WINDOW);
        assert_eq!((near(&m), m.queue.far.len()), (3, 1), "tick 4096 migrated at the pop");
        m.drain();
    }

    #[test]
    fn one_tick_fed_from_both_tiers_pops_far_entries_first() {
        let mut m = Mirror::new();
        let t = 2 * WINDOW - 5;
        m.schedule(t);
        m.schedule(t);
        m.schedule(WINDOW);
        assert_eq!(m.queue.far.len(), 3);
        m.schedule(10);
        m.pop();
        m.pop(); // `last` = WINDOW: the window now reaches past `t`
        assert_eq!(m.queue.far.len(), 0);
        m.schedule(t);
        m.schedule(t - 1);
        m.schedule(t);
        m.drain(); // tags 1, 2 before 5, 7 at `t`, checked against the oracle
    }

    #[test]
    fn refused_deadline_pop_leaves_both_tiers_and_the_floor_alone() {
        let mut m = Mirror::new();
        m.schedule(50);
        m.pop();
        m.schedule(2_500);
        m.schedule(60_000);
        let before = format!("{:?}", m.queue);
        m.pop_at_or_before(2_499);
        assert_eq!(format!("{:?}", m.queue), before);
        m.pop_at_or_before(2_500);
        // Only the far tier holds anything now, and a refusal there must
        // not pull `last` (or the heap's own) up to tick 60 000.
        let before = format!("{:?}", m.queue);
        m.pop_at_or_before(59_999);
        assert_eq!(format!("{:?}", m.queue), before);
        m.schedule(m.floor);
        m.schedule(m.floor + WINDOW);
        m.drain();
    }

    #[test]
    fn idle_jump_far_beyond_the_window_with_only_far_entries() {
        let mut m = Mirror::new();
        let base = 1_000 * WINDOW + 123;
        for delta in [0, 0, 1, WINDOW - 1, WINDOW, 5 * WINDOW, 5 * WINDOW] {
            m.schedule(base + delta);
        }
        assert_eq!(near(&m), 0);
        m.pop();
        assert_eq!((near(&m), m.queue.far.len()), (3, 3), "one jump fills the window");
        m.drain();
    }

    #[test]
    fn clone_mid_run_pops_in_lock_step() {
        let mut a = Mirror::randomized(5, 300);
        let far = &a.queue.far;
        let partly = |&(_, tail): &(u32, u32)| tail != NIL && far.chunks[tail as usize].items.len() < CHUNK;
        assert!(far.ends.iter().filter(|e| partly(e)).count() >= 3, "partly filled chunks in three buckets");
        assert!(far.free != NIL, "a chunk on the free list");
        let mut b = a.clone();
        assert_eq!(b.queue.far.chunks[far.free as usize].items.capacity(), 0, "free chunks are not copied");
        a.schedule(a.floor + 3); // the copies share nothing
        b.schedule(b.floor + 3);
        while let Some(ev) = a.queue.pop() {
            assert_eq!(Some(ev), b.queue.pop());
            assert_eq!(Some(ev), a.oracle.pop());
        }
        assert_eq!(b.queue.pop(), None);
    }
}
