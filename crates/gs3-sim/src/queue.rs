//! The pending-event queue.
//!
//! Pops come in ascending `(at, seq)` order, where `seq` is the scheduling
//! rank, so simultaneous events process in schedule order (deterministic
//! replay).
//!
//! [`EventQueue`] is the engine's queue: a timing wheel of 1 µs slots for
//! the next 3.6–4 ms, where every message delivery lands, then wheels of
//! 512 µs and 32.8 ms slots for the next 16.8 s, where the timers land,
//! in front of a radix heap for everything later (DESIGN.md §6.2).
//!
//! [`RadixQueue`] is that radix heap on its own, keyed on the
//! discrete µs tick clock. O(1) amortized per operation against the
//! engine's *monotone* schedule pattern (every event is scheduled at
//! `now + Δ`, never in the past), and cache-friendly — a bucket is a list of
//! 8-entry bundles drawn from one recycled pool, not a pointer-chased heap,
//! and not a ring per bucket that keeps its high-water mark for good.
//!
//! Every list of entries but a near-wheel slot's — a coarse-wheel slot, a
//! radix bucket — is a list of bundles in a queue's one pool.
//!
//! `HeapQueue`, the original `BinaryHeap` implementation, is compiled for
//! tests only, as the differential oracle the mirror property tests below
//! drive in lockstep with the engine's queue.

#[cfg(test)]
use std::cmp::Ordering;
#[cfg(test)]
use std::collections::BinaryHeap;

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

const NIL: u32 = u32::MAX; // end of an index-linked list

/// Entries per bundle (384 B of engine entries): the most room one list
/// holds beyond what is in it, at each end.
const BUNDLE: usize = 8;

/// A run of up to `BUNDLE` consecutive cells of the [`Pool`], linked into
/// one list in FIFO order — or, on the spare list, empty and waiting for
/// the next list that needs one.
#[derive(Debug, Clone, Copy)]
struct Bundle {
    /// How many of the bundle's cells hold entries, from its first.
    fill: u32,
    next: u32,
}

/// What every list of entries but a near-wheel slot's is made of: bundle
/// `b` owns cells `b·BUNDLE .. (b + 1)·BUNDLE`, filled from the first. One
/// allocation, not one per bundle.
#[derive(Debug, Clone)]
struct Pool<E> {
    cells: Vec<Option<Entry<E>>>,
    bundles: Vec<Bundle>,
    /// Head of the LIFO list of spare bundles.
    spare: u32,
}

impl<E> Pool<E> {
    fn new() -> Self {
        Pool { cells: Vec::new(), bundles: Vec::new(), spare: NIL }
    }

    /// Appends `e` to the list whose last bundle is `tail` (`NIL`: a new
    /// list); returns the bundle it opened when that one was full or absent.
    fn append(&mut self, tail: u32, e: Entry<E>) -> Option<u32> {
        if let Some(b) = self.bundles.get_mut(tail as usize).filter(|b| (b.fill as usize) < BUNDLE) {
            self.cells[tail as usize * BUNDLE + b.fill as usize] = Some(e);
            b.fill += 1;
            return None;
        }
        if self.spare == NIL {
            self.bundles.push(Bundle { fill: 0, next: NIL });
            self.cells.extend(std::iter::repeat_with(|| None).take(BUNDLE));
            self.spare = self.bundles.len() as u32 - 1;
        }
        let b = self.spare;
        self.spare = self.bundles[b as usize].next;
        self.cells[b as usize * BUNDLE] = Some(e);
        self.bundles[b as usize].fill = 1;
        Some(b)
    }

    /// Empties `list`, which has not been read from and which nothing links
    /// any more, handing its entries in order to `file`; each bundle goes
    /// back to the spare list once it has been read, so the lists `file`
    /// appends to take it straight back. The one routine that empties a
    /// list whole: a redistribution's bucket and a coarse slot.
    fn drain(&mut self, list: List, mut file: impl FnMut(&mut Self, Entry<E>)) {
        debug_assert_eq!(list.read, 0, "a drained list is whole");
        let mut b = list.head;
        while b != NIL {
            let Bundle { fill, next } = self.bundles[b as usize];
            let first = b as usize * BUNDLE;
            for cell in first..first + fill as usize {
                let e = self.cells[cell].take().expect("a bundle's filled cells hold entries");
                file(self, e);
            }
            self.bundles[b as usize] = Bundle { fill: 0, next: self.spare };
            self.spare = b;
            b = if b == list.tail { NIL } else { next };
        }
    }
}

/// A FIFO list of bundles: a radix bucket, or a coarse slot's list once
/// the slot has let go of it. Its first and last bundle (`NIL` when
/// empty), and how many of the first one's cells have been read (only
/// bucket 0 is read from the front).
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    read: u32,
}

impl List {
    const EMPTY: List = List { head: NIL, tail: NIL, read: 0 };

    /// Takes the first entry, `None` when the list is empty, and puts its
    /// bundle on the spare list once that bundle has been read: how a pop
    /// reads bucket 0, which may be appended to between pops.
    fn pop<E>(&mut self, pool: &mut Pool<E>) -> Option<Entry<E>> {
        let b = self.head;
        let Bundle { fill, next } = *pool.bundles.get(b as usize)?;
        let cell = b as usize * BUNDLE + self.read as usize;
        let e = pool.cells[cell].take().expect("a bundle's filled cells hold entries");
        self.read += 1;
        if self.read == fill {
            pool.bundles[b as usize] = Bundle { fill: 0, next: pool.spare };
            pool.spare = b;
            *self = if b == self.tail { List::EMPTY } else { List { head: next, read: 0, ..*self } };
        }
        Some(e)
    }
}

/// One bucket per possible position of the highest bit differing from the
/// last popped key (0 = no differing bit), for 64-bit µs tick keys.
const BUCKETS: usize = 65;

/// A radix heap's buckets and keys, over bundles of a [`Pool`] that its
/// owner hands in: a [`RadixQueue`]'s own, or the one an [`EventQueue`]'s
/// coarse wheels and heap share. The algorithm and its contracts are
/// [`RadixQueue`]'s.
#[derive(Debug, Clone)]
struct Radix {
    /// Bucket `b` holds the entries whose key differs from `last` first
    /// at bit `b − 1` (bucket 0: key == `last`), in FIFO `seq` order.
    buckets: [List; BUCKETS],
    /// Bit `b − 1` set ⇔ bucket `b` ≥ 1 holds an entry.
    nonempty: u64,
    /// `mins[b]` is the least key in bucket `b` ≥ 1, `u64::MAX` when it is
    /// empty; bucket 0's is `last`.
    mins: [u64; BUCKETS],
    /// The last popped key (µs ticks); all live keys are ≥ this.
    last: u64,
    len: usize,
}

impl Radix {
    fn new() -> Self {
        Radix { buckets: [List::EMPTY; BUCKETS], nonempty: 0, mins: [u64::MAX; BUCKETS], last: 0, len: 0 }
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

    /// Files an entry that already carries its scheduling rank.
    fn push<E>(&mut self, pool: &mut Pool<E>, e: Entry<E>) {
        self.file(pool, e);
        self.len += 1;
    }

    /// Appends an entry to the bucket its key selects.
    fn file<E>(&mut self, pool: &mut Pool<E>, e: Entry<E>) {
        let key = e.at.as_micros();
        let b = self.bucket_of(key);
        self.mins[b] = self.mins[b].min(key);
        let list = &mut self.buckets[b];
        if let Some(opened) = pool.append(list.tail, e) {
            if list.tail == NIL {
                list.head = opened;
                self.nonempty |= Self::bit(b);
            } else {
                pool.bundles[list.tail as usize].next = opened;
            }
            list.tail = opened;
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
    fn redistribute<E>(&mut self, pool: &mut Pool<E>, i: usize, min: u64) {
        self.last = min;
        let list = std::mem::replace(&mut self.buckets[i], List::EMPTY);
        self.nonempty &= !Self::bit(i);
        self.mins[i] = u64::MAX;
        pool.drain(list, |pool, e| {
            debug_assert!(self.bucket_of(e.at.as_micros()) < i, "redistribution strictly lowers bucket indices");
            self.file(pool, e);
        });
    }

    /// Removes the earliest entry unless its key exceeds `deadline`; a
    /// refusal reports the minimum key (`None` when empty) and leaves the
    /// queue as it was, `last` included.
    fn pop_entry<E>(&mut self, pool: &mut Pool<E>, deadline: u64) -> Result<Entry<E>, Option<u64>> {
        if self.len == 0 {
            return Err(None);
        }
        if self.buckets[0].head == NIL {
            let (i, min) = self.lowest();
            if min > deadline {
                return Err(Some(min));
            }
            self.redistribute(pool, i, min);
        } else if self.last > deadline {
            // Bucket 0 holds exactly the entries keyed `last`.
            return Err(Some(self.last));
        }
        self.len -= 1;
        Ok(self.buckets[0].pop(pool).expect("bucket 0 holds the minimum"))
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
/// A bucket is a FIFO list of bundles of `BUNDLE` = 8 consecutive cells,
/// and all 65 draw them from — and return them to — one pool with a LIFO
/// spare list: the store an [`EventQueue`] shares between its coarse
/// wheels and its own radix heap. Whenever `last` is about to cross an
/// odd multiple of 2^k, everything due in the next 2^k µs sits in bucket
/// k + 1, so a growable ring per bucket would leave each high bucket
/// holding room for most of the population for good (DESIGN.md §6.2);
/// here redistribution frees each bundle as it drains it, the destination
/// buckets take it straight back, and the cells of the bundles linked into
/// buckets never exceed `len + (occupied buckets + 1)·BUNDLE`: a non-empty
/// bucket wastes less than one bundle at its tail, and bucket 0, the only
/// one popped from, less than one more at its head.
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
    heap: Radix,
    pool: Pool<E>,
    next_seq: u64,
}

impl<E> RadixQueue<E> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        RadixQueue { heap: Radix::new(), pool: Pool::new(), next_seq: 0 }
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
            key >= self.heap.last,
            "radix queue requires monotone schedules: {key} µs is before the last pop at {} µs",
            self.heap.last
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(&mut self.pool, Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop_entry(&mut self.pool, u64::MAX).ok().map(|e| (e.at, e.payload))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.len == 0
    }

    /// Visits every pending entry as `(fire time, scheduling seq, payload)`.
    /// Iteration order is the pool's internal order — unspecified —
    /// so callers that need a canonical view (the model checker's state
    /// fingerprint) must sort by `(at, seq)` themselves.
    pub fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.pool.cells.iter().flatten().map(|e| (e.at, e.seq, &e.payload))
    }
}

impl<E> Default for RadixQueue<E> {
    fn default() -> Self {
        RadixQueue::new()
    }
}

/// Slots of the near tier, a timing wheel of 1 µs slots. A delivery fires
/// `BASE_LATENCY + 3 µs·⌊d⌋ + jitter` ≈ 2.0–3.6 ms after its send, and
/// every one of them must be a direct wheel insert, which needs
/// `WINDOW − MID_SPAN ≥ 3 550` (DESIGN.md §6.2).
pub const WINDOW: u64 = 4096;
const SLOTS: usize = WINDOW as usize;
const MASK: u64 = WINDOW - 1;

/// Ticks one slot of the mid wheel spans.
const MID_SPAN: u64 = 512;
const _: () = assert!(WINDOW - MID_SPAN >= 3_550, "every delivery is a direct near-wheel insert");
/// Slots of the mid wheel: it reaches 33–66 ms past the near wheel, up to
/// a slot boundary of the far wheel.
const MID_SLOTS: usize = 128;
/// Ticks one slot of the far wheel spans.
const FAR_SPAN: u64 = 32_768;
/// Slots of the far wheel: it reaches 16.8 s past the mid wheel, which
/// takes every heartbeat, watch and report timer of the benchmark
/// workloads.
const FAR_SLOTS: usize = 512;

/// An element of a slab whose slot lists and free list thread through
/// one `next` index.
trait Linked {
    fn next(&mut self) -> &mut u32;
}

/// One slab element of the near wheel: a queued entry linked into its
/// slot's circular list, or a vacant element linked into the free list.
#[derive(Debug, Clone)]
struct Link<E> {
    entry: Option<Entry<E>>,
    next: u32,
}

impl<E> Linked for Link<E> {
    fn next(&mut self) -> &mut u32 {
        &mut self.next
    }
}

/// The near wheel: [`WINDOW`] slots of one tick, each a FIFO list of
/// entries threaded through one slab.
#[derive(Debug, Clone)]
struct Near<E> {
    ring: Ring<{ SLOTS / 64 }>,
    /// The least key in the wheel, meaningful only while it is non-empty:
    /// `file` lowers it, and a pop that empties its slot probes for the
    /// next one — the only probe, so a pop, a refused pop, an
    /// [`EventQueue::peek`] and an [`EventQueue::peek_time`] each read it
    /// in O(1).
    min: u64,
    links: Vec<Link<E>>,
    /// Head of the LIFO list of vacant elements.
    free: u32,
}

impl<E> Near<E> {
    /// Appends an entry keyed below the near edge to its slot.
    fn file(&mut self, e: Entry<E>) {
        let key = e.at.as_micros();
        if self.free == NIL {
            self.links.push(Link { entry: None, next: NIL });
            self.free = self.links.len() as u32 - 1;
        }
        let i = self.free;
        self.free = self.links[i as usize].next;
        self.links[i as usize].entry = Some(e);
        let was_empty = self.ring.is_empty();
        if self.ring.append(&mut self.links, (key & MASK) as usize, i) {
            // An empty wheel's `min` is stale, not an upper bound.
            self.min = if was_empty { key } else { self.min.min(key) };
        }
    }

    /// Unlinks and returns the head of the slot of `key`, the last popped
    /// key, which the caller guarantees is occupied; a pop that empties
    /// the slot finds the first occupied one after it, wrapping round.
    fn pop(&mut self, key: u64) -> Entry<E> {
        let (head, emptied) = self.ring.pop_head(&mut self.links, (key & MASK) as usize);
        if emptied {
            self.min = match self.ring.first_from((key & MASK) as usize) {
                Some(slot) => key + ((slot as u64).wrapping_sub(key) & MASK),
                None => u64::MAX,
            };
        }
        let e = self.links[head].entry.take().expect("an occupied slot's head holds an entry");
        self.links[head].next = std::mem::replace(&mut self.free, head as u32);
        e
    }
}

impl Linked for Bundle {
    fn next(&mut self) -> &mut u32 {
        &mut self.next
    }
}

/// The slot lists of one wheel: a ring of `64 · W` FIFO lists threaded
/// through a slab, each circular, so the table stores only its tail (whose
/// `next` is the head); and which slots hold anything — a bit per slot,
/// and a bit per non-zero word of those.
#[derive(Debug, Clone)]
struct Ring<const W: usize> {
    /// Per slot, the element at the tail of its list; meaningful only
    /// where `words` says the slot is occupied.
    tails: Vec<u32>,
    words: [u64; W],
    summary: u64,
}

impl<const W: usize> Ring<W> {
    fn new() -> Self {
        Ring { tails: vec![NIL; 64 * W], words: [0; W], summary: 0 }
    }

    fn is_empty(&self) -> bool {
        self.summary == 0
    }

    fn occupied(&self, s: usize) -> bool {
        self.words[s / 64] & (1 << (s % 64)) != 0
    }

    /// Appends slab element `i` to slot `s`'s list; true when that opened
    /// the slot.
    fn append<L: Linked>(&mut self, links: &mut [L], s: usize, i: u32) -> bool {
        let opened = !self.occupied(s);
        if opened {
            self.words[s / 64] |= 1 << (s % 64);
            self.summary |= 1 << (s / 64);
            *links[i as usize].next() = i;
        } else {
            let tail = self.tails[s] as usize;
            *links[i as usize].next() = std::mem::replace(links[tail].next(), i);
        }
        self.tails[s] = i;
        opened
    }

    /// Marks slot `s` empty.
    fn clear(&mut self, s: usize) {
        self.words[s / 64] &= !(1 << (s % 64));
        if self.words[s / 64] == 0 {
            self.summary &= !(1 << (s / 64));
        }
    }

    /// Unlinks and returns slot `s`'s head; the second value says whether
    /// that emptied the slot. Caller guarantees `s` is occupied.
    fn pop_head<L: Linked>(&mut self, links: &mut [L], s: usize) -> (usize, bool) {
        let tail = self.tails[s] as usize;
        let head = *links[tail].next() as usize;
        if head == tail {
            self.clear(s);
        } else {
            *links[tail].next() = *links[head].next();
        }
        (head, head == tail)
    }

    /// The first occupied slot at or after `from`, wrapping round the
    /// ring; `None` when the ring is empty.
    fn first_from(&self, from: usize) -> Option<usize> {
        let (w, rest) = (from / 64, self.words[from / 64] & (!0 << (from % 64)));
        if rest != 0 {
            return Some(w * 64 + rest.trailing_zeros() as usize);
        }
        // Later words first, then the wrap — which can end in word `w`'s
        // bits below `from`'s.
        let later = self.summary & (!0 << w << 1);
        let w = (if later != 0 { later } else { self.summary }).trailing_zeros() as usize;
        (w < W).then(|| w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// A coarse wheel: `64 · W` slots of `SPAN` ticks each, every slot a FIFO
/// list of bundles from the queue's [`Pool`].
#[derive(Debug, Clone)]
struct Coarse<const W: usize, const SPAN: u64> {
    ring: Ring<W>,
    /// Per slot, its least key's offset from the slot's first tick;
    /// meaningful only where the slot is occupied.
    mins: Vec<u16>,
    /// The least key in the wheel, meaningful only while it is non-empty.
    min: u64,
}

impl<const W: usize, const SPAN: u64> Coarse<W, SPAN> {
    const SLOTS: usize = 64 * W;

    fn new() -> Self {
        const { assert!(SPAN <= 1 << 16, "a slot's key offsets fit in a u16") };
        Coarse { ring: Ring::new(), mins: vec![0; Self::SLOTS], min: u64::MAX }
    }

    fn slot(key: u64) -> usize {
        (key / SPAN) as usize % Self::SLOTS
    }

    /// Appends an entry keyed inside this wheel's range to its slot.
    fn file<E>(&mut self, pool: &mut Pool<E>, e: Entry<E>) {
        let key = e.at.as_micros();
        let (s, offset) = (Self::slot(key), (key % SPAN) as u16);
        self.min = if self.ring.is_empty() { key } else { self.min.min(key) };
        let tail = if self.ring.occupied(s) {
            self.mins[s] = self.mins[s].min(offset);
            self.ring.tails[s]
        } else {
            self.mins[s] = offset;
            NIL
        };
        if let Some(b) = pool.append(tail, e) {
            self.ring.append(&mut pool.bundles, s, b);
        }
    }

    /// Unlinks the lowest slot — the one `min` is in — and finds the next
    /// slot's least key; returns the unlinked slot's list.
    fn take_lowest<E>(&mut self, pool: &Pool<E>) -> List {
        let s = Self::slot(self.min);
        let base = self.min - self.min % SPAN;
        let tail = self.ring.tails[s];
        self.ring.clear(s);
        if let Some(t) = self.ring.first_from(s) {
            // Ring order from `s` is tick order: the wheel spans no more
            // than its own length.
            let slots_on = (t + Self::SLOTS - s) % Self::SLOTS;
            self.min = base + slots_on as u64 * SPAN + u64::from(self.mins[t]);
        }
        List { head: pool.bundles[tail as usize].next, tail, read: 0 }
    }
}

/// The tier edges for a given `last`, as distances past it: the near
/// wheel holds `[last, last + d.0)`, the mid wheel up to `d.1`, the far
/// wheel up to `d.2`, the heap the rest. Each edge is aligned to the next
/// tier's slots, never moves back, and moves only when `last` enters a new
/// `MID_SPAN`.
fn edges(last: u64) -> (u64, u64, u64) {
    let near = WINDOW - last % MID_SPAN;
    // The near edge rounded down to a far-wheel slot (which may fall
    // below `last`), plus the mid wheel's length; in `u128`, so that
    // ticks near `u64::MAX` cannot overflow.
    let edge = u128::from(last) + u128::from(near);
    let mid = edge - edge % u128::from(FAR_SPAN) + u128::from(MID_SLOTS as u64 * MID_SPAN);
    let mid = (mid - u128::from(last)) as u64;
    (near, mid, mid + FAR_SLOTS as u64 * FAR_SPAN)
}

/// The event queue the engine runs on, in four tiers, each holding the
/// ticks past the one before it:
///
/// * the *near wheel*, [`WINDOW`] 1 µs slots, at least the next 3.6 ms —
///   where every message delivery lands;
/// * the *mid wheel*, `MID_SLOTS` slots of `MID_SPAN` ticks, up to 66 ms;
/// * the *far wheel*, `FAR_SLOTS` slots of `FAR_SPAN` ticks, the next
///   16.8 s — where the timers land;
/// * a radix heap (the *heap*, [`RadixQueue`]'s algorithm) for
///   everything later.
///
/// A near slot is a FIFO list of entries threaded through one slab; a
/// coarse slot and a heap bucket are FIFO lists of bundles of `BUNDLE`
/// consecutive cells of the queue's one pool, so emptying one reads
/// memory in order. Pop order is exactly ascending `(at, seq)`, as for
/// [`RadixQueue`]: a tick's tier is a function of the tick and `last`
/// alone, and whenever a pop moves the tier edges the entries that cross
/// one move, in the order they are stored, before a direct insert for
/// their tick can happen (DESIGN.md §6.2).
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    near: Near<E>,
    mid: Coarse<{ MID_SLOTS / 64 }, MID_SPAN>,
    far_wheel: Coarse<{ FAR_SLOTS / 64 }, FAR_SPAN>,
    /// The store of the mid wheel's, the far wheel's and the heap's lists.
    pool: Pool<E>,
    heap: Radix,
    /// The heap's minimum key (`u64::MAX` when empty), at or past the far
    /// wheel's edge.
    heap_min: u64,
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
            near: Near { ring: Ring::new(), min: u64::MAX, links: Vec::new(), free: NIL },
            mid: Coarse::new(),
            far_wheel: Coarse::new(),
            pool: Pool::new(),
            heap: Radix::new(),
            heap_min: u64::MAX,
            last: 0,
            next_seq: 0,
            len: 0,
            peak: 0,
        }
    }

    /// Makes room in the near wheel's slab for `additional` more entries
    /// than it holds now — what a burst due within the next tick, such as
    /// a network's boot, files there.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.near.links.reserve(additional);
    }

    /// How many entries the near wheel's slab holds without growing.
    #[cfg(test)]
    pub(crate) fn near_capacity(&self) -> usize {
        self.near.links.capacity()
    }

    /// Schedules `payload` to fire at `at`. Events scheduled for the same
    /// instant fire in scheduling order. Panics when `at` precedes the last
    /// popped time, like [`RadixQueue::schedule`].
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let key = at.as_micros();
        assert!(key >= self.last, "monotone schedules only: {key} µs precedes the last pop at {} µs", self.last);
        let e = Entry { at, seq: self.next_seq, payload };
        self.next_seq += 1;
        self.file(e, edges(self.last));
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Files an entry in the tier its key selects under `edges` (those of
    /// the current `last`): a new entry, or one an edge has just passed.
    fn file(&mut self, e: Entry<E>, (near, mid, far_wheel): (u64, u64, u64)) {
        let delta = e.at.as_micros() - self.last;
        if delta < near {
            self.near.file(e);
        } else if delta < mid {
            self.mid.file(&mut self.pool, e);
        } else if delta < far_wheel {
            self.far_wheel.file(&mut self.pool, e);
        } else {
            self.heap_min = self.heap_min.min(e.at.as_micros());
            self.heap.push(&mut self.pool, e);
        }
    }

    /// Called by a pop that moved `last` into a new `MID_SPAN`, lowest
    /// tier first: the mid slots now below the near edge empty into the
    /// near wheel, then the far-wheel slots now below the mid edge into the
    /// tier their ticks now select, each slot in its stored order; then
    /// the heap entries now inside the far edge, in the heap's `(at, seq)`
    /// order.
    fn advance(&mut self) {
        let edges = edges(self.last);
        while !self.mid.ring.is_empty() && self.mid.min - self.last < edges.0 {
            let list = self.mid.take_lowest(&self.pool);
            self.refile(list, edges);
        }
        while !self.far_wheel.ring.is_empty() && self.far_wheel.min - self.last < edges.1 {
            let list = self.far_wheel.take_lowest(&self.pool);
            self.refile(list, edges);
        }
        if self.heap_min - self.last < edges.2 {
            let horizon = self.last.saturating_add(edges.2 - 1);
            loop {
                match self.heap.pop_entry(&mut self.pool, horizon) {
                    Ok(e) => self.file(e, edges),
                    Err(min) => return self.heap_min = min.unwrap_or(u64::MAX),
                }
            }
        }
    }

    /// Files again, in order, every entry of a coarse slot's list, which
    /// no slot links any more: each in the near or the mid wheel, as its
    /// tick now selects, since `advance` empties a slot only once the
    /// edge below it has passed it.
    fn refile(&mut self, list: List, (near_edge, mid_edge, _): (u64, u64, u64)) {
        let (last, near, mid) = (self.last, &mut self.near, &mut self.mid);
        self.pool.drain(list, |pool, e| {
            let delta = e.at.as_micros() - last;
            debug_assert!(delta < mid_edge, "a coarse slot empties into a lower tier");
            if delta < near_edge { near.file(e) } else { mid.file(pool, e) }
        });
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
            let moved_span = key / MID_SPAN != self.last / MID_SPAN;
            self.last = key;
            if moved_span {
                self.advance();
            }
        }
        let e = self.near.pop(key);
        self.len -= 1;
        Some((e.at, e.payload))
    }

    /// The firing time of the earliest event, if any: the least key of the
    /// lowest non-empty tier. O(1), no scan.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = if !self.near.ring.is_empty() {
            self.near.min
        } else if !self.mid.ring.is_empty() {
            self.mid.min
        } else if !self.far_wheel.ring.is_empty() {
            self.far_wheel.min
        } else if self.heap.len != 0 {
            self.heap_min
        } else {
            return None;
        };
        Some(SimTime::from_micros(key))
    }

    /// The entry the next pop returns, while it sits in the near wheel:
    /// `None` when the queue is empty or its earliest entry is still in a
    /// later tier. O(1) — the head of the slot of the near wheel's least
    /// key — so the engine can look one event ahead after every pop
    /// (DESIGN.md §6.2).
    #[must_use]
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        let near = &self.near;
        if near.ring.is_empty() {
            return None;
        }
        let tail = near.ring.tails[(near.min & MASK) as usize] as usize;
        let e = near.links[near.links[tail].next as usize].entry.as_ref()?;
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
        let near = self.near.links.iter().filter_map(|l| l.entry.as_ref());
        near.chain(self.pool.cells.iter().flatten()).map(|e| (e.at, e.seq, &e.payload))
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
    use crate::time::SimDuration;

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

    impl<E> Pool<E> {
        /// The entries the pool holds.
        fn held(&self) -> usize {
            self.cells.iter().flatten().count()
        }

        /// The bundles on the spare list, by walking it; checking that each
        /// is empty.
        fn spares(&self) -> usize {
            let (mut n, mut b) = (0, self.spare);
            while b != NIL {
                assert_eq!(self.bundles[b as usize].fill, 0, "a spare bundle is empty");
                assert!(self.cells[b as usize * BUNDLE..][..BUNDLE].iter().all(Option::is_none));
                (n, b) = (n + 1, self.bundles[b as usize].next);
            }
            n
        }
    }

    /// The shared store's bound: the cells of the bundles linked into
    /// `lists` occupied lists (every bundle not on the spare list) exceed
    /// the entries in them by less than a bundle per list, plus one for
    /// bucket 0's partly read head.
    fn assert_pool_bound<E>(pool: &Pool<E>, lists: usize) {
        let linked = (pool.bundles.len() - pool.spares()) * BUNDLE;
        let held = pool.held();
        assert!(linked <= held + (lists + 1) * BUNDLE, "{linked} cells linked into {lists} lists for {held} entries");
    }

    /// [`assert_pool_bound`] for an [`EventQueue`]'s one pool.
    fn assert_reserved_bound<E>(q: &EventQueue<E>) {
        assert_pool_bound(&q.pool, lists(q));
    }

    /// The lists an [`EventQueue`]'s pool holds: the heap's non-empty
    /// buckets and the coarse wheels' occupied slots.
    fn lists<E>(q: &EventQueue<E>) -> usize {
        q.heap.open_buckets() + q.mid.ring.open_slots() + q.far_wheel.ring.open_slots()
    }

    /// The position of `last`'s highest set bit: it moves exactly when
    /// `last` crosses a 2^k boundary, the pop that finds every pending
    /// entry in one high bucket.
    fn top_bit(heap: &Radix) -> u32 {
        64 - heap.last.leading_zeros()
    }

    impl Radix {
        fn open_buckets(&self) -> usize {
            self.nonempty.count_ones() as usize + usize::from(self.buckets[0].head != NIL)
        }

        /// The entries in the buckets, by walking their lists, checking
        /// each bucket's bit, least key and every entry's bucket.
        fn count<E>(&self, pool: &Pool<E>) -> usize {
            let mut n = 0;
            for (b, list) in self.buckets.iter().enumerate() {
                if b > 0 {
                    assert_eq!(self.nonempty & Radix::bit(b) != 0, list.head != NIL, "bucket {b}'s bit");
                }
                let (mut bundle, mut from, mut min) = (list.head, list.read as usize, u64::MAX);
                while bundle != NIL {
                    let Bundle { fill, next } = pool.bundles[bundle as usize];
                    assert!(from < fill as usize, "a linked bundle holds unread entries");
                    for cell in &pool.cells[bundle as usize * BUNDLE..][from..fill as usize] {
                        let key = cell.as_ref().expect("filled cells hold entries").at.as_micros();
                        assert_eq!(self.bucket_of(key), b, "{key} µs filed in bucket {b}");
                        min = min.min(key);
                        n += 1;
                    }
                    (bundle, from) = if bundle == list.tail { (NIL, 0) } else { (next, 0) };
                }
                if b > 0 {
                    assert_eq!(self.mins[b], min, "bucket {b}'s least key");
                }
            }
            n
        }
    }

    impl<const W: usize> Ring<W> {
        /// The elements linked into the ring's lists, by walking them
        /// (`next(i)` reads element `i`'s link).
        fn members(&self, next: impl Fn(usize) -> u32) -> Vec<usize> {
            let mut out = Vec::new();
            for (w, &word) in self.words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let tail = self.tails[w * 64 + bits.trailing_zeros() as usize] as usize;
                    let mut i = tail;
                    loop {
                        i = next(i) as usize;
                        out.push(i);
                        if i == tail {
                            break;
                        }
                    }
                    bits &= bits - 1;
                }
            }
            out
        }

        fn open_slots(&self) -> usize {
            self.words.iter().map(|w| w.count_ones() as usize).sum()
        }
    }

    impl<const W: usize, const SPAN: u64> Coarse<W, SPAN> {
        /// The entries in the wheel's slot lists, checking that every
        /// linked bundle holds some and that `fill` counts its cells.
        fn count<E>(&self, pool: &Pool<E>) -> usize {
            let bundles = self.ring.members(|b| pool.bundles[b].next);
            let filled = |b: usize| pool.cells[b * BUNDLE..][..BUNDLE].iter().filter(|c| c.is_some()).count();
            assert!(bundles.iter().all(|&b| pool.bundles[b].fill > 0), "a linked bundle holds entries");
            assert!(bundles.iter().all(|&b| filled(b) == pool.bundles[b].fill as usize), "fill counts the cells");
            bundles.iter().map(|&b| pool.bundles[b].fill as usize).sum()
        }
    }

    /// How many entries each tier holds — near wheel, mid wheel, far
    /// wheel, heap — by walking the wheels' slot lists.
    fn tiers<E>(q: &EventQueue<E>) -> [usize; 4] {
        let (mid, far_wheel, heap) = (q.mid.count(&q.pool), q.far_wheel.count(&q.pool), q.heap.count(&q.pool));
        assert_eq!(heap, q.heap.len);
        assert_eq!(mid + far_wheel + heap, q.pool.held(), "no entry outside a linked bundle");
        [q.near.ring.members(|i| q.near.links[i].next).len(), mid, far_wheel, heap]
    }

    /// The tier a key `delta` past `last` is filed in, as an index into
    /// [`tiers`].
    fn tier_of(last: u64, delta: u64) -> usize {
        let (near, mid, far_wheel) = edges(last);
        usize::from(delta >= near) + usize::from(delta >= mid) + usize::from(delta >= far_wheel)
    }

    /// The distances past `last` that [`Mirror::randomized`] aims at: 1 µs
    /// either side of each tier edge, and the edge itself.
    fn edge_targets(last: u64) -> [u64; 9] {
        let (near, mid, far_wheel) = edges(last);
        [near - 1, near, near + 1, mid - 1, mid, mid + 1, far_wheel - 1, far_wheel, far_wheel + 1]
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
        /// Near-wheel peeks checked right after a refused deadline pop, and
        /// right after a pop that moved entries into the near wheel.
        peeks_after_refusal: u32,
        peeks_after_migration: u32,
        /// Schedules that landed on each of [`edge_targets`].
        edge_hits: [u32; 9],
        /// Deadline pops refused one tick before a minimum in each tier.
        refusals_by_tier: [u32; 4],
        /// Pops that moved `last` past the far wheel's edge.
        idle_jumps: u32,
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
                edge_hits: [0; 9],
                refusals_by_tier: [0; 4],
                idle_jumps: 0,
            }
        }

        /// `peek` names exactly the entry the next pop returns, and may
        /// decline only while that entry is still in a later tier (the
        /// near wheel is empty). Returns whether it named one.
        fn assert_peek(&self) -> bool {
            assert_eq!(self.queue.peek_time(), self.oracle.peek_time());
            match self.queue.peek() {
                Some(got) => assert_eq!(Some(got), self.oracle.peek(), "peek diverged from the next pop"),
                None => assert!(near(self) == 0, "peek declined with {} entries in the wheel", near(self)),
            }
            self.queue.peek().is_some()
        }

        /// Schedules at `at` in both, and checks the entry went to the
        /// tier its distance past `last` selects.
        fn schedule(&mut self, at: u64) {
            assert!(at >= self.floor);
            let (before, delta) = (tiers(&self.queue), at - self.floor);
            self.tag += 1;
            self.queue.schedule(SimTime::from_micros(at), self.tag);
            self.oracle.schedule(SimTime::from_micros(at), self.tag);
            let after = tiers(&self.queue);
            let mut want = before;
            want[tier_of(self.floor, delta)] += 1;
            assert_eq!(after, want, "{delta} µs past {} filed in the wrong tier", self.floor);
            for (hits, target) in self.edge_hits.iter_mut().zip(edge_targets(self.floor)) {
                *hits += u32::from(delta == target);
            }
            assert_eq!(self.queue.len(), self.oracle.len());
            assert_eq!(self.queue.peak_len(), self.oracle.peak_len());
            assert_reserved_bound(&self.queue);
            self.assert_peek();
        }

        fn pop(&mut self) {
            self.assert_peek();
            let (near_before, last) = (near(self), self.queue.last);
            let a = self.queue.pop();
            let b = self.oracle.pop();
            assert_eq!(a, b, "pop order diverged");
            if let Some((at, _)) = a {
                self.floor = at.as_micros();
                self.idle_jumps += u32::from(self.floor - last > edges(last).2);
            }
            assert_eq!(self.queue.len(), self.oracle.len());
            assert_reserved_bound(&self.queue);
            let migrated = near(self) + 1 > near_before;
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
            let min = self.oracle.peek_time().map(SimTime::as_micros);
            let got = self.queue.pop_at_or_before(deadline);
            assert_eq!(got, expected, "deadline pop diverged");
            if let Some((at, _)) = got {
                self.floor = at.as_micros();
            } else if let Some(min) = min.filter(|&m| m == deadline.as_micros() + 1) {
                self.refusals_by_tier[tier_of(self.floor, min - self.floor)] += 1;
            }
            assert_eq!(self.queue.len(), self.oracle.len());
            assert_reserved_bound(&self.queue);
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
        /// band, ±1 µs of every tier edge, timers in each coarse wheel and
        /// past them, far-future jumps. Deadlines fall on both sides of
        /// the minimum, and on the tick just before it.
        fn randomized(seed: u64, ops: usize) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Self::new();
            for _ in 0..ops {
                if rng.gen_bool(0.6) || m.oracle.is_empty() {
                    let delta = match rng.gen_range(0u32..14) {
                        0 => 0,
                        1..=3 => rng.gen_range(0u64..1_000),
                        4..=6 => rng.gen_range(2_000u64..3_600),
                        7 | 8 => edge_targets(m.floor)[rng.gen_range(0usize..9)],
                        9 => rng.gen_range(WINDOW..edges(m.floor).1 + 1_000),
                        10 | 11 => rng.gen_range(0u64..2 * edges(m.floor).2),
                        _ => rng.gen_range(0u64..(1 << 45)),
                    };
                    let burst = if rng.gen_bool(0.2) { rng.gen_range(2usize..6) } else { 1 };
                    for _ in 0..burst {
                        m.schedule(m.floor + delta);
                    }
                } else if rng.gen_bool(0.5) {
                    m.pop();
                } else {
                    if rng.gen_bool(0.1) {
                        // Idle until only timers past the mid wheel remain,
                        // so the refusal below meets a minimum there.
                        let due = |m: &Self| m.oracle.peek_time().map(SimTime::as_micros);
                        while due(&m).is_some_and(|t| t - m.floor < edges(m.floor).1) {
                            m.pop();
                        }
                    }
                    let min = m.oracle.peek_time().map_or(m.floor, SimTime::as_micros);
                    let deadline = match rng.gen_range(0u32..3) {
                        0 => min.saturating_sub(1).max(m.floor),
                        1 => min,
                        _ => m.floor + rng.gen_range(0u64..2_000),
                    };
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
        let (mut after_refusal, mut after_migration, mut jumps) = (0, 0, 0);
        let (mut edges, mut refusals) = ([0; 9], [0; 4]);
        for seed in 0..20u64 {
            let mut m = Mirror::randomized(seed, 400);
            m.drain();
            after_refusal += m.peeks_after_refusal;
            after_migration += m.peeks_after_migration;
            jumps += m.idle_jumps;
            edges.iter_mut().zip(m.edge_hits).for_each(|(e, h)| *e += h);
            refusals.iter_mut().zip(m.refusals_by_tier).for_each(|(r, h)| *r += h);
        }
        // Every step checks `peek`; these are where a cached next key could
        // go stale or an edge be off by one, so the interleaving must
        // actually reach each of them.
        assert!(after_refusal >= 20 && after_migration >= 20, "{after_refusal} / {after_migration}");
        assert!(edges.iter().all(|&e| e > 0), "schedules on each tier edge: {edges:?}");
        assert!(refusals.iter().all(|&r| r > 0), "refusals just before a minimum in each tier: {refusals:?}");
        assert!(jumps > 0, "no pop jumped past the far wheel's edge");
    }

    /// How many of the composed queue's entries sit in the near wheel.
    fn near(m: &Mirror) -> usize {
        tiers(&m.queue)[0]
    }

    #[test]
    fn entries_match_oracle_as_sets_after_migrations() {
        let mut m = Mirror::randomized(11, 300);
        let [near, _, far_wheel, heap] = tiers(&m.queue);
        assert!(near > 0 && far_wheel > 0 && heap > 0, "the near and far wheels and the heap populated");
        m.assert_same_entries();
        // Walk far enough that timers have migrated into the near wheel,
        // and that the heap has rebinned everything it holds.
        let top = top_bit(&m.queue.heap);
        while top_bit(&m.queue.heap) == top && !m.oracle.is_empty() {
            m.pop();
            m.assert_same_entries();
        }
        assert!(top_bit(&m.queue.heap) > top && m.queue.heap.len != 0, "crossed a 2^k boundary");
    }

    #[test]
    fn far_tier_reserves_what_is_pending() {
        let (n, keep) = if cfg!(miri) { (2_000, 20) } else { (100_000, 1_000) };
        let mut rng = StdRng::seed_from_u64(24);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_micros(rng.gen_range(edges(0).2..300_000_000)), i);
        }
        assert_eq!(q.heap.len, n);
        let (mut top, mut crossings) = (top_bit(&q.heap), 0);
        while q.len() > keep {
            q.pop();
            assert_reserved_bound(&q);
            crossings += u32::from(top_bit(&q.heap) > top);
            top = top_bit(&q.heap);
        }
        assert!(crossings >= 3, "timers 17–300 s out span 2^24 … 2^28 µs");
    }

    #[test]
    fn tier_edge_keys_land_in_their_tiers() {
        let mut m = Mirror::new();
        let (near, mid, far_wheel) = edges(0);
        assert_eq!((near, mid, far_wheel), (WINDOW, 2 * FAR_SPAN, 2 * FAR_SPAN + FAR_SLOTS as u64 * FAR_SPAN));
        for edge in [near, mid, far_wheel] {
            m.schedule(edge - 1);
            m.schedule(edge);
        }
        assert_eq!(tiers(&m.queue), [1, 2, 2, 1]);
        // From a `last` inside its mid span the edges stay where they were.
        m.schedule(100);
        m.pop();
        m.schedule(near - 1);
        m.schedule(near);
        assert_eq!(tiers(&m.queue), [2, 3, 2, 1]);
        // Entering the next mid span moves the near edge by one: the mid
        // slot that starts at `near` empties into the near wheel.
        m.schedule(MID_SPAN);
        m.pop();
        assert_eq!(tiers(&m.queue), [4, 1, 2, 1]);
        m.drain();
    }

    #[test]
    fn one_tick_fed_from_every_tier_pops_in_schedule_order() {
        let mut m = Mirror::new();
        let t = edges(0).2 + 5;
        m.schedule(t);
        m.schedule(t);
        assert_eq!(tiers(&m.queue), [0, 0, 0, 2]);
        // The first `last` whose far edge passes `t`: both move to its
        // far-wheel slot.
        m.schedule(FAR_SPAN - WINDOW);
        m.pop();
        assert_eq!(tiers(&m.queue), [0, 0, 2, 0]);
        m.schedule(t);
        // The first `last` whose mid edge passes `t`: its far-wheel slot
        // (and the popped key's own) empties, `t`'s into the mid wheel.
        let l = t - t % FAR_SPAN - WINDOW;
        m.schedule(l);
        m.pop();
        assert_eq!(tiers(&m.queue), [0, 3, 0, 0]);
        m.schedule(t);
        // A `last` whose near edge passes `t`: its mid slot empties.
        m.schedule(t - 3_000);
        m.pop();
        assert_eq!(tiers(&m.queue), [4, 0, 0, 0]);
        m.schedule(t);
        m.schedule(t - 1);
        m.schedule(t);
        m.drain(); // tags 1, 2, then 4, 6, 9, 11 at `t`, checked against the oracle
    }

    #[test]
    fn refused_deadline_pop_leaves_every_tier_and_the_floor_alone() {
        let mut m = Mirror::new();
        m.schedule(50);
        m.pop();
        for at in [2_500, 20_000, 200_000, 50_000_000] {
            m.schedule(at);
        }
        assert_eq!(tiers(&m.queue), [1, 1, 1, 1]);
        // Each tier in turn holds the minimum; a refusal one tick before
        // it must not pull `last` (or the heap's own) up to it.
        for at in [2_500, 20_000, 200_000, 50_000_000] {
            let before = format!("{:?}", m.queue);
            m.pop_at_or_before(at - 1);
            assert_eq!(format!("{:?}", m.queue), before);
            m.schedule(m.floor);
            m.pop();
            m.pop_at_or_before(at);
        }
        assert_eq!(m.refusals_by_tier, [1; 4]);
        m.schedule(m.floor);
        m.schedule(m.floor + WINDOW);
        m.drain();
    }

    #[test]
    fn idle_jump_past_the_far_wheel_with_only_heap_entries() {
        let mut m = Mirror::new();
        let base = 60_000_123;
        for delta in [0, 0, 1, WINDOW - 1, WINDOW, 40_000, 70_000, 1_000_000, 17_000_000, 20_000_000] {
            m.schedule(base + delta);
        }
        assert_eq!(tiers(&m.queue), [0, 0, 0, 10]);
        m.pop();
        assert_eq!(m.idle_jumps, 1);
        // One jump refiles everything by the new edges: 3 717, 63 621 and
        // 16 840 837 µs past `base`.
        assert_eq!(edges(base), (3_717, 63_621, 16_840_837));
        assert_eq!(tiers(&m.queue), [2, 3, 2, 2]);
        m.drain();
    }

    #[test]
    fn clone_mid_run_pops_in_lock_step() {
        let mut a = Mirror::randomized(5, 300);
        let (pool, heap) = (&a.queue.pool, &a.queue.heap);
        let partly = |l: &List| l.tail != NIL && (pool.bundles[l.tail as usize].fill as usize) < BUNDLE;
        assert!(heap.buckets.iter().filter(|l| partly(l)).count() >= 3, "partly filled bundles in three buckets");
        assert!(pool.spare != NIL, "a bundle on the spare list");
        let [near, _, far_wheel, _] = tiers(&a.queue);
        assert!(near > 0 && far_wheel > 0, "entries in the near and far wheels");
        let mut b = a.clone();
        assert_eq!(tiers(&b.queue), tiers(&a.queue));
        a.schedule(a.floor + 3); // the copies share nothing
        b.schedule(b.floor + 3);
        while let Some(ev) = a.queue.pop() {
            assert_eq!(Some(ev), b.queue.pop());
            assert_eq!(Some(ev), a.oracle.pop());
        }
        assert_eq!(b.queue.pop(), None);
    }

    /// The standalone radix heap against the oracle: same-tick ties,
    /// schedules at `last` while bucket 0's head bundle is partly read,
    /// keys past 2^40, and a clone taken half-way that is handed the same
    /// operations and pops in lockstep with the original.
    #[test]
    fn radix_matches_oracle_with_a_clone_in_lock_step() {
        let (seeds, ops) = if cfg!(miri) { (2, 300) } else { (16, 4_000) };
        let (mut mid_read, mut past_2_40, mut clones) = (0, 0, 0);
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut queues, mut oracle) = (vec![RadixQueue::new()], HeapQueue::new());
            let (mut floor, mut tag) = (0u64, 0u64);
            for op in 0..ops {
                if op == ops / 2 {
                    queues.push(queues[0].clone());
                }
                if rng.gen_bool(0.55) || oracle.is_empty() {
                    let delta = match rng.gen_range(0u32..8) {
                        0 | 1 => 0,
                        2 | 3 => rng.gen_range(0u64..64),
                        4 | 5 => rng.gen_range(0u64..5_000_000),
                        _ => rng.gen_range((1u64 << 40)..(1 << 44)),
                    };
                    let burst = if rng.gen_bool(0.3) { rng.gen_range(2usize..6) } else { 1 };
                    for _ in 0..burst {
                        tag += 1;
                        mid_read += u32::from(delta == 0 && queues[0].heap.buckets[0].read > 0);
                        for q in &mut queues {
                            q.schedule(SimTime::from_micros(floor + delta), tag);
                        }
                        oracle.schedule(SimTime::from_micros(floor + delta), tag);
                    }
                } else {
                    let want = oracle.pop();
                    for q in &mut queues {
                        assert_eq!(q.pop(), want, "pop order diverged");
                    }
                    floor = want.expect("the oracle held an entry").0.as_micros();
                    past_2_40 += u32::from(floor >= 1 << 40);
                    clones += u32::from(queues.len() == 2);
                }
                for q in &queues {
                    assert_eq!(q.len(), oracle.len());
                    assert_eq!(q.heap.count(&q.pool), q.len());
                    assert_pool_bound(&q.pool, q.heap.open_buckets());
                }
            }
            let canon = |v: Vec<(SimTime, u64, &u64)>| {
                let mut v: Vec<_> = v.into_iter().map(|(at, seq, &p)| (at, seq, p)).collect();
                v.sort_unstable();
                v
            };
            for q in &queues {
                assert_eq!(canon(q.entries().collect()), canon(oracle.entries().collect()));
            }
            while let Some(want) = oracle.pop() {
                for q in &mut queues {
                    assert_eq!(q.pop(), Some(want));
                }
            }
            assert!(queues.iter_mut().all(|q| q.pop().is_none() && q.is_empty()));
        }
        assert!(mid_read > 0, "no schedule at `last` met a partly read bucket 0");
        assert!(past_2_40 > 0 && clones > 0, "{past_2_40} pops past 2^40, {clones} pops of the clone");
    }

    /// GS³'s boot burst: every node holds its first probe back 30–35 s,
    /// so N timers start in the heap, and a 30 ms tick moves `last` along
    /// until all of them have passed through the far wheel and fired. The
    /// heap's bundles are the ones the far wheel fills, so the pool never
    /// holds more cells than N plus a bundle per list open at once, plus
    /// one. A pop can open and drain heap buckets that are empty again
    /// when it returns, so every bucket counts as open.
    #[test]
    fn boot_burst_passes_through_one_pool() {
        const TICK: u64 = 30_000;
        let (n, from, spread): (u64, u64, u64) =
            if cfg!(miri) { (300, edges(0).2, 1_000_000) } else { (50_000, 30_000_000, 5_000_000) };
        let mut rng = StdRng::seed_from_u64(47);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_micros(from + rng.gen_range(0..spread)), i);
        }
        q.schedule(SimTime::from_micros(TICK), u64::MAX);
        assert_eq!(q.heap.len as u64, n);
        let (mut left, mut open, mut all_in_far_wheel) = (n, 0, false);
        while left > 0 {
            let (at, tag) = q.pop().expect("the tick is always pending");
            if tag == u64::MAX {
                q.schedule(at + SimDuration::from_micros(TICK), tag);
            } else {
                left -= 1;
            }
            open = open.max(q.mid.ring.open_slots() + q.far_wheel.ring.open_slots() + BUCKETS);
            let cells = q.pool.cells.len();
            // The tick sits in the mid wheel: one entry beyond the N.
            assert!(cells <= (n as usize + 1) + (open + 1) * BUNDLE, "{cells} cells for {n} timers in {open} lists");
            if !all_in_far_wheel && q.heap.len == 0 && left == n {
                all_in_far_wheel = tiers(&q)[2] == n as usize;
            }
        }
        assert!(all_in_far_wheel, "every timer was in the far wheel at once");
    }
}
