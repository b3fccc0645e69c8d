//! Per-node pending timers: the row a timer event looks its id up in.
//!
//! A node has one or two timers pending almost all the time (a head's two
//! heartbeats, an associate's watch, the data plane's report tick), so
//! each node's row holds [`INLINE`] `(id, timer)` pairs in place and
//! names an overflow list only when more are pending. The run loop
//! prefetches the row with the rest of the node (DESIGN.md §6.8): arming,
//! firing and cancelling a timer read lines that are already in cache,
//! never a heap buffer behind a pointer.

/// Timers a row holds in place.
const INLINE: usize = 2;

/// No overflow list.
const NIL: u32 = u32::MAX;

/// One node's pending timers: up to [`INLINE`] in place, any others in
/// its overflow list — 56 B for `gs3-core`'s 16-byte timer enum, within
/// two cache lines, both of which the run loop's hint fetches. (Aligning
/// rows to a line made the column's growth reallocate by copy, and
/// repeated builds fragment the heap: +4 MiB of peak RSS on `scale_50k`
/// after six repetitions.)
#[derive(Debug, Clone)]
pub(super) struct TimerRow<T> {
    /// Live `(id, timer)` pairs, in no particular order.
    inline: [Option<(u64, T)>; INLINE],
    /// Index of the node's overflow list in [`TimerTable::spill`], or `NIL`.
    spill: u32,
}

/// Every node's live timers. A timer event whose id is absent here was
/// cancelled — no separate cancelled-id list to grow or drain:
/// cancellation *is* removal, and the stale queue entry identifies itself
/// by absence when it fires.
#[derive(Debug, Clone)]
pub(super) struct TimerTable<T> {
    /// One row per node, indexed like the arena's columns.
    rows: Vec<TimerRow<T>>,
    /// Overflow lists, each sorted by id (ids are handed out in increasing
    /// order, so an append keeps the sort, and removals preserve it); a
    /// vacant one is empty and listed in `free`.
    spill: Vec<Vec<(u64, T)>>,
    /// Vacant overflow lists, reused before a new one is opened.
    free: Vec<u32>,
}

impl<T: PartialEq> TimerTable<T> {
    pub(super) fn new() -> Self {
        TimerTable { rows: Vec::new(), spill: Vec::new(), free: Vec::new() }
    }

    /// Makes room for `additional` more rows.
    pub(super) fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// How many rows fit without growing.
    #[cfg(test)]
    pub(super) fn capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// Appends an empty row for a new node.
    pub(super) fn push_row(&mut self) {
        self.rows.push(TimerRow { inline: [const { None }; INLINE], spill: NIL });
    }

    /// The address of `node`'s row, for the run loop's cache hint; no
    /// bound is checked, as nothing is read through it.
    pub(super) fn row_ptr(&self, node: usize) -> *const TimerRow<T> {
        self.rows.as_ptr().wrapping_add(node)
    }

    /// Records `(id, timer)` as pending on `node`. `id` must exceed every
    /// id armed before it.
    pub(super) fn arm(&mut self, node: usize, id: u64, timer: T) {
        let row = &mut self.rows[node];
        if let Some(slot) = row.inline.iter_mut().find(|s| s.is_none()) {
            *slot = Some((id, timer));
            return;
        }
        if row.spill == NIL {
            row.spill = self.free.pop().unwrap_or_else(|| {
                self.spill.push(Vec::new());
                self.spill.len() as u32 - 1
            });
        }
        self.spill[row.spill as usize].push((id, timer));
    }

    /// Removes timer `id` from `node`'s pending set, returning whether it
    /// was there (absent: cancelled, so its queue entry is stale).
    pub(super) fn take(&mut self, node: usize, id: u64) -> bool {
        let row = &mut self.rows[node];
        if let Some(slot) = row.inline.iter_mut().find(|s| matches!(s, Some((i, _)) if *i == id)) {
            *slot = None;
            return true;
        }
        if row.spill == NIL {
            return false;
        }
        let list = &mut self.spill[row.spill as usize];
        let Ok(pos) = list.binary_search_by_key(&id, |(i, _)| *i) else {
            return false;
        };
        // Vec::remove (not swap_remove) keeps the sort.
        list.remove(pos);
        self.release_if_empty(node);
        true
    }

    /// Whether timer `id` is still pending on `node` (`false` for a node
    /// that does not exist).
    pub(super) fn contains(&self, node: usize, id: u64) -> bool {
        let Some(row) = self.rows.get(node) else {
            return false;
        };
        row.inline.iter().any(|s| matches!(s, Some((i, _)) if *i == id))
            || (row.spill != NIL
                && self.spill[row.spill as usize].binary_search_by_key(&id, |(i, _)| *i).is_ok())
    }

    /// Removes every pending timer of `node` whose payload equals `timer`.
    pub(super) fn cancel(&mut self, node: usize, timer: &T) {
        let row = &mut self.rows[node];
        for slot in &mut row.inline {
            if matches!(slot, Some((_, t)) if t == timer) {
                *slot = None;
            }
        }
        if row.spill != NIL {
            self.spill[row.spill as usize].retain(|(_, t)| t != timer);
            self.release_if_empty(node);
        }
    }

    /// Detaches `node`'s overflow list once it is empty, keeping its
    /// buffer for the next node that overflows.
    fn release_if_empty(&mut self, node: usize) {
        let row = &mut self.rows[node];
        if self.spill[row.spill as usize].is_empty() {
            self.free.push(std::mem::replace(&mut row.spill, NIL));
        }
    }

    /// How many timers are pending on `node`.
    #[cfg(test)]
    pub(super) fn len(&self, node: usize) -> usize {
        let row = &self.rows[node];
        let spilled = if row.spill == NIL { 0 } else { self.spill[row.spill as usize].len() };
        row.inline.iter().flatten().count() + spilled
    }

    /// Whether `node` holds an overflow list.
    #[cfg(test)]
    pub(super) fn has_spill(&self, node: usize) -> bool {
        self.rows[node].spill != NIL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_is_56_bytes_for_a_sixteen_byte_timer() {
        assert_eq!(std::mem::size_of::<TimerRow<Option<u64>>>(), 56);
        assert_eq!(std::mem::size_of::<TimerRow<&'static str>>(), 56);
    }

    #[test]
    fn ids_past_the_inline_capacity_spill_and_come_back() {
        let mut t = TimerTable::new();
        t.push_row();
        t.push_row();
        for id in 0..6 {
            t.arm(1, id, id % 3);
        }
        assert_eq!(t.len(1), 6);
        assert!(t.has_spill(1) && !t.has_spill(0));
        assert!((0..6).all(|id| t.contains(1, id)) && !t.contains(0, 0) && !t.contains(7, 0));
        assert!(t.take(1, 4) && !t.take(1, 4), "a taken id is stale");
        // Every equal timer goes, inline and spilled alike: ids 0 and 3.
        t.cancel(1, &0);
        assert_eq!(t.len(1), 3);
        assert!(!t.contains(1, 0) && !t.contains(1, 3) && t.contains(1, 5));
        for id in [1, 2, 5] {
            assert!(t.take(1, id));
        }
        assert_eq!(t.len(1), 0);
        assert!(!t.has_spill(1), "an empty overflow list is released");
        // The released list is reused, not a second one opened.
        for id in 10..14 {
            t.arm(0, id, 9);
        }
        assert_eq!((t.spill.len(), t.free.len()), (1, 0));
        t.cancel(0, &9);
        assert_eq!((t.len(0), t.free.len()), (0, 1));
    }

    #[test]
    fn a_freed_inline_slot_takes_the_next_id_while_the_spill_stays_sorted() {
        let mut t = TimerTable::new();
        t.push_row();
        for id in 0..4 {
            t.arm(0, id, 'a');
        }
        assert!(t.take(0, 1));
        t.arm(0, 4, 'b'); // inline, beside id 0
        t.arm(0, 5, 'c'); // spilled after 2 and 3
        assert_eq!(t.spill[0].iter().map(|&(i, _)| i).collect::<Vec<_>>(), [2, 3, 5]);
        assert!([0, 2, 3, 4, 5].iter().all(|&id| t.contains(0, id)) && !t.contains(0, 1));
        t.cancel(0, &'a');
        assert_eq!(t.len(0), 2);
        assert!(t.contains(0, 4) && t.contains(0, 5));
    }
}
