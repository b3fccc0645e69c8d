//! Per-node storage and the timer bookkeeping that lives in it.

use super::timers::TimerTable;
use super::*;
use gs3_telemetry::NO_PEER;

/// Dense per-node storage in structure-of-arrays layout, indexed by
/// [`NodeId::index`] (ids are spawn ranks, so the columns are append-only
/// and never reindex).
///
/// The split is by access temperature: `positions`/`alive`/`energy` are
/// the *hot* columns — every dispatch and energy charge reads them, one
/// node at a time — and packing them densely keeps them at 25 bytes a
/// node instead of striding over the full protocol state. (A broadcast
/// picks its receivers from the spatial grid, which carries its own copy
/// of the alive nodes' positions, and does not come here.) `nodes` is the
/// *cold* column (the protocol state machine, by far the widest field),
/// touched only when a callback actually runs. `timers` sits in between:
/// consulted on timer dispatch and set/cancel, 56 bytes a node.
///
/// Dense is not cached. Consecutive events go to unrelated nodes, and at
/// 50 000 nodes the columns hold ≈ 18 MB (15 of them `nodes`), far beyond
/// a 2 MiB L2, so a dispatch's first read of its row misses in every
/// column it touches. What hides those misses is the run loop: after each
/// pop it hands the next event's target to [`Self::prefetch`], and the
/// lines arrive while the current event dispatches (DESIGN.md §6.8).
#[derive(Debug, Clone)]
pub(super) struct Arena<N: Node> {
    /// Cold: the protocol state machines.
    pub(super) nodes: Vec<N>,
    /// Hot: current positions.
    pub(super) positions: Vec<Point>,
    /// Hot: liveness flags.
    pub(super) alive: Vec<bool>,
    /// Hot: remaining energy.
    pub(super) energy: Vec<f64>,
    /// Warm: each node's live (id, payload) timer pairs, in a one-line
    /// row. A timer event whose id is absent here was cancelled.
    pub(super) timers: TimerTable<N::Timer>,
    /// The id the next armed timer gets; engine-wide and increasing.
    pub(super) next_timer_id: u64,
    /// Warm: per-node MAC contention events (deferrals, backoff-exhausted
    /// drops, corrupted frames) — the local congestion signal surfaced via
    /// [`Context::mac_events`](super::Context::mac_events). All zero while
    /// contention is disabled.
    pub(super) mac_events: Vec<u64>,
    /// Hot while idle drain is on: when each node's idle-listening drain
    /// was last settled (lazy accounting — see
    /// [`EnergyModel::idle`](crate::radio::EnergyModel)). Untouched when
    /// `idle == 0.0`.
    pub(super) energy_settled: Vec<SimTime>,
}

impl<N: Node> Arena<N> {
    pub(super) fn new() -> Self {
        Arena {
            nodes: Vec::new(),
            positions: Vec::new(),
            alive: Vec::new(),
            energy: Vec::new(),
            timers: TimerTable::new(),
            next_timer_id: 0,
            mac_events: Vec::new(),
            energy_settled: Vec::new(),
        }
    }

    #[inline]
    pub(super) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Makes room for `additional` more rows in every column.
    pub(super) fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.positions.reserve(additional);
        self.alive.reserve(additional);
        self.energy.reserve(additional);
        self.timers.reserve(additional);
        self.mac_events.reserve(additional);
        self.energy_settled.reserve(additional);
    }

    /// Appends one node's row across every column; returns its index.
    #[inline]
    pub(super) fn push(&mut self, node: N, position: Point, energy: f64, now: SimTime) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(node);
        self.positions.push(position);
        self.alive.push(true);
        self.energy.push(energy);
        self.timers.push_row();
        self.mac_events.push(0);
        self.energy_settled.push(now);
        idx
    }

    /// Hints the lines a dispatch to row `idx` reads first into cache: all
    /// of the node, and its entries in the columns beside it (the idle
    /// clock only when `idle` drain is on). Reads nothing, changes nothing,
    /// and checks no bound: a hint at any address is harmless.
    #[inline]
    pub(super) fn prefetch(&self, idx: usize, idle: bool) {
        prefetch(self.nodes.as_ptr().wrapping_add(idx));
        prefetch(self.alive.as_ptr().wrapping_add(idx));
        prefetch(self.positions.as_ptr().wrapping_add(idx));
        prefetch(self.energy.as_ptr().wrapping_add(idx));
        prefetch(self.mac_events.as_ptr().wrapping_add(idx));
        prefetch(self.timers.row_ptr(idx));
        if idle {
            prefetch(self.energy_settled.as_ptr().wrapping_add(idx));
        }
    }
}

/// Cache line width assumed by [`prefetch`].
const LINE: usize = 64;

/// Asks the CPU to start loading every cache line of the `T` at `value`
/// into L1, without waiting for them. The workspace's one `unsafe`: no
/// stable safe API performs a non-blocking load, and demand loads of the
/// same lines (`std::hint::black_box`) measured slower than no hint at
/// all. Sound for any address, since nothing is dereferenced. A no-op off
/// `x86_64` and under Miri.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch<T>(value: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        use std::mem::{align_of, size_of};
        let start = value.cast::<i8>();
        // A probe every line from the first byte, the last one at the last
        // byte: never more than a line apart, so each line the value spans
        // gets one. The offsets are constants of `T`, so the loop unrolls
        // to straight-line probes; a value no wider than its alignment
        // sits in one line and gets one.
        let last = if size_of::<T>() <= align_of::<T>() { 0 } else { size_of::<T>() - 1 };
        for k in 0..last.div_ceil(LINE) + 1 {
            // SAFETY: a prefetch never faults, reads no value into the program and changes no state.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.wrapping_add((k * LINE).min(last))) };
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = value;
}

impl<N: Node> Engine<N> {
    /// Arms `timer` on `to`, to fire `after` from now — for
    /// [`Context::set_timer`] and [`Engine::inject_timer`] alike.
    pub(super) fn arm_timer(&mut self, to: NodeId, after: SimDuration, timer: N::Timer) {
        let timer_id = self.arena.next_timer_id;
        self.arena.next_timer_id += 1;
        self.arena.timers.arm(to.index(), timer_id, timer.clone());
        self.queue.schedule(self.now + after, PendingEvent { to, kind: EventKind::Timer { timer_id, timer } });
    }

    /// A timer event fires: run the handler, unless it was cancelled.
    pub(super) fn fire_timer(&mut self, to: NodeId, timer_id: u64, timer: N::Timer) {
        // Absence means cancelled: this queue entry is stale.
        if !self.arena.timers.take(to.index(), timer_id) {
            return;
        }
        self.trace.bump(Counter::TimersFired);
        self.record_event(EventClass::Timer, to, "timer", NO_PEER, None, timer_id);
        self.with_ctx(to, |node, ctx| node.on_timer(timer, ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::Hop;
    use super::super::Context;
    use super::*;
    use crate::radio::{EnergyModel, RadioModel};

    #[test]
    fn timers_fire_and_cancel() {
        #[derive(Debug, Default)]
        struct Timed {
            fired: Vec<&'static str>,
        }
        impl Node for Timed {
            type Msg = Hop;
            type Timer = &'static str;
            fn on_start(&mut self, ctx: &mut Context<'_, Hop, &'static str>) {
                ctx.set_timer(SimDuration::from_millis(10), "keep");
                ctx.set_timer(SimDuration::from_millis(10), "drop");
                ctx.set_timer(SimDuration::from_millis(20), "late");
                ctx.cancel_timers("drop");
            }
            fn on_message(&mut self, _: NodeId, _: Hop, _: &mut Context<'_, Hop, &'static str>) {}
            fn on_timer(&mut self, t: &'static str, _: &mut Context<'_, Hop, &'static str>) {
                self.fired.push(t);
            }
        }
        let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
        let id = eng.spawn(Timed::default(), Point::ORIGIN);
        eng.inject_timer(id, "forged", SimDuration::from_millis(15)).unwrap();
        eng.run_until(SimTime::from_micros(1_000_000));
        assert_eq!(eng.node(id).unwrap().fired, vec!["keep", "forged", "late"]);
    }

    #[test]
    fn set_cancel_cycles_do_not_grow_slot_memory() {
        // Regression guard for the timer bookkeeping: with the old
        // cancelled-id list, each set+cancel cycle parked an id until the
        // stale queue entry fired (here: an hour later), so per-slot memory
        // grew linearly with cycles. Removal-is-cancellation keeps the
        // pending list empty.
        #[derive(Debug, Default)]
        struct Cycler {
            ticks: u32,
            victims_fired: u32,
        }
        #[derive(Debug, Clone, PartialEq)]
        enum Ct {
            Tick,
            Victim,
        }
        impl Node for Cycler {
            type Msg = Hop;
            type Timer = Ct;
            fn on_start(&mut self, ctx: &mut Context<'_, Hop, Ct>) {
                ctx.set_timer(SimDuration::from_millis(1), Ct::Tick);
            }
            fn on_message(&mut self, _: NodeId, _: Hop, _: &mut Context<'_, Hop, Ct>) {}
            fn on_timer(&mut self, t: Ct, ctx: &mut Context<'_, Hop, Ct>) {
                match t {
                    Ct::Tick => {
                        self.ticks += 1;
                        ctx.set_timer(SimDuration::from_secs(3600), Ct::Victim);
                        ctx.cancel_timers(Ct::Victim);
                        if self.ticks == 1 {
                            // A fresh set after a cancel must still fire
                            // (new id; fires before the next tick's cancel).
                            ctx.set_timer(SimDuration::from_micros(500), Ct::Victim);
                        }
                        if self.ticks < 1000 {
                            ctx.set_timer(SimDuration::from_millis(1), Ct::Tick);
                        }
                    }
                    Ct::Victim => self.victims_fired += 1,
                }
            }
        }
        let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
        let id = eng.spawn(Cycler::default(), Point::ORIGIN);
        eng.run_until(SimTime::from_micros(10_000_000));
        assert_eq!(eng.node(id).unwrap().ticks, 1000);
        assert_eq!(eng.node(id).unwrap().victims_fired, 1, "only the re-set victim fires");
        let timers = &eng.arena.timers;
        assert_eq!(timers.len(id.index()), 0, "cancellation reclaims immediately");
        assert!(!timers.has_spill(id.index()), "no overflow list left attached");
    }

    /// Arms more equal timers than a row holds inline, cancels and
    /// re-arms inside one callback, and takes forged timers from
    /// `inject_timer` first, so they hold the inline slots: every path of
    /// the row, checked by what fires and when.
    #[derive(Debug, Default, Clone)]
    struct Crowd {
        fired: Vec<(u64, &'static str)>,
    }

    impl Node for Crowd {
        type Msg = Hop;
        type Timer = &'static str;
        fn on_start(&mut self, ctx: &mut Context<'_, Hop, &'static str>) {
            for ms in 1..=5 {
                ctx.set_timer(SimDuration::from_millis(ms), "dup");
            }
            ctx.set_timer(SimDuration::from_millis(3), "keep");
            ctx.set_timer(SimDuration::from_millis(4), "rearm");
        }
        fn on_message(&mut self, _: NodeId, _: Hop, _: &mut Context<'_, Hop, &'static str>) {}
        fn on_timer(&mut self, t: &'static str, ctx: &mut Context<'_, Hop, &'static str>) {
            self.fired.push((ctx.now().as_micros() / 1_000, t));
            if t == "keep" {
                // Both in one callback: the old "rearm" (due at 4 ms) is
                // stale, the new one fires at 5 ms.
                ctx.cancel_timers("rearm");
                ctx.set_timer(SimDuration::from_millis(2), "rearm");
            }
        }
    }

    fn crowd() -> (Engine<Crowd>, NodeId) {
        let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
        let id = eng.spawn(Crowd::default(), Point::ORIGIN);
        for ms in [2, 6] {
            eng.inject_timer(id, "forged", SimDuration::from_millis(ms)).unwrap();
        }
        (eng, id)
    }

    #[test]
    fn cancel_by_value_reaches_timers_past_the_inline_row() {
        let (mut eng, id) = crowd();
        eng.run_until(SimTime::from_micros(1_500));
        // 1 ms "dup" fired; four more, "keep", "rearm" and two forged are
        // pending: eight, six of them in the overflow list.
        assert_eq!(eng.arena.timers.len(id.index()), 8);
        assert!(eng.arena.timers.has_spill(id.index()));
        eng.node_mut(id).unwrap().fired.clear();
        // Cancel every "dup" and one forged value from outside a callback
        // the way a callback would: through the engine's own action path.
        eng.with_ctx(id, |_, ctx| {
            ctx.cancel_timers("dup");
            ctx.cancel_timers("forged");
        });
        assert_eq!(eng.arena.timers.len(id.index()), 2, "only \"keep\" and \"rearm\" left");
        eng.run_until(SimTime::from_micros(1_000_000));
        assert_eq!(eng.node(id).unwrap().fired, vec![(3, "keep"), (5, "rearm")]);
        assert_eq!(eng.arena.timers.len(id.index()), 0);
        assert!(!eng.arena.timers.has_spill(id.index()), "the emptied overflow list is released");
    }

    #[test]
    fn spilled_and_stale_timers_fire_in_order_and_fork_equal() {
        let (mut eng, id) = crowd();
        eng.run_until(SimTime::from_micros(3_500));
        // "keep" has fired and made the 4 ms "rearm" stale: the queue holds
        // live spilled timers, a stale one and forged ones.
        let mut fork = eng.clone();
        assert_eq!(fork.pending_event_hashes(), eng.pending_event_hashes());
        assert_eq!(fork.arena.timers.len(id.index()), eng.arena.timers.len(id.index()));
        eng.run_until(SimTime::from_micros(1_000_000));
        fork.run_until(SimTime::from_micros(1_000_000));
        let want = vec![
            (1, "dup"),
            (2, "forged"),
            (2, "dup"),
            (3, "dup"),
            (3, "keep"),
            (4, "dup"),
            (5, "dup"),
            (5, "rearm"),
            (6, "forged"),
        ];
        assert_eq!(eng.node(id).unwrap().fired, want);
        assert_eq!(fork.node(id).unwrap().fired, want);
        assert_eq!(fork.trace().digest(), eng.trace().digest());
    }
}
