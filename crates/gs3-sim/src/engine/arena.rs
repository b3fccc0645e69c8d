//! Per-node storage and the timer bookkeeping that lives in it.

use super::*;
use gs3_telemetry::NO_PEER;

/// Dense per-node storage in structure-of-arrays layout, indexed by
/// [`NodeId::index`] (ids are spawn ranks, so the columns are append-only
/// and never reindex).
///
/// The split is by access temperature: `positions`/`alive`/`energy` are
/// the *hot* columns — every dispatch and energy charge reads them, one
/// node at a time, and packing them densely keeps those reads in cache
/// instead of striding over the full protocol state. (A broadcast picks
/// its receivers from the spatial grid, which carries its own copy of the
/// alive nodes' positions, and does not come here.) `nodes` is the
/// *cold* column (the protocol state machine, by far the widest field),
/// touched only when a callback actually runs. `pending_timers` sits in
/// between: consulted on timer dispatch and set/cancel.
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
    /// Warm: live (id, payload) timer pairs, sorted by id (ids are handed
    /// out in increasing order and removals preserve order). A timer event
    /// whose id is absent here was cancelled — no separate cancelled-id
    /// list to grow or drain: cancellation *is* removal, and the stale
    /// queue entry identifies itself by absence when it fires.
    pub(super) pending_timers: Vec<Vec<(u64, N::Timer)>>,
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
            pending_timers: Vec::new(),
            next_timer_id: 0,
            mac_events: Vec::new(),
            energy_settled: Vec::new(),
        }
    }

    #[inline]
    pub(super) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends one node's row across every column; returns its index.
    #[inline]
    pub(super) fn push(&mut self, node: N, position: Point, energy: f64, now: SimTime) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(node);
        self.positions.push(position);
        self.alive.push(true);
        self.energy.push(energy);
        self.pending_timers.push(Vec::new());
        self.mac_events.push(0);
        self.energy_settled.push(now);
        idx
    }
}

impl<N: Node> Engine<N> {
    /// Arms `timer` on `to`, to fire `after` from now — for
    /// [`Context::set_timer`] and [`Engine::inject_timer`] alike.
    pub(super) fn arm_timer(&mut self, to: NodeId, after: SimDuration, timer: N::Timer) {
        let timer_id = self.arena.next_timer_id;
        self.arena.next_timer_id += 1;
        // Ids are globally increasing, so a push keeps the list sorted.
        self.arena.pending_timers[to.index()].push((timer_id, timer.clone()));
        self.queue.schedule(self.now + after, PendingEvent { to, kind: EventKind::Timer { timer_id, timer } });
    }

    /// A timer event fires: run the handler, unless it was cancelled.
    pub(super) fn fire_timer(&mut self, to: NodeId, timer_id: u64, timer: N::Timer) {
        let timers = &mut self.arena.pending_timers[to.index()];
        // Absence means cancelled: this queue entry is stale.
        let Ok(pos) = timers.binary_search_by_key(&timer_id, |(tid, _)| *tid) else {
            return;
        };
        // Vec::remove (not swap_remove) keeps the sort.
        timers.remove(pos);
        self.trace.record_timer();
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
        let timers = &eng.arena.pending_timers[id.index()];
        assert!(
            timers.is_empty(),
            "cancellation reclaims immediately; {} entries leaked",
            timers.len()
        );
    }
}
