//! The receive pipeline — idle-energy settle → collision scan → account →
//! rx energy → handler (DESIGN.md §6.7) — and the energy ledger both
//! pipelines charge. RNG-free; the order fixes which counters move.

use super::*;

impl<N: Node> Engine<N> {
    /// Applies the idle-listening drain accrued by `id` since its last
    /// settlement (lazy accounting: exact at every event boundary, and the
    /// gap between events is bounded by the node's own timer cadence).
    /// Returns `true` when the drain exhausted the battery. No-op (and no
    /// column touch) when the model has no idle term, so idle-free runs
    /// stay byte-equal.
    pub(super) fn settle_idle(&mut self, id: NodeId) -> bool {
        if self.energy_model.idle == 0.0 {
            return false;
        }
        let idx = id.index();
        let since = self.now.saturating_since(self.arena.energy_settled[idx]);
        if since.is_zero() {
            return false;
        }
        self.arena.energy_settled[idx] = self.now;
        self.charge(id, self.energy_model.idle_cost(since.as_secs_f64()))
    }

    /// Charges `cost` to a node; returns `true` when the node died of
    /// exhaustion (and handles the death).
    pub(super) fn charge(&mut self, id: NodeId, cost: f64) -> bool {
        if self.energy_model.is_disabled() || cost == 0.0 {
            return false;
        }
        let energy = &mut self.arena.energy[id.index()];
        *energy -= cost;
        if *energy <= 0.0 {
            *energy = 0.0;
            let _ = self.kill(id);
            true
        } else {
            false
        }
    }

    /// Records a frame corrupted on the air at `to`, by a medium-detected
    /// overlap (`tag`: the frame's episode) or a scripted collision (`None`).
    pub(super) fn record_corrupted(&mut self, to: NodeId, from: NodeId, kind: Label, tag: Option<u64>) {
        self.trace.bump(Counter::MacCollisions);
        self.arena.mac_events[to.index()] += 1;
        self.record_event(EventClass::MacCollision, to, kind, from.raw(), tag, 0);
    }

    /// One copy of `flight`, a frame of `kind`, arrives at `to` (alive,
    /// idle drain settled).
    pub(super) fn receive(&mut self, to: NodeId, flight: u32, kind: Label) {
        let t = self.flights.get(flight);
        let (from, tag, tx) = (t.from, t.tag, t.tx);
        let directed = t.dest.is_directed();
        // Receiver-side collision detection catches what the sender's
        // carrier sense could not hear — hidden terminals included. One
        // branch when contention is off (tx is the NONE sentinel).
        if !tx.is_none() && self.medium.collides(tx, self.arena.positions[to.index()]) {
            self.record_corrupted(to, from, kind, Some(tag));
            self.flights.release(flight);
            // The radio still listened to the corrupted frame.
            self.charge(to, self.energy_model.rx);
            return;
        }
        self.trace.bump(Counter::Deliveries);
        // Causal attribution: a delivery of a tagged message taints the
        // receiver one hop deeper into the episode — but only a *directed*
        // (unicast) delivery propagates taint; broadcast receptions are
        // ambient and only count.
        if tag != NO_TAG {
            let pos = self.arena.positions[to.index()];
            self.telemetry.episodes.on_delivery(tag, to.raw(), (pos.x, pos.y), directed);
        }
        self.record_event(EventClass::Delivery, to, kind, from.raw(), Some(tag), 0);
        if self.charge(to, self.energy_model.rx) {
            self.flights.release(flight);
            return;
        }
        // Handlers take the message by value: the last copy of a frame
        // moves it out of the record, earlier ones clone.
        let msg = self.flights.take_msg(flight);
        self.with_ctx(to, |node, ctx| node.on_message(from, msg, ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{Blaster, Flood, Hop, T};
    use super::super::Context;
    use super::*;
    use crate::medium::ContentionConfig;
    use crate::radio::{EnergyModel, RadioModel};
    use crate::time::{SimDuration, SimTime};
    use gs3_geometry::Point;

    #[test]
    fn energy_exhaustion_kills() {
        let mut eng = Engine::new(
            RadioModel::ideal(100.0),
            EnergyModel { tx_base: 1.0, tx_dist2: 0.0, rx: 0.0, idle: 0.0 },
            1,
        );
        let id = eng.spawn_with_energy(Flood::default(), Point::ORIGIN, Some(0.5));
        eng.run_until(SimTime::from_micros(1_000_000));
        // Node 0's single broadcast cost 1.0 > 0.5 budget → dead.
        assert!(!eng.is_alive(id).unwrap());
        assert_eq!(eng.energy(id).unwrap(), 0.0);
    }

    /// A node that only ever re-arms a periodic timer — it spends nothing
    /// on tx/rx, so any death must come from the idle drain.
    #[derive(Debug, Default)]
    struct Idler {
        ticks: u32,
    }
    impl Node for Idler {
        type Msg = Hop;
        type Timer = T;
        fn on_start(&mut self, ctx: &mut Context<'_, Hop, T>) {
            ctx.set_timer(SimDuration::from_secs(1), T::Tick);
        }
        fn on_message(&mut self, _: NodeId, _: Hop, _: &mut Context<'_, Hop, T>) {}
        fn on_timer(&mut self, _: T, ctx: &mut Context<'_, Hop, T>) {
            self.ticks += 1;
            ctx.set_timer(SimDuration::from_secs(1), T::Tick);
        }
    }

    #[test]
    fn idle_drain_kills_quiet_node_on_schedule() {
        let model = EnergyModel { tx_base: 0.0, tx_dist2: 0.0, rx: 0.0, idle: 0.1 };
        let mut eng = Engine::new(RadioModel::ideal(100.0), model, 1);
        // 1.05 units at 0.1/s: dies settling the drain at the 11th tick
        // (10.5 s owed > 1.05 budget at t = 11 s), having run ~10 ticks.
        let id = eng.spawn_with_energy(Idler::default(), Point::ORIGIN, Some(1.05));
        eng.run_until(SimTime::from_micros(60_000_000));
        assert!(!eng.is_alive(id).unwrap(), "idle drain must kill the quiet node");
        assert_eq!(eng.energy(id).unwrap(), 0.0);
        let ticks = eng.node(id).unwrap().ticks;
        assert!((9..=11).contains(&ticks), "died around t=10.5s, got {ticks} ticks");
    }

    #[test]
    fn zero_idle_term_costs_nothing() {
        let model = EnergyModel { tx_base: 1.0, tx_dist2: 0.0, rx: 0.0, idle: 0.0 };
        let mut eng = Engine::new(RadioModel::ideal(100.0), model, 1);
        let id = eng.spawn_with_energy(Idler::default(), Point::ORIGIN, Some(1.0));
        eng.run_until(SimTime::from_micros(60_000_000));
        assert!(eng.is_alive(id).unwrap());
        assert_eq!(eng.energy(id).unwrap(), 1.0, "no tx/rx and no idle term: budget untouched");
    }

    #[test]
    fn hidden_terminals_collide_at_the_receiver() {
        // A — 100 m — B — 100 m — C: A and C cannot hear each other
        // (unicast audibility reaches only the 100 m to B), so carrier
        // sense never defers; their synchronized frames overlap at B and
        // every copy is corrupted.
        let mut eng = Engine::new(RadioModel::ideal(150.0), EnergyModel::disabled(), 7);
        eng.set_contention(ContentionConfig::on());
        let b = eng.spawn(Blaster::to(None), Point::new(100.0, 0.0));
        eng.spawn(Blaster::to(Some(b)), Point::ORIGIN);
        eng.spawn(Blaster::to(Some(b)), Point::new(200.0, 0.0));
        eng.run_for(SimDuration::from_secs(10));
        let t = eng.trace();
        assert!(t.mac_collisions() > 0, "hidden terminals must collide");
        assert_eq!(t.mac_defers(), 0, "out of carrier-sense range: no deferrals");
        assert_eq!(eng.node(b).unwrap().received, 0, "every overlapped frame corrupts");
        assert!(
            t.deliveries() < t.get(Counter::ScheduledDeliveries),
            "corrupted frames are scheduled but never delivered"
        );
    }
}
