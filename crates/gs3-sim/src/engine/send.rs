//! The send pipeline. A unicast is a broadcast with one receiver, so there
//! is one path, [`Engine::transmit`]; its numbered steps are the stage
//! order, and the order is load-bearing (DESIGN.md §6.7): a stage draws
//! from the one engine RNG only when its knob is on, so moving one moves
//! every later draw, and every pinned digest with it.

use super::*;
use gs3_telemetry::NO_PEER;
use rand::Rng;
use crate::faults::Fate;
use crate::medium::SLOT;

/// What the copies of one frame share.
struct Frame {
    flight: u32,
    from: NodeId,
    from_pos: Point,
    kind: Label,
    directed: bool,
}

impl<N: Node> Engine<N> {
    /// A node's `unicast`/`broadcast`: its kind resolved to a label, counted
    /// once, then tried as attempt 0.
    pub(super) fn send(&mut self, from: NodeId, dest: Dest, msg: N::Msg) {
        let kind = Label::of(msg.kind());
        match dest {
            Dest::Node(_) => self.trace.record_unicast(kind),
            Dest::Disk(_) => self.trace.record_broadcast(kind),
        }
        self.transmit(from, dest, msg, kind, 0);
    }

    /// A parked frame of `kind` ran out its backoff: it leaves the slab
    /// and tries again.
    pub(super) fn resend(&mut self, flight: u32, attempt: u32, kind: Label) {
        let t = self.flights.release(flight).expect("a parked frame is held by its resend event only");
        self.transmit(t.from, t.dest, t.msg, kind, attempt);
    }

    /// One transmission attempt of a frame of `kind` (attempt 0 is the
    /// original send; higher attempts are carrier-sense backoff retries and
    /// only occur while contention is enabled).
    fn transmit(&mut self, from: NodeId, dest: Dest, msg: N::Msg, kind: Label, attempt: u32) {
        let from_pos = self.arena.positions[from.index()];
        // 1. Resolve the destination (a retry's target may have died since).
        let reach = match dest {
            Dest::Node(to) => {
                let Some(&target_pos) = self.arena.positions.get(to.index()) else {
                    self.trace.bump(Counter::UnicastFailures);
                    return;
                };
                let dist = from_pos.distance(target_pos);
                if !self.arena.alive[to.index()] || dist > self.radio.max_range {
                    self.trace.bump(Counter::UnicastFailures);
                    // The sender still transmitted: it burns the energy
                    // and its episode is billed the frame.
                    self.episode_tag(from);
                    self.charge(from, self.energy_model.tx_cost(dist.min(self.radio.max_range)));
                    return;
                }
                dist
            }
            Dest::Disk(radius) => self.radio.effective_range(radius),
        };
        // 2. Carrier sense: defer while an audible transmission is on the
        // air. No RNG, events or counters while contention is disabled.
        let mut t = Transmission { from, msg, tag: NO_TAG, tx: TxWindow::NONE, dest, refs: 1 };
        if self.contention.enabled {
            if self.medium.busy(self.now.as_micros(), from_pos) {
                if let Some(at) = self.mac_defer(from, attempt) {
                    let flight = self.flights.open(t);
                    let retry = EventKind::Resend { flight, attempt: attempt + 1, kind };
                    self.queue.schedule(at, PendingEvent { to: from, kind: retry });
                }
                return;
            }
            let airtime = self.contention.airtime(t.msg.wire_bits());
            t.tx = self.medium.begin(self.now.as_micros(), airtime, from_pos, reach);
        }
        // 3. Open the record (the sender holds it meanwhile), bill the episode.
        t.tag = self.episode_tag(from);
        let flight = self.flights.open(t);
        let frame = Frame { flight, from, from_pos, kind, directed: dest.is_directed() };
        // 4. Per receiver: the target, or every alive node in range but the
        // sender, ascending by id, with the distance its latency is drawn from.
        match dest {
            Dest::Node(to) => self.attempt_delivery(&frame, to, reach),
            Dest::Disk(_) => {
                let mut receivers = std::mem::take(&mut self.recv_buf);
                debug_assert!(receivers.is_empty());
                self.grid.disk_into(from_pos, reach, &mut receivers);
                for &(h, dist) in &receivers {
                    if h != from.index() {
                        self.attempt_delivery(&frame, NodeId::from_index(h), dist);
                    }
                }
                receivers.clear();
                self.recv_buf = receivers;
            }
        }
        // 5. Release (this frees a frame nobody will receive) and charge.
        self.flights.release(flight);
        self.charge(from, self.energy_model.tx_cost(reach));
    }

    /// The episode tag a transmission from `from` carries, accounting the
    /// transmission to its episode. Gated on `any_open()` so runs with no
    /// perturbation in flight pay a single branch.
    fn episode_tag(&mut self, from: NodeId) -> u64 {
        if !self.telemetry.episodes.any_open() {
            return NO_TAG;
        }
        let tag = self.telemetry.episodes.tag_for_sender(from.raw());
        if tag != NO_TAG {
            let pos = self.arena.positions[from.index()];
            self.telemetry.episodes.on_send(tag, (pos.x, pos.y));
        }
        tag
    }

    /// Handles a carrier-sense deferral (contention path only): `None`
    /// once the retry budget is exhausted — the frame is dropped —
    /// otherwise when to retry, after a seeded slotted exponential
    /// backoff of `1..=cw` whole slots, with `cw` doubling per retry.
    fn mac_defer(&mut self, from: NodeId, attempt: u32) -> Option<SimTime> {
        self.arena.mac_events[from.index()] += 1;
        let exhausted = attempt >= self.contention.max_backoffs;
        let kind = if exhausted {
            self.trace.bump(Counter::MacBackoffExhausted);
            "mac_backoff_exhausted"
        } else {
            self.trace.bump(Counter::MacDefers);
            "mac_defer"
        };
        self.record_event(EventClass::MacDefer, from, kind, NO_PEER, None, u64::from(attempt));
        if exhausted {
            return None;
        }
        let cw = self.contention.window(attempt);
        let slots = u64::from(self.rng.gen_range(1..=cw));
        Some(self.now + SLOT * slots)
    }

    /// Decides whether one in-range receiver gets its copy. A scripted fate
    /// (the model checker's decision point) overrides the probabilistic
    /// cascade. Jamming is geometric (RNG-free; the receiver's position is
    /// read only while a jam is up); the rest draw only when their knob is on.
    fn attempt_delivery(&mut self, f: &Frame, to: NodeId, dist: f64) {
        let fate = self.faults.next_attempt();
        match fate {
            Some(Fate::Drop) => return self.trace.bump(Counter::ScriptedDrops),
            // Works with contention off: the model checker's collision schedules.
            Some(Fate::Collide) => return self.record_corrupted(to, f.from, f.kind, None),
            Some(_) => {}
            None => {
                if !f.directed && self.radio.broadcast_dropped(&mut self.rng) {
                    return self.trace.bump(Counter::BroadcastLosses);
                }
                if !self.faults.jams().is_empty()
                    && self.faults.jammed(f.from_pos, self.arena.positions[to.index()])
                {
                    return self.trace.bump(Counter::DroppedByJam);
                }
                if self.faults.burst_dropped(&mut self.rng) {
                    return self.trace.bump(Counter::DroppedByBurst);
                }
                if f.directed && self.faults.unicast_dropped(&mut self.rng) {
                    return self.trace.bump(Counter::DroppedUnicast);
                }
            }
        }
        self.schedule_delivery(f, to, dist, fate);
    }

    /// Schedules a surviving copy (and a possible duplicate). Every
    /// scheduled copy is folded into the trace digest and takes one more
    /// reference to the frame's record. With an inert fault state this
    /// draws exactly one latency sample — bit-identical to the pre-fault
    /// engine.
    fn schedule_delivery(&mut self, f: &Frame, to: NodeId, dist: f64, fate: Option<Fate>) {
        let copies = match fate {
            Some(Fate::Duplicate) => {
                self.trace.bump(Counter::ScriptedDuplicates);
                2
            }
            Some(_) => 1,
            None => {
                if self.faults.duplicated(&mut self.rng) {
                    self.trace.bump(Counter::Duplicated);
                    2
                } else {
                    1
                }
            }
        };
        for _ in 0..copies {
            let mut latency = self.radio.latency(dist, &mut self.rng);
            let extra = match fate {
                Some(Fate::Delay(d)) => d,
                Some(_) => SimDuration::ZERO,
                None => self.faults.extra_delay(&mut self.rng),
            };
            if !extra.is_zero() {
                if fate.is_some() {
                    self.trace.bump(Counter::ScriptedDelays);
                } else {
                    self.trace.bump(Counter::Delayed);
                }
                latency = latency + extra;
            }
            let at = self.now + latency;
            let fold = self.kind_folds.get(f.kind);
            self.trace.record_scheduled_delivery(at.as_micros(), f.from.raw(), to.raw(), fold);
            self.flights.retain(f.flight);
            let copy = EventKind::Deliver { flight: f.flight, kind: f.kind };
            self.queue.schedule(at, PendingEvent { to, kind: copy });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{chatter_pair, line_engine, Blaster, Flood, Hop, T};
    use super::super::Context;
    use super::*;
    use crate::faults::{BurstLoss, FaultConfig};
    use crate::medium::ContentionConfig;
    use crate::radio::{EnergyModel, RadioModel};

    /// On start, node 0 unicasts once to a fixed id.
    #[derive(Debug)]
    struct Caster {
        to: NodeId,
        heard: u32,
    }
    impl Node for Caster {
        type Msg = Hop;
        type Timer = T;
        fn on_start(&mut self, ctx: &mut Context<'_, Hop, T>) {
            if ctx.id() == NodeId::new(0) {
                ctx.unicast(self.to, Hop(0));
            }
        }
        fn on_message(&mut self, _: NodeId, _: Hop, _: &mut Context<'_, Hop, T>) {
            self.heard += 1;
        }
        fn on_timer(&mut self, _: T, _: &mut Context<'_, Hop, T>) {}
    }

    fn cast_to(to: u64) -> Engine<Caster> {
        let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
        for x in [0.0, 500.0] {
            eng.spawn(Caster { to: NodeId::new(to), heard: 0 }, Point::new(x, 0.0));
        }
        eng.run_until(SimTime::from_micros(1_000_000));
        eng
    }

    #[test]
    fn unicast_out_of_range_fails() {
        let eng = cast_to(1);
        assert_eq!(eng.trace().get(Counter::UnicastFailures), 1);
        assert_eq!(eng.node(NodeId::new(1)).unwrap().heard, 0);
        assert_eq!(eng.trace().get(Counter::ScheduledDeliveries), 0);
    }

    #[test]
    fn unicast_to_self_is_delivered() {
        // Only a broadcast skips its sender.
        let eng = cast_to(0);
        assert_eq!(eng.trace().get(Counter::UnicastFailures), 0);
        assert_eq!(eng.node(NodeId::new(0)).unwrap().heard, 1);
    }

    #[test]
    fn unicast_loss_drops_at_rate() {
        let mut eng = chatter_pair(FaultConfig { unicast_loss: 0.3, ..FaultConfig::none() });
        eng.run_for(SimDuration::from_secs(200));
        let t = eng.trace();
        assert!(t.dropped_unicast() > 0, "some unicasts must drop");
        let sent = eng.node(NodeId::new(0)).unwrap().sent + eng.node(NodeId::new(1)).unwrap().sent;
        let rate = t.dropped_unicast() as f64 / f64::from(sent);
        assert!((rate - 0.3).abs() < 0.05, "drop rate {rate}");
        assert_eq!(t.get(Counter::UnicastFailures), 0, "loss is not a range failure");
    }

    #[test]
    fn jam_disk_blocks_both_directions() {
        let mut eng = chatter_pair(FaultConfig::none());
        let jam = eng.faults_mut().start_jam(Point::ORIGIN, 10.0);
        eng.run_for(SimDuration::from_secs(5));
        // Node 0 is inside the jam: its sends and its inbound copies are
        // all suppressed.
        assert_eq!(eng.node(NodeId::new(0)).unwrap().received, 0);
        assert_eq!(eng.node(NodeId::new(1)).unwrap().received, 0);
        assert!(eng.trace().dropped_by_jam() > 0);
        let blocked = eng.trace().dropped_by_jam();
        eng.faults_mut().stop_jam(jam);
        eng.run_for(SimDuration::from_secs(5));
        assert!(eng.node(NodeId::new(1)).unwrap().received > 0, "heals after jam stops");
        assert_eq!(eng.trace().dropped_by_jam(), blocked, "no drops after stop");
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut eng = chatter_pair(FaultConfig { duplicate: 0.5, ..FaultConfig::none() });
        eng.run_for(SimDuration::from_secs(50));
        let t = eng.trace();
        assert!(t.duplicated() > 100, "duplicates occurred: {}", t.duplicated());
        let received =
            eng.node(NodeId::new(0)).unwrap().received + eng.node(NodeId::new(1)).unwrap().received;
        let sent = eng.node(NodeId::new(0)).unwrap().sent + eng.node(NodeId::new(1)).unwrap().sent;
        assert!(u64::from(received) > u64::from(sent), "more deliveries than sends");
    }

    #[test]
    fn burst_loss_affects_broadcasts_too() {
        let mut eng: Engine<Flood> = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 9);
        eng.set_fault_config(FaultConfig {
            burst: BurstLoss {
                p_enter: 1.0,
                p_exit: f64::MIN_POSITIVE,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            ..FaultConfig::none()
        });
        eng.spawn(Flood::default(), Point::ORIGIN);
        let other = eng.spawn(Flood::default(), Point::new(50.0, 0.0));
        eng.run_for(SimDuration::from_secs(10));
        // The chain enters the (for this run, permanent) bad state before
        // the first delivery: nothing gets through.
        assert_eq!(eng.node(other).unwrap().heard, None);
        assert!(eng.trace().dropped_by_burst() > 0);
    }

    #[test]
    fn extra_delay_stretches_latency() {
        let run = |config: FaultConfig| {
            let mut eng = chatter_pair(config);
            eng.run_for(SimDuration::from_secs(20));
            (eng.trace().get(Counter::Delayed), eng.node(NodeId::new(1)).unwrap().received)
        };
        let (delayed, _) = run(FaultConfig {
            delay_prob: 1.0,
            delay_max: SimDuration::from_millis(40),
            ..FaultConfig::none()
        });
        assert!(delayed > 0, "every delivery is delayed");
        let (none_delayed, _) = run(FaultConfig::none());
        assert_eq!(none_delayed, 0);
    }

    #[test]
    fn inert_faults_leave_stream_untouched() {
        // A faulted-but-inert engine must replay the exact event sequence
        // (and digest) of a plain engine: the hooks draw no RNG.
        let run = |configure: bool| {
            let (mut eng, _) = line_engine(20, 40.0);
            if configure {
                eng.set_fault_config(FaultConfig::none());
            }
            eng.run_until(SimTime::from_micros(5_000_000));
            (eng.trace().digest(), eng.events_processed())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn digest_distinguishes_fault_configs() {
        let run = |loss: f64| {
            let mut eng = chatter_pair(FaultConfig { unicast_loss: loss, ..FaultConfig::none() });
            eng.run_for(SimDuration::from_secs(30));
            eng.trace().digest()
        };
        assert_eq!(run(0.10), run(0.10), "same config, same digest");
        assert_ne!(run(0.10), run(0.25), "different channel, different digest");
        assert_ne!(run(0.0), run(0.10));
    }

    /// A silent receiver 100 m out, and two co-located senders whose
    /// synchronized frames contend for the air every 100 ms.
    fn contended_trio(config: ContentionConfig, second_sender: Blaster) -> (Engine<Blaster>, [NodeId; 3]) {
        let mut eng = Engine::new(RadioModel::ideal(150.0), EnergyModel::disabled(), 7);
        eng.set_contention(config);
        let b = eng.spawn(Blaster::to(None), Point::new(100.0, 0.0));
        let a1 = eng.spawn(Blaster::to(Some(b)), Point::ORIGIN);
        let a2 = eng.spawn(second_sender, Point::new(5.0, 0.0));
        eng.run_for(SimDuration::from_secs(10));
        (eng, [b, a1, a2])
    }

    #[test]
    fn disabled_contention_is_rng_inert() {
        // An engine with an explicitly-set disabled contention config must
        // replay the untouched engine bit-for-bit (digest and event
        // count), and enabling contention on a contended topology must
        // perturb the digest.
        let run = |contention: Option<ContentionConfig>| {
            let (mut eng, _) = line_engine(20, 40.0);
            if let Some(cfg) = contention {
                eng.set_contention(cfg);
            }
            eng.run_until(SimTime::from_micros(5_000_000));
            (eng.trace().digest(), eng.events_processed())
        };
        assert_eq!(run(Some(ContentionConfig::disabled())), run(None));
        assert_eq!(run(None).0, run(None).0);
        let contended = |config: ContentionConfig| {
            contended_trio(config, Blaster::to(Some(NodeId::new(0)))).0.trace().digest()
        };
        assert_ne!(
            contended(ContentionConfig::on()),
            contended(ContentionConfig::disabled()),
            "contention must be observable"
        );
    }

    #[test]
    fn carrier_sense_defers_and_still_delivers() {
        // The second sender hears the first's frame on the air, defers
        // with backoff, and retries clear of it — traffic gets through
        // without collisions, whether the parked frame is a unicast or a
        // broadcast.
        for second in [Blaster::to(Some(NodeId::new(0))), Blaster::shouting(120.0)] {
            let broadcasts = second.radius.is_some();
            let (eng, [b, a1, a2]) = contended_trio(ContentionConfig::on(), second);
            let t = eng.trace();
            assert!(t.mac_defers() > 0, "co-located senders must defer");
            assert_eq!(t.mac_collisions(), 0, "carrier sense prevents the collision");
            assert_eq!(t.broadcasts_sent() > 0, broadcasts);
            let sent = eng.node(a1).unwrap().sent + eng.node(a2).unwrap().sent;
            let received = eng.node(b).unwrap().received;
            // All but the handful still in flight at the deadline arrive.
            assert!(received + 4 >= sent && received > 0, "deferred frames still arrive: {received}/{sent}");
            // The deferring node observed its own congestion signal.
            let seen = eng.node(a1).unwrap().mac_seen + eng.node(a2).unwrap().mac_seen;
            assert!(seen > 0, "ctx.mac_events surfaces deferrals to the protocol");
        }
    }

    #[test]
    fn backoff_exhaustion_drops_frames() {
        // With a zero-retry budget, any busy channel at send time drops
        // the frame outright.
        let config = ContentionConfig { max_backoffs: 0, ..ContentionConfig::on() };
        let (eng, _) = contended_trio(config, Blaster::to(Some(NodeId::new(0))));
        let t = eng.trace();
        assert!(t.mac_backoff_exhausted() > 0, "zero budget must exhaust");
        assert_eq!(t.mac_defers(), 0, "no retries were ever scheduled");
    }

    #[test]
    fn scripted_collide_corrupts_without_contention() {
        // Fate::Collide works with the medium model disabled — the model
        // checker's handle on worst-case collision schedules.
        let mut eng = chatter_pair(FaultConfig::none());
        eng.faults_mut().install_script([(0, Fate::Collide)]);
        eng.run_for(SimDuration::from_secs(1));
        let t = eng.trace();
        assert_eq!(t.mac_collisions(), 1, "the scripted attempt collides");
        let sent = eng.node(NodeId::new(0)).unwrap().sent;
        assert!(
            eng.node(NodeId::new(1)).unwrap().received < sent,
            "the collided frame (attempt 0) never arrived"
        );
        assert!(eng.faults.script.is_empty(), "script entry consumed");
    }

    #[test]
    fn contention_telemetry_counts_mac_classes() {
        let (eng, _) = contended_trio(ContentionConfig::on(), Blaster::to(Some(NodeId::new(0))));
        let rec = &eng.telemetry().recorder;
        assert_eq!(rec.of_class(EventClass::MacDefer), eng.trace().mac_defers());
        assert_eq!(rec.of_class(EventClass::MacCollision), eng.trace().mac_collisions());
    }
}
