//! Laws of the engine's per-transmission records, driven through the
//! public API only: conservation of references under every discard path,
//! fork equivalence with frames in flight, and once-per-frame episode
//! billing under carrier-sense deferral.

use gs3_geometry::Point;
use gs3_sim::radio::{EnergyModel, RadioModel};
use gs3_sim::trace::Counter;
use gs3_sim::{ContentionConfig, Context, Engine, Fate, Node, NodeId, Payload, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
struct Frame(u32);
impl Payload for Frame {
    fn kind(&self) -> &'static str {
        "frame"
    }
}

/// Every `period`, sends its running counter: a unicast to `target`, or a
/// broadcast when it has none.
#[derive(Debug, Clone)]
struct Beacon {
    target: Option<NodeId>,
    period: SimDuration,
    sent: u32,
    received: u32,
}

impl Beacon {
    fn every_100ms(target: Option<NodeId>) -> Self {
        Beacon { target, period: SimDuration::from_millis(100), sent: 0, received: 0 }
    }
}

impl Node for Beacon {
    type Msg = Frame;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Frame, ()>) {
        ctx.set_timer(self.period, ());
    }

    fn on_message(&mut self, _: NodeId, _: Frame, _: &mut Context<'_, Frame, ()>) {
        self.received += 1;
    }

    fn on_timer(&mut self, (): (), ctx: &mut Context<'_, Frame, ()>) {
        match self.target {
            Some(to) => ctx.unicast(to, Frame(self.sent)),
            None => ctx.broadcast(120.0, Frame(self.sent)),
        }
        self.sent += 1;
        ctx.set_timer(self.period, ());
    }
}

/// Sends at random: broadcasts of random radius, unicasts to random ids
/// (dead, out of range and unknown ones included), echoes a quarter of
/// what it hears.
#[derive(Debug, Clone)]
struct Babbler {
    population: u64,
}

impl Babbler {
    fn rearm(ctx: &mut Context<'_, Frame, ()>) {
        let after = ctx.rng().gen_range(1u64..40);
        ctx.set_timer(SimDuration::from_millis(after), ());
    }
}

impl Node for Babbler {
    type Msg = Frame;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Frame, ()>) {
        Babbler::rearm(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Frame, ctx: &mut Context<'_, Frame, ()>) {
        if ctx.rng().gen_range(0u32..4) == 0 {
            ctx.unicast(from, Frame(msg.0 + 1));
        }
    }

    fn on_timer(&mut self, (): (), ctx: &mut Context<'_, Frame, ()>) {
        if ctx.rng().gen_range(0u32..2) == 0 {
            let radius = ctx.rng().gen_range(10.0f64..150.0);
            ctx.broadcast(radius, Frame(0));
        } else {
            let to = NodeId::new(ctx.rng().gen_range(0..self.population + 2));
            ctx.unicast(to, Frame(0));
        }
        Babbler::rearm(ctx);
    }
}

/// The first conservation law of the fuzz harness: between any two
/// events, live records are exactly what the queue references, with
/// matching counts — whichever way a delivery or a parked frame ends.
#[test]
fn transmission_records_are_conserved_on_every_discard_path() {
    const POPULATION: u64 = 24;
    for seed in 0..8u64 {
        let mut drive = StdRng::seed_from_u64(0x7e57_0000 + seed);
        // Idle drain plus tx/rx costs against small budgets: nodes die on
        // the rx charge, on their own sends and while idle.
        let energy = EnergyModel { tx_base: 0.02, tx_dist2: 0.0, rx: 0.01, idle: 0.05 };
        let mut eng: Engine<Babbler> = Engine::new(RadioModel::lossy(150.0, 0.1), energy, seed);
        eng.set_contention(ContentionConfig { max_backoffs: 2, ..ContentionConfig::on() });
        for _ in 0..POPULATION {
            let at = Point::new(drive.gen_range(0.0f64..200.0), drive.gen_range(0.0f64..200.0));
            let budget = drive.gen_range(0.5f64..6.0);
            eng.spawn_with_energy(Babbler { population: POPULATION }, at, Some(budget));
        }
        let mut steps = 0u32;
        while eng.alive_count() > 0 && steps < 60_000 {
            match drive.gen_range(0u32..400) {
                0 => {
                    let victim = NodeId::new(drive.gen_range(0..POPULATION));
                    eng.kill(victim).expect("known id");
                }
                1..=4 => {
                    let fate = match drive.gen_range(0u32..4) {
                        0 => Fate::Drop,
                        1 => Fate::Duplicate,
                        2 => Fate::Delay(SimDuration::from_millis(drive.gen_range(1u64..80))),
                        _ => Fate::Collide,
                    };
                    let index = eng.faults().attempt_count() + drive.gen_range(0u64..30);
                    eng.faults_mut().install_script([(index, fate)]);
                }
                5..=6 => {
                    let from = NodeId::new(drive.gen_range(0..POPULATION));
                    let to = NodeId::new(drive.gen_range(0..POPULATION));
                    let after = SimDuration::from_millis(drive.gen_range(0u64..50));
                    eng.inject_message(from, to, Frame(9), after).expect("known id");
                }
                _ => {}
            }
            eng.step();
            steps += 1;
            if let Err(broken) = eng.audit_transmissions() {
                panic!("seed {seed}, step {steps}: {broken}");
            }
        }
        let t = eng.trace();
        assert!(t.mac_defers() > 0 && t.mac_backoff_exhausted() > 0, "seed {seed}: no contention");
        assert!(t.mac_collisions() > 0, "seed {seed}: no collision");
        assert!(t.get(Counter::ScriptedDuplicates) > 0 && t.get(Counter::ScriptedDelays) > 0, "seed {seed}: script unused");
        // Whatever is still queued targets the dead; draining it must hand
        // every record back.
        for id in eng.ids().collect::<Vec<_>>() {
            eng.kill(id).expect("known id");
        }
        while eng.step() {}
        assert_eq!(eng.audit_transmissions(), Ok(()));
        assert_eq!(eng.in_flight_transmissions(), 0, "seed {seed}: records leaked at quiescence");
    }
}

#[test]
fn a_deferred_frame_is_billed_to_its_episode_once() {
    // A silent receiver and two co-located senders whose synchronized
    // frames force the second one to defer, every round.
    let mut eng = Engine::new(RadioModel::ideal(150.0), EnergyModel::disabled(), 7);
    eng.set_contention(ContentionConfig::on());
    let sink = eng.spawn(
        Beacon { period: SimDuration::from_secs(3600), ..Beacon::every_100ms(None) },
        Point::new(100.0, 0.0),
    );
    let a = eng.spawn(Beacon::every_100ms(Some(sink)), Point::ORIGIN);
    let b = eng.spawn(Beacon::every_100ms(Some(sink)), Point::new(5.0, 0.0));
    let ep = eng.open_episode("test");
    eng.taint_episode_node(ep, a);
    eng.taint_episode_node(ep, b);
    // Stop between two beacon instants, every backoff long resolved.
    eng.run_for(SimDuration::from_millis(9_950));
    assert_eq!(eng.in_flight_transmissions(), 0, "no frame parked or on the air");
    let t = eng.trace();
    assert!(t.mac_defers() > 50, "the second sender defers every round: {}", t.mac_defers());
    assert_eq!(t.mac_backoff_exhausted(), 0);
    let sent = eng.node(a).unwrap().sent + eng.node(b).unwrap().sent;
    assert_eq!(eng.node(sink).unwrap().received, sent, "every frame went on the air once");
    let episode = eng.telemetry().episodes.episode(ep).expect("opened above");
    assert_eq!(episode.messages, u64::from(sent), "one bill per frame, not one per attempt");
}

#[test]
fn forked_engines_agree_with_frames_in_flight() {
    // Five co-located broadcasters and a unicaster: stop right after a
    // beacon instant, with broadcast copies queued and a deferred frame
    // parked.
    let mut eng = Engine::new(RadioModel::ideal(150.0), EnergyModel::disabled(), 11);
    eng.set_contention(ContentionConfig::on());
    let ids: Vec<NodeId> = (0..6)
        .map(|i| {
            let target = (i == 5).then(|| NodeId::new(0));
            eng.spawn(Beacon::every_100ms(target), Point::new(f64::from(i) * 8.0, 0.0))
        })
        .collect();
    eng.run_for(SimDuration::from_millis(100));
    let parked = eng.trace().mac_defers();
    assert!(parked > 0, "a sender deferred at the beacon instant");
    assert!(eng.in_flight_transmissions() as u64 > parked, "broadcast copies still queued");

    let mut fork = eng.clone();
    assert_eq!(fork.pending_event_hashes(), eng.pending_event_hashes());
    assert_eq!(fork.in_flight_transmissions(), eng.in_flight_transmissions());

    // Both copies replay the same future, step for step.
    for engine in [&mut eng, &mut fork] {
        engine.run_for(SimDuration::from_millis(730));
    }
    assert_eq!(fork.trace().digest(), eng.trace().digest());
    assert_eq!(fork.events_processed(), eng.events_processed());
    assert_eq!(fork.pending_event_hashes(), eng.pending_event_hashes());

    // Perturbing one copy leaves the other's records alone: a third copy,
    // forked now and left unperturbed, keeps matching the original.
    let mut control = eng.clone();
    let before = (eng.pending_event_hashes(), eng.in_flight_transmissions());
    fork.kill(ids[0]).unwrap();
    fork.run_for(SimDuration::from_millis(500));
    assert_eq!(fork.audit_transmissions(), Ok(()));
    assert_eq!((eng.pending_event_hashes(), eng.in_flight_transmissions()), before);
    assert_eq!(eng.audit_transmissions(), Ok(()));
    for engine in [&mut eng, &mut control] {
        engine.run_for(SimDuration::from_millis(500));
    }
    assert_eq!(control.trace().digest(), eng.trace().digest());
    assert_ne!(fork.trace().digest(), eng.trace().digest(), "the kill was observable");
    let received = |e: &Engine<Beacon>| e.ids().map(|id| e.node(id).unwrap().received).sum::<u32>();
    assert_eq!(received(&control), received(&eng));
}
