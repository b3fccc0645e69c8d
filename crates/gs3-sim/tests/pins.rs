//! Values pinned at the commit before the engine was split into a core
//! and two pipelines, driven through the public API only: the model
//! checker's hash of a parked unicast and a parked broadcast, and the
//! whole [`gs3_sim::trace::Trace`] of a run that sends every copy through
//! the full loss cascade. A change to either means the send path moved
//! an RNG draw, a counter or a hashed byte.

use gs3_geometry::Point;
use gs3_sim::faults::{BurstLoss, FaultConfig};
use gs3_sim::radio::{EnergyModel, RadioModel};
use gs3_sim::trace::Counter;
use gs3_sim::{ContentionConfig, Context, Engine, Node, NodeId, Payload, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
struct Frame(u32);
impl Payload for Frame {
    fn kind(&self) -> &'static str {
        "frame"
    }
}

/// At 100 ms, sends one frame: a unicast to `target`, or a broadcast of
/// radius 120 when it has none.
#[derive(Debug, Clone)]
struct OneShot {
    target: Option<NodeId>,
}

impl Node for OneShot {
    type Msg = Frame;
    type Timer = u8;

    fn on_start(&mut self, ctx: &mut Context<'_, Frame, u8>) {
        ctx.set_timer(SimDuration::from_millis(100), 7);
    }

    fn on_message(&mut self, _: NodeId, _: Frame, _: &mut Context<'_, Frame, u8>) {}

    fn on_timer(&mut self, _: u8, ctx: &mut Context<'_, Frame, u8>) {
        match self.target {
            Some(to) => ctx.unicast(to, Frame(41)),
            None => ctx.broadcast(120.0, Frame(42)),
        }
        ctx.set_timer(SimDuration::from_secs(1), 9);
    }
}

/// The canonical hashes of a queue holding three broadcast copies on the
/// air, one unicast and one broadcast parked behind them by carrier
/// sense, and four re-armed timers — as the parent commit computes them.
const PINNED_PARKED_HASHES: [u64; 9] = [
    0x4483_151A_C45F_3036,
    0x27AB_3CCB_9269_1C0B,
    0x70AD_58A7_9AD9_18C0,
    0x816A_0D02_C170_CB29,
    0x5E8A_ED33_4BCE_BB7F,
    0x761B_7F18_6F3B_B0A3,
    0xF95D_F682_E46D_AF31,
    0xB086_5FE0_E73D_0AAB,
    0xB380_012D_66B0_27FD,
];

#[test]
fn parked_unicast_and_broadcast_hash_as_at_the_parent() {
    let mut eng = Engine::new(RadioModel::ideal(150.0), EnergyModel::disabled(), 3);
    eng.set_contention(ContentionConfig::on());
    // Four co-located radios. The first to fire takes the air; the next
    // two sense it busy and park — one unicast, one broadcast.
    let sink = NodeId::new(3);
    eng.spawn(OneShot { target: None }, Point::ORIGIN);
    eng.spawn(OneShot { target: Some(sink) }, Point::new(4.0, 0.0));
    eng.spawn(OneShot { target: None }, Point::new(8.0, 0.0));
    eng.spawn(OneShot { target: Some(NodeId::new(99)) }, Point::new(12.0, 0.0));
    eng.run_for(SimDuration::from_millis(100));
    assert_eq!(eng.trace().mac_defers(), 2, "one unicast and one broadcast parked");
    assert_eq!(eng.trace().get(Counter::UnicastFailures), 1, "an unknown target fails before carrier sense");
    assert_eq!(eng.in_flight_transmissions(), 3, "one frame on the air, two parked");
    let hashes = eng.pending_event_hashes();
    assert_eq!(hashes, PINNED_PARKED_HASHES, "{hashes:#018x?}");
    // Both parked frames retry through the queue and arrive.
    eng.run_for(SimDuration::from_millis(500));
    assert_eq!(eng.in_flight_transmissions(), 0);
    assert_eq!(eng.trace().deliveries(), 3 + 1 + 3, "two broadcasts of three copies and the unicast");
}

/// Sends at random: broadcasts of random radius, unicasts to random ids
/// (dead, out of range, unknown and its own included), echoes a quarter
/// of what it hears.
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

/// Thirty babblers under every probabilistic fault at once: lossy
/// broadcast, a jam disk over a corner of the field, burst loss, unicast
/// loss, duplication and extra delay, with two nodes killed on the way.
fn babble(contention: ContentionConfig) -> (String, u64) {
    const POPULATION: u64 = 30;
    let mut place = StdRng::seed_from_u64(0x0ca5_cade);
    let mut eng: Engine<Babbler> = Engine::new(RadioModel::lossy(150.0, 0.3), EnergyModel::disabled(), 17);
    eng.set_contention(contention);
    eng.set_fault_config(FaultConfig {
        burst: BurstLoss { p_enter: 0.05, p_exit: 0.25, loss_good: 0.01, loss_bad: 0.9 },
        unicast_loss: 0.1,
        duplicate: 0.05,
        delay_prob: 0.1,
        delay_max: SimDuration::from_millis(30),
    });
    eng.faults_mut().start_jam(Point::new(40.0, 40.0), 45.0);
    for _ in 0..POPULATION {
        let at = Point::new(place.gen_range(0.0f64..200.0), place.gen_range(0.0f64..200.0));
        eng.spawn(Babbler { population: POPULATION }, at);
    }
    eng.run_for(SimDuration::from_secs(5));
    eng.kill(NodeId::new(4)).unwrap();
    eng.kill(NodeId::new(21)).unwrap();
    eng.run_for(SimDuration::from_secs(5));
    let t = eng.trace();
    for (what, n) in [
        ("broadcast loss", t.get(Counter::BroadcastLosses)),
        ("jam", t.dropped_by_jam()),
        ("burst", t.dropped_by_burst()),
        ("unicast loss", t.dropped_unicast()),
        ("duplicate", t.duplicated()),
        ("delay", t.get(Counter::Delayed)),
        ("unicast failure", t.get(Counter::UnicastFailures)),
    ] {
        assert!(n > 0, "the run never took the {what} branch");
    }
    (gs3_sim::telemetry::json::to_string(|w| t.write_json(w)), t.digest())
}

/// [`babble`] over the ideal medium, as the parent commit traces it: the
/// whole counter view, and the digest.
const PINNED_CASCADE_TRACE: (&str, u64) = (
    "{\"unicasts_sent\":19418,\"broadcasts_sent\":7279,\"deliveries\":48480,\
    \"broadcast_losses\":26908,\"unicast_failures\":1331,\"timers_fired\":14439,\
    \"dropped_by_burst\":9109,\"dropped_by_jam\":23276,\"dropped_unicast\":1349,\
    \"duplicated\":2277,\"delayed\":4871,\"scripted_drops\":0,\"scripted_duplicates\":0,\
    \"scripted_delays\":0,\"mac_collisions\":0,\"mac_defers\":0,\"mac_backoff_exhausted\":0,\
    \"scheduled_deliveries\":48502,\"sent_by_kind\":{\"frame\":26697},\"proto\":{}}",
    14964728304641504574,
);
/// [`babble`] over the contended medium.
const PINNED_CONTENDED_CASCADE_TRACE: (&str, u64) = (
    "{\"unicasts_sent\":9308,\"broadcasts_sent\":7232,\"deliveries\":8356,\
    \"broadcast_losses\":16861,\"unicast_failures\":1373,\"timers_fired\":14471,\
    \"dropped_by_burst\":4623,\"dropped_by_jam\":15395,\"dropped_unicast\":299,\
    \"duplicated\":1235,\"delayed\":2582,\"scripted_drops\":0,\"scripted_duplicates\":0,\
    \"scripted_delays\":0,\"mac_collisions\":16927,\"mac_defers\":52757,\
    \"mac_backoff_exhausted\":4993,\"scheduled_deliveries\":25288,\
    \"sent_by_kind\":{\"frame\":16540},\"proto\":{}}",
    13231623064226471193,
);

#[test]
fn loss_cascade_order_is_pinned_by_the_whole_trace() {
    let plain = babble(ContentionConfig::disabled());
    assert_eq!((plain.0.as_str(), plain.1), PINNED_CASCADE_TRACE);
    let contended = babble(ContentionConfig::on());
    assert_eq!((contended.0.as_str(), contended.1), PINNED_CONTENDED_CASCADE_TRACE);
}
