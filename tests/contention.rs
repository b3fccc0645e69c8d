//! Shared-medium contention: RNG-inertness of the disabled layer, the
//! collision/backoff machinery under load, and congestion-adaptive
//! graceful degradation.
//!
//! The inertness tests are the PR-boundary contract: a build carrying the
//! contention code but leaving it disabled must replay byte-identical
//! digests to a build that never had it, so every pre-existing pinned
//! digest (see `trace_digest_is_pinned_across_queue_implementations` in
//! gs3-core) keeps holding without edits.

use gs3::core::harness::NetworkBuilder;
use gs3::core::{
    CongestionConfig, Corruption, DataplaneConfig, FaultKind, FaultPlan, ReliabilityConfig,
};
use gs3::geometry::{Point, Vec2};
use gs3::sim::faults::{BurstLoss, FaultConfig};
use gs3::sim::trace::Counter;
use gs3::sim::{ContentionConfig, SimDuration};

fn builder(seed: u64) -> NetworkBuilder {
    NetworkBuilder::new()
        .ideal_radius(40.0)
        .radius_tolerance(14.0)
        .area_radius(140.0)
        .expected_nodes(200)
        .seed(seed)
}

fn crash_plan() -> FaultPlan {
    FaultPlan::new().at(SimDuration::from_secs(5), FaultKind::CrashRandom { count: 5 })
}

/// The digest a default (contention-free) build of this scenario replays.
/// Pinned at the PR boundary that introduced the contention layer: any
/// later change to this value means a disabled layer shifted the RNG
/// stream or the delivery schedule.
const PINNED_CONTENTION_OFF_DIGEST: u64 = 0xE455_163D_3737_F5BC;

#[test]
fn disabled_contention_and_congestion_are_rng_inert() {
    let run = |explicit: bool| {
        let mut b = builder(11);
        if explicit {
            b = b.contention(ContentionConfig::disabled()).congestion(CongestionConfig::disabled());
        }
        let mut net = b.build().unwrap();
        net.run_to_fixpoint();
        let rep = net.run_chaos(&crash_plan());
        let t = net.engine().trace().clone();
        (rep, t)
    };
    let (default_rep, default_trace) = run(false);
    let (off_rep, off_trace) = run(true);
    assert_eq!(
        default_rep.digest, off_rep.digest,
        "explicitly disabled contention/congestion must not shift the RNG stream"
    );
    assert_eq!(default_rep.to_json(), off_rep.to_json());
    for t in [&default_trace, &off_trace, &off_rep.counters] {
        assert_eq!(t.mac_collisions(), 0, "disabled contention moved a MAC counter");
        assert_eq!(t.mac_defers(), 0);
        assert_eq!(t.mac_backoff_exhausted(), 0);
        assert_eq!(t.proto("congestion_stretch"), 0, "disabled congestion layer stretched");
        assert_eq!(t.proto("suppressed_broadcast"), 0);
    }
    assert_eq!(
        default_rep.digest, PINNED_CONTENTION_OFF_DIGEST,
        "contention-off digest drifted from the pinned pre-contention value"
    );
}

#[test]
fn contended_medium_collides_defers_and_still_heals() {
    let mut net = builder(11).contention(ContentionConfig::on()).build().unwrap();
    net.run_to_fixpoint();
    let rep = net.run_chaos(&crash_plan());
    assert!(rep.counters.mac_collisions() > 0, "a dense contended field must see collisions");
    assert!(rep.counters.mac_defers() > 0, "carrier sense must defer some transmissions");
    assert!(rep.healed(), "moderate contention must not break healing: {}", rep.to_json());
    // The JSON report carries the MAC counters with the same numbers the
    // report struct holds.
    let doc = rep.to_json();
    assert!(
        doc.contains(&format!("\"mac_collisions\":{},", rep.counters.mac_collisions())),
        "mac_collisions missing from report JSON: {doc}"
    );
}

#[test]
fn congestion_adaptation_stretches_under_offered_load() {
    let run = |adaptive: bool| {
        let mut b = builder(23)
            .traffic(SimDuration::from_secs(4))
            .contention(ContentionConfig::on());
        if adaptive {
            b = b.congestion(CongestionConfig::on());
        }
        let mut net = b.build().unwrap();
        // A loaded contended field may converge slowly; a bounded run
        // suffices — the assertions are about the adaptation machinery,
        // not the final structure.
        net.run_for(SimDuration::from_secs(300));
        net.engine().trace().clone()
    };
    let plain = run(false);
    assert_eq!(plain.proto("congestion_stretch"), 0, "adaptation off must never stretch");
    assert_eq!(plain.proto("congestion_relax"), 0);
    let adaptive = run(true);
    assert!(
        adaptive.proto("congestion_stretch") > 0,
        "an adaptive node under load+contention must stretch"
    );
    assert!(
        adaptive.mac_collisions() < plain.mac_collisions(),
        "load shedding must reduce collisions: adaptive {} vs plain {}",
        adaptive.mac_collisions(),
        plain.mac_collisions()
    );
}

/// The digest of the one scenario that runs every optional layer at once —
/// reliable envelope, contended medium, congestion adaptation and the data
/// plane — under the CLI's default fault plan (it is what `gs3cli chaos
/// --nodes 400 --area 200 --seed 11 --reliable --contended --adaptive
/// --workload` prints). Neither of the other pinned digests parks a frame
/// behind carrier sense, so this is the pin on the engine's resend path.
const PINNED_ALL_LAYERS_DIGEST: u64 = 0xFD4E_6006_DE5F_F157;

#[test]
fn all_layers_on_chaos_digest_is_pinned() {
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(200.0)
        .expected_nodes(400)
        .seed(11)
        .traffic(SimDuration::from_secs(5))
        .dataplane(DataplaneConfig::on())
        .reliability(ReliabilityConfig::on())
        .contention(ContentionConfig::on())
        .congestion(CongestionConfig::on())
        .build()
        .unwrap();
    net.run_to_fixpoint();
    let channel = FaultConfig {
        burst: BurstLoss { p_enter: 0.02, p_exit: 0.25, loss_good: 0.0, loss_bad: 1.0 },
        unicast_loss: 0.02,
        ..FaultConfig::none()
    };
    let plan = FaultPlan::new()
        .at(SimDuration::ZERO, FaultKind::SetChannel { config: channel })
        .at(SimDuration::from_secs(5), FaultKind::StartJam {
            label: 0,
            center: Point::new(100.0, 0.0),
            radius: 80.0,
        })
        .at(SimDuration::from_secs(10), FaultKind::CrashRandom { count: 10 })
        .at(SimDuration::from_secs(20), FaultKind::CorruptState {
            near: Point::new(80.0, 60.0),
            corruption: Corruption::Il { offset: Vec2::new(150.0, 90.0) },
        })
        .at(SimDuration::from_secs(65), FaultKind::StopJam { label: 0 });
    let rep = net.run_chaos(&plan);
    assert!(rep.healed(), "the all-layers field must heal: {}", rep.to_json());
    let defers = rep.counters.mac_defers();
    assert!(defers > 100_000, "the resend path must be exercised: {defers}");
    assert_eq!(rep.digest, PINNED_ALL_LAYERS_DIGEST, "all-layers digest drifted: {:#018x}", rep.digest);
}

/// `Trace::since` against plain subtraction, name by name, over a chaos
/// window that runs every layer; and the report's counters are that view.
#[test]
fn trace_since_is_end_minus_start_name_by_name() {
    let mut net = builder(11)
        .traffic(SimDuration::from_secs(5))
        .reliability(ReliabilityConfig::on())
        .contention(ContentionConfig::on())
        .congestion(CongestionConfig::on())
        .build()
        .unwrap();
    net.run_to_fixpoint();
    let start = net.engine().trace().clone();
    let rep = net.run_chaos(&crash_plan());
    let end = net.engine().trace();
    let delta = end.since(&start);
    assert_eq!(delta, rep.counters);
    for c in Counter::ALL {
        assert_eq!(delta.get(c), end.get(c) - start.get(c), "{c:?}");
    }
    let mut unmoved = 0;
    for (kind, n) in end.sent_by_kind() {
        let d = n - start.sent_of_kind(kind);
        assert_eq!(delta.sent_by_kind().get(kind).copied(), (d > 0).then_some(d), "kind {kind}");
        unmoved += usize::from(d == 0);
    }
    // `named` lists the table first, then the protocol counters.
    for (name, n) in end.named().skip(Counter::COUNT) {
        let d = n - start.proto(name);
        assert_eq!(delta.named().find(|&(k, _)| k == name).map(|(_, v)| v), (d > 0).then_some(d), "{name}");
        unmoved += usize::from(d == 0);
    }
    assert!(unmoved > 0, "the window leaves some name unmoved, so dropping one is tested");
    assert!(delta.sent_by_kind().keys().all(|k| end.sent_by_kind().contains_key(k)), "a kind from nowhere");
    assert!(delta.named().skip(Counter::COUNT).all(|(name, _)| end.proto(name) > 0), "a name from nowhere");
}
