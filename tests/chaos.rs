//! Chaos-harness integration: bit-reproducibility of fault-injected runs,
//! the combined-adversity acceptance scenario, and convergence under
//! honest unicast loss.

use gs3::core::harness::NetworkBuilder;
use gs3::core::invariants::{self, SnapshotIndex, Strictness};
use gs3::core::state::Role;
use gs3::core::{ChaosOptions, Corruption, DataplaneConfig, FaultKind, FaultPlan, Mode, ReliabilityConfig};
use gs3::geometry::{Point, Vec2};
use gs3::sim::faults::{BurstLoss, FaultConfig};
use gs3::sim::{NodeId, SimDuration};

fn builder(seed: u64) -> NetworkBuilder {
    NetworkBuilder::new()
        .ideal_radius(40.0)
        .radius_tolerance(14.0)
        .area_radius(200.0)
        .expected_nodes(400)
        .seed(seed)
}

/// A plan exercising every fault axis at once.
fn combined_plan() -> FaultPlan {
    let channel = FaultConfig {
        burst: BurstLoss::bursty(0.02, 4.0),
        unicast_loss: 0.02,
        ..FaultConfig::none()
    };
    FaultPlan::new()
        .at(SimDuration::ZERO, FaultKind::SetChannel { config: channel })
        .at(
            SimDuration::from_secs(5),
            FaultKind::StartJam { label: 0, center: Point::new(100.0, 0.0), radius: 70.0 },
        )
        .at(SimDuration::from_secs(10), FaultKind::CrashRandom { count: 10 })
        .at(
            SimDuration::from_secs(20),
            FaultKind::CorruptState {
                near: Point::new(-60.0, 50.0),
                corruption: Corruption::Il { offset: Vec2::new(150.0, 90.0) },
            },
        )
        .at(SimDuration::from_secs(45), FaultKind::StopJam { label: 0 })
}

fn chaos_run(seed: u64) -> (gs3::core::ChaosReport, u64) {
    let mut net = builder(seed).build().unwrap();
    net.run_to_fixpoint().unwrap();
    let report = net.run_chaos(&combined_plan());
    let signature = net.structural_signature();
    (report, signature)
}

#[test]
fn same_seed_chaos_runs_are_bit_identical() {
    let (a, sig_a) = chaos_run(11);
    let (b, sig_b) = chaos_run(11);
    assert_eq!(a.digest, b.digest, "same seed must replay the same delivery sequence");
    assert_eq!(sig_a, sig_b, "same seed must land in the same final structure");
    assert_eq!(a.to_json(), b.to_json(), "the whole report must be reproducible");
}

#[test]
fn different_seed_chaos_runs_diverge() {
    let (a, _) = chaos_run(11);
    let (b, _) = chaos_run(12);
    assert_ne!(a.digest, b.digest, "different seeds must explore different schedules");
}

/// The acceptance scenario from the issue: burst loss (mean ≥ 3), one jam
/// disk, a 10-node crash wave, and one `CorruptState` — the structure must
/// come back to zero `Dynamic` violations, with a healing latency recorded
/// for every fault.
#[test]
fn combined_adversity_heals_clean() {
    let (report, _) = chaos_run(11);
    assert!(
        report.healed(),
        "combined chaos must heal: final={} unhealed={:?}",
        report.final_violations,
        report
            .outcomes
            .iter()
            .filter(|o| o.heal_latency.is_none())
            .map(|o| o.kind)
            .collect::<Vec<_>>()
    );
    assert_eq!(report.outcomes.len(), 5);
    for o in &report.outcomes {
        assert!(o.heal_latency.is_some(), "{} has no healing latency", o.kind);
    }
    // The channel really was adversarial.
    let c = &report.counters;
    assert!(c.dropped_by_burst() > 0, "burst loss never fired");
    assert!(c.dropped_by_jam() > 0, "the jam disk never dropped anything");
    assert!(c.dropped_unicast() > 0, "unicast loss never fired");
}

/// A configured Mobile field and [`combined_plan`] plus a crash disk, a
/// join, a big-node move and a second state corruption: every structural
/// fault class against a field whose big node may move.
fn mobile_field_and_plan() -> (gs3::core::Network, FaultPlan) {
    let mut net = builder(7).mode(Mode::Mobile).build().unwrap();
    net.run_to_fixpoint().unwrap();
    let plan = combined_plan()
        .at(SimDuration::from_secs(15), FaultKind::CrashDisk { center: Point::new(-40.0, -60.0), radius: 35.0 })
        .at(SimDuration::from_secs(25), FaultKind::Join { pos: Point::new(30.0, 30.0) })
        .at(SimDuration::from_secs(30), FaultKind::MoveBig { to: Point::new(45.0, 0.0) })
        .at(
            SimDuration::from_secs(35),
            FaultKind::CorruptState { near: Point::new(60.0, -40.0), corruption: Corruption::Parent },
        );
    (net, plan)
}

/// The chaos oracle reads the network's incrementally kept view. At every
/// poll, through crashes, corruption, a join and a big-node move, it must
/// judge exactly what a fresh index of the same snapshot judges.
#[test]
fn the_chaos_oracle_agrees_with_a_fresh_index_at_every_poll() {
    let (mut net, plan) = mobile_field_and_plan();
    let opts = ChaosOptions::for_config(net.config());
    let (mut polls, mut dirty) = (0u32, 0u32);
    let rep = net.run_chaos_with(&plan, opts, |snap, idx| {
        let fresh = SnapshotIndex::build(snap);
        let seen = invariants::check_all_with(snap, Strictness::Dynamic, idx);
        assert_eq!(seen, invariants::check_all_with(snap, Strictness::Dynamic, &fresh), "poll {polls}");
        assert_eq!(idx.inner_heads(), fresh.inner_heads(), "poll {polls}");
        polls += 1;
        dirty += u32::from(!seen.is_empty());
        seen.len()
    });
    assert_eq!(polls, rep.polls);
    assert!(0 < dirty && dirty < polls, "{dirty} of {polls} polls dirty: the comparison saw both verdicts");
}

/// The standard oracle reuses its verdict while the view is unchanged; a
/// custom oracle judging every poll from a fresh index must produce the
/// same report, field for field.
#[test]
fn the_standard_oracle_reports_what_a_fresh_index_reports() {
    let (mut reused, plan) = mobile_field_and_plan();
    let (mut fresh, _) = mobile_field_and_plan();
    let opts = ChaosOptions::for_config(reused.config());
    let a = reused.run_chaos_opts(&plan, opts.clone());
    let b = fresh.run_chaos_with(&plan, opts, |snap, _| {
        invariants::check_all_with(snap, Strictness::Dynamic, &SnapshotIndex::build(snap)).len()
    });
    assert_eq!(a, b);
    assert!(a.max_violations > 0 && a.outcomes.len() == 9, "the plan ran and broke the structure");
}

/// Oracle polling is observation only: running the same plan with a
/// different poll period must not change the delivery schedule.
#[test]
fn oracle_polling_does_not_perturb_the_run() {
    // Two runs that differ only in the oracle poll period, both advanced to
    // the same simulated horizon afterwards: the delivery schedules must be
    // bit-identical, because polling snapshots state without consuming RNG.
    let horizon = SimDuration::from_secs(600);
    let run = |poll_ms: u64| {
        let mut net = builder(11).build().unwrap();
        net.run_to_fixpoint().unwrap();
        let opts = ChaosOptions {
            poll: SimDuration::from_millis(poll_ms),
            settle: SimDuration::from_secs(300),
        };
        let rep = net.run_chaos_with(&combined_plan(), opts, |snap, _| {
            invariants::check_all_with(snap, Strictness::Dynamic, &SnapshotIndex::build(snap)).len()
        });
        let elapsed = net.now().since(gs3::sim::SimTime::ZERO);
        net.run_for(horizon - elapsed);
        (rep, net.engine().trace().digest())
    };
    let (rep_coarse, digest_coarse) = run(2000);
    let (rep_fine, digest_fine) = run(700);
    assert!(rep_fine.polls > rep_coarse.polls, "the finer poll clock must poll more often");
    assert_eq!(digest_coarse, digest_fine, "polling must never consume simulation RNG");
}

/// Tentpole acceptance: the flight recorder is pure observation — a full
/// chaos run with the ring capturing every event replays the exact
/// delivery schedule of a counters-only run — and the episode reducer
/// reports per-perturbation healing latency, message cost, and spatial
/// radius (the empirical face of the paper's locality theorems 8–13).
#[test]
fn flight_recorder_is_digest_inert_and_episodes_reduce() {
    let run = |record: bool| {
        let mut b = builder(11);
        if record {
            b = b.flight_recorder(200_000);
        }
        let mut net = b.build().unwrap();
        net.run_to_fixpoint().unwrap();
        let rep = net.run_chaos(&combined_plan());
        let ring_len = net.engine().telemetry().recorder.len();
        (rep, ring_len)
    };
    let (off_rep, off_ring) = run(false);
    let (on_rep, on_ring) = run(true);
    assert_eq!(off_ring, 0, "counters-only mode must store nothing");
    assert!(on_ring > 0, "full mode must capture events");
    assert_eq!(off_rep.digest, on_rep.digest, "recording shifted the delivery stream");
    assert_eq!(off_rep.to_json(), on_rep.to_json(), "the report must not depend on recording");

    // The episode reducer: the two structural faults in the combined plan
    // (crash wave, state corruption) each opened an episode; the
    // channel-shaping faults did not.
    let episodic: Vec<_> = on_rep.outcomes.iter().filter(|o| o.episode.is_some()).collect();
    assert_eq!(episodic.len(), 2);
    assert!(on_rep
        .outcomes
        .iter()
        .filter(|o| matches!(o.kind, "start_jam" | "stop_jam" | "set_channel"))
        .all(|o| o.episode.is_none()));
    for o in &episodic {
        let ep = on_rep
            .episodes
            .iter()
            .find(|e| e.id == o.episode.unwrap())
            .expect("outcome episode must be in the report");
        assert_eq!(ep.label, o.kind);
        assert!(ep.heal_latency_us().is_some(), "{} episode never closed", o.kind);
        assert!(ep.messages > 0, "{} episode has no message cost", o.kind);
        assert!(ep.tainted > 0, "{} episode tainted nobody", o.kind);
        assert!(
            ep.radius_m.is_finite() && ep.radius_m < 400.0,
            "{} episode radius {} is not local",
            o.kind,
            ep.radius_m
        );
    }
}

/// The reliability layer's RNG-inertness contract: with the layer
/// disabled (the default), no envelopes flow, no reliability counters
/// move, and the delivery schedule is bit-identical to a build that never
/// routes through the layer's code paths — the explicit `disabled()`
/// config and the default must replay the same digest, delivery for
/// delivery. With the layer enabled the wire traffic legitimately
/// changes.
#[test]
fn disabled_reliability_layer_is_rng_inert() {
    let run = |rc: Option<ReliabilityConfig>| {
        let mut b = builder(11);
        if let Some(rc) = rc {
            b = b.reliability(rc);
        }
        let mut net = b.build().unwrap();
        net.run_to_fixpoint().unwrap();
        let rep = net.run_chaos(&combined_plan());
        let sent = net.engine().trace().proto("reliable_sent");
        (rep, sent)
    };
    let (default_rep, default_sent) = run(None);
    let (off_rep, off_sent) = run(Some(ReliabilityConfig::disabled()));
    assert_eq!(default_sent, 0, "a disabled layer must never wrap a message");
    assert_eq!(off_sent, 0);
    let layer = |name: &str| ["reliable_", "detector_", "quarantine_"].iter().any(|p| name.starts_with(p));
    let moved: Vec<_> = off_rep.counters.named().filter(|&(name, _)| layer(name)).collect();
    assert!(moved.is_empty(), "disabled layer moved a counter: {moved:?}");
    assert_eq!(default_rep.digest, off_rep.digest, "disabled layer must not shift the RNG stream");
    assert_eq!(default_rep.to_json(), off_rep.to_json());

    let (on_rep, on_sent) = run(Some(ReliabilityConfig::on()));
    assert!(on_sent > 0, "the enabled layer never wrapped a control message");
    assert_ne!(on_rep.digest, off_rep.digest, "the enabled layer must change the wire traffic");
    assert!(on_rep.healed(), "chaos with reliability on must still heal: {}", on_rep.to_json());
}

/// Quarantine-mode graceful degradation under a 100%-loss partition: a
/// head cut off from every other head keeps serving its cell (intra-cell
/// invariants stay green), holds its batches back in its bounded
/// aggregation queue, and replays the queue to the sink — each batch once
/// — after the partition heals and it re-attaches.
#[test]
fn quarantined_head_serves_its_cell_and_drains_after_heal() {
    // A small queue so boundedness is observable.
    let dp = DataplaneConfig { queue_capacity: 4, ..DataplaneConfig::on() };
    let mut net = builder(31)
        .traffic(SimDuration::from_secs(5))
        .dataplane(dp)
        .reliability(ReliabilityConfig::on())
        .build()
        .unwrap();
    net.run_to_fixpoint().unwrap();

    // The victim: the serving head farthest from the big node — far
    // enough that no surviving head is within coordination range once the
    // field between them is dead.
    let snap = net.snapshot();
    let big = snap.big;
    let big_pos = snap.nodes[big.raw() as usize].pos;
    let (victim, victim_pos) = snap
        .heads()
        .filter(|h| !h.is_big && h.alive)
        .map(|h| (h.id, h.pos))
        .max_by(|a, b| big_pos.distance(a.1).total_cmp(&big_pos.distance(b.1)))
        .expect("a configured network has small heads");
    assert!(
        big_pos.distance(victim_pos) > net.config().coord_radius(),
        "scenario needs the victim beyond the big node's coordination range"
    );

    // Partition: kill everything except the victim's cell and the big
    // node's cell. For the victim this is a 100%-loss partition — every
    // head it could re-attach to is gone.
    let keep = net.config().r + net.config().r_t + 6.0;
    let corpses: Vec<NodeId> = snap
        .nodes
        .iter()
        .filter(|n| {
            n.alive
                && n.id != big
                && n.pos.distance(victim_pos) > keep
                && n.pos.distance(big_pos) > keep
        })
        .map(|n| n.id)
        .collect();
    for id in corpses {
        net.kill(id);
    }
    let members_before = snap
        .nodes
        .iter()
        .filter(|n|

            matches!(n.role, gs3::core::RoleView::Associate { head, .. } if head == victim)
                && n.alive
                && n.pos.distance(victim_pos) <= keep)
        .count();
    assert!(members_before > 0, "the victim cell must have members to serve");

    // Let the partition bite: parent loss, exhausted seeks, quarantine.
    net.run_for(SimDuration::from_secs(240));
    let trace = net.engine().trace();
    assert!(trace.proto("quarantine_entries") >= 1, "the victim never quarantined");
    assert!(trace.proto("data_queue_drops") >= 1, "the bounded queue never dropped");
    {
        let node = net.engine().node(victim).unwrap();
        let Role::Head(h) = node.role() else {
            panic!("the quarantined victim must keep its head role");
        };
        assert!(h.quarantined, "victim head must be in quarantine");
        let queued = node.queued_batches();
        assert!(queued > 0 && queued <= 4, "quarantined queue holds {queued} batches, bound is 4");
        assert!(!h.associates.is_empty(), "quarantined head stopped serving its cell");
    }
    // Intra-cell invariants stay green: members still attached, within
    // the boundary-cell radius bound (I₂, Theorem 5) — the victim has no
    // live lattice neighbors, so it serves as a boundary head.
    let mid = net.snapshot();
    let r_bound = 3f64.sqrt() * net.config().r + 2.0 * net.config().r_t + 1e-6;
    let served = mid
        .nodes
        .iter()
        .filter(|n| {
            n.alive
                && matches!(
                    n.role,
                    gs3::core::RoleView::Associate { head, surrogate: false, .. } if head == victim
                )
        })
        .inspect(|n| {
            let head_pos = mid.nodes[victim.raw() as usize].pos;
            assert!(
                n.pos.distance(head_pos) <= r_bound,
                "quarantined cell member {} strayed out of range",
                n.id
            );
        })
        .count();
    assert!(served > 0, "the quarantined cell lost all members");

    // Heal the partition: blanket the dead corridor between the big node
    // and the victim with fresh nodes. Boundary re-organization then grows
    // new cells ring by ring toward the victim until one head beats within
    // the victim's coordination range; the victim re-attaches and drains.
    let u = Point::new(
        (victim_pos.x - big_pos.x) / big_pos.distance(victim_pos),
        (victim_pos.y - big_pos.y) / big_pos.distance(victim_pos),
    );
    let v = Point::new(-u.y, u.x);
    let corridor = big_pos.distance(victim_pos);
    let mut k = 0u32;
    let mut t = 35.0;
    while t < corridor - 12.0 {
        for j in -2i32..=2 {
            let s = f64::from(j) * 18.0;
            let p = Point::new(
                big_pos.x + u.x * t + v.x * s,
                big_pos.y + u.y * t + v.y * s,
            );
            net.join_node(p);
            k += 1;
        }
        t += 18.0;
    }
    assert!(k >= 40, "corridor blanket too sparse");
    net.run_for(SimDuration::from_secs(600));

    let trace = net.engine().trace();
    assert!(trace.proto("quarantine_exits") >= 1, "the victim never left quarantine");
    let node = net.engine().node(victim).unwrap();
    if let Role::Head(h) = node.role() {
        assert!(!h.quarantined, "victim still quarantined after the partition healed");
    }
    assert!(node.queued_batches() <= 1, "backlog never replayed: {}", node.queued_batches());
    let ledger = net.sink_ledger().expect("the sink consumed batches");
    assert_eq!(ledger.duplicate_batches, 0, "the replay double-counted at the sink");
}

/// Satellite regression: 5% honest unicast loss (acks, org replies, and
/// handshakes all at risk) must still converge to a clean static structure.
#[test]
fn five_percent_unicast_loss_still_converges() {
    let mut net = builder(51).unicast_loss(0.05).build().unwrap();
    net.run_for(SimDuration::from_secs(240));
    let snap = net.snapshot();
    assert!(snap.heads().count() >= 7, "only {} heads formed", snap.heads().count());
    let violations = invariants::check_all_with(&snap, Strictness::Static, &SnapshotIndex::build(&snap));
    assert!(
        violations.is_empty(),
        "unicast loss left {} violations: {}",
        violations.len(),
        violations.first().map(ToString::to_string).unwrap_or_default()
    );
    assert!(
        net.engine().trace().dropped_unicast() > 0,
        "the unicast-loss knob never fired"
    );
}
