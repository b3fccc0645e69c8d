//! Robustness under degraded conditions: lossy broadcasts (the paper's
//! model allows destination-unaware transmission to be unreliable) and
//! imperfect localization (the paper assumes signal-strength ranging, so
//! positions carry error).

use gs3::core::harness::{NetworkBuilder, RunOutcome};
use gs3::core::invariants::{self, SnapshotIndex};
use gs3::core::{ChaosOptions, FaultKind, FaultPlan};
use gs3::sim::SimDuration;

#[test]
fn configuration_survives_lossy_broadcasts() {
    // 10% of every broadcast copy is dropped. Unicast (org replies, acks,
    // head handshakes) stays reliable per the paper's model; the periodic
    // re-broadcasts (boundary checks, heartbeats) must make the structure
    // converge anyway.
    for loss in [0.05, 0.10, 0.20] {
        let mut net = NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius(250.0)
            .expected_nodes(850)
            .seed(81)
            .broadcast_loss(loss)
            .build()
            .unwrap();
        // Lossy runs converge more slowly (missed HeadSets are repaired by
        // the 20 s boundary ticks); allow several rounds.
        net.run_for(SimDuration::from_secs(240));
        let snap = net.snapshot();
        assert!(
            snap.heads().count() >= 7,
            "loss {loss}: only {} heads formed",
            snap.heads().count()
        );
        let cov = invariants::check_coverage_with(&snap, &SnapshotIndex::build(&snap));
        // Allow stragglers still joining under heavy loss, but the bulk
        // must be covered.
        let alive = snap.nodes.iter().filter(|n| n.alive).count();
        assert!(
            cov.len() * 20 <= alive,
            "loss {loss}: {} of {alive} nodes uncovered",
            cov.len()
        );
        let tree = invariants::check_head_graph_tree(&snap);
        assert!(tree.is_empty(), "loss {loss}: {:?}", tree.first());
    }
}

#[test]
fn lossless_structure_also_heals_with_loss_enabled() {
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(250.0)
        .expected_nodes(850)
        .seed(82)
        .broadcast_loss(0.1)
        .build()
        .unwrap();
    net.run_for(SimDuration::from_secs(180));
    // Kill a head (a pinpoint crash disk at its position); head shift must
    // still work over a lossy channel. The oracle only watches the head
    // graph — under 10% broadcast loss stragglers may still be joining, but
    // the tree must knit back together.
    let victim_pos = net
        .snapshot()
        .heads()
        .find(|h| !h.is_big)
        .map(|h| h.pos)
        .expect("a small head exists");
    let plan = FaultPlan::new()
        .at(SimDuration::ZERO, FaultKind::CrashDisk { center: victim_pos, radius: 0.1 });
    let opts = ChaosOptions {
        poll: SimDuration::from_secs(2),
        settle: SimDuration::from_secs(120),
    };
    let report = net.run_chaos_with(&plan, opts, |snap, _| {
        invariants::check_head_graph_tree(snap).len()
    });
    assert_eq!(report.outcomes[0].killed, 1, "the pinpoint disk kills exactly the head");
    assert!(report.healed(), "head shift must heal the tree over a lossy channel");
}

#[test]
fn moderate_localization_noise_is_absorbed_by_the_tolerance() {
    // σ = R_t/6 of Gaussian position error: head placement and candidacy
    // decisions wobble but stay inside the R_t envelope the algorithm is
    // designed around.
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(250.0)
        .expected_nodes(850)
        .seed(83)
        .position_noise(3.0)
        .build()
        .unwrap();
    let outcome = net.run_to_fixpoint();
    assert!(matches!(outcome, RunOutcome::Fixpoint { .. }));
    let snap = net.snapshot();
    assert!(snap.heads().count() >= 7);
    // Geometry checks still hold: the noise is folded into the node
    // positions themselves (the protocol never sees "true" positions), so
    // all bounds apply to what the nodes believe.
    let violations = net.check_invariants();
    assert!(violations.is_empty(), "first: {}", violations[0]);
}
