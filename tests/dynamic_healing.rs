//! End-to-end tests of GS³-D: self-healing under node joins, leaves,
//! deaths, and state corruption (paper Section 4).

use gs3::analysis::locality::{changed_nodes, measure_impact};
use gs3::core::harness::{Network, NetworkBuilder, RunOutcome};
use gs3::core::invariants::{self, SnapshotIndex};
use gs3::core::{FaultKind, FaultPlan, RoleView};
use gs3::geometry::{Point, Vec2};
use gs3::sim::{NodeId, SimDuration};

fn settled(seed: u64) -> Network {
    // Area radius 320 holds the central cell plus two full bands, so
    // band-1 heads are *inner* cells (all six lattice neighbors present).
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(320.0)
        .expected_nodes(1400)
        .seed(seed)
        .build()
        .unwrap();
    match net.run_to_fixpoint() {
        RunOutcome::Fixpoint { .. } => net,
        RunOutcome::TimedOut { at } => panic!("initial configuration timed out at {at}"),
    }
}

fn assert_clean(net: &Network, context: &str) {
    let violations = net.check_invariants();
    assert!(violations.is_empty(), "{context}: first violation: {}", violations[0]);
}

/// A non-big head together with its IL, away from the deployment edge.
fn pick_inner_head(net: &Network) -> (NodeId, Point) {
    let snap = net.snapshot();
    let idx = SnapshotIndex::build(&snap);
    let inner = idx.inner_heads();
    let found = snap
        .heads()
        .filter(|h| !h.is_big && inner.contains(&h.id))
        .filter_map(|h| match &h.role {
            RoleView::Head { il, .. } => Some((h.id, *il)),
            _ => None,
        })
        .next();
    found.expect("an inner small head exists")
}

#[test]
fn head_failure_is_healed_by_head_shift() {
    let mut net = settled(101);
    let (victim, il) = pick_inner_head(&net);

    net.kill(victim);
    let outcome = net.run_to_fixpoint();
    assert!(matches!(outcome, RunOutcome::Fixpoint { .. }), "healing must re-stabilize");

    // A successor head exists for the same cell (same IL within R_t).
    let snap = net.snapshot();
    let successor = snap.heads().find(|h| match &h.role {
        RoleView::Head { il: new_il, .. } => new_il.distance(il) <= net.config().r_t + 1e-6,
        _ => false,
    });
    assert!(successor.is_some(), "head shift must produce a successor at the same IL");
    assert_ne!(successor.unwrap().id, victim);
    assert_clean(&net, "after head shift");
}

#[test]
fn head_failure_impact_is_local() {
    let mut net = settled(102);
    let (victim, il) = pick_inner_head(&net);
    let report = measure_impact(
        &mut net,
        il,
        SimDuration::from_millis(500),
        SimDuration::from_secs(300),
        |net| net.kill(victim),
    );
    assert!(report.heal_time.is_some(), "must heal");
    // All changes confined to the coordination neighborhood of the cell:
    // the cell itself plus its direct lattice neighbors.
    let bound = 2.0 * net.config().coord_radius();
    assert!(
        report.impact_radius <= bound,
        "impact radius {:.0} exceeds locality bound {:.0} (changed: {:?})",
        report.impact_radius,
        bound,
        report.changed
    );
}

#[test]
fn disk_kill_heals_and_recovers_coverage() {
    let mut net = settled(103);
    let plan = FaultPlan::new().at(
        SimDuration::ZERO,
        FaultKind::CrashDisk { center: Point::new(100.0, 60.0), radius: 60.0 },
    );
    let report = net.run_chaos(&plan);
    assert!(report.outcomes[0].killed > 10, "the disk must actually kill a crowd");
    assert!(report.healed(), "must re-stabilize after disk kill");

    let snap = net.snapshot();
    // Every surviving connected node is re-covered.
    let cov = invariants::check_coverage_with(&snap, &SnapshotIndex::build(&snap));
    assert!(cov.is_empty(), "coverage after disk kill: {:?}", cov.first());
    // The head graph is still a tree.
    let tree = invariants::check_head_graph_tree(&snap);
    assert!(tree.is_empty(), "tree after disk kill: {:?}", tree.first());
}

#[test]
fn joined_node_becomes_associate_of_nearest_head() {
    let mut net = settled(104);
    let (_, il) = pick_inner_head(&net);
    let newcomer = net.join_node(Point::new(il.x + 20.0, il.y + 10.0));
    let _ = net.run_to_fixpoint();

    let snap = net.snapshot();
    let view = snap.node(newcomer).unwrap();
    let RoleView::Associate { head, .. } = &view.role else {
        panic!("joined node must become an associate, is {:?}", view.role);
    };
    // Its head is the nearest one.
    let head_pos = snap.node(*head).unwrap().pos;
    let nearest = snap
        .heads()
        .map(|h| view.pos.distance(h.pos))
        .fold(f64::INFINITY, f64::min);
    assert!(view.pos.distance(head_pos) <= nearest + 2.0 * net.config().r_t);
}

#[test]
fn join_near_cell_center_can_take_over_headship_eventually() {
    // The paper: "the cell structure remains unchanged except that the
    // head of some cell may be replaced if the new node better serves as
    // head". A node joining exactly at the IL is the best candidate; it
    // need not replace immediately, but it must become a candidate.
    let mut net = settled(105);
    let (_, il) = pick_inner_head(&net);
    let newcomer = net.join_node(il);
    let _ = net.run_to_fixpoint();
    let snap = net.snapshot();
    match &snap.node(newcomer).unwrap().role {
        RoleView::Associate { is_candidate, .. } => {
            assert!(is_candidate, "node at the IL must be a head candidate");
        }
        RoleView::Head { .. } => {} // already took over — also fine
        other => panic!("unexpected role {other:?}"),
    }
}

#[test]
fn mass_join_extends_the_structure() {
    // Populate a blob around a band-3 ideal location, just beyond the
    // deployment edge; the band-2 boundary head's periodic HEAD_ORG must
    // organize a new cell there.
    let mut net = settled(106);
    let heads_before = net.snapshot().heads().count();
    let spacing = gs3::geometry::head_spacing(80.0);
    let band3_il = Point::new(3.0 * spacing, 0.0);
    let mut joiners = Vec::new();
    for i in 0..30 {
        let ang = gs3::geometry::Angle::from_degrees(f64::from(i) * 47.0);
        let dist = f64::from(i % 6) * 6.0;
        joiners.push(net.join_node(band3_il.offset(ang, dist)));
    }
    // Boundary re-organization fires on a 20 s period by default; allow a
    // few periods plus join delays.
    net.run_for(SimDuration::from_secs(120));
    let snap = net.snapshot();
    let heads_after = snap.heads().count();
    assert!(
        heads_after > heads_before,
        "expansion must create new cells ({heads_before} → {heads_after})"
    );
    // The new cell's head sits within R_t of the band-3 lattice point.
    let new_head = snap.heads().find(|h| match &h.role {
        RoleView::Head { il, .. } => il.distance(band3_il) <= net.config().r_t + 1e-6,
        _ => false,
    });
    assert!(new_head.is_some(), "a head must appear at the band-3 IL");
    let uncovered = joiners
        .iter()
        .filter(|id| matches!(snap.node(**id).unwrap().role, RoleView::Bootup))
        .count();
    assert!(
        uncovered * 10 <= joiners.len(),
        "most of the {} joiners must be absorbed, {uncovered} still in bootup",
        joiners.len()
    );
}

#[test]
fn corrupted_head_is_demoted_by_sanity_check() {
    let mut net = settled(107);
    let (victim, il) = pick_inner_head(&net);
    // Push the stored IL far off the lattice: the hexagonal relation
    // breaks for the victim but stays intact for every neighbor.
    assert!(net.corrupt_head_il(victim, Vec2::new(150.0, 90.0)));

    // Sanity ticks fire every 30 s by default; allow several periods.
    net.run_for(SimDuration::from_secs(150));
    let snap = net.snapshot();
    // The corrupted IL must be purged from the structure. (The original
    // node may legitimately serve again — after demotion it re-joins and
    // can win re-election at the *sound* IL.)
    let corrupt_il = il + Vec2::new(150.0, 90.0);
    let still_corrupt = snap.heads().any(|h| match &h.role {
        RoleView::Head { il: cur, .. } => cur.distance(corrupt_il) <= 1.0,
        _ => false,
    });
    assert!(!still_corrupt, "the corrupted IL must not survive sanity checking");
    // The cell recovered a sound head at the original lattice IL.
    let recovered = snap.heads().any(|h| match &h.role {
        RoleView::Head { il: new_il, .. } => new_il.distance(il) <= net.config().r_t + 1e-6,
        _ => false,
    });
    assert!(recovered, "cell must regain a sound head");
    assert_clean(&net, "after corruption healing");
}

#[test]
fn random_churn_keeps_structure_stable() {
    let mut net = settled(108);
    let mut plan = FaultPlan::new();
    for round in 0..5u64 {
        let t = SimDuration::from_secs(round * 30);
        plan = plan.at(t, FaultKind::CrashRandom { count: 8 });
        for i in 0..4 {
            let ang = gs3::geometry::Angle::from_degrees(f64::from(round as u32 * 90 + i * 17));
            let pos = Point::ORIGIN.offset(ang, 40.0 + f64::from(i) * 35.0);
            plan = plan.at(t, FaultKind::Join { pos });
        }
    }
    let report = net.run_chaos(&plan);
    assert!(report.healed(), "churn must settle, final={}", report.final_violations);
    let snap = net.snapshot();
    let tree = invariants::check_head_graph_tree(&snap);
    assert!(tree.is_empty(), "after churn: {:?}", tree.first());
    let cov = invariants::check_coverage_with(&snap, &SnapshotIndex::build(&snap));
    assert!(cov.is_empty(), "after churn: {:?}", cov.first());
}

#[test]
fn associate_death_is_masked_within_cell() {
    let mut net = settled(109);
    let snap = net.snapshot();
    let victim = snap
        .associates()
        .find(|n| matches!(n.role, RoleView::Associate { is_candidate: false, .. }))
        .map(|n| n.id)
        .expect("a plain associate exists");
    let before = net.snapshot();
    net.kill(victim);
    net.run_for(SimDuration::from_secs(60));
    let after = net.snapshot();
    let changed = changed_nodes(&before, &after);
    assert!(changed.is_empty(), "associate death must be masked, changed {changed:?}");
}

/// Sanity recovery, observable mechanics: a corrupted head actually runs
/// the distributed check (requests out, a majority of valid verdicts
/// back), leaves via `head_retreat_corrupted` — not via the ordinary
/// retreat used for planned handoffs — and its orphaned associates are
/// re-absorbed, leaving the structure clean.
#[test]
fn sanity_demotion_runs_the_check_and_reabsorbs_associates() {
    let mut net = settled(109);
    let (victim, _il) = pick_inner_head(&net);
    let members: Vec<NodeId> = {
        let snap = net.snapshot();
        snap.nodes
            .iter()
            .filter(|n| {
                n.alive && matches!(n.role, RoleView::Associate { head, .. } if head == victim)
            })
            .map(|n| n.id)
            .collect()
    };
    assert!(!members.is_empty(), "an inner head serves associates");
    let reqs_before = net.engine().trace().sent_of_kind("sanity_check_req");
    assert!(net.corrupt_head_il(victim, Vec2::new(150.0, 90.0)));
    net.run_for(SimDuration::from_secs(150));

    let trace = net.engine().trace();
    assert!(
        trace.sent_of_kind("sanity_check_req") > reqs_before,
        "the corrupted head never started a sanity round"
    );
    assert!(
        trace.sent_of_kind("sanity_check_valid") > 0,
        "neighbors never answered the sanity round"
    );
    assert!(
        trace.sent_of_kind("head_retreat_corrupted") >= 1,
        "demotion must go through the corrupted-retreat path"
    );
    // Every orphaned associate found a live head (or was re-elected head).
    let snap = net.snapshot();
    for id in members {
        let n = snap.node(id).expect("member still deployed");
        if !n.alive {
            continue;
        }
        match &n.role {
            RoleView::Associate { head, .. } => {
                let h = snap.node(*head).expect("head exists");
                assert!(h.alive && h.is_head(), "member {id} points at a dead head");
            }
            RoleView::Head { .. } => {}
            other => panic!("member {id} stranded as {other:?}"),
        }
    }
    assert_clean(&net, "after sanity demotion");
}

/// A corrupted *parent pointer* (head points at itself, masquerading as a
/// root) is repaired in place by the inter-cell machinery — the head
/// re-attaches to the real tree without ever being demoted. The sanity
/// check is for geometric corruption; tree corruption heals cheaper.
#[test]
fn corrupt_parent_pointer_heals_without_demotion() {
    let mut net = settled(110);
    let (victim, il) = pick_inner_head(&net);
    let retreats_before = net.engine().trace().sent_of_kind("head_retreat_corrupted");
    assert!(net.corrupt_head_parent(victim));
    net.run_for(SimDuration::from_secs(120));

    let snap = net.snapshot();
    let healed = snap.node(victim).is_some_and(|n| match &n.role {
        RoleView::Head { parent, il: cur, .. } => {
            *parent != victim && cur.distance(il) <= 1e-6
        }
        _ => false,
    });
    assert!(healed, "the self-parented head must re-attach at its own IL");
    assert_eq!(
        net.engine().trace().sent_of_kind("head_retreat_corrupted"),
        retreats_before,
        "parent repair must not escalate to sanity demotion"
    );
    assert_clean(&net, "after parent-pointer repair");
}
