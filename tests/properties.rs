//! Randomized property tests: the GS³ invariants hold across randomized
//! deployments, parameters, and perturbation schedules.
//!
//! Formerly written against `proptest`; the build environment has no
//! registry access, so the same properties run as seeded random-case
//! loops over the in-repo `rand` shim (same case counts as the proptest
//! configs used: 12 simulation cases per property, 24 for the cheap gap
//! check).

use gs3::core::harness::NetworkBuilder;
use gs3::core::invariants::{self, Strictness};
use gs3::core::Mode;
use gs3::geometry::Point;
use gs3::sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// GS³-S: for random seeds, densities, and tolerances, the diffusing
/// computation terminates with all static invariants intact.
#[test]
fn static_invariants_hold_for_random_deployments() {
    let mut rng = StdRng::seed_from_u64(0x5747_4101);
    for _ in 0..12 {
        let seed = rng.gen_range(0u64..10_000);
        let nodes = rng.gen_range(250usize..700);
        let r_t_frac = rng.gen_range(0.15f64..0.25);
        let r = 80.0;
        let mut net = NetworkBuilder::new()
            .mode(Mode::Static)
            .ideal_radius(r)
            .radius_tolerance(r_t_frac * r)
            .area_radius(180.0)
            .expected_nodes(nodes)
            .seed(seed)
            .build()
            .unwrap();
        let quiesced = net
            .engine_mut()
            .run_until_quiescent(SimTime::ZERO + SimDuration::from_secs(600));
        assert!(quiesced.is_some(), "diffusion must terminate");
        let snap = net.snapshot();
        // GS³-S assumes no R_t-gaps (Section 3.1); random low-density
        // draws do contain gaps, whose pockets legitimately stay
        // unconfigured. Check every geometric invariant, and coverage
        // only for nodes within coordination reach of some head (those
        // the diffusion could possibly claim).
        let mut violations = invariants::check_head_graph_tree(&snap);
        violations.extend(invariants::check_head_graph_physical(&snap));
        violations.extend(invariants::check_neighbor_distances(&snap));
        violations.extend(invariants::check_children_counts(&snap, Strictness::Static));
        violations.extend(invariants::check_cell_radius(&snap, 0.0));
        violations.extend(invariants::check_best_head(&snap, true));
        violations.extend(invariants::check_heads_on_ideal(&snap));
        assert!(
            violations.is_empty(),
            "seed {} nodes {} r_t {:.1}: {}",
            seed,
            nodes,
            r_t_frac * r,
            violations[0]
        );
        let coord = net.config().coord_radius();
        let head_positions: Vec<Point> = snap.heads().map(|h| h.pos).collect();
        for n in &snap.nodes {
            if n.alive && matches!(n.role, gs3::core::RoleView::Bootup) {
                let reachable = head_positions.iter().any(|hp| hp.distance(n.pos) <= coord);
                assert!(
                    !reachable,
                    "seed {seed}: node {} in head reach but unconfigured",
                    n.id
                );
            }
        }
    }
}

/// GS³-D: random kill/join churn always re-stabilizes with the dynamic
/// invariants intact.
#[test]
fn dynamic_invariants_hold_under_random_churn() {
    let mut rng = StdRng::seed_from_u64(0x5747_4102);
    for _ in 0..12 {
        let seed = rng.gen_range(0u64..10_000);
        let kills = rng.gen_range(1usize..12);
        let joins = rng.gen_range(0usize..8);
        let mut net = NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius(170.0)
            .expected_nodes(420)
            .seed(seed)
            .build()
            .unwrap();
        let _ = net.run_to_fixpoint().unwrap();
        let _ = net.kill_random(kills);
        for i in 0..joins {
            let ang = gs3::geometry::Angle::from_degrees((seed % 360) as f64 + i as f64 * 49.0);
            net.join_node(Point::ORIGIN.offset(ang, 30.0 + i as f64 * 18.0));
        }
        net.run_for(SimDuration::from_secs(120));
        let snap = net.snapshot();
        let tree = invariants::check_head_graph_tree(&snap);
        assert!(tree.is_empty(), "seed {seed}: {}", tree[0]);
        let cov = invariants::check_coverage(&snap);
        assert!(cov.is_empty(), "seed {seed}: {}", cov[0]);
        let radius = invariants::check_cell_radius(&snap, 0.0);
        assert!(radius.is_empty(), "seed {seed}: {}", radius[0]);
    }
}

/// Deployment gaps never break coverage: nodes around a gap are absorbed
/// by neighboring cells.
#[test]
fn gaps_never_break_coverage() {
    let mut rng = StdRng::seed_from_u64(0x5747_4103);
    let mut checked = 0;
    while checked < 24 {
        let seed = rng.gen_range(0u64..10_000);
        let gap_x = rng.gen_range(-150.0f64..150.0);
        let gap_y = rng.gen_range(-150.0f64..150.0);
        let gap_r = rng.gen_range(20.0f64..45.0);
        // A gap over the big node removes nothing (the big node is placed
        // explicitly), but can isolate it; skip that degenerate case.
        if Point::new(gap_x, gap_y).distance(Point::ORIGIN) <= gap_r + 20.0 {
            continue;
        }
        checked += 1;
        let mut net = NetworkBuilder::new()
            .mode(Mode::Static)
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius(170.0)
            .expected_nodes(420)
            .seed(seed)
            .with_gap(Point::new(gap_x, gap_y), gap_r)
            .build()
            .unwrap();
        let quiesced = net
            .engine_mut()
            .run_until_quiescent(SimTime::ZERO + SimDuration::from_secs(600));
        assert!(quiesced.is_some());
        let snap = net.snapshot();
        let cov = invariants::check_coverage(&snap);
        assert!(
            cov.is_empty(),
            "seed {seed} gap ({gap_x:.0},{gap_y:.0})r{gap_r:.0}: {}",
            cov[0]
        );
    }
}

/// Reliable-delivery dedup is idempotent: delivering a forged reliable
/// envelope once vs `k` times (`k` ≤ the dedup window) leaves the network
/// in the same structural state — the inner message is dispatched exactly
/// once, and the `k−1` extra copies only bump the dedup counter.
#[test]
fn dedup_window_makes_redelivery_idempotent() {
    use gs3::core::messages::Msg;
    use gs3::core::config::DEDUP_WINDOW;
    use gs3::core::{ReliabilityConfig, RoleView};

    let mut rng = StdRng::seed_from_u64(0x5747_4104);
    for _ in 0..6 {
        let seed = rng.gen_range(0u64..10_000);
        let k = rng.gen_range(2usize..=DEDUP_WINDOW);
        let run = |copies: usize| {
            let mut net = NetworkBuilder::new()
                .ideal_radius(40.0)
                .radius_tolerance(14.0)
                .area_radius(160.0)
                .expected_nodes(300)
                .seed(seed)
                .reliability(ReliabilityConfig::on())
                .build()
                .unwrap();
            let _ = net.run_to_fixpoint().unwrap();
            // Forge a `child_retire` from a head's parent — the eviction
            // path, whose single dispatch breaks the parent link and
            // forces a re-seek. Redelivered copies must be absorbed by
            // the window, not re-break the healed link.
            let snap = net.snapshot();
            let (victim, parent) = snap
                .heads()
                .filter(|h| !h.is_big && h.alive)
                .find_map(|h| match &h.role {
                    RoleView::Head { parent, .. } if *parent != h.id => {
                        Some((h.id, *parent))
                    }
                    _ => None,
                })
                .expect("a settled network has a child head");
            drop(snap);
            for _ in 0..copies {
                net.engine_mut()
                    .inject_message(
                        parent,
                        victim,
                        Msg::Reliable { seq: 999_999, inner: Box::new(Msg::ChildRetire) },
                        SimDuration::from_millis(5),
                    )
                    .unwrap();
            }
            net.run_for(SimDuration::from_secs(120));
            let dedups = net.engine().trace().proto("reliable_dedup_hits");
            (net.structural_signature(), dedups)
        };
        let (sig_once, dedup_once) = run(1);
        let (sig_k, dedup_k) = run(k);
        assert_eq!(
            sig_once, sig_k,
            "seed {seed}: {k} deliveries diverged from 1 delivery"
        );
        assert_eq!(
            dedup_k - dedup_once,
            (k - 1) as u64,
            "seed {seed}: every extra copy must be a dedup hit"
        );
    }
}
