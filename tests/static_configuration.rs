//! End-to-end tests of GS³-S: the one-shot diffusing computation on
//! static networks (paper Section 3, Theorems 1–4).

use gs3::core::harness::NetworkBuilder;
use gs3::core::invariants::{self, SnapshotIndex};
use gs3::core::{Mode, RoleView};
use gs3::geometry::Point;
use gs3::sim::SimTime;

fn static_builder(seed: u64) -> NetworkBuilder {
    NetworkBuilder::new()
        .mode(Mode::Static)
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(200.0)
        .expected_nodes(600)
        .seed(seed)
}

const DEADLINE: SimTime = SimTime::from_micros(600_000_000);

#[test]
fn diffusion_terminates_and_invariants_hold() {
    for seed in [1, 2, 3] {
        let mut net = static_builder(seed).build().unwrap();
        let quiesced = net.engine_mut().run_until_quiescent(DEADLINE);
        assert!(quiesced.is_some(), "seed {seed}: static diffusion must terminate");

        let violations = net.check_invariants();
        assert!(
            violations.is_empty(),
            "seed {seed}: {} violations, first: {}",
            violations.len(),
            violations[0]
        );
        let snap = net.snapshot();
        assert!(snap.heads().count() >= 7, "seed {seed}: central cell + first band");
        assert_eq!(snap.bootup_count(), 0, "seed {seed}: full coverage");
    }
}

#[test]
fn configuration_is_deterministic_per_seed() {
    let run = || {
        let mut net = static_builder(42).build().unwrap();
        net.engine_mut().run_until_quiescent(DEADLINE).unwrap();
        net.structural_signature()
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        let mut net = static_builder(seed).build().unwrap();
        net.engine_mut().run_until_quiescent(DEADLINE).unwrap();
        net.structural_signature()
    };
    assert_ne!(run(10), run(11));
}

#[test]
fn heads_sit_within_tolerance_of_their_ideal_locations() {
    let mut net = static_builder(5).build().unwrap();
    net.engine_mut().run_until_quiescent(DEADLINE).unwrap();
    let snap = net.snapshot();
    for h in snap.heads() {
        let RoleView::Head { il, .. } = &h.role else { unreachable!() };
        assert!(
            h.pos.distance(*il) <= snap.r_t + 1e-6,
            "head {} strayed {:.1} from IL",
            h.id,
            h.pos.distance(*il)
        );
    }
}

#[test]
fn children_bounded_by_three_for_small_heads() {
    let mut net = static_builder(6).build().unwrap();
    net.engine_mut().run_until_quiescent(DEADLINE).unwrap();
    let snap = net.snapshot();
    for h in snap.heads() {
        let RoleView::Head { children, .. } = &h.role else { unreachable!() };
        let cap = if h.is_big { 6 } else { 3 };
        assert!(children.len() <= cap, "head {} has {} children", h.id, children.len());
    }
}

#[test]
fn deployment_gap_is_absorbed_by_neighbors() {
    // Clear an R_t-gap exactly over the +x first-band ideal location
    // (distance √3·R from the big node). That cell cannot form; its area's
    // nodes must join neighboring cells and coverage must still hold.
    let spacing = gs3::geometry::head_spacing(80.0);
    let gap_center = Point::new(spacing, 0.0);
    let mut net = static_builder(7).with_gap(gap_center, 30.0).build().unwrap();
    net.engine_mut().run_until_quiescent(DEADLINE).unwrap();
    let snap = net.snapshot();
    assert_eq!(snap.bootup_count(), 0, "gap-adjacent nodes must be absorbed");
    // No head within the gap itself.
    for h in snap.heads() {
        assert!(h.pos.distance(gap_center) > 25.0, "no head can exist inside the gap");
    }
    // Coverage invariant holds even with the gap (boundary-cell slack).
    let violations = invariants::check_coverage_with(&snap, &SnapshotIndex::build(&snap));
    assert!(violations.is_empty(), "first: {:?}", violations.first());
}

#[test]
fn disconnected_island_stays_unconfigured() {
    // Nodes beyond radio reach of the big node's component must remain in
    // bootup (requirement c: in a cell iff connected to the big node).
    let mut net = static_builder(8).build().unwrap();
    let island = net.join_node(Point::new(5000.0, 0.0));
    let _ = net.join_node(Point::new(5030.0, 0.0));
    net.engine_mut().run_until_quiescent(DEADLINE).unwrap();
    let snap = net.snapshot();
    assert!(
        matches!(snap.node(island).unwrap().role, RoleView::Bootup),
        "island node must stay unconfigured in static mode"
    );
}

#[test]
fn head_graph_hops_increase_with_distance() {
    let mut net = static_builder(9).build().unwrap();
    net.engine_mut().run_until_quiescent(DEADLINE).unwrap();
    let snap = net.snapshot();
    let big_pos = snap.node(net.big_id()).unwrap().pos;
    let spacing = gs3::geometry::head_spacing(80.0);
    for h in snap.heads() {
        let RoleView::Head { hops, .. } = &h.role else { unreachable!() };
        let lattice_distance = (big_pos.distance(h.pos) / spacing).round() as u32;
        assert_eq!(*hops, lattice_distance, "head {} at {:.0}m", h.id, big_pos.distance(h.pos));
    }
}
