//! The paper's Section 7 extension: networks with multiple big nodes.
//!
//! "GS³ enables each small node to choose the best (e.g. closest) big node
//! to communicate" — the diffusions from each gateway grow toward each
//! other, frontier cells belong to whichever structure claimed them first,
//! and the head graphs form a forest with one tree per gateway.

use gs3::core::harness::{NetworkBuilder, RunOutcome};
use gs3::core::invariants::{self, head_roots, SnapshotIndex};
use gs3::core::RoleView;
use gs3::geometry::Point;
use gs3::sim::NodeId;

#[test]
fn two_gateways_partition_the_field() {
    let second_big_pos = Point::new(520.0, 0.0);
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(450.0)
        .expected_nodes(2600)
        .seed(71)
        .big_position(Point::new(-260.0, 0.0))
        .with_extra_big(Point::new(260.0, 0.0))
        .build()
        .unwrap();
    let _ = second_big_pos;
    assert_eq!(net.big_ids().len(), 2);
    let outcome = net.run_to_fixpoint();
    assert!(matches!(outcome, RunOutcome::Fixpoint { .. }), "two diffusions must settle");

    let snap = net.snapshot();
    // The head graph is a two-tree forest rooted at the two gateways.
    let forest = invariants::check_head_graph_forest(&snap, 2);
    assert!(forest.is_empty(), "first: {:?}", forest.first());
    let roots = head_roots(&snap);
    let distinct: std::collections::BTreeSet<NodeId> =
        roots.values().flatten().copied().collect();
    for big in net.big_ids() {
        assert!(
            distinct.contains(big),
            "gateway {big} must root one of the trees ({distinct:?})"
        );
    }

    // Both structures have grown several cells.
    let mut per_root: std::collections::BTreeMap<NodeId, usize> = Default::default();
    for root in roots.values().flatten() {
        *per_root.entry(*root).or_default() += 1;
    }
    for (root, cells) in &per_root {
        assert!(*cells >= 5, "structure at {root} has only {cells} cells");
    }

    // Coverage: every connected node is in some cell.
    let cov = invariants::check_coverage_with(&snap, &SnapshotIndex::build(&snap));
    assert!(cov.is_empty(), "first: {:?}", cov.first());

    // Frontier sanity: heads of *different* structures never stack on top
    // of each other (HEAD_SELECT's ownership suppression works across
    // structures).
    let heads: Vec<_> = snap.heads().collect();
    for (i, a) in heads.iter().enumerate() {
        for b in &heads[i + 1..] {
            let d = a.pos.distance(b.pos);
            assert!(
                d > 0.4 * net.config().spacing(),
                "heads {} and {} are only {d:.0} m apart",
                a.id,
                b.id
            );
        }
    }
}

#[test]
fn nodes_join_the_structure_of_the_nearest_gateway() {
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(420.0)
        .expected_nodes(2300)
        .seed(72)
        .big_position(Point::new(-240.0, 0.0))
        .with_extra_big(Point::new(240.0, 0.0))
        .build()
        .unwrap();
    let _ = net.run_to_fixpoint();
    let snap = net.snapshot();
    let roots = head_roots(&snap);

    let big_a = net.big_ids()[0];
    let big_b = net.big_ids()[1];
    let pos_a = snap.node(big_a).unwrap().pos;
    let pos_b = snap.node(big_b).unwrap().pos;

    // Nodes deep inside either half (≥ one full cell from the frontier)
    // belong to the near gateway's structure.
    let margin = net.config().spacing();
    let mut checked = 0;
    for n in snap.associates() {
        let RoleView::Associate { head, surrogate: false, .. } = &n.role else {
            continue;
        };
        let da = n.pos.distance(pos_a);
        let db = n.pos.distance(pos_b);
        if (da - db).abs() < 2.0 * margin {
            continue; // frontier zone: either owner is legitimate
        }
        let expected = if da < db { big_a } else { big_b };
        let Some(Some(root)) = roots.get(head) else {
            continue;
        };
        assert_eq!(
            *root, expected,
            "node {} at {} is {da:.0}/{db:.0} from the gateways but joined {root}",
            n.id, n.pos
        );
        checked += 1;
    }
    assert!(checked > 200, "only {checked} interior nodes checked");
}
