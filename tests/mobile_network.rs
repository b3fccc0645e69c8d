//! End-to-end tests of GS³-M: big-node mobility with the proxy mechanism
//! (paper Section 5, Theorem 11).

use gs3::core::harness::{Network, NetworkBuilder, RunOutcome};
use gs3::core::invariants;
use gs3::core::{Mode, RoleView};
use gs3::geometry::{head_spacing, Point};
use gs3::sim::SimDuration;

fn settled_mobile(seed: u64) -> Network {
    let mut net = NetworkBuilder::new()
        .mode(Mode::Mobile)
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(200.0)
        .expected_nodes(600)
        .seed(seed)
        .build()
        .unwrap();
    match net.run_to_fixpoint() {
        RunOutcome::Fixpoint { .. } => net,
        RunOutcome::TimedOut { at } => panic!("initial configuration timed out at {at}"),
    }
}

#[test]
fn big_node_wandering_releases_and_reclaims_headship() {
    let mut net = settled_mobile(201);
    let big = net.big_id();

    // Step the big node away from its IL in small hops (mobility model:
    // movement = a sequence of position updates).
    let spacing = head_spacing(80.0);
    for i in 1..=6 {
        net.move_big(Point::new(f64::from(i) * spacing / 6.0, 0.0));
        net.run_for(SimDuration::from_secs(5));
    }
    // Now exactly at a first-band ideal location: the big node must
    // reclaim headship there.
    net.run_for(SimDuration::from_secs(60));
    let snap = net.snapshot();
    let view = snap.node(big).unwrap();
    assert!(
        matches!(view.role, RoleView::Head { .. }),
        "big node at an IL must serve as head, is {:?}",
        view.role
    );
    let RoleView::Head { hops, .. } = &view.role else { unreachable!() };
    assert_eq!(*hops, 0, "the big node is always the root");
}

#[test]
fn big_node_away_designates_closest_proxy() {
    let mut net = settled_mobile(202);
    let big = net.big_id();
    // Park the big node between ILs (more than R_t from every lattice
    // point): it must retreat and appoint a proxy.
    let spacing = head_spacing(80.0);
    net.move_big(Point::new(spacing / 2.0, 25.0));
    net.run_for(SimDuration::from_secs(45));

    let snap = net.snapshot();
    let view = snap.node(big).unwrap();
    let RoleView::BigAway { proxy, mobile } = &view.role else {
        panic!("big node between ILs must be away from head duty, is {:?}", view.role);
    };
    assert!(*mobile, "GS³-M away-state is big_move");
    let proxy = proxy.expect("a proxy must be designated");
    // The proxy is the closest head (fixpoint F₅) and advertises hops 0.
    let proxy_view = snap.node(proxy).unwrap();
    let RoleView::Head { is_proxy, hops, .. } = &proxy_view.role else {
        panic!("proxy must be a head");
    };
    assert!(is_proxy);
    assert_eq!(*hops, 0, "proxy advertises distance 0 to the big node");
    let d_proxy = view.pos.distance(proxy_view.pos);
    for h in snap.heads() {
        assert!(
            d_proxy <= view.pos.distance(h.pos) + 2.0 * net.config().r_t,
            "proxy must be (nearly) the closest head"
        );
    }
    // The head graph re-rooted at the proxy is still a tree.
    let tree = invariants::check_head_graph_tree(&snap);
    assert!(tree.is_empty(), "{:?}", tree.first());
}

#[test]
fn big_move_impact_is_contained() {
    // Theorem 11: moving the big node a distance d affects the head graph
    // only within radius √3·d/2 of the move's midpoint. Our measured
    // containment allows one coordination radius of slack for the
    // proxy-handoff edge flips at the rim.
    let mut net = settled_mobile(203);
    let spacing = head_spacing(80.0);
    let from = Point::ORIGIN;
    let to = Point::new(spacing, 0.0); // d = one lattice spacing
    let before = net.snapshot();

    for i in 1..=4 {
        net.move_big(Point::new(to.x * f64::from(i) / 4.0, 0.0));
        net.run_for(SimDuration::from_secs(5));
    }
    let _ = net.run_to_fixpoint();
    let after = net.snapshot();

    let changed = gs3::analysis::locality::changed_head_edges(&before, &after);
    let midpoint = from.midpoint(to);
    let d = from.distance(to);
    let bound = 3.0f64.sqrt() * d / 2.0 + net.config().coord_radius();
    for id in &changed {
        let pos = after.node(*id).or_else(|| before.node(*id)).unwrap().pos;
        assert!(
            midpoint.distance(pos) <= bound,
            "head {id} at {:.0}m from midpoint changed its edge (bound {bound:.0})",
            midpoint.distance(pos)
        );
    }
    // And the move must have changed *something* (the big node re-rooted).
    assert!(!changed.is_empty(), "a full-spacing move must re-root at least one edge");
}

#[test]
fn small_node_movement_rejoins_closest_cell() {
    let mut net = settled_mobile(204);
    let snap = net.snapshot();
    // Take a plain associate and teleport it two cells away.
    let victim = snap
        .associates()
        .find(|n| matches!(n.role, RoleView::Associate { is_candidate: false, .. }))
        .map(|n| n.id)
        .expect("a plain associate exists");
    let spacing = head_spacing(80.0);
    let dest = Point::new(-spacing, 30.0);
    net.move_node(victim, dest);
    net.run_for(SimDuration::from_secs(90));

    let snap = net.snapshot();
    let view = snap.node(victim).unwrap();
    let RoleView::Associate { head, .. } = &view.role else {
        panic!("moved node must re-associate, is {:?}", view.role);
    };
    let head_pos = snap.node(*head).unwrap().pos;
    let nearest = snap.heads().map(|h| view.pos.distance(h.pos)).fold(f64::INFINITY, f64::min);
    assert!(
        view.pos.distance(head_pos) <= nearest + 2.0 * net.config().r_t,
        "moved node must end up with (nearly) the closest head"
    );
}
