//! Targeted tests of individual protocol behaviors that the end-to-end
//! suites only exercise implicitly.

use gs3::core::harness::{Network, NetworkBuilder, RunOutcome};
use gs3::core::{Mode, RoleView};
use gs3::geometry::Point;
use gs3::sim::SimDuration;

fn settled(seed: u64) -> Network {
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(320.0)
        .expected_nodes(1400)
        .seed(seed)
        .build()
        .unwrap();
    assert!(matches!(net.run_to_fixpoint(), RunOutcome::Fixpoint { .. }));
    net
}

#[test]
fn surrogate_then_real_head() {
    // A node beyond every head's coordination radius but within radio
    // range of associates becomes a *surrogate* associate; when the
    // boundary re-organization creates a real head nearby, it upgrades.
    let mut net = settled(401);
    // Place the newcomer beyond the outermost cells' coordination reach
    // but still inside some associate's radio range: walk outward from
    // the east-most associate until every head is out of coordination
    // reach. Deriving the spot from the snapshot keeps the scenario
    // valid for any deployment draw.
    let coord = net.config().coord_radius();
    let radio = net.engine().radio().max_range;
    let spot = {
        let snap = net.snapshot();
        let anchor = snap
            .nodes
            .iter()
            .filter(|n| n.alive && matches!(n.role, RoleView::Associate { .. }))
            .max_by(|a, b| a.pos.x.total_cmp(&b.pos.x))
            .expect("an associate exists")
            .pos;
        let heads: Vec<Point> = snap.heads().map(|h| h.pos).collect();
        let mut spot = None;
        let mut d = coord * 0.5;
        while d < radio {
            let p = Point::new(anchor.x + d, anchor.y);
            if heads.iter().all(|hp| hp.distance(p) > coord + 1.0) {
                spot = Some(p);
                break;
            }
            d += 2.0;
        }
        spot.expect("a spot out of head reach but in associate radio range")
    };
    let lonely = net.join_node(spot);
    net.run_for(SimDuration::from_secs(40));
    let snap = net.snapshot();
    match &snap.node(lonely).unwrap().role {
        RoleView::Associate { surrogate, .. } => {
            assert!(
                *surrogate,
                "a node out of head range joined through an associate must be a surrogate"
            );
        }
        RoleView::Bootup => {} // also acceptable: nobody in reach yet
        other => panic!("unexpected role {other:?}"),
    }

    // Now populate a candidate area around the newcomer so the boundary
    // re-organization can claim the nearest outer IL and produce a real
    // head in reach.
    for i in 0..20 {
        let ang = gs3::geometry::Angle::from_degrees(f64::from(i) * 31.0);
        net.join_node(spot.offset(ang, f64::from(i % 5) * 7.0));
    }
    net.run_for(SimDuration::from_secs(120));
    let snap = net.snapshot();
    let view = snap.node(lonely).unwrap();
    if let RoleView::Associate { surrogate, head, .. } = &view.role {
        if !surrogate {
            // Upgraded: its head must be a real head now.
            assert!(snap.node(*head).unwrap().is_head());
        }
    }
}

#[test]
fn election_produces_exactly_one_successor() {
    // Kill a head and freeze right after the election window: exactly one
    // member of the cell must have promoted itself.
    let mut net = settled(402);
    let snap = net.snapshot();
    let (victim, il, members) = snap
        .heads()
        .filter(|h| !h.is_big)
        .find_map(|h| match &h.role {
            RoleView::Head { il, associates, .. } if associates.len() >= 8 => {
                Some((h.id, *il, associates.clone()))
            }
            _ => None,
        })
        .expect("a populated cell exists");

    net.kill(victim);
    // Detection (3 × 2 s heartbeats) + stagger: freeze at 20 s.
    net.run_for(SimDuration::from_secs(20));
    let snap = net.snapshot();
    let successors: Vec<_> = members
        .iter()
        .filter(|m| snap.node(**m).is_some_and(|v| v.alive && v.is_head()))
        .collect();
    assert_eq!(
        successors.len(),
        1,
        "exactly one candidate must promote, got {successors:?}"
    );
    // And at the same IL.
    let s = snap.node(*successors[0]).unwrap();
    let RoleView::Head { il: new_il, .. } = &s.role else { unreachable!() };
    assert!(new_il.distance(il) <= net.config().r_t + 1e-6);
}

#[test]
fn boundary_reorg_never_duplicates_heads() {
    // Boundary heads re-run HEAD_ORG every ~20 s forever; across many
    // rounds no two heads may ever claim ILs within half a lattice
    // spacing of each other.
    let mut net = settled(403);
    for _ in 0..6 {
        net.run_for(SimDuration::from_secs(30));
        let snap = net.snapshot();
        let ils: Vec<Point> = snap
            .heads()
            .filter_map(|h| match &h.role {
                RoleView::Head { il, .. } => Some(*il),
                _ => None,
            })
            .collect();
        let spacing = net.config().spacing();
        for (i, a) in ils.iter().enumerate() {
            for b in &ils[i + 1..] {
                assert!(
                    a.distance(*b) > spacing / 2.0,
                    "duplicate cells: ILs {a} and {b}"
                );
            }
        }
    }
}

#[test]
fn cell_abandonment_when_candidate_area_dies_out() {
    // Kill every node within R_t of a cell's IL (head + all candidates).
    // With nobody to elect, the cell's members re-join neighbors after the
    // failure windows; nodes near the IL were all killed so no successor
    // can appear at it immediately.
    let mut net = settled(404);
    let (snap, idx) = net.view();
    let inner = idx.inner_heads();
    let (il, _) = snap
        .heads()
        .filter(|h| !h.is_big && inner.contains(&h.id))
        .find_map(|h| match &h.role {
            RoleView::Head { il, .. } => Some((*il, h.id)),
            _ => None,
        })
        .expect("inner head exists");
    let killed = net.kill_disk(il, net.config().r_t + 2.0);
    assert!(!killed.is_empty());

    net.run_for(SimDuration::from_secs(90));
    let r_t = net.config().r_t;
    let (snap, idx) = net.view();
    // Every surviving ex-member found a home (associate of some alive
    // head) — the cell dissolved into its neighbors or re-formed via
    // boundary re-organization with newly moved-in... (static positions:
    // re-formation requires a node within R_t of the IL, all of which are
    // dead, so dissolution is the only path).
    let cov = gs3::core::invariants::check_coverage_with(snap, idx);
    assert!(cov.is_empty(), "survivors must re-home: {:?}", cov.first());
    let near_il_heads = snap
        .heads()
        .filter(|h| h.pos.distance(il) <= r_t)
        .count();
    assert_eq!(near_il_heads, 0, "nobody left to head the dead candidate area");
}

#[test]
fn static_mode_schedules_no_maintenance() {
    // GS³-S is a one-shot computation: after quiescence the engine has no
    // pending events at all (no heartbeats, no boundary ticks).
    let mut net = NetworkBuilder::new()
        .mode(Mode::Static)
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(200.0)
        .expected_nodes(500)
        .seed(405)
        .build()
        .unwrap();
    let deadline = net.now() + SimDuration::from_secs(600);
    net.engine_mut().run_until_quiescent(deadline).expect("terminates");
    assert!(net.engine().is_quiescent(), "GS³-S must leave no recurring machinery");
}

#[test]
fn dynamic_mode_keeps_beating_forever() {
    let mut net = settled(406);
    let before = net.engine().trace().sent_of_kind("head_intra_alive");
    net.run_for(SimDuration::from_secs(60));
    let after = net.engine().trace().sent_of_kind("head_intra_alive");
    assert!(after > before, "intra-cell heartbeats must keep flowing");
}

#[test]
fn associate_switches_to_closer_head_after_reorganization() {
    // F₃ (cell optimality) as a dynamic process: force a dead head's cell to
    // re-form, then verify every nearby associate ends at its closest
    // head again.
    let mut net = settled(407);
    let (snap, idx) = net.view();
    let inner = idx.inner_heads();
    let victim = snap
        .heads()
        .find(|h| !h.is_big && inner.contains(&h.id))
        .map(|h| h.id)
        .unwrap();
    net.kill(victim);
    let _ = net.run_to_fixpoint();
    let (snap, idx) = net.view();
    let best = gs3::core::invariants::check_best_head_with(snap, true, idx);
    assert!(best.is_empty(), "F3 must be restored: {:?}", best.first());
}

#[test]
fn stale_parent_seek_ack_is_ignored() {
    // Regression: a delayed or duplicated `parent_seek_ack` from a round
    // the head is no longer waiting on must not re-parent it. Forge an
    // irresistible ack (hops = 0) from a non-parent head; the settled
    // victim has no seek pending, so the ack is stale by definition.
    use gs3::core::messages::Msg;

    let mut net = settled(408);
    let snap = net.snapshot();
    let (victim, parent) = snap
        .heads()
        .filter(|h| !h.is_big && h.alive)
        .find_map(|h| match &h.role {
            RoleView::Head { parent, .. } if *parent != h.id => Some((h.id, *parent)),
            _ => None,
        })
        .expect("a settled network has a child head");
    let victim_children: Vec<_> = match &snap.node(victim).unwrap().role {
        RoleView::Head { children, .. } => children.clone(),
        _ => unreachable!(),
    };
    let forger = snap
        .heads()
        .find(|h| h.id != victim && h.id != parent && !victim_children.contains(&h.id))
        .expect("another head exists");
    let (forger_il, forger_pos) = match &snap.node(forger.id).unwrap().role {
        RoleView::Head { il, .. } => (*il, forger.pos),
        _ => unreachable!(),
    };
    net.engine_mut()
        .inject_message(
            forger.id,
            victim,
            Msg::ParentSeekAck { hops: 0, il: forger_il, pos: forger_pos, round: 7 },
            SimDuration::from_millis(5),
        )
        .unwrap();
    net.run_for(SimDuration::from_secs(10));

    assert!(
        net.engine().trace().proto("parent_seek_stale_acks") >= 1,
        "the stale ack was never flagged"
    );
    let snap = net.snapshot();
    match &snap.node(victim).unwrap().role {
        RoleView::Head { parent: now_parent, .. } => {
            assert_eq!(*now_parent, parent, "a stale ack must never re-parent a head");
        }
        other => panic!("victim left head role: {other:?}"),
    }
}
