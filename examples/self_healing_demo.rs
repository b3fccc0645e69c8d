//! A guided tour of every self-healing mechanism in GS³-D.
//!
//! Scripts the paper's perturbation classes one after another against a
//! live network and reports what the structure did about each:
//!
//! 1. node **join** → absorbed as associate (or candidate);
//! 2. associate **leave** → masked inside the cell;
//! 3. head **death** → *head shift* (candidate election);
//! 4. area **death** (disk kill) → inter-cell recovery + re-organization;
//! 5. **state corruption** → *sanity check* demotion and rebuild.
//!
//! ```text
//! cargo run --release --example self_healing_demo
//! ```

use gs3::analysis::locality::{changed_nodes, measure_impact};
use gs3::core::harness::{NetworkBuilder, RunOutcome};
use gs3::core::RoleView;
use gs3::geometry::{Point, Vec2};
use gs3::sim::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(320.0)
        .expected_nodes(1400)
        .seed(13)
        .build()?;
    let RunOutcome::Fixpoint { at, .. } = net.run_to_fixpoint() else {
        return Err("initial configuration did not stabilize".into());
    };
    println!("configured {} cells at {at}\n", net.snapshot().heads().count());

    // -- 1. join ---------------------------------------------------------
    let (snap, idx) = net.view();
    let inner = idx.inner_heads();
    let (head_id, il) = snap
        .heads()
        .filter(|h| !h.is_big && inner.contains(&h.id))
        .find_map(|h| match &h.role {
            RoleView::Head { il, .. } => Some((h.id, *il)),
            _ => None,
        })
        .expect("inner head exists");
    let newcomer = net.join_node(Point::new(il.x + 25.0, il.y));
    net.run_for(SimDuration::from_secs(60));
    let role = net.snapshot().node(newcomer).unwrap().role.clone();
    println!("1. JOIN      node {newcomer} near cell {head_id} → {}", role_name(&role));

    // -- 2. associate leave ------------------------------------------------
    let snap = net.snapshot();
    let assoc = snap
        .associates()
        .find(|n| matches!(n.role, RoleView::Associate { is_candidate: false, .. }))
        .map(|n| n.id)
        .expect("plain associate exists");
    let before = net.snapshot();
    net.kill(assoc);
    net.run_for(SimDuration::from_secs(45));
    let changed = changed_nodes(&before, &net.snapshot());
    println!(
        "2. LEAVE     associate {assoc} died → {} other nodes affected (masked within its cell)",
        changed.len()
    );

    // -- 3. head death → head shift ----------------------------------------
    let report = measure_impact(
        &mut net,
        il,
        SimDuration::from_millis(500),
        SimDuration::from_secs(300),
        |net| net.kill(head_id),
    );
    let successor = net.snapshot().heads().find_map(|h| match &h.role {
        RoleView::Head { il: new_il, .. } if new_il.distance(il) <= 18.0 => Some(h.id),
        _ => None,
    });
    println!(
        "3. HEAD DIES head {head_id} killed → candidate {} took over in {}, impact radius {:.0} m",
        successor.map_or("?".into(), |s| s.to_string()),
        report.heal_time.map_or("∞".into(), |t| format!("{t}")),
        report.impact_radius
    );

    // -- 4. disk kill --------------------------------------------------------
    let center = Point::new(-120.0, 80.0);
    let report = measure_impact(
        &mut net,
        center,
        SimDuration::from_millis(500),
        SimDuration::from_secs(300),
        |net| {
            let victims = net.kill_disk(center, 60.0);
            println!("4. AREA DIES {} nodes in a 60 m disk fail simultaneously…", victims.len());
        },
    );
    println!(
        "             …healed in {}, {} nodes re-arranged, impact radius {:.0} m",
        report.heal_time.map_or("∞".into(), |t| format!("{t}")),
        report.changed.len(),
        report.impact_radius
    );

    // -- 5. state corruption ---------------------------------------------------
    let (snap, idx) = net.view();
    let inner = idx.inner_heads();
    let (victim, v_il) = snap
        .heads()
        .filter(|h| !h.is_big && inner.contains(&h.id))
        .find_map(|h| match &h.role {
            RoleView::Head { il, .. } => Some((h.id, *il)),
            _ => None,
        })
        .expect("inner head exists");
    net.corrupt_head_il(victim, Vec2::new(140.0, -90.0));
    net.run_for(SimDuration::from_secs(150));
    let snap = net.snapshot();
    let healed = snap.heads().any(|h| match &h.role {
        RoleView::Head { il, .. } => il.distance(v_il) <= 18.0,
        _ => false,
    });
    println!(
        "5. CORRUPTION head {victim}'s stored IL scrambled → sanity check {}",
        if healed { "demoted it; cell rebuilt at the sound IL" } else { "still converging" }
    );

    // Final verdict.
    let _ = net.run_to_fixpoint();
    let violations = net.check_invariants();
    match violations.first() {
        None => println!("\nfinal state: all invariants hold — every perturbation healed locally"),
        Some(v) => println!("\nfinal state: VIOLATION {v}"),
    }
    Ok(())
}

fn role_name(role: &RoleView) -> &'static str {
    match role {
        RoleView::Bootup => "still joining",
        RoleView::Head { .. } => "became the cell head",
        RoleView::Associate { is_candidate: true, .. } => "associate (head candidate)",
        RoleView::Associate { .. } => "associate",
        RoleView::BigAway { .. } => "big node away",
    }
}
