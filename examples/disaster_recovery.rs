//! Disaster recovery: a mobile command post over a sensor field.
//!
//! The paper's footnote-2 scenario: rescue workers scatter sensors, and a
//! commander (the *big node*) moves through the field. GS³-M keeps the
//! head graph rooted at the commander's location — while between cells it
//! operates through a *proxy* (its closest head), and Theorem 11 bounds
//! the disturbance of each move of distance `d` to a `√3·d/2` disk.
//!
//! ```text
//! cargo run --release --example disaster_recovery
//! ```

use gs3::analysis::locality::changed_head_edges;
use gs3::core::harness::NetworkBuilder;
use gs3::core::{Mode, RoleView};
use gs3::geometry::{head_spacing, Point};
use gs3::sim::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut net = NetworkBuilder::new()
        .mode(Mode::Mobile)
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(320.0)
        .expected_nodes(1400)
        .seed(911)
        .build()?;
    let _ = net.run_to_fixpoint();
    println!(
        "field configured: {} cells over {} sensors\n",
        net.snapshot().heads().count(),
        net.engine().node_count()
    );

    // The commander walks east one lattice spacing, in five leg updates.
    let spacing = head_spacing(80.0);
    let legs = [0.25, 0.5, 0.75, 1.0];
    let mut from = Point::ORIGIN;
    println!("commander walks east {:.0} m:", spacing);
    for (i, leg) in legs.iter().enumerate() {
        let before = net.snapshot();
        let to = Point::new(spacing * leg, 0.0);
        net.move_big(to);
        net.run_for(SimDuration::from_secs(30));
        let after = net.snapshot();

        let big_view = after.node(net.big_id()).unwrap();
        let status = match &big_view.role {
            RoleView::Head { .. } => "serving as head".to_string(),
            RoleView::BigAway { proxy, .. } => match proxy {
                Some(p) => format!("between cells, proxy = {p}"),
                None => "between cells, electing proxy".to_string(),
            },
            other => format!("{other:?}"),
        };
        let changed = changed_head_edges(&before, &after);
        let midpoint = from.midpoint(to);
        let d = from.distance(to);
        let worst = changed
            .iter()
            .filter_map(|id| after.node(*id).or_else(|| before.node(*id)))
            .map(|n| midpoint.distance(n.pos))
            .fold(0.0f64, f64::max);
        println!(
            "  leg {}: moved {:>5.1} m → {status}; {} head-graph edges changed, \
             furthest change {:.0} m from midpoint (Theorem 11 bound √3·d/2 = {:.0} m + one cell)",
            i + 1,
            d,
            changed.len(),
            worst,
            3.0f64.sqrt() * d / 2.0,
        );
        from = to;
    }

    // Let the structure settle and verify the commander reclaimed a cell.
    let _ = net.run_to_fixpoint();
    let snap = net.snapshot();
    let big_view = snap.node(net.big_id()).unwrap();
    match &big_view.role {
        RoleView::Head { hops, .. } => {
            println!("\ncommander reclaimed headship at the new cell (hops = {hops})");
        }
        RoleView::BigAway { proxy: Some(p), .. } => {
            println!("\ncommander operates through proxy {p} (head graph rooted there)");
        }
        other => println!("\ncommander state: {other:?}"),
    }
    let tree = gs3::core::invariants::check_head_graph_tree(&snap);
    assert!(tree.is_empty(), "head graph must remain a tree: {:?}", tree.first());
    println!("head graph is a tree rooted at the commander's location — routing stays valid");
    Ok(())
}
