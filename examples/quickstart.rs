//! Quickstart: configure a dense sensor field into a cellular hexagonal
//! structure and inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gs3::analysis::metrics;
use gs3::analysis::render::{render, RenderOptions};
use gs3::core::harness::{NetworkBuilder, RunOutcome};
use gs3::core::invariants::{self, Strictness};
use gs3::core::RoleView;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A field of ~1400 nodes in a 320 m disk, ideal cell radius R = 80 m,
    // density guarantee R_t = 18 m (w.h.p. a node in every 18 m disk).
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(320.0)
        .expected_nodes(1400)
        .seed(2002)
        .build()?;
    println!(
        "deployed {} nodes (R = {} m, R_t = {} m, coordination radius {:.1} m)",
        net.engine().node_count(),
        net.config().r,
        net.config().r_t,
        net.config().coord_radius(),
    );

    // Self-configuration: the big node's diffusing computation.
    match net.run_to_fixpoint() {
        RunOutcome::Fixpoint { at, .. } => println!("configured; structure stable at {at}"),
        RunOutcome::TimedOut { at } => return Err(format!("did not stabilize by {at}").into()),
    }

    // What got built.
    let (spacing, r_t) = (net.config().spacing(), net.config().r_t);
    let (snap, idx) = net.view();
    let m = metrics::measure(snap, idx);
    println!("\ncellular hexagonal structure:");
    println!("  heads (cells):          {}", m.heads);
    println!("  associates:             {}", m.associates);
    println!("  coverage:               {:.1}%", m.coverage_ratio * 100.0);
    println!("  cell radius:            {}", m.cell_radius);
    println!(
        "  neighbor head spacing:  {} (ideal √3·R = {:.1} ± 2·R_t = {:.1})",
        m.neighbor_head_distance,
        spacing,
        2.0 * r_t
    );
    println!("  head-to-IL deviation:   {} (bound R_t = {})", m.head_il_deviation, r_t);

    // The head graph, band by band.
    println!("\nhead graph (hops → heads):");
    let mut by_hops: std::collections::BTreeMap<u32, Vec<String>> = Default::default();
    for h in snap.heads() {
        if let RoleView::Head { hops, .. } = &h.role {
            by_hops.entry(*hops).or_default().push(h.id.to_string());
        }
    }
    for (hops, heads) in &by_hops {
        println!("  {hops} hop(s): {}", heads.join(", "));
    }

    // A picture is worth a thousand invariants.
    println!("\nfield map:\n{}", render(snap, RenderOptions::default()));

    // Verify the paper's invariants hold.
    let violations = invariants::check_all_with(snap, Strictness::Dynamic, idx);
    if violations.is_empty() {
        println!("\nall GS³ invariants hold (I₁ connectivity, I₂ hexagonal structure, I₃ optimality, F₄ coverage)");
    } else {
        for v in &violations {
            println!("VIOLATION: {v}");
        }
        return Err("invariants violated".into());
    }
    Ok(())
}
