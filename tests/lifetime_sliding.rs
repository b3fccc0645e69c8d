//! End-to-end tests of the energy-driven dynamics: head shift under
//! depletion, cell shift along the intra-cell spiral, and the coherent
//! *sliding* of the whole structure (paper §4.1, §4.3.5.1).

use gs3::core::harness::NetworkBuilder;
use gs3::core::RoleView;
use gs3::geometry::spiral::IccIcp;
use gs3::sim::radio::EnergyModel;
use gs3::sim::SimDuration;

fn energy_builder(seed: u64) -> NetworkBuilder {
    NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(20.0)
        .area_radius(150.0)
        .expected_nodes(320)
        .seed(seed)
}

#[test]
fn heads_rotate_under_energy_depletion() {
    let mut net = energy_builder(301)
        .energy(EnergyModel::normalized(160.0), 600.0)
        .build()
        .unwrap();
    let _ = net.run_to_fixpoint().unwrap();
    let first_heads: Vec<_> = net.snapshot().heads().map(|h| h.id).collect();
    assert!(!first_heads.is_empty());

    // Run long enough for several head generations.
    net.run_for(SimDuration::from_secs(900));
    let snap = net.snapshot();
    let current: Vec<_> = snap.heads().map(|h| h.id).collect();
    assert!(!current.is_empty(), "structure must still be alive");
    let rotated = current.iter().filter(|id| !first_heads.contains(id)).count();
    assert!(rotated > 0, "head shift must have rotated some headships");
}

#[test]
fn cell_shift_advances_the_intra_cell_spiral() {
    let mut net = energy_builder(302)
        .energy(EnergyModel::normalized(160.0), 450.0)
        .build()
        .unwrap();
    let _ = net.run_to_fixpoint().unwrap();

    // Drain until candidate areas empty out and ILs start walking the
    // spiral.
    let mut advanced = false;
    for _ in 0..60 {
        net.run_for(SimDuration::from_secs(60));
        let snap = net.snapshot();
        if snap.heads().any(|h| matches!(&h.role, RoleView::Head { icc_icp, .. } if *icc_icp != IccIcp::ORIGIN))
        {
            advanced = true;
            break;
        }
        if snap.heads().count() == 0 {
            break;
        }
    }
    assert!(advanced, "some cell must have shifted its IL along the spiral");
}

#[test]
fn maintained_structure_outlives_first_head_death() {
    let mut net = energy_builder(303)
        .energy(EnergyModel::normalized(160.0), 500.0)
        .build()
        .unwrap();
    let _ = net.run_to_fixpoint().unwrap();
    let first_heads: Vec<_> = net.snapshot().heads().map(|h| h.id).collect();

    let mut first_death = None;
    let mut structure_dead = None;
    for _ in 0..80 {
        net.run_for(SimDuration::from_secs(60));
        if first_death.is_none()
            && first_heads.iter().any(|id| !net.engine().is_alive(*id).unwrap())
        {
            first_death = Some(net.now());
        }
        let heads_now = net.snapshot().heads().count();
        if heads_now == 0 {
            structure_dead = Some(net.now());
            break;
        }
    }
    let first = first_death.expect("initial heads must eventually die");
    // Either the structure survived the whole horizon, or it died well
    // after the first head did — maintenance lengthened its life.
    match structure_dead {
        None => {}
        Some(dead) => {
            assert!(
                dead.as_secs_f64() >= 1.5 * first.as_secs_f64(),
                "maintained lifetime {dead} vs first head death {first}"
            );
        }
    }
}

#[test]
fn energy_disabled_structure_is_immortal() {
    let mut net = energy_builder(304).build().unwrap();
    let _ = net.run_to_fixpoint().unwrap();
    let sig = net.structural_signature();
    net.run_for(SimDuration::from_secs(600));
    assert_eq!(net.structural_signature(), sig, "no energy ⇒ no churn");
}
