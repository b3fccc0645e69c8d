//! The sensing workload: data aggregation along the head graph, and its
//! interaction with energy-driven self-healing (the paper's motivating
//! traffic model).

use gs3::core::harness::NetworkBuilder;
use gs3::sim::radio::EnergyModel;
use gs3::sim::trace::Counter;
use gs3::sim::SimDuration;

#[test]
fn reports_flow_and_aggregate_up_the_tree() {
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(200.0)
        .expected_nodes(500)
        .seed(91)
        .traffic(SimDuration::from_secs(2))
        .build()
        .unwrap();
    let _ = net.run_to_fixpoint();
    let trace = net.engine().trace();
    let reports = trace.sent_of_kind("sensor_report");
    let batches = trace.sent_of_kind("data_batch");
    assert!(reports > 1000, "associates must report ({reports})");
    assert!(batches > 50, "heads must relay batches ({batches})");
    // Aggregation compresses: far fewer upstream frames than raw reports
    // (the in-network processing the paper's uniform-load argument relies
    // on).
    assert!(batches * 5 < reports, "aggregation must compress traffic ({batches} vs {reports})");
}

#[test]
fn traffic_makes_head_dissipation_dominant() {
    // With the workload on and energy accounted, heads must drain faster
    // than associates — the asymmetry cell shift exploits.
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(20.0)
        .area_radius(150.0)
        .expected_nodes(320)
        .seed(92)
        .traffic(SimDuration::from_secs(1))
        .energy(EnergyModel::normalized(160.0), 2000.0)
        .build()
        .unwrap();
    let _ = net.run_to_fixpoint();
    let snap = net.snapshot();
    let heads: Vec<_> = snap.heads().map(|h| h.id).collect();

    net.run_for(SimDuration::from_secs(120));
    let mut head_drain = Vec::new();
    let mut assoc_drain = Vec::new();
    for n in &net.snapshot().nodes {
        if !n.alive || n.is_big {
            continue;
        }
        let spent = 2000.0 - net.engine().energy(n.id).unwrap();
        if heads.contains(&n.id) {
            head_drain.push(spent);
        } else {
            assoc_drain.push(spent);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&head_drain) > 2.0 * mean(&assoc_drain),
        "heads must dissipate much faster: {:.1} vs {:.1}",
        mean(&head_drain),
        mean(&assoc_drain)
    );
}

#[test]
fn stepping_down_heads_flush_buffered_reports() {
    // Satellite regression: a head that steps down mid-period (energy
    // retreat, cell shift, replacement) must flush its buffered report
    // count upstream instead of silently dropping it. Under sustained
    // drain-driven rotation the flush path must fire.
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(20.0)
        .area_radius(150.0)
        .expected_nodes(320)
        .seed(94)
        .traffic(SimDuration::from_secs(2))
        .energy(EnergyModel::normalized(160.0), 600.0)
        .build()
        .unwrap();
    let _ = net.run_to_fixpoint();
    net.run_for(SimDuration::from_secs(600));
    let trace = net.engine().trace();
    assert!(
        trace.proto("reports_flushed") >= 1,
        "no stepping-down head ever flushed its pending reports"
    );
}

#[test]
fn workload_survives_head_rotation() {
    // Under drain, headship rotates; the report stream must keep flowing
    // to the (current) heads without interruption-induced losses piling
    // up: unicast failures stay a tiny fraction of reports sent.
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(20.0)
        .area_radius(150.0)
        .expected_nodes(320)
        .seed(93)
        .traffic(SimDuration::from_secs(2))
        .energy(EnergyModel::normalized(160.0), 600.0)
        .build()
        .unwrap();
    let _ = net.run_to_fixpoint();
    net.run_for(SimDuration::from_secs(600));
    let trace = net.engine().trace();
    let reports = trace.sent_of_kind("sensor_report") + trace.sent_of_kind("data_batch");
    let failures = trace.get(Counter::UnicastFailures);
    assert!(reports > 5_000, "stream must be substantial ({reports})");
    // Failures happen (heads die mid-period; that's the point), but the
    // structure repairs fast enough that they stay rare.
    assert!(
        failures * 10 < reports,
        "failures must stay rare: {failures} of {reports}"
    );
}
