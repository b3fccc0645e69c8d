//! Byte-identity golden for the largest JSON document the workspace
//! emits: a `ChaosReport` from a seeded run with every optional layer on,
//! so every layer's counters, the per-fault outcomes and the episode list
//! are populated. The fixture was captured before the emitters moved onto
//! the shared `gs3_telemetry::json` writer and regenerated once, when the
//! counters became one `counters` view of the trace; output bytes are the
//! contract.

use gs3::core::harness::{Network, NetworkBuilder};
use gs3::core::{ChaosReport, Corruption, DataplaneConfig, FaultKind, FaultPlan, ReliabilityConfig};
use gs3::geometry::Point;
use gs3::sim::faults::{BurstLoss, FaultConfig};
use gs3::sim::trace::{Counter, Trace};
use gs3::sim::{ContentionConfig, SimDuration};

const CHAOS_REPORT: &str = include_str!("fixtures/json/chaos_report.json");

/// The golden's run: its trace when the chaos starts, the network after,
/// and the report.
fn golden_run() -> (Trace, Network, ChaosReport) {
    let mut net = NetworkBuilder::new()
        .ideal_radius(40.0)
        .radius_tolerance(14.0)
        .area_radius(140.0)
        .expected_nodes(200)
        .seed(11)
        .traffic(SimDuration::from_secs(5))
        .dataplane(DataplaneConfig::on())
        .reliability(ReliabilityConfig::on())
        .contention(ContentionConfig::on())
        .flight_recorder(50_000)
        .build()
        .unwrap();
    net.run_to_fixpoint();
    let channel = FaultConfig {
        burst: BurstLoss::bursty(0.02, 4.0),
        unicast_loss: 0.05,
        duplicate: 0.02,
        delay_prob: 0.05,
        delay_max: SimDuration::from_millis(40),
    };
    let plan = FaultPlan::new()
        .at(SimDuration::ZERO, FaultKind::SetChannel { config: channel })
        .at(
            SimDuration::from_secs(2),
            FaultKind::StartJam { label: 3, center: Point::new(70.0, 0.0), radius: 40.0 },
        )
        .at(SimDuration::from_secs(5), FaultKind::CrashRandom { count: 6 })
        .at(SimDuration::from_secs(8), FaultKind::Join { pos: Point::new(-20.5, 33.25) })
        .at(
            SimDuration::from_secs(12),
            FaultKind::CorruptState { near: Point::new(-40.0, 30.0), corruption: Corruption::Parent },
        )
        .at(SimDuration::from_secs(20), FaultKind::StopJam { label: 3 })
        .at(SimDuration::from_secs(21), FaultKind::StopJam { label: 9 });
    let start = net.engine().trace().clone();
    let report = net.run_chaos(&plan);
    (start, net, report)
}

#[test]
fn chaos_report_json_is_byte_identical_to_the_golden() {
    let (_, _, report) = golden_run();
    let json = report.to_json();
    // The golden is only worth pinning if the run moved every layer's counters.
    let c = &report.counters;
    for name in ["reliable_retransmits", "data_reports_delivered"] {
        assert!(c.proto(name) > 0, "{name} never moved");
    }
    assert!(c.mac_collisions() > 0 && c.dropped_by_burst() > 0, "medium or channel never dropped");
    assert!(!report.episodes.is_empty() && !c.sent_by_kind().is_empty());
    assert_eq!(json, CHAOS_REPORT.trim_end());
}

/// Every protocol counter the chaos window moved is in the report's JSON
/// with its window value — the reliability layer's `reliable_sent`
/// included, which a hand-kept copy of the counters once left out.
#[test]
fn every_protocol_counter_reaches_chaos_json() {
    let (start, net, report) = golden_run();
    let doc = report.to_json();
    // `named` lists the counter table first, then the protocol counters.
    let moved: Vec<(&str, u64)> = net
        .engine()
        .trace()
        .named()
        .skip(Counter::COUNT)
        .map(|(name, n)| (name, n - start.proto(name)))
        .filter(|&(_, d)| d > 0)
        .collect();
    assert!(moved.iter().any(|&(name, _)| name == "reliable_sent"), "{moved:?}");
    for (name, d) in moved {
        assert!(doc.contains(&format!("\"{name}\":{d}")), "{name} = {d} missing from {doc}");
    }
}
