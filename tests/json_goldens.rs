//! Byte-identity golden for the largest JSON document the workspace
//! emits: a `ChaosReport` from a seeded run with every optional layer on,
//! so each counter block, the per-fault outcomes and the episode list are
//! populated. The fixture was captured before the emitters moved onto the
//! shared `gs3_telemetry::json` writer; output bytes are the contract.

use gs3::core::harness::NetworkBuilder;
use gs3::core::{Corruption, DataplaneConfig, FaultKind, FaultPlan, ReliabilityConfig};
use gs3::geometry::Point;
use gs3::sim::faults::{BurstLoss, FaultConfig};
use gs3::sim::{ContentionConfig, SimDuration};

const CHAOS_REPORT: &str = include_str!("fixtures/json/chaos_report.json");

#[test]
fn chaos_report_json_is_byte_identical_to_the_golden() {
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
    net.run_to_fixpoint().unwrap();
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
    let report = net.run_chaos(&plan);

    let json = report.to_json();
    // The golden is only worth pinning if the run populated every block.
    for block in ["reliability", "mac", "data"] {
        let at = json.find(&format!("\"{block}\":{{")).expect("block present");
        let body = &json[at..at + json[at..].find('}').unwrap()];
        assert!(body.bytes().any(|b| (b'1'..=b'9').contains(&b)), "{block} block is all zeros");
    }
    assert!(!report.episodes.is_empty() && !report.sent_by_kind.is_empty());
    assert_eq!(json, CHAOS_REPORT.trim_end());
}
