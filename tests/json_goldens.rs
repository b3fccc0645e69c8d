//! Byte-identity golden for the largest JSON document the workspace
//! emits: a `ChaosReport` from a seeded run with every optional layer on,
//! so every layer's counters, the per-fault outcomes and the episode list
//! are populated. The fixture was captured before the emitters moved onto
//! the shared `gs3_telemetry::json` writer and regenerated once, when the
//! counters became one `counters` view of the trace; output bytes are the
//! contract. The same run's flight recorder is pinned too: its JSONL and
//! Chrome-trace exports, captured while the ring still stored whole
//! `Event`s, so a change to how the ring stores them must read back the
//! same bytes.

use gs3::core::harness::{Network, NetworkBuilder};
use gs3::core::{ChaosReport, Corruption, DataplaneConfig, FaultKind, FaultPlan, ReliabilityConfig};
use gs3::geometry::Point;
use gs3::sim::faults::{BurstLoss, FaultConfig};
use gs3::sim::telemetry::{export_chrome_trace, export_jsonl};
use gs3::sim::trace::{Counter, Trace};
use gs3::sim::{ContentionConfig, SimDuration};

const CHAOS_REPORT: &str = include_str!("fixtures/json/chaos_report.json");
const RECORDER_JSONL: &str = include_str!("fixtures/json/recorder.jsonl");
const RECORDER_CHROME: &str = include_str!("fixtures/json/recorder_chrome.json");

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

/// `doc` equals the multi-megabyte golden `want`; a mismatch names the
/// first differing line instead of printing both documents.
fn assert_same_bytes(what: &str, doc: &str, want: &str) {
    if doc == want {
        return;
    }
    let split = |s: &str| s.split_inclusive(['\n', '}']).map(str::to_string).collect::<Vec<_>>();
    let (got, want) = (split(doc), split(want));
    let at = got.iter().zip(&want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
    panic!(
        "{what}: {} bytes, golden {}; first difference in piece {at}: {:?} vs {:?}",
        doc.len(),
        want.iter().map(String::len).sum::<usize>(),
        got.get(at),
        want.get(at),
    );
}

/// The golden run fills the 50 000-event ring several times over; both
/// exports of what it holds at the end match the goldens byte for byte.
#[test]
fn recorder_exports_are_byte_identical_to_the_goldens() {
    let (_, net, _) = golden_run();
    let tel = net.engine().telemetry();
    assert_eq!((tel.recorder.len(), tel.recorder.dropped()), (50_000, 215_862), "the ring wrapped");
    assert_same_bytes("export_jsonl", &export_jsonl(tel.recorder.events()), RECORDER_JSONL);
    let chrome = export_chrome_trace(tel.recorder.events(), tel.episodes.episodes(), net.now().as_micros());
    assert_same_bytes("export_chrome_trace", &chrome, RECORDER_CHROME);
}
