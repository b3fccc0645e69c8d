//! **PERF** — engine performance suite, emitting `BENCH_core.json`.
//!
//! Times the simulator's hot paths end-to-end on seeded scenarios and
//! writes a machine-readable artifact (events per second, wall-clock per
//! scenario, peak event-queue depth) so CI can track performance across
//! commits. The scenarios are the same seeded workloads the experiments
//! run, so the numbers reflect real GS³ traffic, not synthetic loops.
//!
//! ```text
//! cargo run --release -p gs3-bench --bin perf_suite -- [--smoke] [-j N] [--out PATH]
//!                                                      [--gate BASELINE.json]
//! ```
//!
//! `--smoke` shrinks every scenario so the suite finishes in seconds —
//! CI runs it on every push to prove the suite itself works and to
//! archive the artifact; real measurements come from a full run.
//!
//! `--gate BASELINE.json` turns the run into a regression gate: every
//! steady scenario's events/sec must stay within 2% of the baseline
//! artifact's, or the process exits non-zero. Wall-clock comparisons are
//! only meaningful between runs on the same machine at the same `-j` —
//! CI builds the baseline from the parent commit on the same runner.
//!
//! The `million_node_heal` scenario — a 1M-node deployment configuring
//! from scratch and healing a crash disk — is never gated (it reports
//! scale, not regression): `--skip-million` omits it, `--million-nodes N`
//! shrinks it (CI smoke), and it always reports peak RSS alongside
//! events/sec.

// gs3-lint: allow-file(d2) -- events/sec measurement needs the wall clock; results (digests) never depend on it
use std::time::Instant;

use gs3_bench::runner::{run_grid, threads_from_args};
use gs3_core::harness::{Network, NetworkBuilder, RunOutcome};
use gs3_core::invariants::{check_all_with, SnapshotIndex, Strictness};
use gs3_core::json::{self, JsonValue};
use gs3_core::{FaultKind, FaultPlan, Gs3Node};
use gs3_geometry::Point;
use gs3_sim::faults::{BurstLoss, FaultConfig};
use gs3_sim::{Engine, SimDuration};

/// One timed scenario's measurements.
struct Measurement {
    scenario: &'static str,
    wall_ms: f64,
    events: u64,
    peak_queue_depth: usize,
    extra: Vec<(&'static str, f64)>,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ms / 1000.0)
        }
    }
}

/// Scenario scale knobs; `--smoke` shrinks everything.
struct Scale {
    nodes_mid: usize,
    area_mid: f64,
    nodes_large: usize,
    area_large: f64,
    chaos_nodes: usize,
    chaos_area: f64,
    check_iters: u32,
    snapshot_iters: u32,
}

const FULL: Scale = Scale {
    nodes_mid: 1400,
    area_mid: 320.0,
    nodes_large: 10_000,
    area_large: 860.0,
    chaos_nodes: 400,
    chaos_area: 200.0,
    check_iters: 50,
    snapshot_iters: 200,
};

const SMOKE: Scale = Scale {
    nodes_mid: 300,
    area_mid: 170.0,
    nodes_large: 900,
    area_large: 270.0,
    chaos_nodes: 150,
    chaos_area: 130.0,
    check_iters: 5,
    snapshot_iters: 20,
};

fn build(nodes: usize, area: f64, seed: u64) -> Network {
    NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(area)
        .expected_nodes(nodes)
        .seed(seed)
        .build()
        .expect("valid parameters")
}

/// Initial self-configuration to a stable structure.
fn scenario_configure(scale: &Scale) -> Measurement {
    let mut net = build(scale.nodes_mid, scale.area_mid, 42);
    let start = Instant::now();
    let _ = net.run_to_fixpoint();
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Measurement {
        scenario: "configure",
        wall_ms,
        events: net.engine().events_processed(),
        peak_queue_depth: net.engine().peak_queue_depth(),
        extra: vec![("nodes", scale.nodes_mid as f64)],
    }
}

/// Steady-state maintenance: a converged network running heartbeats.
fn scenario_steady_state(scale: &Scale) -> Measurement {
    let mut net = build(scale.nodes_mid, scale.area_mid, 42);
    let _ = net.run_to_fixpoint();
    let before = net.engine().events_processed();
    let start = Instant::now();
    net.run_for(SimDuration::from_secs(120));
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Measurement {
        scenario: "steady_state_120s",
        wall_ms,
        events: net.engine().events_processed() - before,
        peak_queue_depth: net.engine().peak_queue_depth(),
        extra: vec![("nodes", scale.nodes_mid as f64)],
    }
}

/// Steady-state maintenance over a contended medium: the same converged
/// network with the shared-medium contention layer on, so the number
/// tracks the cost of carrier-sense checks, backoff scheduling, and
/// collision scanning on every delivery.
fn scenario_steady_state_contended(scale: &Scale) -> Measurement {
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(scale.area_mid)
        .expected_nodes(scale.nodes_mid)
        .seed(42)
        .contention(gs3_sim::ContentionConfig::on())
        .build()
        .expect("valid parameters");
    let _ = net.run_to_fixpoint();
    let before = net.engine().events_processed();
    let start = Instant::now();
    net.run_for(SimDuration::from_secs(120));
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Measurement {
        scenario: "steady_state_contended_120s",
        wall_ms,
        events: net.engine().events_processed() - before,
        peak_queue_depth: net.engine().peak_queue_depth(),
        extra: vec![
            ("nodes", scale.nodes_mid as f64),
            ("mac_collisions", net.engine().trace().mac_collisions() as f64),
            ("mac_defers", net.engine().trace().mac_defers() as f64),
        ],
    }
}

/// Steady-state with the convergecast data plane on: sequenced reports,
/// per-head queue/credit work, and sink accounting riding on top of the
/// heartbeat load — the marginal cost of real traffic.
fn scenario_steady_state_dataplane(scale: &Scale) -> Measurement {
    let mut net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(scale.area_mid)
        .expected_nodes(scale.nodes_mid)
        .seed(42)
        .traffic(SimDuration::from_secs(2))
        .build()
        .expect("valid parameters");
    let _ = net.run_to_fixpoint();
    let before = net.engine().events_processed();
    let start = Instant::now();
    net.run_for(SimDuration::from_secs(120));
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let delivered = net.sink_ledger().map_or(0, |l| l.reports);
    Measurement {
        scenario: "steady_state_dataplane_120s",
        wall_ms,
        events: net.engine().events_processed() - before,
        peak_queue_depth: net.engine().peak_queue_depth(),
        extra: vec![("nodes", scale.nodes_mid as f64), ("reports_delivered", delivered as f64)],
    }
}

/// The steady-state workload again with a Full-mode flight recorder —
/// the opt-in telemetry cost (ring writes per engine event) relative to
/// `steady_state_120s`.
fn scenario_steady_state_recorded(scale: &Scale) -> Measurement {
    let mut net = build(scale.nodes_mid, scale.area_mid, 42);
    let _ = net.run_to_fixpoint();
    net.engine_mut().set_recording(gs3_sim::telemetry::RecorderMode::Full { capacity: 200_000 });
    let before = net.engine().events_processed();
    let start = Instant::now();
    net.run_for(SimDuration::from_secs(120));
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let recorded = net.engine().telemetry().recorder.total();
    Measurement {
        scenario: "steady_state_recorded_120s",
        wall_ms,
        events: net.engine().events_processed() - before,
        peak_queue_depth: net.engine().peak_queue_depth(),
        extra: vec![("nodes", scale.nodes_mid as f64), ("recorded_events", recorded as f64)],
    }
}

/// Self-healing under a lossy channel and crash waves.
fn scenario_chaos(scale: &Scale) -> Measurement {
    let mut net = build(scale.chaos_nodes, scale.chaos_area, 23);
    let _ = net.run_to_fixpoint();
    let channel = FaultConfig {
        burst: BurstLoss::bursty(0.03, 4.0),
        unicast_loss: 0.02,
        ..FaultConfig::none()
    };
    let mut plan = FaultPlan::new().at(SimDuration::ZERO, FaultKind::SetChannel { config: channel });
    for w in 0..3u32 {
        plan = plan.at(
            SimDuration::from_secs_f64(5.0 + f64::from(w) * 20.0),
            FaultKind::CrashRandom { count: 5 },
        );
    }
    let before = net.engine().events_processed();
    let start = Instant::now();
    let rep = net.run_chaos(&plan);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Measurement {
        scenario: "chaos_heal",
        wall_ms,
        events: net.engine().events_processed() - before,
        peak_queue_depth: net.engine().peak_queue_depth(),
        extra: vec![
            ("nodes", scale.chaos_nodes as f64),
            ("healed", if rep.healed() { 1.0 } else { 0.0 }),
        ],
    }
}

/// The spatial-indexed invariant engine over a large converged snapshot.
fn scenario_invariants(scale: &Scale) -> Measurement {
    let mut net = build(scale.nodes_large, scale.area_large, 7);
    let _ = net.run_to_fixpoint();
    let snap = net.snapshot();
    let start = Instant::now();
    let mut violations = 0usize;
    for _ in 0..scale.check_iters {
        let idx = SnapshotIndex::build(&snap);
        violations = check_all_with(&snap, Strictness::Dynamic, &idx).len();
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Measurement {
        scenario: "check_all",
        wall_ms,
        events: u64::from(scale.check_iters) * snap.nodes.len() as u64,
        peak_queue_depth: net.engine().peak_queue_depth(),
        extra: vec![
            ("nodes", snap.nodes.len() as f64),
            ("iters", f64::from(scale.check_iters)),
            ("violations", violations as f64),
        ],
    }
}

/// Zero-realloc polling: `snapshot_into` reusing one buffer.
fn scenario_snapshot(scale: &Scale) -> Measurement {
    let mut net = build(scale.nodes_large, scale.area_large, 7);
    let _ = net.run_to_fixpoint();
    let mut snap = net.snapshot();
    let start = Instant::now();
    for _ in 0..scale.snapshot_iters {
        net.snapshot_into(&mut snap);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Measurement {
        scenario: "snapshot_into",
        wall_ms,
        events: u64::from(scale.snapshot_iters) * snap.nodes.len() as u64,
        peak_queue_depth: net.engine().peak_queue_depth(),
        extra: vec![
            ("nodes", snap.nodes.len() as f64),
            ("iters", f64::from(scale.snapshot_iters)),
        ],
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB. Linux-only;
/// returns `None` elsewhere, and the artifact then reports `-1`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Scale probe: configure a metropolis-sized deployment from scratch,
/// crash a disk of it, and heal. Reported events/sec and peak RSS track
/// headroom, not regressions — this scenario is never gated, runs after
/// the grid (sequentially, so `VmHWM` reflects it alone; every other
/// scenario is orders of magnitude smaller), and shrinks via
/// `--million-nodes` for CI smoke.
fn scenario_million(nodes: usize, area: f64) -> Measurement {
    let mut net = build(nodes, area, 77);
    let poll = net.config().intra_heartbeat;
    // Same stability window as `run_to_fixpoint`...
    let detect = net.config().detection_window();
    let polls = (detect.as_micros() / poll.as_micros().max(1)) as u32 + 2;
    // ...but a deadline sized to the deployment: diffusion reaches one
    // more ring of cells (~R) per HEAD_ORG round, so the default 600 s
    // would time out long before a 100-ring radius converges.
    let rings = (area / 80.0).ceil().max(5.0);
    let configure_deadline = SimDuration::from_secs(120 * rings as u64);

    let start = Instant::now();
    let configured = matches!(
        net.run_to_fixpoint_with(poll, polls, net.now() + configure_deadline),
        RunOutcome::Fixpoint { .. }
    );
    let configure_ms = start.elapsed().as_secs_f64() * 1000.0;

    // Crash a ~2-cell disk halfway out from the big node; healing is a
    // local repair, so the default-sized deadline suffices.
    let killed = net.kill_disk(Point::new(area * 0.5, 0.0), 170.0).len();
    let heal_start = Instant::now();
    let refixed = matches!(
        net.run_to_fixpoint_with(poll, polls, net.now() + SimDuration::from_secs(600)),
        RunOutcome::Fixpoint { .. }
    );
    let clean = net.check_invariants_incremental().is_empty();
    let heal_ms = heal_start.elapsed().as_secs_f64() * 1000.0;
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;

    Measurement {
        scenario: "million_node_heal",
        wall_ms,
        events: net.engine().events_processed(),
        peak_queue_depth: net.engine().peak_queue_depth(),
        extra: vec![
            ("nodes", nodes as f64),
            ("configured", if configured { 1.0 } else { 0.0 }),
            ("configure_ms", configure_ms),
            ("killed", killed as f64),
            ("healed", if refixed && clean { 1.0 } else { 0.0 }),
            ("heal_ms", heal_ms),
            ("peak_rss_mb", peak_rss_mb().unwrap_or(-1.0)),
        ],
    }
}

fn to_json(measurements: &[Measurement], smoke: bool, threads: usize) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("suite").str("BENCH_core");
            w.key("smoke").bool(smoke);
            w.key("threads").u64(threads as u64);
            // Width of one event-queue entry for the protocol's types: the
            // bytes the radix queue moves per pending event (cost ledger
            // item (a)); gs3-core gates it at 48.
            w.key("pending_event_bytes").u64(Engine::<Gs3Node>::pending_event_bytes() as u64);
            // Per-node protocol state in the arena's cold column, and one
            // message as a transmission record holds it; gs3-core gates
            // them at 320 and 96.
            w.key("node_bytes").u64(std::mem::size_of::<Gs3Node>() as u64);
            w.key("msg_bytes").u64(std::mem::size_of::<gs3_core::messages::Msg>() as u64);
            w.key("scenarios").array(|w| {
                for m in measurements {
                    w.object(|w| {
                        w.key("scenario").str(m.scenario);
                        w.key("wall_ms").fixed(m.wall_ms, 3);
                        w.key("events").u64(m.events);
                        w.key("events_per_sec").fixed(m.events_per_sec(), 1);
                        w.key("peak_queue_depth").u64(m.peak_queue_depth as u64);
                        for &(k, v) in &m.extra {
                            // Counts ride as f64 beside the wall-clock
                            // floats; the artifact shows them as integers.
                            if v.fract() == 0.0 {
                                w.key(k).i64(v as i64);
                            } else {
                                w.key(k).f64(v);
                            }
                        }
                    });
                }
            });
        });
    })
}

/// `events_per_sec` of one scenario in a parsed `BENCH_core.json`.
fn baseline_events_per_sec(doc: &JsonValue, scenario: &str) -> Option<f64> {
    doc.get("scenarios")?
        .as_arr()?
        .iter()
        .find(|s| s.get("scenario").and_then(JsonValue::as_str) == Some(scenario))?
        .get("events_per_sec")?
        .as_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_core.json".to_string());
    let gate_path = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1).cloned());
    let skip_million = args.iter().any(|a| a == "--skip-million");
    let million_nodes = args
        .iter()
        .position(|a| a == "--million-nodes")
        .and_then(|i| args.get(i + 1))
        .map(|n| n.parse().expect("--million-nodes takes a count"))
        .unwrap_or(if smoke { 20_000 } else { 1_000_000 });
    // Constant density across sizes: the committed nodes_large scenario
    // pins 10k nodes in a 860-radius area, and everything else scales as
    // sqrt(n) from there so per-cell population stays comparable.
    let million_area = 860.0 * (million_nodes as f64 / 10_000.0).sqrt();
    let threads = threads_from_args();
    let scale = if smoke { &SMOKE } else { &FULL };

    eprintln!(
        "perf_suite: {} mode, {} threads → {}",
        if smoke { "smoke" } else { "full" },
        threads,
        out_path
    );

    // Scenarios are independent seeded workloads; fan them out like any
    // other experiment grid. Wall-clock numbers are only comparable
    // across commits when measured at the same -j.
    let scenarios: [fn(&Scale) -> Measurement; 8] = [
        scenario_configure,
        scenario_steady_state,
        scenario_steady_state_contended,
        scenario_steady_state_dataplane,
        scenario_steady_state_recorded,
        scenario_chaos,
        scenario_invariants,
        scenario_snapshot,
    ];
    let mut measurements = run_grid(&scenarios, threads, |f| f(scale));

    // The scale probe runs after the grid, alone, so its peak-RSS reading
    // is not polluted by concurrent scenarios (which are all far smaller).
    if !skip_million {
        eprintln!("  million_node_heal: configuring {million_nodes} nodes (area radius {million_area:.0})...");
        measurements.push(scenario_million(million_nodes, million_area));
    }

    for m in &measurements {
        eprintln!(
            "  {:<26} {:>10.1} ms  {:>12} events  {:>12.0} ev/s  peak queue {}",
            m.scenario,
            m.wall_ms,
            m.events,
            m.events_per_sec(),
            m.peak_queue_depth
        );
    }
    if let Some(m) = measurements.iter().find(|m| m.scenario == "million_node_heal") {
        let get = |k: &str| m.extra.iter().find(|(n, _)| *n == k).map_or(-1.0, |(_, v)| *v);
        eprintln!(
            "  million_node_heal: configured={} healed={} killed={} configure {:.1}s heal {:.1}s peak RSS {:.0} MiB",
            get("configured"),
            get("healed"),
            get("killed"),
            get("configure_ms") / 1000.0,
            get("heal_ms") / 1000.0,
            get("peak_rss_mb"),
        );
    }

    // Opt-in telemetry-overhead report: recorded vs plain steady state.
    let plain = measurements.iter().find(|m| m.scenario == "steady_state_120s");
    let recorded = measurements.iter().find(|m| m.scenario == "steady_state_recorded_120s");
    if let (Some(p), Some(r)) = (plain, recorded) {
        if p.events_per_sec() > 0.0 {
            let overhead = (p.events_per_sec() - r.events_per_sec()) / p.events_per_sec() * 100.0;
            eprintln!("  recorder Full-mode overhead: {overhead:.1}% of steady-state throughput");
        }
    }

    let json = to_json(&measurements, smoke, threads);
    std::fs::write(&out_path, &json).expect("write BENCH_core.json");
    println!("{json}");

    // Regression gate against a stored baseline artifact: every grid
    // scenario's events/sec must hold within 2%. The scale probe is
    // exempt — it reports headroom, and its wall time is dominated by a
    // one-off configuration whose cost the grid already covers. Wall-
    // clock noise makes the gate meaningful only on quiet machines at
    // matching scale/-j, which is why it is opt-in.
    if let Some(path) = gate_path {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("gate baseline {path}: {e}"));
        let baseline =
            json::parse(&baseline).unwrap_or_else(|e| panic!("gate baseline {path}: {e}"));
        let mut failed = Vec::new();
        for m in measurements.iter().filter(|m| m.scenario != "million_node_heal") {
            let Some(base) = baseline_events_per_sec(&baseline, m.scenario) else {
                eprintln!("gate: baseline lacks {}; skipping", m.scenario);
                continue;
            };
            let cur = m.events_per_sec();
            let delta = (base - cur) / base * 100.0;
            eprintln!(
                "gate: {:<26} {cur:>12.0} ev/s vs baseline {base:>12.0} ({delta:+.1}%)",
                m.scenario
            );
            if cur < base * 0.98 {
                failed.push(m.scenario);
            }
        }
        if !failed.is_empty() {
            eprintln!("gate FAILED: events/sec regressed more than 2% in: {}", failed.join(", "));
            std::process::exit(1);
        }
        eprintln!("gate OK (all scenarios within 2%)");
    }
}
