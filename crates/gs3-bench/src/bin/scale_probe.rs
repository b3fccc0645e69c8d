//! **SCALE** — the one measurement `benchmark/` cannot express, emitting
//! `BENCH_core.json`.
//!
//! A deployment at the benchmark suites' density configures from boot,
//! loses a ~2-cell disk halfway out from the big node, and heals — the
//! shape of `BENCHMARK.json`'s `scale_50k`, at `--nodes` (default 10⁶,
//! ≈ 13–16 min and 1.0 GiB; a 20-second benchmark run cannot hold that).
//! The row reports headroom, not regressions: exact event and queue-depth
//! counts, whether the structure configured and healed, wall time per
//! phase and peak RSS. Every other host-time number in the repository
//! comes from `benchmark/`.
//!
//! ```text
//! cargo run --release -p gs3-bench --bin scale_probe -- [--nodes N] [--out PATH]
//! ```
//!
//! Exits non-zero when the deployment fails to configure or to heal.

#![forbid(unsafe_code)]

// gs3-lint: allow-file(d2) -- wall time per phase is what the probe reports; results (event counts, digests) never depend on it
use std::process::ExitCode;
use std::time::Instant;

use gs3_bench::standard_builder;
use gs3_core::harness::RunOutcome;
use gs3_core::json;
use gs3_core::messages::Msg;
use gs3_core::Gs3Node;
use gs3_geometry::Point;
use gs3_sim::{Engine, SimDuration};

/// The row's measurements; times in milliseconds of host time.
struct Probe {
    nodes: usize,
    events: u64,
    peak_queue_depth: usize,
    configured: bool,
    killed: usize,
    healed: bool,
    configure_ms: f64,
    heal_ms: f64,
}

/// Peak resident set size (`VmHWM`) of this process in MiB. Linux-only;
/// the artifact reports `-1` elsewhere.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn probe(nodes: usize) -> Probe {
    // Constant density across sizes: 10 000 nodes per 860 m of area radius
    // (`dataplane_10k`'s field), scaled as √n so a cell's population
    // does not change with the deployment.
    let area = 860.0 * (nodes as f64 / 10_000.0).sqrt();
    let mut net = standard_builder(77)
        .area_radius(area)
        .expected_nodes(nodes)
        .build()
        .expect("valid parameters");
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

    // Healing is a local repair, so the default-sized deadline suffices.
    let killed = net.kill_disk(Point::new(area * 0.5, 0.0), 170.0).len();
    let heal_start = Instant::now();
    let refixed = matches!(
        net.run_to_fixpoint_with(poll, polls, net.now() + SimDuration::from_secs(600)),
        RunOutcome::Fixpoint { .. }
    );
    let clean = net.check_invariants_incremental().is_empty();
    let heal_ms = heal_start.elapsed().as_secs_f64() * 1000.0;

    Probe {
        nodes,
        events: net.engine().events_processed(),
        peak_queue_depth: net.engine().peak_queue_depth(),
        configured,
        killed,
        healed: refixed && clean,
        configure_ms,
        heal_ms,
    }
}

fn to_json(p: &Probe) -> String {
    let wall_ms = p.configure_ms + p.heal_ms;
    json::to_string(|w| {
        w.object(|w| {
            w.key("suite").str("BENCH_core");
            // What the row was measured at: the width of one event-queue
            // entry, of per-node protocol state in the arena's cold column,
            // and of one message in a transmission record; gs3-core gates
            // them at 48, 320 and 96.
            w.key("pending_event_bytes").u64(Engine::<Gs3Node>::pending_event_bytes() as u64);
            w.key("node_bytes").u64(std::mem::size_of::<Gs3Node>() as u64);
            w.key("msg_bytes").u64(std::mem::size_of::<Msg>() as u64);
            w.key("scenarios").array(|w| {
                w.object(|w| {
                    w.key("scenario").str("scale_probe");
                    w.key("nodes").u64(p.nodes as u64);
                    w.key("events").u64(p.events);
                    w.key("peak_queue_depth").u64(p.peak_queue_depth as u64);
                    w.key("configured").u64(u64::from(p.configured));
                    w.key("killed").u64(p.killed as u64);
                    w.key("healed").u64(u64::from(p.healed));
                    w.key("wall_ms").fixed(wall_ms, 3);
                    w.key("configure_ms").fixed(p.configure_ms, 3);
                    w.key("heal_ms").fixed(p.heal_ms, 3);
                    w.key("events_per_sec").fixed(p.events as f64 / (wall_ms / 1000.0), 1);
                    w.key("peak_rss_mb").fixed(peak_rss_mb().unwrap_or(-1.0), 1);
                });
            });
        });
    })
}

/// `(nodes, out)` from `[--nodes N] [--out PATH]`.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(usize, String), String> {
    let (mut nodes, mut out) = (1_000_000, "BENCH_core.json".to_string());
    while let Some(opt) = args.next() {
        let value = args.next().ok_or_else(|| format!("option {opt}: missing value"))?;
        match opt.as_str() {
            "--nodes" => match value.parse() {
                Ok(n) if n > 0 => nodes = n,
                _ => return Err(format!("option --nodes: expected a positive count, got {value:?}")),
            },
            "--out" => out = value,
            _ => return Err(format!("unknown option {opt} (usage: scale_probe [--nodes N] [--out PATH])")),
        }
    }
    Ok((nodes, out))
}

fn main() -> ExitCode {
    let (nodes, out) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("scale_probe: configuring {nodes} nodes → {out}");
    let p = probe(nodes);
    eprintln!(
        "  configured={} healed={} killed={} events={} peak queue {}  configure {:.1}s heal {:.1}s",
        p.configured,
        p.healed,
        p.killed,
        p.events,
        p.peak_queue_depth,
        p.configure_ms / 1000.0,
        p.heal_ms / 1000.0,
    );
    let doc = to_json(&p);
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("error: {out}: {e}");
        return ExitCode::from(2);
    }
    println!("{doc}");
    if p.configured && p.healed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
