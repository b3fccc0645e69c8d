//! **CHAOS** — healing-latency curves under adversarial channels.
//!
//! Sweeps Gilbert–Elliott burst-loss severity × crash churn rate and, for
//! each cell of the grid, drives a seeded [`FaultPlan`] through
//! `Network::run_chaos`: the channel degrades at `t=0`, then periodic
//! crash waves remove random nodes while the invariant oracle polls at
//! `Strictness::Dynamic`. Every cell runs twice — with the control-plane
//! reliability layer off (the paper's protocol verbatim) and on (acked
//! retransmission + adaptive detection + quarantine) — so the emitted
//! curve quantifies what reliable delivery buys as the channel worsens.
//! All runs share a 5% honest unicast-loss floor on top of the burst
//! model, the regime the reliability layer is built for.
//!
//! ```text
//! cargo run --release -p gs3-bench --bin chaos_sweep -- [-j N] [--json]
//! ```
//!
//! `--json` replaces the table with a machine-readable document; the
//! output is byte-identical at any `-j` (cells are seeded and ordered).

use gs3_analysis::report::{num, Table};
use gs3_bench::runner::{run_grid, threads_from_args};
use gs3_core::chaos::ChaosOptions;
use gs3_core::config::MAX_STRETCH_EXP;
use gs3_core::harness::{NetworkBuilder, RunOutcome};
use gs3_core::json::{self, JsonWriter};
use gs3_core::{CongestionConfig, FaultKind, FaultPlan, ReliabilityConfig};
use gs3_sim::faults::{BurstLoss, FaultConfig};
use gs3_sim::{ContentionConfig, SimDuration};

/// A named point on the burst-severity axis.
struct Severity {
    label: &'static str,
    burst: BurstLoss,
}

/// A named point on the churn axis: `waves` crash events of `per_wave`
/// random nodes, one every `gap` seconds.
struct Churn {
    label: &'static str,
    waves: u32,
    per_wave: usize,
    gap: f64,
}

/// Seeds per cell and arm, both grids. Thirty, because three read noise:
/// settle times under contention are heavy-tailed, and a one-word change
/// in one frame's airtime once flipped a 3-seed cell from 3/3 to 1/3.
const SEEDS: [u64; 30] = [
    11, 23, 37, 41, 53, 67, 71, 83, 97, 101, 113, 127, 131, 149, 151, 163, 179, 181, 193, 199, 211,
    223, 227, 239, 251, 263, 271, 283, 293, 307,
];

/// The honest unicast-loss floor applied to every cell (the acceptance
/// regime for the reliability layer: ≥5% loss on one-shot control
/// messages).
const UNICAST_LOSS: f64 = 0.05;

/// One grid cell's raw result (per seed × reliability arm).
struct CellResult {
    healed: bool,
    latencies: Vec<f64>,
    burst_drops: u64,
    unicast_drops: u64,
    retransmits: u64,
    give_ups: u64,
    /// Per-episode spatial healing radius (meters) — one per crash wave.
    episode_radii: Vec<f64>,
    /// Per-episode message cost (sends attributed to the episode).
    episode_messages: Vec<f64>,
}

fn run_cell(sev: &Severity, churn: &Churn, seed: u64, reliable: bool) -> CellResult {
    let mut b = NetworkBuilder::new()
        .ideal_radius(40.0)
        .radius_tolerance(14.0)
        .area_radius(200.0)
        .expected_nodes(400)
        .seed(seed);
    if reliable {
        b = b.reliability(ReliabilityConfig::on());
    }
    let mut net = b.build().expect("valid parameters");
    net.run_to_fixpoint().expect("initial configuration converges");

    let channel = FaultConfig {
        burst: sev.burst.clone(),
        unicast_loss: UNICAST_LOSS,
        ..FaultConfig::none()
    };
    let mut plan = FaultPlan::new();
    plan = plan.at(SimDuration::ZERO, FaultKind::SetChannel { config: channel });
    for w in 0..churn.waves {
        plan = plan.at(
            SimDuration::from_secs_f64(5.0 + f64::from(w) * churn.gap),
            FaultKind::CrashRandom { count: churn.per_wave },
        );
    }

    let rep = net.run_chaos(&plan);
    let latencies = rep
        .outcomes
        .iter()
        .filter(|o| o.kind == "crash_random")
        .filter_map(|o| o.heal_latency)
        .map(|l| l.as_secs_f64())
        .collect();
    CellResult {
        healed: rep.healed(),
        latencies,
        burst_drops: rep.dropped_by_burst,
        unicast_drops: rep.dropped_unicast,
        retransmits: rep.reliability.retransmits,
        give_ups: rep.reliability.give_ups,
        episode_radii: rep.episodes.iter().map(|e| e.radius_m).collect(),
        episode_messages: rep.episodes.iter().map(|e| e.messages as f64).collect(),
    }
}

/// A named point on the density axis of the congestion grid: `nodes`
/// expected nodes in a fixed 160 m-radius area (R = 40, so per-cell
/// population scales with the count).
struct Density {
    label: &'static str,
    nodes: usize,
}

/// A named point on the offered-load axis: every associate reports to its
/// head (and heads batch upward) each `report_s` seconds.
struct Load {
    label: &'static str,
    report_s: f64,
}

/// Deployment area radius of every congestion cell (meters).
const CONG_AREA: f64 = 160.0;

/// Crash wave injected into every congestion cell once configured.
const CONG_CRASH: usize = 8;

/// One congestion-grid cell's raw result (per seed × adaptation arm).
struct CongResult {
    /// Initial self-configuration reached a fixpoint under contention.
    configured: bool,
    /// Configured AND the crash wave healed (zero violations at the end).
    healed: bool,
    /// Healing latency of the crash wave, seconds.
    latency: Option<f64>,
    collisions: u64,
    defers: u64,
    backoff_exhausted: u64,
    stretches: u64,
    relaxes: u64,
    suppressed: u64,
}

/// Runs one congestion cell: a dense deployment configuring and then
/// healing a crash wave over a *contended* medium, with the sensing
/// workload as offered load. `adaptive` toggles congestion-adaptive
/// degradation — the only difference between the two arms.
fn run_congestion_cell(d: &Density, l: &Load, seed: u64, adaptive: bool) -> CongResult {
    let mut b = NetworkBuilder::new()
        .ideal_radius(40.0)
        .radius_tolerance(14.0)
        .area_radius(CONG_AREA)
        .expected_nodes(d.nodes)
        .traffic(SimDuration::from_secs_f64(l.report_s))
        .contention(ContentionConfig::on())
        .seed(seed);
    if adaptive {
        b = b.congestion(CongestionConfig::on());
    }
    let mut net = b.build().expect("valid parameters");

    // Stretched timers move 2^MAX_STRETCH_EXP slower, so both the
    // stability window and the deadline get the same factor — applied to
    // both arms so the harness treats them identically.
    let cfg = net.config().clone();
    let factor = 1u64 << MAX_STRETCH_EXP;
    let poll = cfg.intra_heartbeat;
    let detect = cfg.detection_window() * factor;
    let polls = (detect.as_micros() / poll.as_micros().max(1)) as u32 + 2;
    let deadline = net.now() + SimDuration::from_secs(600 * factor);
    let configured =
        matches!(net.run_to_fixpoint_with(poll, polls, deadline), RunOutcome::Fixpoint { .. });

    let plan =
        FaultPlan::new().at(SimDuration::from_secs(5), FaultKind::CrashRandom { count: CONG_CRASH });
    let opts = ChaosOptions { poll, settle: SimDuration::from_secs(300 * factor) };
    let rep = net.run_chaos_opts(&plan, opts);
    let latency = rep
        .outcomes
        .iter()
        .filter(|o| o.kind == "crash_random")
        .filter_map(|o| o.heal_latency)
        .map(|lat| lat.as_secs_f64())
        .next();
    CongResult {
        configured,
        healed: configured && rep.healed(),
        latency,
        collisions: rep.mac.collisions,
        defers: rep.mac.defers,
        backoff_exhausted: rep.mac.backoff_exhausted,
        stretches: rep.mac.congestion_stretches,
        relaxes: rep.mac.congestion_relaxes,
        suppressed: rep.mac.suppressed_broadcasts,
    }
}

/// Aggregates one adaptation arm of a congestion cell across its seeds.
struct CongArm {
    configured_runs: usize,
    healed_runs: usize,
    median_heal: f64,
    collisions: u64,
    defers: u64,
    backoff_exhausted: u64,
    stretches: u64,
    relaxes: u64,
    suppressed: u64,
}

fn cong_aggregate(runs: &[&CongResult]) -> CongArm {
    let latencies: Vec<f64> = runs.iter().filter_map(|r| r.latency).collect();
    let n = runs.len() as u64;
    CongArm {
        configured_runs: runs.iter().filter(|r| r.configured).count(),
        healed_runs: runs.iter().filter(|r| r.healed).count(),
        median_heal: median(&latencies),
        collisions: runs.iter().map(|r| r.collisions).sum::<u64>() / n,
        defers: runs.iter().map(|r| r.defers).sum::<u64>() / n,
        backoff_exhausted: runs.iter().map(|r| r.backoff_exhausted).sum::<u64>() / n,
        stretches: runs.iter().map(|r| r.stretches).sum::<u64>() / n,
        relaxes: runs.iter().map(|r| r.relaxes).sum::<u64>() / n,
        suppressed: runs.iter().map(|r| r.suppressed).sum::<u64>() / n,
    }
}

impl CongArm {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("configured").u64(self.configured_runs as u64);
            w.key("healed").u64(self.healed_runs as u64);
            w.key("runs").u64(SEEDS.len() as u64);
            w.key("median_heal_s").fixed(self.median_heal, 6);
            w.key("collisions").u64(self.collisions);
            w.key("defers").u64(self.defers);
            w.key("backoff_exhausted").u64(self.backoff_exhausted);
            w.key("congestion_stretches").u64(self.stretches);
            w.key("congestion_relaxes").u64(self.relaxes);
            w.key("suppressed_broadcasts").u64(self.suppressed);
        });
    }
}

/// The median of `xs` (mean of the central pair for even lengths); NaN
/// when empty.
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Aggregates one reliability arm of a grid cell across its seeds.
struct Arm {
    healed_runs: usize,
    median_heal: f64,
    worst_heal: f64,
    burst_drops: u64,
    unicast_drops: u64,
    retransmits: u64,
    give_ups: u64,
    median_episode_radius: f64,
    median_episode_messages: f64,
}

fn aggregate(runs: &[&CellResult]) -> Arm {
    let latencies: Vec<f64> = runs.iter().flat_map(|r| r.latencies.iter().copied()).collect();
    let radii: Vec<f64> = runs.iter().flat_map(|r| r.episode_radii.iter().copied()).collect();
    let msgs: Vec<f64> = runs.iter().flat_map(|r| r.episode_messages.iter().copied()).collect();
    Arm {
        healed_runs: runs.iter().filter(|r| r.healed).count(),
        median_heal: median(&latencies),
        worst_heal: latencies.iter().copied().fold(0.0f64, f64::max),
        burst_drops: runs.iter().map(|r| r.burst_drops).sum::<u64>() / runs.len() as u64,
        unicast_drops: runs.iter().map(|r| r.unicast_drops).sum::<u64>() / runs.len() as u64,
        retransmits: runs.iter().map(|r| r.retransmits).sum::<u64>() / runs.len() as u64,
        give_ups: runs.iter().map(|r| r.give_ups).sum::<u64>() / runs.len() as u64,
        median_episode_radius: median(&radii),
        median_episode_messages: median(&msgs),
    }
}

impl Arm {
    /// Medians over no samples are NaN, which the writer emits as `null`.
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("healed").u64(self.healed_runs as u64);
            w.key("runs").u64(SEEDS.len() as u64);
            w.key("median_heal_s").fixed(self.median_heal, 6);
            w.key("worst_heal_s").fixed(self.worst_heal, 6);
            w.key("burst_drops").u64(self.burst_drops);
            w.key("unicast_drops").u64(self.unicast_drops);
            w.key("retransmits").u64(self.retransmits);
            w.key("give_ups").u64(self.give_ups);
            w.key("episode_radius_m").fixed(self.median_episode_radius, 6);
            w.key("episode_messages").fixed(self.median_episode_messages, 6);
        });
    }
}

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let threads = threads_from_args();

    let severities = [
        Severity { label: "clean", burst: BurstLoss::off() },
        Severity { label: "mild", burst: BurstLoss::bursty(0.01, 3.0) },
        Severity { label: "moderate", burst: BurstLoss::bursty(0.03, 4.0) },
        Severity { label: "severe", burst: BurstLoss::bursty(0.06, 6.0) },
    ];
    let churns = [
        Churn { label: "calm", waves: 1, per_wave: 5, gap: 20.0 },
        Churn { label: "steady", waves: 3, per_wave: 5, gap: 20.0 },
        Churn { label: "storm", waves: 5, per_wave: 10, gap: 15.0 },
    ];

    // The full (severity × churn × seed × arm) grid as independent cells;
    // each is a fully seeded single-threaded simulation. The reliability
    // arm is the innermost axis so off/on pairs of a seed sit adjacent.
    let mut cells: Vec<(usize, usize, u64, bool)> = Vec::new();
    for si in 0..severities.len() {
        for ci in 0..churns.len() {
            for &seed in &SEEDS {
                cells.push((si, ci, seed, false));
                cells.push((si, ci, seed, true));
            }
        }
    }
    let results = run_grid(&cells, threads, |&(si, ci, seed, reliable)| {
        run_cell(&severities[si], &churns[ci], seed, reliable)
    });

    // One (off, on) pair of aggregated arms per severity × churn cell.
    let mut rel_cells: Vec<(&str, &str, Arm, Arm)> = Vec::new();
    for (si, sev) in severities.iter().enumerate() {
        for (ci, churn) in churns.iter().enumerate() {
            let base = (si * churns.len() + ci) * SEEDS.len() * 2;
            let pairs = &results[base..base + SEEDS.len() * 2];
            let off: Vec<&CellResult> = pairs.iter().step_by(2).collect();
            let on: Vec<&CellResult> = pairs.iter().skip(1).step_by(2).collect();
            rel_cells.push((sev.label, churn.label, aggregate(&off), aggregate(&on)));
        }
    }

    // Congestion arm: density × offered load over a *contended* medium,
    // congestion adaptation off vs on. No channel faults — the only
    // adversary is the medium itself; the crash wave exercises healing
    // while the network is loaded.
    let densities = [
        Density { label: "sparse", nodes: 250 },
        Density { label: "dense", nodes: 400 },
    ];
    let loads = [
        Load { label: "light", report_s: 16.0 },
        Load { label: "heavy", report_s: 4.0 },
    ];
    let mut cong_cells: Vec<(usize, usize, u64, bool)> = Vec::new();
    for di in 0..densities.len() {
        for li in 0..loads.len() {
            for &seed in &SEEDS {
                cong_cells.push((di, li, seed, false));
                cong_cells.push((di, li, seed, true));
            }
        }
    }
    let cong_results = run_grid(&cong_cells, threads, |&(di, li, seed, adaptive)| {
        run_congestion_cell(&densities[di], &loads[li], seed, adaptive)
    });

    let mut cong_arms: Vec<(&str, &str, CongArm, CongArm)> = Vec::new();
    for (di, d) in densities.iter().enumerate() {
        for (li, l) in loads.iter().enumerate() {
            let base = (di * loads.len() + li) * SEEDS.len() * 2;
            let pairs = &cong_results[base..base + SEEDS.len() * 2];
            let off: Vec<&CongResult> = pairs.iter().step_by(2).collect();
            let on: Vec<&CongResult> = pairs.iter().skip(1).step_by(2).collect();
            cong_arms.push((d.label, l.label, cong_aggregate(&off), cong_aggregate(&on)));
        }
    }

    if json {
        let doc = json::to_string(|w| {
            w.object(|w| {
                w.key("experiment").str("chaos_sweep");
                w.key("unicast_loss").f64(UNICAST_LOSS);
                w.key("cells").array(|w| {
                    for (burst, churn, off, on) in &rel_cells {
                        w.object(|w| {
                            w.key("burst").str(burst);
                            w.key("churn").str(churn);
                            off.write_json(w.key("reliable_off"));
                            on.write_json(w.key("reliable_on"));
                        });
                    }
                });
                w.key("congestion_cells").array(|w| {
                    for (density, load, off, on) in &cong_arms {
                        w.object(|w| {
                            w.key("density").str(density);
                            w.key("load").str(load);
                            off.write_json(w.key("adaptive_off"));
                            on.write_json(w.key("adaptive_on"));
                        });
                    }
                });
            });
        });
        println!("{doc}");
        return;
    }

    let runs = SEEDS.len();
    let mut t = Table::new([
        "burst",
        "churn",
        "healed off/on",
        "median off (s)",
        "median on (s)",
        "worst on (s)",
        "heal r (m)",
        "retransmits",
        "give-ups",
    ]);
    for (burst, churn, off, on) in &rel_cells {
        t.row([
            burst.to_string(),
            churn.to_string(),
            format!("{}/{runs} · {}/{runs}", off.healed_runs, on.healed_runs),
            num(off.median_heal),
            num(on.median_heal),
            num(on.worst_heal),
            num(on.median_episode_radius),
            format!("{}", on.retransmits),
            format!("{}", on.give_ups),
        ]);
    }
    let mut ct = Table::new([
        "density",
        "load",
        "healed off/on",
        "median on (s)",
        "collisions off/on",
        "exhausted off/on",
        "stretches",
        "suppressed",
    ]);
    for (density, load, off, on) in &cong_arms {
        ct.row([
            density.to_string(),
            load.to_string(),
            format!("{}/{runs} · {}/{runs}", off.healed_runs, on.healed_runs),
            num(on.median_heal),
            format!("{}/{}", off.collisions, on.collisions),
            format!("{}/{}", off.backoff_exhausted, on.backoff_exhausted),
            format!("{}", on.stretches),
            format!("{}", on.suppressed),
        ]);
    }
    println!("{}", t.render());
    println!(
        "expected shape: calm and steady cells heal every run in both arms\n\
         (storm cells lose seed 181, whose second crash wave leaves four\n\
         heads under a dead ancestor whatever the channel or arm); median\n\
         healing latency is one detection timeout in both arms, and\n\
         give-ups stay rare (the fallback paths, not the happy path).\n"
    );
    println!("{}", ct.render());
    println!(
        "congestion arm (contended medium, no channel faults): with\n\
         adaptation off every run configures and heals; with adaptation on\n\
         mean collisions fall in every cell, but a tenth to almost a half\n\
         of runs never configure within the equally stretched deadline\n\
         (EXPERIMENTS.md \"Congestion collapse\" — an open question)."
    );
}
