//! The `chaos` suite: healing under adversarial channels and a contended
//! medium, written as `BENCH_chaos.json`.
//!
//! **CHAOS** sweeps Gilbert–Elliott burst-loss severity × crash churn rate
//! and, for each cell of the grid, drives a seeded [`FaultPlan`] through
//! `Network::run_chaos`: the channel degrades at `t=0`, then periodic
//! crash waves remove random nodes while the invariant oracle polls at
//! `Strictness::Dynamic`. Every cell runs twice — with the control-plane
//! reliability layer off (the paper's protocol verbatim) and on (acked
//! retransmission + adaptive detection + quarantine) — so the table
//! quantifies what reliable delivery buys as the channel worsens. All runs
//! share a 5% honest unicast-loss floor on top of the burst model, the
//! regime the reliability layer is built for.
//!
//! **CONGESTION** crosses density × offered load over a contended medium
//! with congestion adaptation off and on; a crash wave exercises healing
//! while the network is loaded.
//!
//! Both tables have one row per cell and arm, each aggregate over the
//! same 30 seeds.

use gs3_analysis::report::{Cell, Table};
use gs3_core::chaos::ChaosOptions;
use gs3_core::config::MAX_STRETCH_EXP;
use gs3_core::harness::{NetworkBuilder, RunOutcome};
use gs3_core::{CongestionConfig, FaultKind, FaultPlan, ReliabilityConfig};
use gs3_sim::faults::{BurstLoss, FaultConfig};
use gs3_sim::trace::Trace;
use gs3_sim::{ContentionConfig, SimDuration};

use crate::runner::run_grid;
use crate::section::Section;

use Cell::{Fixed, Int, Text};

/// Seeds per cell and arm, both grids. Thirty, because three read noise:
/// settle times under contention are heavy-tailed, and a one-word change
/// in one frame's airtime once flipped a 3-seed cell from 3/3 to 1/3.
const SEEDS: [u64; 30] = [
    11, 23, 37, 41, 53, 67, 71, 83, 97, 101, 113, 127, 131, 149, 151, 163, 179, 181, 193, 199, 211,
    223, 227, 239, 251, 263, 271, 283, 293, 307,
];

/// Runs both grids, each over `threads` workers.
#[must_use]
pub fn sections(threads: usize) -> Vec<Section> {
    vec![chaos(threads), congestion(threads)]
}

/// An arm (`false` = off, `true` = on) as a label.
fn arm_label(on: bool) -> Cell {
    Text(if on { "on" } else { "off" }.into())
}

/// The per-run mean of a counter, truncated to an integer.
fn mean<R>(runs: &[R], f: impl Fn(&R) -> u64) -> Cell {
    Int(runs.iter().map(f).sum::<u64>() / runs.len() as u64)
}

/// The median of `xs` (mean of the central pair for even lengths).
fn median(xs: &[f64]) -> Option<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[mid]),
        _ => Some((s[mid - 1] + s[mid]) / 2.0),
    }
}

/// Runs `run(cell, seed, arm)` over every cell × [`SEEDS`] × {off, on}
/// and groups the results by cell and arm, off before on. The arm is the
/// innermost axis so the off/on pair of a seed runs adjacently.
fn grid<C: Sync, R: Send>(
    cells: &[C],
    threads: usize,
    run: impl Fn(&C, u64, bool) -> R + Sync,
) -> Vec<(&C, bool, Vec<R>)> {
    let jobs: Vec<(usize, u64, bool)> = (0..cells.len())
        .flat_map(|c| SEEDS.iter().flat_map(move |&seed| [(c, seed, false), (c, seed, true)]))
        .collect();
    let mut results = run_grid(&jobs, threads, |&(c, seed, on)| run(&cells[c], seed, on)).into_iter();
    let mut out = Vec::new();
    for cell in cells {
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in &SEEDS {
            off.push(results.next().expect("one result per job"));
            on.push(results.next().expect("one result per job"));
        }
        out.push((cell, false, off));
        out.push((cell, true, on));
    }
    out
}

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

/// The honest unicast-loss floor applied to every cell (the acceptance
/// regime for the reliability layer: ≥5% loss on one-shot control
/// messages).
const UNICAST_LOSS: f64 = 0.05;

/// One CHAOS run's raw result (per seed × reliability arm).
struct ChaosRun {
    healed: bool,
    latencies: Vec<f64>,
    /// The run's counters over the chaos window.
    counters: Trace,
    /// Per-episode spatial healing radius (meters) — one per crash wave.
    episode_radii: Vec<f64>,
    /// Per-episode message cost (sends attributed to the episode).
    episode_messages: Vec<f64>,
}

fn run_chaos(sev: &Severity, churn: &Churn, seed: u64, reliable: bool) -> ChaosRun {
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
    net.run_to_fixpoint();

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
    ChaosRun {
        healed: rep.healed(),
        latencies,
        episode_radii: rep.episodes.iter().map(|e| e.radius_m).collect(),
        episode_messages: rep.episodes.iter().map(|e| e.messages as f64).collect(),
        counters: rep.counters,
    }
}

/// **CHAOS** — healing latency under burst loss × crash churn, the
/// reliability layer off and on.
fn chaos(threads: usize) -> Section {
    let mut s = Section::new("CHAOS", "healing under burst loss × crash churn, reliability layer off/on");
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
    let cells: Vec<(&Severity, &Churn)> =
        severities.iter().flat_map(|sev| churns.iter().map(move |c| (sev, c))).collect();
    s.text(format!(
        "400 nodes, R = 40, R_t = 14; {} seeds per cell and arm; {:.0}% unicast loss in every run.\n\
         Counters are per-run means; latencies, radii and messages pool every\n\
         crash wave of every run.\n",
        SEEDS.len(),
        UNICAST_LOSS * 100.0
    ));
    let mut t = Table::new([
        "burst",
        "churn",
        "reliable",
        "healed",
        "runs",
        "median heal (s)",
        "worst heal (s)",
        "burst drops",
        "unicast drops",
        "retransmits",
        "give-ups",
        "episode radius (m)",
        "episode messages",
    ]);
    let arms = grid(&cells, threads, |&(sev, churn), seed, on| run_chaos(sev, churn, seed, on));
    for ((sev, churn), on, runs) in arms {
        let pooled = |f: fn(&ChaosRun) -> &Vec<f64>| -> Vec<f64> {
            runs.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let latencies = pooled(|r| &r.latencies);
        t.row([
            Text(sev.label.into()),
            Text(churn.label.into()),
            arm_label(on),
            Int(runs.iter().filter(|r| r.healed).count() as u64),
            Int(SEEDS.len() as u64),
            Cell::opt_fixed(median(&latencies), 6),
            Fixed(latencies.iter().copied().fold(0.0f64, f64::max), 6),
            mean(&runs, |r| r.counters.dropped_by_burst()),
            mean(&runs, |r| r.counters.dropped_unicast()),
            mean(&runs, |r| r.counters.proto("reliable_retransmits")),
            mean(&runs, |r| r.counters.proto("reliable_give_ups")),
            Cell::opt_fixed(median(&pooled(|r| &r.episode_radii)), 6),
            Cell::opt_fixed(median(&pooled(|r| &r.episode_messages)), 6),
        ]);
    }
    s.table("cells", t);
    s.text(
        "expected shape: calm and steady cells heal every run in both arms\n\
         (storm cells lose seed 181, whose second crash wave leaves four\n\
         heads under a dead ancestor whatever the channel or arm); median\n\
         healing latency is one detection timeout in both arms, and\n\
         give-ups stay rare (the fallback paths, not the happy path).",
    );
    s
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

/// One CONGESTION run's raw result (per seed × adaptation arm).
struct CongestionRun {
    /// Initial self-configuration reached a fixpoint under contention.
    configured: bool,
    /// Configured AND the crash wave healed (zero violations at the end).
    healed: bool,
    /// Healing latency of the crash wave, seconds.
    latency: Option<f64>,
    /// The run's counters over the chaos window.
    counters: Trace,
}

/// Runs one congestion cell: a dense deployment configuring and then
/// healing a crash wave over a *contended* medium, with the sensing
/// workload as offered load. `adaptive` toggles congestion-adaptive
/// degradation — the only difference between the two arms.
fn run_congestion(d: &Density, l: &Load, seed: u64, adaptive: bool) -> CongestionRun {
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
    CongestionRun {
        configured,
        healed: configured && rep.healed(),
        latency,
        counters: rep.counters,
    }
}

/// **CONGESTION** — density × offered load over a *contended* medium,
/// congestion adaptation off vs on. No channel faults: the only adversary
/// is the medium itself.
fn congestion(threads: usize) -> Section {
    let mut s =
        Section::new("CONGESTION", "contended medium: density × offered load, congestion adaptation off/on");
    let densities = [Density { label: "sparse", nodes: 250 }, Density { label: "dense", nodes: 400 }];
    let loads = [Load { label: "light", report_s: 16.0 }, Load { label: "heavy", report_s: 4.0 }];
    let cells: Vec<(&Density, &Load)> =
        densities.iter().flat_map(|d| loads.iter().map(move |l| (d, l))).collect();
    s.text(format!(
        "R = 40, R_t = 14, {CONG_AREA:.0} m field, a crash wave of {CONG_CRASH} nodes at t = 5 s; {} seeds\n\
         per cell and arm. Both arms get deadlines stretched by 2^{MAX_STRETCH_EXP}. Counters are\n\
         per-run means.\n",
        SEEDS.len()
    ));
    let mut t = Table::new([
        "density",
        "load",
        "adaptive",
        "configured",
        "healed",
        "runs",
        "median heal (s)",
        "collisions",
        "defers",
        "backoff exhausted",
        "stretches",
        "relaxes",
        "suppressed",
    ]);
    for ((d, l), on, runs) in grid(&cells, threads, |&(d, l), seed, on| run_congestion(d, l, seed, on)) {
        let latencies: Vec<f64> = runs.iter().filter_map(|r| r.latency).collect();
        t.row([
            Text(d.label.into()),
            Text(l.label.into()),
            arm_label(on),
            Int(runs.iter().filter(|r| r.configured).count() as u64),
            Int(runs.iter().filter(|r| r.healed).count() as u64),
            Int(SEEDS.len() as u64),
            Cell::opt_fixed(median(&latencies), 6),
            mean(&runs, |r| r.counters.mac_collisions()),
            mean(&runs, |r| r.counters.mac_defers()),
            mean(&runs, |r| r.counters.mac_backoff_exhausted()),
            mean(&runs, |r| r.counters.proto("congestion_stretch")),
            mean(&runs, |r| r.counters.proto("congestion_relax")),
            mean(&runs, |r| r.counters.proto("suppressed_broadcast")),
        ]);
    }
    s.table("cells", t);
    s.text(
        "expected shape (EXPERIMENTS.md \"Congestion collapse\"): with\n\
         adaptation off every run configures and heals; with adaptation on\n\
         mean collisions fall in every cell, but a tenth to almost a half\n\
         of runs never configure within the equally stretched deadline —\n\
         an open question.",
    );
    s
}
