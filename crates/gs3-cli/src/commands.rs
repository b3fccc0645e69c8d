//! The CLI subcommands.

use gs3_analysis::metrics::measure;
use gs3_analysis::render::{render, RenderOptions};
use gs3_analysis::report::num;
use gs3_bench::runner::run_grid;
use gs3_core::chaos::{Corruption, FaultKind, FaultPlan};
use gs3_core::harness::{Network, NetworkBuilder, RunOutcome};
use gs3_core::json;
use gs3_core::{CongestionConfig, Mode, ReliabilityConfig};
use gs3_geometry::Point;
use gs3_mc::{Budgets, McStrategy, ModelChecker, Scenario};
use gs3_sim::faults::{BurstLoss, FaultConfig};
use gs3_sim::radio::EnergyModel;
use gs3_sim::telemetry::{export_chrome_trace, export_jsonl, RecorderMode};
use gs3_sim::trace::Trace;
use gs3_sim::ContentionConfig;
use gs3_sim::SimDuration;

use crate::args::Args;

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// A command: its name, every option key it reads, and what runs it.
pub struct Command {
    /// The name it is invoked by.
    pub name: &'static str,
    /// The keys it reads, flags and value-taking options alike.
    pub keys: &'static [&'static [&'static str]],
    /// Runs it.
    pub run: fn(&Args) -> CliResult,
}

/// The keys [`build_seeded`] reads.
const BUILD: &[&str] = &[
    "nodes", "radius", "tolerance", "area", "seed", "loss", "noise", "traffic", "budget", "static", "mobile",
    "workload", "reliable", "contended", "adaptive",
];
/// The keys [`report`] reads.
const REPORT: &[&str] = &["quiet", "map"];

/// Every command.
pub const COMMANDS: [Command; 8] = [
    Command { name: "run", keys: &[BUILD, REPORT], run },
    Command { name: "heal", keys: &[BUILD, REPORT, &["kill-disk", "kill-radius"]], run: heal },
    Command { name: "watch", keys: &[BUILD, REPORT, &["duration", "sample"]], run: watch },
    Command {
        name: "chaos",
        keys: &[BUILD, REPORT, &[
            "burst-enter", "burst-len", "unicast-loss", "duplicate", "delay-prob", "delay-max", "crash", "jam",
            "jam-radius", "jam-secs", "json", "timeline", "runs", "threads", "plan",
        ]],
        run: chaos,
    },
    Command {
        name: "mc",
        keys: &[&[
            "scenario", "strategy", "max-states", "max-depth", "max-fates", "max-crashes", "max-path-faults",
            "horizon", "heal-window", "json", "out", "ce-dir", "quiet",
        ]],
        run: mc,
    },
    Command { name: "dataplane", keys: &[BUILD, REPORT, &["duration", "json"]], run: dataplane },
    Command { name: "trace", keys: &[BUILD, &["duration", "capacity", "format", "out", "quiet"]], run: trace },
    Command {
        name: "help",
        keys: &[&["help"]],
        run: |_| {
            help();
            Ok(())
        },
    },
];

/// Prints usage.
pub fn help() {
    println!(
        "gs3 — GS3 cellular self-configuration, simulated\n\
         \n\
         commands:\n\
         \x20 run    configure a field and report the structure\n\
         \x20 heal   configure, kill a disk of nodes, re-heal, report locality\n\
         \x20 watch  run under energy drain and watch the structure slide\n\
         \x20 chaos  configure, then run a scheduled fault plan (burst loss,\n\
         \x20        jamming, crash wave, state corruption) and certify healing\n\
         \x20 mc     exhaustively model-check a pinned small field against a\n\
         \x20        bounded adversary and report verified properties /\n\
         \x20        minimized counterexamples\n\
         \x20 dataplane  configure, run the convergecast workload, and report\n\
         \x20        end-to-end delivery (sink ledger, latency percentiles,\n\
         \x20        queue/credit counters)\n\
         \x20 trace  configure, record the flight recorder for a while, and\n\
         \x20        export the event stream (JSONL or Chrome trace)\n\
         \x20 help   this text\n\
         \n\
         common options (defaults in parentheses):\n\
         \x20 --nodes N        expected node count (1400)\n\
         \x20 --radius R       ideal cell radius R in meters (80)\n\
         \x20 --tolerance RT   radius tolerance R_t in meters (18)\n\
         \x20 --area A         deployment disk radius in meters (320)\n\
         \x20 --seed S         RNG seed (2002)\n\
         \x20 --static         run GS3-S (one-shot, no maintenance)\n\
         \x20 --mobile         run GS3-M (big-node mobility handling)\n\
         \x20 --loss P         broadcast loss probability (0)\n\
         \x20 --noise SIGMA    localization noise sigma in meters (0)\n\
         \x20 --traffic SECS   run the convergecast workload at this report\n\
         \x20                  period (sequenced reports, bounded aggregation\n\
         \x20                  queues, credit backpressure, sink delivery\n\
         \x20                  ledger); without it no data is sent\n\
         \x20 --workload       --traffic 5 unless --traffic is given\n\
         \x20 --reliable       enable the control-plane reliability layer\n\
         \x20                  (acked retransmission, adaptive failure\n\
         \x20                  detection, quarantine mode)\n\
         \x20 --contended      enable the shared-medium contention layer\n\
         \x20                  (frame airtime, carrier-sense backoff,\n\
         \x20                  receiver-side collisions)\n\
         \x20 --adaptive       enable congestion-adaptive degradation\n\
         \x20                  (heartbeat stretching and broadcast\n\
         \x20                  suppression under observed contention)\n\
         \x20 --map            print an ASCII map of the structure\n\
         \x20 --quiet          suppress the metrics block\n\
         \n\
         heal options:\n\
         \x20 --kill-disk X,Y  center of the killed disk (required)\n\
         \x20 --kill-radius M  radius of the killed disk (60)\n\
         \n\
         watch options:\n\
         \x20 --budget E       per-node energy budget (500)\n\
         \x20 --duration SECS  how long to watch (1200)\n\
         \x20 --sample SECS    status-line period (60)\n\
         \n\
         chaos options (all deterministic per --seed):\n\
         \x20 --burst-enter P  Gilbert-Elliott bad-state entry prob (0.02)\n\
         \x20 --burst-len L    mean burst length in deliveries (4)\n\
         \x20 --unicast-loss P unicast loss probability (0.02)\n\
         \x20 --duplicate P    duplication probability (0)\n\
         \x20 --delay-prob P   extra-delay probability (0)\n\
         \x20 --delay-max MS   extra-delay bound in ms (0)\n\
         \x20 --crash N        crash-wave size (10)\n\
         \x20 --jam X,Y        jam disk center (0.5*area, 0)\n\
         \x20 --jam-radius M   jam disk radius (80)\n\
         \x20 --jam-secs S     jam window length (60)\n\
         \x20 --json           print the ChaosReport as JSON only\n\
         \x20 --timeline FILE  record the run and write a Chrome-trace /\n\
         \x20                  Perfetto timeline (chrome://tracing, ui.perfetto.dev)\n\
         \x20 --runs N         repeat against N consecutive seeds (1)\n\
         \x20 --threads N, -j N  worker threads for --runs > 1 (all cores);\n\
         \x20                  output is identical at any thread count\n\
         \x20 --plan FILE      replay a FaultPlan JSON file instead of the\n\
         \x20                  built-in schedule; also accepts a gs3-mc\n\
         \x20                  counterexample file (its embedded plan is used)\n\
         \n\
         mc options (field and budgets; deterministic per scenario):\n\
         \x20 --scenario NAME  pair5|triangle9|rel7|grid15|sparse7|all (all)\n\
         \x20 --strategy S     bfs | dfs (bfs)\n\
         \x20 --max-states N   state-expansion budget (50000)\n\
         \x20 --max-depth N    per-path choice budget (4000)\n\
         \x20 --max-fates N    scripted delivery fates per path (1)\n\
         \x20 --max-crashes N  node crashes per path (1)\n\
         \x20 --max-path-faults N  total faults per path (1)\n\
         \x20 --horizon SECS   simulated exploration horizon (40)\n\
         \x20 --heal-window SECS  healing bound after the last fault (25)\n\
         \x20 --json           print the full report document only\n\
         \x20 --out FILE       also write the report document here\n\
         \x20 --ce-dir DIR     write each counterexample (and its standalone\n\
         \x20                  FaultPlan) into DIR for artifact upload\n\
         \n\
         dataplane options (--traffic 5 unless --traffic is given):\n\
         \x20 --duration SECS  how long to run the workload (120)\n\
         \x20 --json           print the run's counters and sink ledger as JSON only\n\
         \n\
         trace options:\n\
         \x20 --duration SECS  how long to record after configuration (60)\n\
         \x20 --capacity N     flight-recorder ring capacity (200000)\n\
         \x20 --format F       jsonl | chrome (jsonl)\n\
         \x20 --out FILE       write here instead of stdout"
    );
}

/// What a command's network runs with when the command line sets no
/// `--budget` or traffic: `None` is energy off, no traffic.
#[derive(Debug, Clone, Copy, Default)]
struct Defaults {
    budget: Option<f64>,
    traffic_secs: Option<f64>,
}

fn build(a: &Args, defaults: Defaults) -> Result<Network, Box<dyn std::error::Error>> {
    let seed: u64 = a.num("seed", 2002)?;
    build_seeded(a, seed, defaults)
}

fn build_seeded(a: &Args, seed: u64, defaults: Defaults) -> Result<Network, Box<dyn std::error::Error>> {
    let nodes: usize = a.num("nodes", 1400)?;
    let radius: f64 = a.num("radius", 80.0)?;
    let tolerance: f64 = a.num("tolerance", 18.0)?;
    let area: f64 = a.num("area", 320.0)?;
    let loss: f64 = a.num("loss", 0.0)?;
    let noise: f64 = a.num("noise", 0.0)?;
    let mode = if a.flag("static") {
        Mode::Static
    } else if a.flag("mobile") {
        Mode::Mobile
    } else {
        Mode::Dynamic
    };
    let mut b = NetworkBuilder::new()
        .ideal_radius(radius)
        .radius_tolerance(tolerance)
        .area_radius(area)
        .expected_nodes(nodes)
        .seed(seed)
        .mode(mode)
        .broadcast_loss(loss)
        .position_noise(noise);
    let workload = a.flag("workload").then_some(5.0);
    if let Some(secs) = a.parsed("traffic")?.or(workload).or(defaults.traffic_secs) {
        b = b.traffic(SimDuration::from_secs_f64(secs));
    }
    if let Some(e) = a.parsed("budget")?.or(defaults.budget) {
        b = b.energy(EnergyModel::normalized(2.0 * radius), e);
    }
    if a.flag("reliable") {
        b = b.reliability(ReliabilityConfig::on());
    }
    if a.flag("contended") {
        b = b.contention(ContentionConfig::on());
    }
    if a.flag("adaptive") {
        b = b.congestion(CongestionConfig::on());
    }
    Ok(b.build()?)
}

fn configure(net: &mut Network) -> CliResult {
    match net.config().mode {
        Mode::Static => {
            let deadline = net.now() + SimDuration::from_secs(900);
            net.engine_mut()
                .run_until_quiescent(deadline)
                .ok_or("static diffusion did not terminate")?;
        }
        _ => match net.run_to_fixpoint() {
            RunOutcome::Fixpoint { .. } => {}
            RunOutcome::TimedOut { at } => return Err(format!("not stable by {at}").into()),
        },
    }
    Ok(())
}

fn report(net: &mut Network, a: &Args) {
    if !a.flag("quiet") {
        let (snap, idx) = net.view();
        let m = measure(snap, idx);
        println!("nodes:                {}", net.engine().node_count());
        println!("cells (heads):        {}", m.heads);
        println!("coverage:             {:.1}%", m.coverage_ratio * 100.0);
        println!(
            "cell radius:          mean {} / max {} m",
            num(m.cell_radius.mean),
            num(m.cell_radius.max)
        );
        println!(
            "head spacing:         mean {} m (ideal {})",
            num(m.neighbor_head_distance.mean),
            num(net.config().spacing())
        );
        println!(
            "head-to-IL deviation: max {} m (bound {})",
            num(m.head_il_deviation.max),
            num(net.config().r_t)
        );
        let violations = net.check_invariants_incremental();
        match violations.first() {
            None => println!("invariants:           all hold"),
            Some(v) => println!("invariants:           {} VIOLATED, first: {v}", violations.len()),
        }
    }
    if a.flag("map") {
        println!("{}", render(net.view().0, RenderOptions::default()));
    }
}

/// `gs3 run`.
pub fn run(a: &Args) -> CliResult {
    let mut net = build(a, Defaults::default())?;
    configure(&mut net)?;
    println!("configured at {}", net.now());
    report(&mut net, a);
    Ok(())
}

/// `gs3 heal`.
pub fn heal(a: &Args) -> CliResult {
    let center = a.point("kill-disk")?;
    let radius: f64 = a.num("kill-radius", 60.0)?;
    let mut net = build(a, Defaults::default())?;
    configure(&mut net)?;
    println!("configured at {}; killing disk r={radius} at {center}", net.now());

    let mut killed = 0;
    let impact = gs3_analysis::locality::measure_impact(
        &mut net,
        center,
        SimDuration::from_secs(1),
        SimDuration::from_secs(600),
        |net| {
            killed = net.kill_disk(center, radius).len();
        },
    );
    println!("killed:          {killed} nodes");
    match impact.heal_time {
        Some(t) => println!("healed in:       {}", t),
        None => println!("healed in:       did not re-stabilize (timed out)"),
    }
    println!("nodes affected:  {}", impact.changed.len());
    println!("impact radius:   {} m", num(impact.impact_radius));
    report(&mut net, a);
    Ok(())
}

/// `gs3 watch`.
pub fn watch(a: &Args) -> CliResult {
    let duration: f64 = a.num("duration", 1200.0)?;
    let sample: f64 = a.num("sample", 60.0)?;
    let period = SimDuration::from_secs_f64(sample);
    if period.is_zero() {
        return Err(format!("option --sample needs a period of at least 1 µs, got {sample}").into());
    }
    // Watch implies energy accounting.
    let mut net = build(a, Defaults { budget: Some(500.0), ..Defaults::default() })?;
    configure(&mut net)?;
    println!("configured; draining for {duration} s\n");
    println!("{:>7}  {:>5}  {:>6}  {:>9}  {:>8}", "t(s)", "heads", "alive", "coverage", "shifted");
    let end = net.now() + SimDuration::from_secs_f64(duration);
    while net.now() < end {
        net.run_for(period);
        let (snap, idx) = net.view();
        let m = measure(snap, idx);
        let shifted = snap
            .heads()
            .filter(|h| match &h.role {
                gs3_core::RoleView::Head { icc_icp, .. } => {
                    *icc_icp != gs3_geometry::spiral::IccIcp::ORIGIN
                }
                _ => false,
            })
            .count();
        println!(
            "{:>7.0}  {:>5}  {:>6}  {:>8.1}%  {:>4}/{:<4}",
            net.now().as_secs_f64(),
            m.heads,
            net.engine().alive_count(),
            m.coverage_ratio * 100.0,
            shifted,
            m.heads
        );
        if m.heads == 0 {
            println!("\nstructure exhausted");
            break;
        }
    }
    report(&mut net, a);
    Ok(())
}

/// Prints every counter of `t` that is not zero, one per line.
fn print_counters(t: &Trace) {
    for (name, n) in t.named().filter(|&(_, n)| n > 0) {
        println!("  {name:<27} {n}");
    }
}

/// `gs3 dataplane` — configure, run the convergecast workload for
/// `--duration`, and report end-to-end delivery: the sink ledger (reports,
/// latency percentiles, dedup) and the run's counters.
pub fn dataplane(a: &Args) -> CliResult {
    let duration: f64 = a.num("duration", 120.0)?;
    let mut net = build(a, Defaults { traffic_secs: Some(5.0), ..Defaults::default() })?;
    configure(&mut net)?;
    if !a.flag("json") {
        println!("configured at {}; running the workload for {duration} s", net.now());
    }
    net.run_for(SimDuration::from_secs_f64(duration));
    let tr = net.engine().trace();
    if a.flag("json") {
        let doc = json::to_string(|w| {
            w.object(|w| {
                tr.write_json(w.key("counters"));
                match net.sink_ledger() {
                    Some(l) => l.write_json(w.key("ledger")),
                    None => {
                        w.key("ledger").null();
                    }
                }
            });
        });
        println!("{doc}");
        return Ok(());
    }
    let produced = tr.proto("data_reports_produced");
    println!();
    println!("data plane (convergecast over the head tree):");
    match net.sink_ledger() {
        Some(l) => {
            let pct = if produced > 0 {
                100.0 * l.reports as f64 / produced as f64
            } else {
                0.0
            };
            println!(
                "  delivered:         {} of {produced} reports in {} sub-batches ({pct:.1}%)",
                l.reports, l.batches
            );
            println!(
                "  latency:           p50 {:.1} ms / p95 {:.1} ms / max {:.1} ms",
                l.latency_us.percentile(50.0) as f64 / 1000.0,
                l.latency_us.percentile(95.0) as f64 / 1000.0,
                l.latency_us.max() as f64 / 1000.0
            );
            println!("  sink duplicates:   {}", l.duplicate_batches);
        }
        None => println!("  delivered:         nothing reached the sink"),
    }
    println!("counters:");
    print_counters(tr);
    report(&mut net, a);
    Ok(())
}

/// `gs3 chaos` — configure, then execute a scheduled fault plan while
/// polling the invariant suite, and report per-fault healing latencies.
/// Everything is drawn from the seeded RNG: two runs with the same options
/// print the same digest, delivery for delivery.
pub fn chaos(a: &Args) -> CliResult {
    let area: f64 = a.num("area", 320.0)?;
    let burst_enter: f64 = a.num("burst-enter", 0.02)?;
    let burst_len: f64 = a.num("burst-len", 4.0)?;
    let unicast_loss: f64 = a.num("unicast-loss", 0.02)?;
    let duplicate: f64 = a.num("duplicate", 0.0)?;
    let delay_prob: f64 = a.num("delay-prob", 0.0)?;
    let delay_max: u64 = a.num("delay-max", 0)?;
    let crash: usize = a.num("crash", 10)?;
    let jam_center = match a.get("jam") {
        Some(_) => a.point("jam")?,
        None => Point::new(0.5 * area, 0.0),
    };
    let jam_radius: f64 = a.num("jam-radius", 80.0)?;
    let jam_secs: f64 = a.num("jam-secs", 60.0)?;
    let json = a.flag("json");

    let channel = FaultConfig {
        burst: BurstLoss {
            p_enter: burst_enter,
            // A channel that never enters a burst needs no burst length.
            p_exit: if burst_enter > 0.0 { 1.0 / burst_len } else { 1.0 },
            loss_good: 0.0,
            loss_bad: 1.0,
        },
        unicast_loss,
        duplicate,
        delay_prob,
        delay_max: SimDuration::from_millis(delay_max),
    };
    channel.validate().map_err(|e| {
        let hint = if e.starts_with("burst.p_exit") { " (p_exit is 1/--burst-len)" } else { "" };
        format!("channel options: {e}{hint}")
    })?;
    let corrupt_near = Point::new(0.4 * area, 0.3 * area);
    let loaded = match a.get("plan") {
        Some(path) => Some(load_plan(path)?),
        None => None,
    };
    let make_plan: Box<dyn Fn() -> FaultPlan + Sync> = match loaded {
        Some(plan) => Box::new(move || plan.clone()),
        None => Box::new(move || {
            FaultPlan::new()
                .at(SimDuration::ZERO, FaultKind::SetChannel { config: channel.clone() })
                .at(SimDuration::from_secs(5), FaultKind::StartJam {
                    label: 0,
                    center: jam_center,
                    radius: jam_radius,
                })
                .at(SimDuration::from_secs(10), FaultKind::CrashRandom { count: crash })
                .at(SimDuration::from_secs(20), FaultKind::CorruptState {
                    near: corrupt_near,
                    corruption: Corruption::Il { offset: gs3_geometry::Vec2::new(150.0, 90.0) },
                })
                .at(SimDuration::from_secs_f64(5.0 + jam_secs), FaultKind::StopJam { label: 0 })
        }),
    };

    let runs: usize = a.num("runs", 1)?;
    if runs == 0 {
        return Err("option --runs needs at least 1 run, got 0".into());
    }
    if runs > 1 {
        // Both describe one network; a multi-seed run has `runs` of them.
        for (key, given) in [("timeline", a.get("timeline").is_some()), ("map", a.flag("map"))] {
            if given {
                return Err(format!("option --{key} describes a single run; it needs --runs 1").into());
            }
        }
        return chaos_multi(a, runs, json, &*make_plan);
    }

    let timeline = a.get("timeline").map(str::to_string);
    let mut net = build(a, Defaults::default())?;
    if timeline.is_some() {
        // Recording is pure observation: the digest printed below is
        // bit-identical with or without the timeline.
        net.engine_mut().set_recording(RecorderMode::Full { capacity: 200_000 });
    }
    configure(&mut net)?;
    if !json {
        println!("configured at {}; unleashing chaos", net.now());
    }
    let plan = make_plan();
    let rep = net.run_chaos(&plan);

    if let Some(path) = &timeline {
        let tel = net.engine().telemetry();
        let doc = export_chrome_trace(
            tel.recorder.events(),
            tel.episodes.episodes(),
            net.now().as_micros(),
        );
        std::fs::write(path, doc)?;
        if !json {
            println!("timeline:        wrote {path} ({} events in ring)", tel.recorder.len());
        }
    }

    if json {
        println!("{}", rep.to_json());
        return Ok(());
    }
    println!();
    println!("{:>12}  {:>10}  {:>7}  fault", "t(s)", "heal(s)", "killed");
    for o in &rep.outcomes {
        let heal = match o.heal_latency {
            Some(l) => format!("{:.1}", l.as_secs_f64()),
            None => "never".to_string(),
        };
        println!(
            "{:>12.1}  {:>10}  {:>7}  {} — {}",
            o.injected_at.as_secs_f64(),
            heal,
            o.killed,
            o.kind,
            o.detail
        );
    }
    println!();
    println!("counters over the run:");
    print_counters(&rep.counters);
    println!("polls:           {} (max {} violations)", rep.polls, rep.max_violations);
    println!("digest:          {:016x}", rep.digest);
    println!(
        "verdict:         {}",
        if rep.healed() {
            "HEALED — zero invariant violations"
        } else {
            "NOT HEALED within the settle window"
        }
    );
    report(&mut net, a);
    if !rep.healed() {
        return Err("structure did not heal".into());
    }
    Ok(())
}

/// `gs3 chaos --runs N`: the same fault plan against `N` consecutive
/// seeds, fanned out over `--threads`/`-j` worker threads. Results print
/// in seed order, so the output is identical at any thread count.
fn chaos_multi(
    a: &Args,
    runs: usize,
    json: bool,
    make_plan: &(dyn Fn() -> FaultPlan + Sync),
) -> CliResult {
    let base_seed: u64 = a.num("seed", 2002)?;
    let seeds: Vec<u64> = (0..runs as u64).map(|i| base_seed.wrapping_add(i)).collect();
    let results = run_grid(&seeds, a.threads()?, |&seed| -> Result<_, String> {
        let mut net = build_seeded(a, seed, Defaults::default()).map_err(|e| e.to_string())?;
        configure(&mut net).map_err(|e| e.to_string())?;
        Ok(net.run_chaos(&make_plan()))
    });

    if json {
        let doc = json::to_string(|w| {
            w.object(|w| {
                w.key("runs").array(|w| {
                    for (seed, res) in seeds.iter().zip(&results) {
                        w.object(|w| {
                            w.key("seed").u64(*seed);
                            match res {
                                Ok(rep) => rep.write_json(w.key("report")),
                                Err(e) => {
                                    w.key("error").str(e);
                                }
                            }
                        });
                    }
                });
            });
        });
        println!("{doc}");
    } else {
        println!("{:>8}  {:>16}  verdict", "seed", "digest");
        for (seed, res) in seeds.iter().zip(&results) {
            match res {
                Ok(rep) => println!(
                    "{seed:>8}  {:016x}  {}",
                    rep.digest,
                    if rep.healed() { "HEALED" } else { "NOT HEALED" }
                ),
                Err(e) => println!("{seed:>8}  {:>16}  error: {e}", "-"),
            }
        }
    }
    let failed = results
        .iter()
        .filter(|r| !matches!(r, Ok(rep) if rep.healed()))
        .count();
    if failed > 0 {
        return Err(format!("{failed}/{runs} chaos runs did not heal").into());
    }
    Ok(())
}

/// Load a [`FaultPlan`] from `path`. Accepts either a standalone plan
/// document or a gs3-mc counterexample file, whose `plan` member is a
/// verbatim plan document — so `gs3 chaos --plan` replays a checker
/// finding directly from the artifact the checker wrote.
fn load_plan(path: &str) -> Result<FaultPlan, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--plan {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("--plan {path}: {e}"))?;
    FaultPlan::from_value(doc.get("plan").unwrap_or(&doc))
        .map_err(|e| format!("--plan {path}: {e}").into())
}

/// `gs3 mc` — bounded model checking of the protocol core on pinned
/// small fields. Explores every schedule a bounded adversary can force
/// (per-attempt drop/duplicate/delay, node crashes), checks the safety
/// and convergence properties, and prints a deterministic report
/// document CI can gate on and diff byte-for-byte. Exits nonzero when
/// any property is violated; minimized counterexamples (and their
/// standalone replay plans) go to `--ce-dir`.
pub fn mc(a: &Args) -> CliResult {
    let strategy: McStrategy = a
        .get("strategy")
        .unwrap_or("bfs")
        .parse()
        .map_err(|e| format!("option --strategy: {e}"))?;
    let mut budgets = Budgets::default();
    budgets.max_states = a.num("max-states", budgets.max_states)?;
    budgets.max_depth = a.num("max-depth", budgets.max_depth)?;
    budgets.max_fates = a.num("max-fates", budgets.max_fates)?;
    budgets.max_crashes = a.num("max-crashes", budgets.max_crashes)?;
    budgets.max_path_faults = a.num("max-path-faults", budgets.max_path_faults)?;
    budgets.horizon =
        SimDuration::from_secs_f64(a.num("horizon", budgets.horizon.as_secs_f64())?);
    budgets.heal_window =
        SimDuration::from_secs_f64(a.num("heal-window", budgets.heal_window.as_secs_f64())?);

    let scenarios = match a.get("scenario").unwrap_or("all") {
        "all" => Scenario::all(),
        name => {
            let known: Vec<&str> = Scenario::all().iter().map(|s| s.name).collect();
            vec![Scenario::by_name(name).ok_or_else(|| {
                format!(
                    "option --scenario: unknown scenario {name:?} (expected one of {}, or all)",
                    known.join(", ")
                )
            })?]
        }
    };

    let json = a.flag("json");
    let mut reports = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        if !json && !a.flag("quiet") {
            eprintln!("checking {} ({} nodes, {})...", scenario.name, scenario.nodes.len() + 1, strategy.name());
        }
        reports.push(ModelChecker { scenario, strategy, budgets }.run());
    }

    let doc = json::to_string(|w| {
        w.object(|w| {
            w.key("version").u64(1);
            w.key("reports").array(|w| {
                for rep in &reports {
                    rep.write_json(w);
                }
            });
        });
    });

    if let Some(path) = a.get("out") {
        std::fs::write(path, &doc)?;
    }
    if let Some(dir) = a.get("ce-dir") {
        std::fs::create_dir_all(dir)?;
        for rep in &reports {
            for (i, ce) in rep.counterexamples.iter().enumerate() {
                let stem = format!("ce-{}-{}-{i}", rep.scenario, ce.property.name());
                std::fs::write(format!("{dir}/{stem}.json"), ce.to_json())?;
                std::fs::write(format!("{dir}/{stem}.plan.json"), ce.plan.to_json())?;
            }
        }
    }

    if json {
        println!("{doc}");
    } else {
        println!(
            "{:>10}  {:>8}  {:>8}  {:>9}  {:>10}  result",
            "scenario", "states", "deduped", "terminals", "coverage"
        );
        for rep in &reports {
            let violations: u64 = rep.properties.iter().map(|p| p.violations).sum();
            println!(
                "{:>10}  {:>8}  {:>8}  {:>9}  {:>10}  {}",
                rep.scenario,
                rep.states_explored,
                rep.states_deduped,
                rep.terminals,
                if rep.exhaustive { "exhaustive" } else { "partial" },
                if violations == 0 {
                    "VERIFIED".to_string()
                } else {
                    format!("{violations} VIOLATIONS")
                }
            );
        }
        println!();
        println!("{:>22}  {:>10}  {:>10}", "property", "checked", "violations");
        for p in gs3_mc::Property::all() {
            let (mut checked, mut violations) = (0u64, 0u64);
            for rep in &reports {
                for stat in &rep.properties {
                    if stat.property == *p {
                        checked += stat.checked;
                        violations += stat.violations;
                    }
                }
            }
            println!("{:>22}  {checked:>10}  {violations:>10}", p.name());
        }
        for rep in &reports {
            for ce in &rep.counterexamples {
                println!();
                println!(
                    "counterexample: {} / {} — {}",
                    rep.scenario,
                    ce.property.name(),
                    ce.detail
                );
                println!("  replay: gs3 chaos --plan <file>  (plan: {})", ce.plan.to_json());
            }
        }
    }

    let violating: Vec<&str> =
        reports.iter().filter(|r| r.has_violations()).map(|r| r.scenario.as_str()).collect();
    if !violating.is_empty() {
        return Err(format!("property violations in: {}", violating.join(", ")).into());
    }
    Ok(())
}

/// `gs3 trace` — configure a network, switch the flight recorder to full
/// ring capture, run for `--duration` simulated seconds, and export the
/// recorded event stream as JSONL (one event per line) or a Chrome-trace /
/// Perfetto timeline. Recording is pure observation, so the run is
/// bit-identical to an unrecorded one.
pub fn trace(a: &Args) -> CliResult {
    let duration: f64 = a.num("duration", 60.0)?;
    let capacity: usize = a.num("capacity", 200_000)?;
    let format = a.get("format").unwrap_or("jsonl");
    if !matches!(format, "jsonl" | "chrome") {
        return Err(format!("option --format: expected jsonl or chrome, got {format:?}").into());
    }

    let mut net = build(a, Defaults::default())?;
    net.engine_mut().set_recording(RecorderMode::Full { capacity });
    configure(&mut net)?;
    net.run_for(SimDuration::from_secs_f64(duration));

    let tel = net.engine().telemetry();
    let doc = match format {
        "chrome" => export_chrome_trace(
            tel.recorder.events(),
            tel.episodes.episodes(),
            net.now().as_micros(),
        ),
        _ => export_jsonl(tel.recorder.events()),
    };
    match a.get("out") {
        Some(path) => {
            std::fs::write(path, doc)?;
            if !a.flag("quiet") {
                eprintln!(
                    "wrote {path}: {} events in ring ({} observed, {} evicted)",
                    tel.recorder.len(),
                    tel.recorder.total(),
                    tel.recorder.dropped()
                );
            }
        }
        None => print!("{doc}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `line`, whose first word names the command.
    fn parse(line: &str) -> Args {
        let mut words = line.split_whitespace().map(String::from);
        let name = words.next().unwrap();
        let command = COMMANDS.iter().find(|c| c.name == name).unwrap();
        Args::parse(words, command.keys).unwrap()
    }

    #[test]
    fn run_small_network() {
        let a = parse("run --nodes 300 --area 160 --seed 4 --quiet");
        run(&a).unwrap();
    }

    #[test]
    fn run_static_mode() {
        let a = parse("run --nodes 300 --area 160 --seed 4 --static --quiet");
        run(&a).unwrap();
    }

    #[test]
    fn heal_requires_kill_disk() {
        let a = parse("heal --nodes 300 --area 160 --quiet");
        assert!(heal(&a).is_err());
    }

    /// A command's defaults fill only what its command line leaves unset:
    /// `watch` drains a 500-unit budget, `dataplane` reports every 5 s.
    #[test]
    fn command_defaults_fill_unset_knobs_only() {
        let built = |line: &str, defaults| {
            let net = build_seeded(&parse(line), 4, defaults).unwrap();
            let small = net.engine().ids().find(|&id| id != net.big_id()).unwrap();
            (net.engine().energy(small).unwrap(), net.config().report_period.as_micros())
        };
        let watch = Defaults { budget: Some(500.0), ..Defaults::default() };
        let dataplane = Defaults { traffic_secs: Some(5.0), ..Defaults::default() };
        let none = Defaults::default();
        assert_eq!(built("watch --nodes 60 --area 60", watch), (500.0, 0));
        assert_eq!(built("watch --nodes 60 --area 60 --budget 70", watch), (70.0, 0));
        assert_eq!(built("dataplane --nodes 60 --area 60", dataplane).1, 5_000_000);
        assert_eq!(built("dataplane --nodes 60 --area 60 --traffic 2", dataplane).1, 2_000_000);
        assert_eq!(built("run --nodes 60 --area 60 --workload", none).1, 5_000_000);
        assert_eq!(built("run --nodes 60 --area 60", none), (f64::INFINITY, 0));
    }

    fn plan_file(name: &str, doc: &str) -> String {
        let path = std::env::temp_dir().join(format!("gs3cli-{}-{name}.json", std::process::id()));
        std::fs::write(&path, doc).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// Both used to get past `load_plan`: the first panicked later inside
    /// `FaultState::set_config`, the second silently loaded `hops = 1`.
    #[test]
    fn load_plan_rejects_out_of_range_values_with_an_error() {
        let channel = plan_file(
            "channel",
            r#"{"version":1,"events":[{"after_us":0,"kind":"set_channel","config":{
                "burst":{"p_enter":0,"p_exit":1,"loss_good":0,"loss_bad":1},
                "unicast_loss":-3.0,"duplicate":0,"delay_prob":0,"delay_max_us":0}}]}"#,
        );
        let err = load_plan(&channel).unwrap_err().to_string();
        assert!(err.starts_with("--plan ") && err.contains("event 0"), "{err}");
        assert!(err.contains("config.unicast_loss"), "{err}");

        let hops = plan_file(
            "hops",
            r#"{"version":1,"events":[{"after_us":0,"kind":"corrupt_state","near":[0,0],
                "corruption":{"what":"hops","hops":4294967297}}]}"#,
        );
        let err = load_plan(&hops).unwrap_err().to_string();
        assert!(err.starts_with("--plan ") && err.contains("corruption.hops"), "{err}");

        for path in [channel, hops] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn load_plan_reads_a_plan_or_a_counterexample_embedding_one() {
        let plan = r#"{"version":1,"events":[{"after_us":5,"kind":"crash_node","id":3}]}"#;
        let bare = plan_file("bare", plan);
        let ce = plan_file("ce", &format!(r#"{{"version":1,"detail":"{{\"plan\":","plan":{plan}}}"#));
        let want = FaultPlan::from_json(plan).unwrap();
        assert_eq!(load_plan(&bare).unwrap(), want);
        assert_eq!(load_plan(&ce).unwrap(), want);
        for path in [bare, ce] {
            std::fs::remove_file(path).unwrap();
        }
    }
}
