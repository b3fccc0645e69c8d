//! The repository benchmark. See `README.md` in this directory and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! gs3-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! gs3-benchmark all [--seed N] [--seconds S] [--runs K] [--smoke] [--out FILE]
//! gs3-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! The first form is what the pipeline runs: one workload, one process
//! (so `peak_rss_mb` is that workload's own `VmHWM`), one thread. It
//! prints every metric by name with its unit, then one JSON object as the
//! last line of standard output, and exits non-zero when a correctness
//! check failed. `all` re-executes this binary once per workload and run
//! and files the results with a description of the machine; `compare`
//! judges two such files against the bounds in `BENCHMARK.json`.

mod compare;
mod drivers;
mod metrics;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use spans::Tracer;
use workloads::{Rep, Scale};

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u32,
    out: Option<String>,
    spec: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: 20.0,
        runs: 1,
        spec: "BENCHMARK.json".into(),
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("option {name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                a.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => a.out = Some(value("--out")?),
            "--spec" => a.spec = value("--spec")?,
            "--smoke" => a.smoke = true,
            s if s.starts_with("--") => return Err(format!("unknown option {s}")),
            _ if a.command.is_none() && a.workload.is_none() => a.command = Some(arg),
            _ => a.files.push(arg),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), &args.workload) {
        (None, Some(w)) if workloads::NAMES.contains(&w.as_str()) => run_single(w, &args),
        (None, Some(w)) => {
            eprintln!(
                "error: unknown workload {w}; known: {}",
                workloads::NAMES.join(", ")
            );
            ExitCode::from(2)
        }
        (Some("all"), None) => run_all(&args),
        (Some("compare"), None) if args.files.len() == 2 => {
            compare::run(&args.files[0], &args.files[1], &args.spec)
        }
        _ => {
            eprintln!(
                "usage: gs3-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
                 gs3-benchmark all [--seed N] [--seconds S] [--runs K] [--smoke] [--out FILE]\n       \
                 gs3-benchmark compare A.json B.json [--spec BENCHMARK.json]"
            );
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Repetitions must be bit-identical in everything the seed determines.
fn check_agreement(reps: &[&Rep], errors: &mut Vec<String>) {
    let Some((first, rest)) = reps.split_first() else {
        return;
    };
    for (i, r) in rest.iter().enumerate() {
        if r.digest != first.digest {
            errors.push(format!(
                "rep {} digest {:#018x} differs from rep 0 {:#018x}",
                i + 1,
                r.digest,
                first.digest
            ));
        }
        if (r.attempted, r.failed, r.window_events)
            != (first.attempted, first.failed, first.window_events)
        {
            errors.push(format!(
                "rep {} disagrees with rep 0 on operations or events",
                i + 1
            ));
        }
        for (name, v) in &first.facts {
            let other = r.facts.get(name).copied().unwrap_or(f64::NAN);
            if other.to_bits() != v.to_bits() {
                errors.push(format!(
                    "rep {} {name} = {other} differs from rep 0 = {v}",
                    i + 1
                ));
            }
        }
    }
}

/// True once another repetition would overshoot `seconds` by more than it
/// undershoots now, so a run lasts about `seconds` whatever a repetition
/// costs (one repetition at least).
fn budget_spent(elapsed: f64, reps_done: usize, seconds: f64) -> bool {
    elapsed + 0.5 * elapsed / reps_done as f64 >= seconds
}

fn log_rep(kind: &str, i: usize, r: &Rep) {
    eprintln!(
        "  {kind} rep {i}: setup {:.3} s, window {:.3} s, {} events, {:.0} ev/s, digest {:#018x}",
        r.setup_s,
        r.wall_s,
        r.window_events,
        r.window_events as f64 / r.wall_s,
        r.digest
    );
}

/// What one process run measured.
struct Outcome {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    digest: u64,
    reps: usize,
}

impl Outcome {
    /// Gathers the repetitions' own check failures, holds them to each
    /// other, and totals their operations.
    fn new(values: BTreeMap<&'static str, f64>, reps: &[&Rep]) -> Self {
        let mut errors: Vec<String> = reps.iter().flat_map(|r| r.errors.clone()).collect();
        check_agreement(reps, &mut errors);
        Outcome {
            values,
            attempted: reps.iter().map(|r| r.attempted).sum(),
            failed: reps.iter().map(|r| r.failed).sum(),
            errors,
            digest: reps[0].digest,
            reps: reps.len(),
        }
    }
}

/// Untraced pass: repeat identical repetitions for about `seconds`, report
/// medians of the host-time figures.
fn untraced(workload: &str, scale: &Scale, args: &Args) -> Outcome {
    let mut tr = Tracer::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        reps.push(workloads::run_rep(workload, scale, args.seed, &mut tr));
        log_rep("untraced", reps.len() - 1, &reps[reps.len() - 1]);
        let elapsed = started.elapsed().as_secs_f64();
        if args.smoke || budget_spent(elapsed, reps.len(), args.seconds) {
            break;
        }
    }
    // A set-up well under a second is sampled again (build and drop) until
    // a second of samples is held, so its median is not one noisy reading.
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while !args.smoke && setups.iter().sum::<f64>() < 1.0 && setups.len() < 64 {
        match workloads::setup_only(workload, scale, args.seed) {
            Some(s) => setups.push(s),
            None => break,
        }
    }

    let first = &reps[0];
    let mut values = BTreeMap::new();
    values.insert("setup_s", median(&setups));
    values.insert(
        "events_per_s",
        median(
            &reps
                .iter()
                .map(|r| r.window_events as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        ),
    );
    values.insert("peak_rss_mb", peak_rss_mb());
    for (name, _) in metrics::END_TO_END {
        if let Some(v) = first.facts.get(name) {
            values.insert(name, *v);
        }
    }
    Outcome::new(values, &reps.iter().collect::<Vec<_>>())
}

/// Traced pass: untraced and traced repetitions alternate for about
/// `seconds` (at least one of each); the spans of the traced ones give the
/// in-situ per-layer times, the pair gives the tracing overhead, and the
/// isolated layer drivers run afterwards.
fn traced(workload: &str, scale: &Scale, args: &Args) -> Outcome {
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let (mut plain, mut with): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        plain.push(workloads::run_rep(workload, scale, args.seed, &mut off));
        tr.set_rep(with.len() as u32);
        with.push(workloads::run_rep(workload, scale, args.seed, &mut tr));
        log_rep("untraced", plain.len() - 1, &plain[plain.len() - 1]);
        log_rep("traced", with.len() - 1, &with[with.len() - 1]);
        let elapsed = started.elapsed().as_secs_f64();
        if args.smoke || budget_spent(elapsed, with.len(), args.seconds) {
            break;
        }
    }
    let n = with.len() as f64;
    let first = &with[0];
    let mut values: BTreeMap<&'static str, f64> = first.facts.clone();
    for (metric, span) in [
        ("core.harness.build_s", "core.harness.build"),
        ("sim.engine.run_s", "sim.engine.run"),
        ("core.snapshot.signature_s", "core.snapshot.signature"),
        ("core.invariants.check_s", "core.invariants.check"),
        ("core.chaos.inject_s", "core.chaos.inject"),
    ] {
        values.insert(metric, tr.self_s(span) / n);
    }
    // Set-up, window and the two phases are reported whole (children
    // included).
    for (metric, span) in [
        ("bench.setup_s", "setup"),
        ("bench.window_s", "window"),
        ("core.harness.configure_s", "core.harness.configure"),
        ("core.harness.heal_s", "core.harness.heal"),
    ] {
        values.insert(metric, tr.total_s(span) / n);
    }
    let fact = |name: &str| first.facts.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ns_per_event = ratio(values["sim.engine.run_s"] * 1e9, fact("sim.engine.events"));
    values.insert("sim.engine.ns_per_event", ns_per_event);
    let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    values.insert(
        "trace_overhead_pct",
        (wall(&with) / wall(&plain) - 1.0) * 100.0,
    );
    let sent = fact("sim.radio.unicasts") + fact("sim.radio.broadcasts");
    values.insert(
        "sim.radio.deliveries_per_tx",
        ratio(fact("sim.radio.deliveries"), sent),
    );
    values.insert(
        "sim.medium.collision_ratio",
        ratio(fact("sim.medium.collisions"), sent),
    );
    values.insert(
        "dataplane.reports_per_batch",
        ratio(fact("dataplane.reports"), fact("dataplane.batches")),
    );

    for (name, v) in drivers::run_all(args.seed, args.smoke) {
        values.insert(name, v);
    }
    // What is left of a workload event once the bare engine's share (same
    // field size, empty handlers) is taken out: the protocol handlers.
    let floor = if workload == "scale_50k" {
        "sim.engine.null_ns_per_event_n50k"
    } else {
        "sim.engine.null_ns_per_event_n1k4"
    };
    let null = values.get(floor).copied().unwrap_or(0.0);
    let share = if ns_per_event > 0.0 {
        (1.0 - null / ns_per_event) * 100.0
    } else {
        0.0
    };
    values.insert("sim.engine.protocol_share_pct", share);

    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("spans-{workload}.json"));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tr.to_chrome_json(workload)))
    {
        Ok(()) => eprintln!("{} spans written to {}", tr.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    Outcome::new(values, &plain.iter().chain(&with).collect::<Vec<_>>())
}

fn run_single(workload: &str, args: &Args) -> ExitCode {
    if let Some(load) = load_average() {
        if load > 0.5 {
            eprintln!("warning: load average {load} > 0.5 — host-time metrics will be noisy");
        }
    }
    let scale = if args.smoke {
        &workloads::SMOKE
    } else {
        &workloads::FULL
    };
    let (declared, outcome) = if args.trace {
        (metrics::PER_LAYER, traced(workload, scale, args))
    } else {
        (metrics::END_TO_END, untraced(workload, scale, args))
    };
    let mut errors = outcome.errors;

    println!(
        "workload {workload} seed {} trace {} reps {} digest {:#018x}",
        args.seed,
        u8::from(args.trace),
        outcome.reps,
        outcome.digest
    );
    let mut json = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = outcome.values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            errors.push(format!("{name} is not finite"));
        }
        if !args.trace && v == 0.0 {
            errors.push(format!("end-to-end metric {name} is zero"));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        println!("  {name:<44} {v:>18.6} {unit}");
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"
        );
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// All workloads, one process each
// ---------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn environment_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"git_commit\":\"{}\",\"load_average\":{}}}",
        gs3_telemetry::json_escape(&cpu),
        gs3_telemetry::json_escape(&command_line("rustc", &["-V"])),
        gs3_telemetry::json_escape(&command_line("git", &["rev-parse", "HEAD"])),
        load_average().unwrap_or(-1.0),
    )
}

fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let started = Instant::now();
    let mut results = String::new();
    let mut all_correct = true;
    let env = environment_json();
    eprintln!("environment: {env}");
    for workload in workloads::NAMES {
        // `runs` untraced runs on consecutive seeds, then one traced run.
        let plan = (0..args.runs)
            .map(|i| (args.seed + u64::from(i), false))
            .chain([(args.seed, true)]);
        for (seed, trace) in plan {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // One child at a time; `output` waits for it to end.
            let out = cmd.output().expect("re-execute self");
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            all_correct &= out.status.success();
            let last = stdout.lines().last().unwrap_or("null");
            if !results.is_empty() {
                results.push_str(",\n");
            }
            let _ = write!(
                results,
                "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"result\":{last}}}",
                u8::from(trace)
            );
        }
    }
    let doc = format!(
        "{{\"environment\":{env},\"smoke\":{},\"seconds\":{},\"runs\":{},\"results\":[\n{results}\n]}}\n",
        args.smoke, args.seconds, args.runs
    );
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "benchmark/out/results.json".into());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("error: could not write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "results written to {out} in {:.0} s",
        started.elapsed().as_secs_f64()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
