//! The four workloads. Each function runs ONE repetition: a timed set-up,
//! then the timed measured window, then the correctness checks, and
//! returns a [`Rep`]. All inputs derive from the `seed` argument; two
//! repetitions with the same seed must agree on every fact and on the
//! `Trace::digest`.
//!
//! Every call into a layer goes through a [`Tracer`] span. With the
//! tracer off the workloads use the harness entry points a user would
//! call (`run_to_fixpoint_with`, `run_chaos_opts`); with it on, those two
//! loops are re-driven from here through public calls only, so the time
//! inside them can be split. The traced repetition must end on the same
//! digest as the untraced ones — `main` checks it.

use std::collections::BTreeMap;
use std::time::Instant;

use gs3_core::chaos::{ChaosOptions, Corruption, FaultKind, FaultOutcome, FaultPlan};
use gs3_core::harness::{Network, NetworkBuilder, RunOutcome};
use gs3_core::invariants::{check_all_with, SnapshotIndex, Strictness, ViolationKind};
use gs3_core::{CongestionConfig, DataplaneConfig, Gs3Config, Mode, ReliabilityConfig};
use gs3_geometry::Point;
use gs3_sim::faults::{BurstLoss, FaultConfig};
use gs3_sim::radio::EnergyModel;
use gs3_sim::{ContentionConfig, SimDuration, SimTime};

use crate::spans::Tracer;

pub const NAMES: [&str; 4] = ["scale_50k", "contended_1k4", "dataplane_10k", "chaos_400"];

/// `R`, `R_t` and the node density (10 000 nodes per 860-radius disk) of
/// the repository's existing suites.
pub const R: f64 = 80.0;
pub const R_T: f64 = 18.0;
pub fn area_for(nodes: usize) -> f64 {
    860.0 * (nodes as f64 / 10_000.0).sqrt()
}

/// Input sizes. `FULL` is what `BENCHMARK.json` measures; `SMOKE` proves
/// the binary and the metric names in seconds.
#[derive(Debug, Clone)]
pub struct Scale {
    pub scale_nodes: usize,
    pub contended_nodes: usize,
    /// Independent contended fields per repetition.
    pub contended_fields: u64,
    /// Simulated seconds of steady state after each field configures,
    /// polled every 60.
    pub contended_secs: u64,
    pub dataplane_nodes: usize,
    /// Energy budget installed on every small node after configuration.
    pub dataplane_budget: f64,
    pub dataplane_max_rounds: u32,
    pub chaos_nodes: usize,
    /// Independent fields per repetition.
    pub chaos_fields: u64,
}

pub const FULL: Scale = Scale {
    scale_nodes: 50_000,
    contended_nodes: 1_400,
    contended_fields: 8,
    contended_secs: 120,
    dataplane_nodes: 10_000,
    dataplane_budget: 120.0,
    dataplane_max_rounds: 60,
    chaos_nodes: 400,
    chaos_fields: 60,
};

pub const SMOKE: Scale = Scale {
    scale_nodes: 5_000,
    contended_nodes: 300,
    contended_fields: 2,
    contended_secs: 120,
    dataplane_nodes: 1_000,
    dataplane_budget: 60.0,
    dataplane_max_rounds: 60,
    chaos_nodes: 400,
    chaos_fields: 10,
};

/// Deterministic outcomes and counts of one repetition, by metric name.
pub type Facts = BTreeMap<&'static str, f64>;

/// One repetition's result.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds before the measured window.
    pub setup_s: f64,
    /// Host seconds of the measured window.
    pub wall_s: f64,
    /// Engine events processed inside the measured window.
    pub window_events: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `Trace::digest` at the end (folded over the fields of an ensemble).
    pub digest: u64,
    pub facts: Facts,
    /// Failed correctness checks, human-readable. Empty = correct.
    pub errors: Vec<String>,
}

pub fn run_rep(workload: &str, scale: &Scale, seed: u64, tr: &mut Tracer) -> Rep {
    match workload {
        "scale_50k" => scale_rep(scale, seed, tr),
        "contended_1k4" => contended_rep(scale, seed, tr),
        "dataplane_10k" => dataplane_rep(scale, seed, tr),
        "chaos_400" => chaos_rep(scale, seed, tr),
        other => panic!("unknown workload {other}"),
    }
}

/// The set-up of one repetition again, without its measured window, for
/// extra `setup_s` samples. `None` where the set-up is more than
/// `NetworkBuilder::build` (those take seconds and need no extra samples).
/// The networks are dropped off the clock.
pub fn setup_only(workload: &str, scale: &Scale, seed: u64) -> Option<f64> {
    let mut tr = Tracer::new(false);
    let fields = if workload == "contended_1k4" {
        scale.contended_fields
    } else {
        1
    };
    let mut total = 0.0;
    for i in 0..fields {
        let t0 = Instant::now();
        let net = match workload {
            "scale_50k" => build_scale(scale, seed, &mut tr),
            "contended_1k4" => build_contended(scale, seed, i, &mut tr),
            _ => return None,
        };
        total += t0.elapsed().as_secs_f64();
        drop(std::hint::black_box(net));
    }
    Some(total)
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

/// A field of `nodes` nodes at the suites' density, every optional layer
/// off.
pub fn base_builder(nodes: usize, seed: u64) -> NetworkBuilder {
    NetworkBuilder::new()
        .ideal_radius(R)
        .radius_tolerance(R_T)
        .area_radius(area_for(nodes))
        .expected_nodes(nodes)
        .seed(seed)
}

fn build(builder: NetworkBuilder, tr: &mut Tracer) -> Network {
    let s = tr.begin("core.harness.build");
    let net = builder.build().expect("valid parameters");
    tr.end(s);
    net
}

fn engine_run(net: &mut Network, span: SimDuration, tr: &mut Tracer) {
    let s = tr.begin("sim.engine.run");
    net.engine_mut().run_for(span);
    tr.end(s);
}

/// Polls the invariant suite; returns `(structural violations, nodes not
/// yet in any cell)`. The second kind is a node still backing off its
/// join, not a broken structure — `contended_1k4` tells them apart.
fn check_invariants(net: &mut Network, tr: &mut Tracer) -> (usize, usize) {
    let s = tr.begin("core.invariants.check");
    let violations = net.check_invariants_incremental();
    tr.end(s);
    let uncovered = violations
        .iter()
        .filter(|v| v.kind == ViolationKind::Coverage)
        .count();
    (violations.len() - uncovered, uncovered)
}

/// The stability window `Network::run_to_fixpoint` uses: longer than both
/// failure-detection windows twice over.
fn stable_polls(cfg: &Gs3Config) -> u32 {
    let detect = (cfg.intra_timeout() * 2) + (cfg.inter_timeout() * 2);
    (detect.as_micros() / cfg.intra_heartbeat.as_micros().max(1)) as u32 + 2
}

/// Runs to a structural fixpoint, giving up `deadline_secs` from now.
/// Returns `(simulated seconds at detection, polls)`; `None` on time-out.
/// Untraced: `Network::run_to_fixpoint_with`. Traced: the same loop
/// re-driven here so engine time and signature time separate.
fn fixpoint(net: &mut Network, deadline_secs: u64, tr: &mut Tracer) -> Option<(f64, u32)> {
    let poll = net.config().intra_heartbeat;
    let need = stable_polls(net.config());
    let deadline = net.now() + SimDuration::from_secs(deadline_secs);
    if !tr.enabled() {
        return match net.run_to_fixpoint_with(poll, need, deadline) {
            RunOutcome::Fixpoint { at, polls } => Some((at.as_secs_f64(), polls)),
            RunOutcome::TimedOut { .. } => None,
        };
    }
    let signature = |net: &Network, tr: &mut Tracer| {
        let s = tr.begin("core.snapshot.signature");
        let sig = net.structural_signature();
        tr.end(s);
        sig
    };
    let mut last = signature(net, tr);
    let (mut stable, mut polls) = (0u32, 0u32);
    while net.now() < deadline {
        engine_run(net, poll, tr);
        polls += 1;
        let sig = signature(net, tr);
        if sig == last {
            stable += 1;
            if stable >= need {
                return Some((net.now().as_secs_f64(), polls));
            }
        } else {
            stable = 0;
            last = sig;
        }
    }
    None
}

/// Whole-life counters of one network, added into `facts` (summed, except
/// the queue peak which is a maximum) so an ensemble can fold its fields.
fn add_counts(net: &Network, facts: &mut Facts) {
    let eng = net.engine();
    let t = eng.trace();
    let rec = &eng.telemetry().recorder;
    let ledger = net.sink_ledger();
    let mut add = |name: &'static str, v: u64| *facts.entry(name).or_insert(0.0) += v as f64;
    add("sim.engine.events", eng.events_processed());
    add("sim.engine.timers_fired", t.timers_fired());
    add("sim.radio.unicasts", t.unicasts_sent());
    add("sim.radio.broadcasts", t.broadcasts_sent());
    add("sim.radio.deliveries", t.deliveries());
    add("sim.medium.collisions", t.mac_collisions());
    add("sim.medium.defers", t.mac_defers());
    add("sim.medium.backoff_exhausted", t.mac_backoff_exhausted());
    add(
        "sim.faults.dropped",
        t.dropped_by_burst() + t.dropped_by_jam() + t.dropped_unicast(),
    );
    add("sim.faults.duplicated", t.duplicated());
    add("core.reliable.retransmits", t.proto("reliable_retransmits"));
    add("core.reliable.give_ups", t.proto("reliable_give_ups"));
    add("dataplane.batches", ledger.map_or(0, |l| l.batches));
    add("dataplane.reports", ledger.map_or(0, |l| l.reports));
    add("dataplane.queue.drops", t.proto("data_queue_drops"));
    add(
        "dataplane.credit.recovered",
        t.proto("data_credit_recovered"),
    );
    add(
        "dataplane.ledger.duplicates",
        ledger.map_or(0, |l| l.duplicate_batches),
    );
    // The always-on per-class counters tick on every workload; what the
    // recorder layer *stores* is the Full-mode ring (held + overwritten).
    let stored = if rec.is_recording() {
        rec.len() as u64 + rec.dropped()
    } else {
        0
    };
    add("telemetry.recorder.recorded", stored);
    add("telemetry.recorder.dropped", rec.dropped());
    add(
        "telemetry.episode.count",
        eng.telemetry().episodes.episodes().len() as u64,
    );
    let peak = facts.entry("sim.queue.peak_depth").or_insert(0.0);
    *peak = peak.max(eng.peak_queue_depth() as f64);
}

fn expect(errors: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        errors.push(what());
    }
}

/// The `i`-th field of an ensemble workload gets its own seed.
fn field_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i)
}

/// Folds the fields of one repetition into its [`Rep`]: one field on
/// `scale_50k` and `dataplane_10k`; many on `contended_1k4` and
/// `chaos_400`, because one small field's event stream depends too much
/// on its seed for a steady reading.
struct Fold {
    rep: Rep,
    fields: u64,
    configure_sim_s: Vec<f64>,
    nodes: u64,
    sent: u64,
    node_sim_s: f64,
    polls: u64,
    covered: u64,
    alive: u64,
}

impl Fold {
    fn new() -> Self {
        Fold {
            rep: Rep::default(),
            fields: 0,
            configure_sim_s: Vec::new(),
            nodes: 0,
            sent: 0,
            node_sim_s: 0.0,
            polls: 0,
            covered: 0,
            alive: 0,
        }
    }

    /// Books a field once its window has closed; `polls` are the polls
    /// made after it configured.
    fn add(&mut self, net: &Network, configured: Option<(f64, u32)>, polls: u32) {
        let i = self.fields;
        expect(&mut self.rep.errors, configured.is_some(), || {
            format!("field {i}: configure timed out")
        });
        let (at, conf_polls) = configured.unwrap_or((0.0, 0));
        self.configure_sim_s.push(at);
        let nodes = net.engine().node_count() as u64;
        self.nodes += nodes;
        self.sent += net.engine().trace().total_sent();
        self.node_sim_s += nodes as f64 * net.now().as_secs_f64();
        self.polls += u64::from(conf_polls + polls);
        let snap = net.snapshot();
        self.alive += snap.nodes.iter().filter(|n| n.alive).count() as u64;
        self.covered += snap
            .nodes
            .iter()
            .filter(|n| n.alive && n.cell_head().is_some())
            .count() as u64;
        add_counts(net, &mut self.rep.facts);
        // One field: its `Trace::digest` as is. More: an order-sensitive
        // fold (FNV-1a step) of theirs.
        let digest = net.engine().trace().digest();
        self.rep.digest = if self.fields == 0 {
            digest
        } else {
            (self.rep.digest ^ digest).wrapping_mul(0x0000_0100_0000_01b3)
        };
        self.fields += 1;
    }

    fn finish(mut self) -> Rep {
        // The lower-quartile field (third fastest of eight). Settling over
        // a contended medium is heavy-tailed and multi-modal in the seed
        // (600 fields: half within 204-234 sim-s, a fifth past 300, one in
        // 200 past 900), so the ensemble's median still moved by 20%
        // between draws of ten seeds; this order statistic sits inside the
        // bulk mode and moved by under 5%.
        self.configure_sim_s.sort_by(f64::total_cmp);
        let quartile = self.configure_sim_s[self.configure_sim_s.len() / 4];
        let facts = &mut self.rep.facts;
        facts.insert("configure_sim_s", quartile);
        // Transmissions per node per simulated second of the networks'
        // lives: comparable across fields that took different simulated
        // times to settle.
        facts.insert(
            "ctrl_msgs_per_node_sim_s",
            self.sent as f64 / self.node_sim_s,
        );
        // Alive nodes attached to a cell, of all alive nodes — what the
        // structure is for. Taken after the window closes.
        facts.insert(
            "coverage_ratio",
            self.covered as f64 / self.alive.max(1) as f64,
        );
        facts.insert("core.harness.polls", self.polls as f64);
        facts.insert("core.harness.nodes", self.nodes as f64);
        self.rep
    }
}

// ---------------------------------------------------------------------
// scale_50k — configure from boot, crash a disk, heal. Everything
// optional is off; the working set leaves the caches.
// ---------------------------------------------------------------------

fn build_scale(scale: &Scale, seed: u64, tr: &mut Tracer) -> Network {
    build(base_builder(scale.scale_nodes, seed), tr)
}

fn scale_rep(scale: &Scale, seed: u64, tr: &mut Tracer) -> Rep {
    let mut all = Fold::new();
    let t0 = Instant::now();
    let s_setup = tr.begin("setup");
    let mut net = build_scale(scale, seed, tr);
    tr.end(s_setup);
    all.rep.setup_s = t0.elapsed().as_secs_f64();
    let area = area_for(scale.scale_nodes);

    let t1 = Instant::now();
    let s_window = tr.begin("window");
    // Diffusion reaches one more ring of cells (~R) per HEAD_ORG round.
    let rings = (area / R).ceil().max(5.0) as u64;
    let s = tr.begin("core.harness.configure");
    let configured = fixpoint(&mut net, 120 * rings, tr);
    tr.end(s);

    // A ~2-cell hole halfway out from the big node: healing is local.
    let s = tr.begin("core.harness.heal");
    let t_kill = net.now();
    let si = tr.begin("core.chaos.inject");
    let killed = net.kill_disk(Point::new(area * 0.5, 0.0), 170.0).len();
    tr.end(si);
    let healed = fixpoint(&mut net, 600, tr);
    tr.end(s);
    let (broken, uncovered) = check_invariants(&mut net, tr);
    let violations = broken + uncovered;
    tr.end(s_window);
    all.rep.wall_s = t1.elapsed().as_secs_f64();
    all.rep.window_events = net.engine().events_processed();

    // One operation = each fixpoint phase, and the final invariant check.
    all.rep.attempted = 3;
    all.rep.failed =
        u64::from(configured.is_none()) + u64::from(healed.is_none()) + u64::from(violations > 0);
    let errors = &mut all.rep.errors;
    expect(errors, killed > 0, || "the crash disk was empty".into());
    expect(errors, healed.is_some(), || "heal timed out".into());
    expect(errors, violations == 0, || {
        format!("{violations} violations after heal")
    });

    let (heal_at, heal_polls) = healed.unwrap_or((0.0, 0));
    let heal = (heal_at - t_kill.as_secs_f64()).max(0.0);
    for name in [
        "core.chaos.heal_sim_s_p50",
        "core.chaos.heal_sim_s_p99",
        "core.chaos.heal_sim_s_mean",
    ] {
        all.rep.facts.insert(name, heal);
    }
    all.rep.facts.insert("core.chaos.faults", 1.0);
    all.add(&net, configured, heal_polls);
    all.finish()
}

// ---------------------------------------------------------------------
// contended_1k4 — cache-resident fields booting, configuring and then
// idling over a contended medium with congestion adaptation; per-event
// constant costs dominate.
// ---------------------------------------------------------------------

fn build_contended(scale: &Scale, seed: u64, i: u64, tr: &mut Tracer) -> Network {
    let builder = base_builder(scale.contended_nodes, field_seed(seed, i))
        .contention(ContentionConfig::on())
        .congestion(CongestionConfig::on());
    build(builder, tr)
}

fn contended_rep(scale: &Scale, seed: u64, tr: &mut Tracer) -> Rep {
    let mut all = Fold::new();
    let mut straggler_polls = 0u64;
    for i in 0..scale.contended_fields {
        let t0 = Instant::now();
        let s_setup = tr.begin("setup");
        let mut net = build_contended(scale, seed, i, tr);
        tr.end(s_setup);
        all.rep.setup_s += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let s_window = tr.begin("window");
        let s = tr.begin("core.harness.configure");
        // The slowest of 600 sampled fields settled at 1280 sim-s.
        let configured = fixpoint(&mut net, 3600, tr);
        tr.end(s);
        // One operation = configuring, then each 60 s poll of the steady
        // state. A poll fails when the structure is broken; one that only
        // finds nodes still backing off their join over the contended
        // medium is counted, not failed.
        let polls = scale.contended_secs / 60;
        let mut broken_polls = 0u64;
        for _ in 0..polls {
            engine_run(&mut net, SimDuration::from_secs(60), tr);
            let (broken, uncovered) = check_invariants(&mut net, tr);
            broken_polls += u64::from(broken > 0);
            straggler_polls += u64::from(uncovered > 0);
        }
        tr.end(s_window);
        all.rep.wall_s += t1.elapsed().as_secs_f64();
        all.rep.window_events += net.engine().events_processed();

        all.rep.attempted += 1 + polls;
        all.rep.failed += u64::from(configured.is_none()) + broken_polls;
        let collisions = net.engine().trace().mac_collisions();
        expect(&mut all.rep.errors, collisions > 0, || {
            format!("field {i}: no collisions")
        });
        expect(&mut all.rep.errors, broken_polls == 0, || {
            format!("field {i}: structure broken at {broken_polls} polls")
        });
        all.add(&net, configured, polls as u32);
    }
    all.rep
        .facts
        .insert("core.invariants.straggler_polls", straggler_polls as f64);
    all.finish()
}

// ---------------------------------------------------------------------
// dataplane_10k — convergecast traffic under an energy budget and churn
// until half the field is dead (the `baseline_compare` GS³ arm).
// ---------------------------------------------------------------------

const ROUND_SECS: u64 = 20;
const CHURN_PER_ROUND: usize = 5;
const RADIO_RANGE: f64 = 160.0;

fn dataplane_rep(scale: &Scale, seed: u64, tr: &mut Tracer) -> Rep {
    let mut all = Fold::new();
    let t0 = Instant::now();
    let s_setup = tr.begin("setup");
    // An energy-conscious duty cycle: heartbeats matched to the round
    // scale so keep-alive chatter does not swamp the data traffic.
    let mut cfg = Gs3Config::new(R, R_T)
        .expect("valid parameters")
        .with_mode(Mode::Dynamic);
    cfg.intra_heartbeat = SimDuration::from_secs(10);
    cfg.inter_heartbeat = SimDuration::from_secs(15);
    let nodes_expected = scale.dataplane_nodes;
    let builder = NetworkBuilder::new()
        .config(cfg)
        .area_radius(area_for(nodes_expected))
        .expected_nodes(nodes_expected)
        .seed(seed)
        .traffic(SimDuration::from_secs(2))
        .dataplane(DataplaneConfig::on())
        // Configuration runs on a bottomless battery; the measured budget
        // is installed once converged.
        .energy(EnergyModel::normalized(RADIO_RANGE), 1e12);
    let mut net = build(builder, tr);
    let s = tr.begin("core.harness.configure");
    let configured = fixpoint(&mut net, 600, tr);
    tr.end(s);
    let budget = scale.dataplane_budget;
    let s = tr.begin("core.chaos.inject");
    let ids: Vec<_> = net.engine().ids().collect();
    for &id in &ids {
        if net.engine().energy(id).map(f64::is_finite).unwrap_or(false) {
            net.set_energy(id, budget);
        }
    }
    tr.end(s);
    tr.end(s_setup);
    all.rep.setup_s = t0.elapsed().as_secs_f64();

    let n0 = net.engine().alive_count();
    let events0 = net.engine().events_processed();
    let produced0 = net.engine().trace().proto("data_reports_produced");
    let dropped0 = net.engine().trace().proto("data_reports_dropped");
    let delivered0 = net.sink_ledger().map_or(0, |l| l.reports);
    let start = net.now();

    let t1 = Instant::now();
    let s_window = tr.begin("window");
    let mut lifetime = None;
    let mut rounds = 0u32;
    let mut starved_rounds = 0u64;
    let mut delivered_before = delivered0;
    while rounds < scale.dataplane_max_rounds {
        engine_run(&mut net, SimDuration::from_secs(ROUND_SECS), tr);
        rounds += 1;
        // One operation = one round; it fails when the sink saw nothing.
        let delivered_now = net.sink_ledger().map_or(0, |l| l.reports);
        starved_rounds += u64::from(delivered_now == delivered_before);
        delivered_before = delivered_now;
        let s = tr.begin("core.chaos.inject");
        net.kill_random(CHURN_PER_ROUND);
        tr.end(s);
        if (net.engine().alive_count() as f64) < 0.5 * n0 as f64 {
            lifetime = Some(net.now().since(start).as_secs_f64());
            break;
        }
    }
    tr.end(s_window);
    all.rep.wall_s = t1.elapsed().as_secs_f64();
    all.rep.window_events = net.engine().events_processed() - events0;

    let trace = net.engine().trace();
    let produced = trace.proto("data_reports_produced") - produced0;
    let dropped = trace.proto("data_reports_dropped") - dropped0;
    let delivered = net.sink_ledger().map_or(0, |l| l.reports) - delivered0;
    all.rep.attempted = u64::from(rounds);
    all.rep.failed = starved_rounds;
    expect(&mut all.rep.errors, lifetime.is_some(), || {
        format!("alive never fell below 50% in {rounds} rounds")
    });
    expect(&mut all.rep.errors, delivered > 0, || {
        "no report reached the sink".into()
    });
    expect(&mut all.rep.errors, produced >= delivered + dropped, || {
        format!("conservation: produced {produced} < delivered {delivered} + dropped {dropped}")
    });

    let spent: f64 = ids
        .iter()
        .filter_map(|&id| net.engine().energy(id).ok())
        .filter(|e| e.is_finite())
        .map(|e| (budget - e).clamp(0.0, budget))
        .sum();
    let facts = &mut all.rep.facts;
    facts.insert(
        "dataplane.delivery_ratio",
        delivered as f64 / produced.max(1) as f64,
    );
    facts.insert("core.workload.lifetime_sim_s", lifetime.unwrap_or(0.0));
    facts.insert(
        "core.workload.reports_per_joule",
        if spent > 0.0 {
            delivered as f64 / spent
        } else {
            0.0
        },
    );
    let (p50, p99) = net.sink_ledger().map_or((0, 0), |l| {
        (l.latency_us.percentile(50.0), l.latency_us.percentile(99.0))
    });
    facts.insert("dataplane.ledger.latency_sim_ms_p50", p50 as f64 / 1e3);
    facts.insert("dataplane.ledger.latency_sim_ms_p99", p99 as f64 / 1e3);
    all.add(&net, configured, rounds);
    all.finish()
}

// ---------------------------------------------------------------------
// chaos_400 — many small fields, each put through an eight-fault plan
// with the reliable envelope and the Full-mode flight recorder on and
// the invariant oracle polled every 0.5 simulated seconds.
// ---------------------------------------------------------------------

fn chaos_plan() -> FaultPlan {
    let channel = FaultConfig {
        burst: BurstLoss::bursty(0.02, 4.0),
        unicast_loss: 0.02,
        ..FaultConfig::none()
    };
    let secs = SimDuration::from_secs;
    FaultPlan::new()
        .at(SimDuration::ZERO, FaultKind::SetChannel { config: channel })
        .at(
            secs(5),
            FaultKind::StartJam {
                label: 1,
                center: Point::new(-90.0, 40.0),
                radius: 50.0,
            },
        )
        .at(secs(10), FaultKind::CrashRandom { count: 10 })
        .at(
            secs(30),
            FaultKind::CorruptState {
                near: Point::new(60.0, -60.0),
                corruption: Corruption::Hops { hops: 9 },
            },
        )
        .at(
            secs(50),
            FaultKind::CrashDisk {
                center: Point::new(100.0, 0.0),
                radius: 50.0,
            },
        )
        .at(secs(60), FaultKind::StopJam { label: 1 })
        .at(
            secs(70),
            FaultKind::Join {
                pos: Point::new(100.0, 0.0),
            },
        )
        .at(
            secs(90),
            FaultKind::CorruptState {
                near: Point::new(-60.0, 60.0),
                corruption: Corruption::Parent,
            },
        )
}

fn chaos_options() -> ChaosOptions {
    ChaosOptions {
        poll: SimDuration::from_millis(500),
        settle: SimDuration::from_secs(300),
    }
}

/// What one chaos run yields, whichever loop drove it.
struct ChaosRun {
    outcomes: Vec<FaultOutcome>,
    polls: u32,
    final_violations: usize,
}

fn oracle() -> impl FnMut(&gs3_core::Snapshot) -> usize {
    let mut idx: Option<SnapshotIndex> = None;
    move |snap| {
        let idx = match &mut idx {
            Some(idx) => {
                idx.update(snap);
                idx
            }
            slot => slot.insert(SnapshotIndex::build(snap)),
        };
        check_all_with(snap, Strictness::Dynamic, idx).len()
    }
}

/// `Network::run_chaos_with`, re-driven through public calls so injection,
/// engine and oracle time separate. Same decisions in the same order; the
/// digest check in `main` holds it to that.
fn chaos_traced(
    net: &mut Network,
    plan: &FaultPlan,
    opts: &ChaosOptions,
    tr: &mut Tracer,
) -> ChaosRun {
    let start = net.now();
    let mut events: Vec<_> = plan.events().iter().collect();
    events.sort_by_key(|e| e.after);
    let deadline = start + plan.span() + opts.settle;
    let mut jams = BTreeMap::new();
    let mut outcomes: Vec<FaultOutcome> = Vec::new();
    let mut pending: Vec<usize> = Vec::new();
    let mut next_event = 0usize;
    let mut next_poll = start + opts.poll;
    let mut polls = 0u32;
    let mut oracle = oracle();
    let mut snap = net.snapshot();
    loop {
        let event_at: Option<SimTime> = events.get(next_event).map(|e| start + e.after);
        let target = match event_at {
            Some(t) if t <= next_poll => t,
            _ => next_poll.min(deadline),
        };
        let s = tr.begin("sim.engine.run");
        net.engine_mut().run_until(target);
        tr.end(s);
        if event_at == Some(target) {
            let s = tr.begin("core.chaos.inject");
            while let Some(e) = events.get(next_event) {
                if start + e.after != target {
                    break;
                }
                pending.push(outcomes.len());
                outcomes.push(net.apply_fault(&e.kind, &mut jams));
                next_event += 1;
            }
            tr.end(s);
            next_poll = target + opts.poll;
            continue;
        }
        polls += 1;
        let s = tr.begin("core.invariants.check");
        net.snapshot_into(&mut snap);
        let violations = oracle(&snap);
        tr.end(s);
        if violations == 0 {
            for &i in &pending {
                outcomes[i].heal_latency = Some(target.since(outcomes[i].injected_at));
            }
            pending.clear();
            net.engine_mut().close_episodes();
        }
        if target >= deadline || (next_event >= events.len() && pending.is_empty()) {
            return ChaosRun {
                outcomes,
                polls,
                final_violations: violations,
            };
        }
        next_poll = target + opts.poll;
    }
}

fn chaos_rep(scale: &Scale, seed: u64, tr: &mut Tracer) -> Rep {
    let mut all = Fold::new();
    let plan = chaos_plan();
    let opts = chaos_options();
    let mut heals: Vec<f64> = Vec::new();
    for i in 0..scale.chaos_fields {
        let t0 = Instant::now();
        let s_setup = tr.begin("setup");
        let builder = base_builder(scale.chaos_nodes, field_seed(seed, i))
            .reliability(ReliabilityConfig::on())
            .flight_recorder(50_000);
        let mut net = build(builder, tr);
        let s = tr.begin("core.harness.configure");
        let configured = fixpoint(&mut net, 600, tr);
        tr.end(s);
        tr.end(s_setup);
        all.rep.setup_s += t0.elapsed().as_secs_f64();
        let events0 = net.engine().events_processed();

        let t1 = Instant::now();
        let s_window = tr.begin("window");
        let run = if tr.enabled() {
            chaos_traced(&mut net, &plan, &opts, tr)
        } else {
            let r = net.run_chaos_opts(&plan, opts.clone());
            ChaosRun {
                outcomes: r.outcomes,
                polls: r.polls,
                final_violations: r.final_violations,
            }
        };
        tr.end(s_window);
        all.rep.wall_s += t1.elapsed().as_secs_f64();
        all.rep.window_events += net.engine().events_processed() - events0;

        // One operation = one injected fault; it fails when the oracle
        // never came clean again before the settle deadline.
        expect(&mut all.rep.errors, run.final_violations == 0, || {
            format!("field {i}: {} violations at the end", run.final_violations)
        });
        for o in &run.outcomes {
            all.rep.attempted += 1;
            match o.heal_latency {
                Some(d) => heals.push(d.as_secs_f64()),
                None => all.rep.failed += 1,
            }
        }
        all.add(&net, configured, run.polls);
    }
    let (attempted, failed) = (all.rep.attempted, all.rep.failed);
    expect(&mut all.rep.errors, failed == 0, || {
        format!("{failed} of {attempted} faults never healed")
    });
    heals.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        if heals.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * heals.len() as f64).ceil().max(1.0) as usize;
        heals[rank.min(heals.len()) - 1]
    };
    let facts = &mut all.rep.facts;
    facts.insert("core.chaos.heal_sim_s_p50", pct(50.0));
    facts.insert("core.chaos.heal_sim_s_p99", pct(99.0));
    let mean = if heals.is_empty() {
        0.0
    } else {
        heals.iter().sum::<f64>() / heals.len() as f64
    };
    facts.insert("core.chaos.heal_sim_s_mean", mean);
    facts.insert("core.chaos.faults", attempted as f64);
    all.finish()
}
