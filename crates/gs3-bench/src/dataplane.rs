//! The `dataplane` suite: the comparative claims of the paper's Related
//! Work section, measured — GS³ vs a LEACH-style randomized clustering
//! \[10\] vs geography-unaware hop-based clustering \[3\] — written as
//! `BENCH_dataplane.json`.
//!
//! - **SEC6**, static structure quality: head spacing, cluster radius,
//!   misassignment and load balance over one shared deployment.
//! - **DATA**, workload lifetime: all three schemes driven through the
//!   same convergecast traffic and energy model. GS³ runs the real
//!   event-level data plane (`gs3-dataplane`); the baselines run the
//!   round-driven simulator of `gs3_baselines::sim` with accounting
//!   deliberately tilted in their favor. Then the `Ω(n_c)` sweep: the
//!   maintained/unmaintained lifetime ratio as cell population grows
//!   (§4.3.5.1 claim 3).

use gs3_analysis::lifetime::run_lifetime;
use gs3_analysis::metrics::measure;
use gs3_analysis::report::{Cell, Table};
use gs3_baselines::cluster::{quality, ClusterQuality, Clustering};
use gs3_baselines::hop::{cluster as hop_cluster, HopConfig};
use gs3_baselines::leach::{Leach, LeachConfig};
use gs3_baselines::sim::{run_baseline, Baseline, BaselineOutcome, BaselineSimConfig};
use gs3_core::harness::NetworkBuilder;
use gs3_core::{Gs3Config, Mode, RoleView, Snapshot};
use gs3_geometry::{Point, SQRT_3};
use gs3_sim::radio::EnergyModel;
use gs3_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runner::run_grid;
use crate::section::Section;

use Cell::{Fixed, Int, Missing, Num, Text};

/// Runs both sections, the DATA grids over `threads` workers.
#[must_use]
pub fn sections(threads: usize) -> Vec<Section> {
    vec![static_quality(), workload(threads)]
}

/// **SEC6** — the structures the three algorithms build over one shared
/// deployment: run GS³ to fixpoint, then hand the same node positions to
/// the baselines.
fn static_quality() -> Section {
    let mut s =
        Section::new("SEC6", "Section 6 — structure quality: GS3 vs LEACH [10] vs hop clustering [3]");
    let r = 80.0;
    let r_t = 18.0;
    let mut net = NetworkBuilder::new()
        .ideal_radius(r)
        .radius_tolerance(r_t)
        .area_radius(330.0)
        .expected_nodes(1800)
        .seed(29)
        .build()
        .expect("valid parameters");
    let _ = net.run_to_fixpoint();
    let (snap, idx) = net.view();
    let points: Vec<Point> = snap.nodes.iter().map(|n| n.pos).collect();
    let alive: Vec<bool> = snap.nodes.iter().map(|n| n.alive).collect();

    // GS³'s structure as a Clustering over the same points.
    let gs3_q = quality(&points, &clustering_from_snapshot(snap));
    let gs3_m = measure(snap, idx);

    // LEACH with P chosen to produce about as many clusters as GS³.
    let p = (gs3_q.clusters as f64 / points.len() as f64).clamp(0.005, 0.3);
    let mut leach = Leach::new(points.len(), LeachConfig { p });
    let mut rng = StdRng::seed_from_u64(99);
    let leach_round1 = leach.run_round(&points, &alive, &mut rng);
    let leach_q = quality(&points, &leach_round1);
    let leach_round2 = leach.run_round(&points, &alive, &mut rng);
    let churn = assignment_churn(&leach_round1, &leach_round2);

    // Hop clustering with 2-hop clusters over ~R-range links.
    let hop = hop_cluster(&points, &alive, HopConfig { radio_range: r * 0.75, max_hops: 2 });
    let hop_q = quality(&points, &hop);

    let mut t = Table::new(["metric", "GS3", "LEACH", "hop-based", "GS3 bound"]);
    let label = |s: &str| Text(s.into());
    let nodes = Int(points.len() as u64);
    t.row([label("nodes"), nodes.clone(), nodes.clone(), nodes, Missing]);
    let clusters = |q: &ClusterQuality| Int(q.clusters as u64);
    t.row([
        label("clusters"),
        clusters(&gs3_q),
        clusters(&leach_q),
        clusters(&hop_q),
        label("placement-determined"),
    ]);
    let mut metric = |name: &str, f: fn(&ClusterQuality) -> f64, bound: Cell| {
        t.row([label(name), Num(f(&gs3_q)), Num(f(&leach_q)), Num(f(&hop_q)), bound]);
    };
    metric("max cluster radius (m)", |q| q.max_radius, Num(r + 2.0 * r_t / SQRT_3));
    metric("min head spacing (m)", |q| q.min_head_spacing, Num(SQRT_3 * r - 2.0 * r_t));
    metric("radius CV", |q| q.radius_cv, label("low (uniform cells)"));
    metric("size CV (load balance)", |q| q.size_cv, label("low"));
    metric("misassigned fraction", |q| q.misassigned_fraction, label("~0 (F3: best head)"));
    t.row([
        label("re-assigned per round (nodes)"),
        label("O(cell) — see TBL-A1 row 3"),
        Int(churn as u64),
        label("global re-run"),
        label("local"),
    ]);
    s.table("quality", t);
    s.text(format!(
        "GS3 bounds (R = {r}, R_t = {r_t}): min head spacing √3R − 2R_t (Corollary 1); max\n\
         radius R + 2R_t/√3 for inner cells (Corollary 2; boundary cells carry a relaxed bound).\n\
         GS³ realized coverage {:.1}%, non-ideal cells {}; LEACH re-elects every rotation\n\
         round by design — the paper's \"not scalable\" healing claim.\n",
        gs3_m.coverage_ratio * 100.0,
        gs3_m.nonideal_cells,
    ));
    s.text(
        "expected shape: GS³'s min spacing respects its bound and no node is\n\
         misassigned; LEACH shows near-zero min spacing and a heavy radius tail;\n\
         hop-based shows geographic interleaving (misassigned fraction ≫ 0).",
    );
    s
}

/// Converts a GS³ snapshot into the baseline [`Clustering`] representation.
fn clustering_from_snapshot(snap: &Snapshot) -> Clustering {
    let mut heads = Vec::new();
    let mut head_index = std::collections::BTreeMap::new();
    for (i, n) in snap.nodes.iter().enumerate() {
        if n.alive && n.is_head() {
            head_index.insert(n.id, heads.len());
            heads.push(i);
        }
    }
    let assignment = snap
        .nodes
        .iter()
        .map(|n| {
            if !n.alive {
                return None;
            }
            match &n.role {
                RoleView::Head { .. } => head_index.get(&n.id).copied(),
                RoleView::Associate { head, surrogate: false, .. } => head_index.get(head).copied(),
                _ => None,
            }
        })
        .collect();
    Clustering { heads, assignment }
}

/// How many nodes changed cluster between two LEACH rounds.
fn assignment_churn(a: &Clustering, b: &Clustering) -> usize {
    let head_of = |c: &Clustering, i: usize| c.assignment[i].map(|ci| c.heads[ci]);
    (0..a.assignment.len()).filter(|&i| head_of(a, i) != head_of(b, i)).count()
}

/// The DATA workload: a 10 000-node deployment under churn, per the
/// lifetime claims the artifact certifies.
const NODES: usize = 10_000;
const AREA: f64 = 860.0;
const BUDGET: f64 = 300.0;
const ROUNDS: u64 = 240;
/// Node counts of the `Ω(n_c)` sweep's fixed 120 m field, and its horizon.
const SWEEP_NODES: [usize; 3] = [140, 220, 320];
const SWEEP_HORIZON_S: u64 = 4000;

/// Shared workload parameters: one 20 s round = four 5 s report periods,
/// five churn deaths per round, run ends when half the nodes are gone.
const ROUND_SECS: f64 = 20.0;
const REPORT_PERIOD_SECS: u64 = 5;
const CHURN_PER_ROUND: usize = 5;
const ALIVE_FLOOR: f64 = 0.5;
const RADIO_RANGE: f64 = 160.0;

/// One arm's lifetime measurements, scheme-agnostic.
struct ArmOutcome {
    arm: &'static str,
    reports_delivered: u64,
    energy_spent: f64,
    first_death_secs: Option<f64>,
    lifetime_secs: Option<f64>,
}

fn from_baseline(arm: &'static str, out: &BaselineOutcome) -> ArmOutcome {
    ArmOutcome {
        arm,
        reports_delivered: out.reports_delivered,
        energy_spent: out.energy_spent,
        first_death_secs: out.first_death_secs,
        lifetime_secs: out.lifetime_secs,
    }
}

/// The GS³ arm: the real discrete-event data plane under energy
/// accounting and the same per-round churn the baselines get.
fn run_gs3() -> ArmOutcome {
    let energy = EnergyModel::normalized(RADIO_RANGE);
    // An energy-conscious duty cycle: heartbeats matched to the round
    // scale instead of the default fast-detection tuning, so keep-alive
    // chatter doesn't swamp the data traffic either scheme carries. The
    // baselines' round model charges no keep-alive at all — another
    // handicap in their favor.
    let mut cfg = Gs3Config::new(80.0, 18.0).expect("valid parameters").with_mode(Mode::Dynamic);
    cfg.intra_heartbeat = SimDuration::from_secs(10);
    cfg.inter_heartbeat = SimDuration::from_secs(15);
    let mut net = NetworkBuilder::new()
        .config(cfg)
        .area_radius(AREA)
        .expected_nodes(NODES)
        .seed(29)
        .traffic(SimDuration::from_secs(REPORT_PERIOD_SECS))
        // Configuration runs on an effectively bottomless battery: the
        // round model hands the baselines their construction for free, so
        // GS³'s one-off self-configuration spend is likewise excluded.
        // The measurement budget is installed below, once converged — from
        // then on every heartbeat, report, and repair drains it.
        .energy(energy, 1e12)
        .build()
        .expect("valid parameters");
    let _ = net.run_to_fixpoint();
    let ids: Vec<_> = net.engine().ids().collect();
    for id in ids {
        if net.engine().energy(id).map(f64::is_finite).unwrap_or(false) {
            let _ = net.engine_mut().set_energy(id, BUDGET);
        }
    }
    let n0 = net.engine().alive_count();
    // Deliveries during the (free-battery) configuration phase don't
    // count toward the measured workload.
    let r0 = net.sink_ledger().map_or(0, |l| l.reports);

    let mut first_death_secs = None;
    let mut lifetime_secs = None;
    let t0 = net.now();
    for _round in 0..ROUNDS {
        net.run_for(SimDuration::from_secs_f64(ROUND_SECS));
        let now_secs = net.now().saturating_since(t0).as_secs_f64();
        if first_death_secs.is_none() {
            // Energy depletion shows as a zeroed budget; churn victims
            // below keep whatever charge they had left.
            let depleted = net
                .engine()
                .ids()
                .any(|id| net.engine().energy(id).map(|e| e == 0.0).unwrap_or(false));
            if depleted {
                first_death_secs = Some(now_secs);
            }
        }
        net.kill_random(CHURN_PER_ROUND);
        let alive_frac = net.engine().alive_count() as f64 / n0.max(1) as f64;
        if alive_frac < ALIVE_FLOOR {
            lifetime_secs = Some(now_secs);
            break;
        }
    }

    // Total dissipation: budget minus what remains, over every
    // battery-powered node (the mains-powered big node reads ∞).
    let energy_spent: f64 = net
        .engine()
        .ids()
        .filter_map(|id| net.engine().energy(id).ok())
        .filter(|e| e.is_finite())
        .map(|e| (BUDGET - e).clamp(0.0, BUDGET))
        .sum();
    ArmOutcome {
        arm: "gs3",
        reports_delivered: net.sink_ledger().map_or(0, |l| l.reports).saturating_sub(r0),
        energy_spent,
        first_death_secs,
        lifetime_secs,
    }
}

/// **DATA** — the three arms through the same workload, plus the `Ω(n_c)`
/// lifetime sweep.
fn workload(threads: usize) -> Section {
    let mut s = Section::new("DATA", "workload lifetime: convergecast reports per joule under churn");
    // The baselines run over the same deployment geometry: take the node
    // positions GS³ deployed with (seed 29) and the big node's position
    // as the sink.
    let net = NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(AREA)
        .expected_nodes(NODES)
        .seed(29)
        .build()
        .expect("valid parameters");
    let snap = net.snapshot();
    let points: Vec<Point> = snap.nodes.iter().map(|n| n.pos).collect();
    let sink = points[snap.big.raw() as usize];
    drop(net);

    let cfg = BaselineSimConfig {
        round_secs: ROUND_SECS,
        reports_per_round: (ROUND_SECS as u32) / (REPORT_PERIOD_SECS as u32),
        budget: BUDGET,
        radio_range: RADIO_RANGE,
        sink,
        churn_deaths_per_round: CHURN_PER_ROUND,
        alive_floor: ALIVE_FLOOR,
    };
    let energy = EnergyModel::normalized(RADIO_RANGE);
    // LEACH's P targets one head per ~cell (n_c ≈ n / cells at this
    // density ≈ 20), matching GS³'s head fraction.
    let leach_p = 0.05;

    // Three arms, fanned out like any other grid; results stay in arm
    // order so the artifact is byte-identical at any -j.
    let outcomes = run_grid(&[0usize, 1, 2], threads, |&arm| match arm {
        0 => run_gs3(),
        1 => {
            let b = Baseline::Leach(Leach::new(points.len(), LeachConfig { p: leach_p }));
            from_baseline("leach", &run_baseline(&points, b, &energy, &cfg, ROUNDS, 99))
        }
        _ => {
            let b = Baseline::Hop(HopConfig { radio_range: RADIO_RANGE, max_hops: 2 });
            from_baseline("hop", &run_baseline(&points, b, &energy, &cfg, ROUNDS, 99))
        }
    });

    s.text(format!(
        "{NODES} nodes, energy budget {BUDGET}, radio range {RADIO_RANGE} m. Every node reports each\n\
         {} s; each {} s round kills {} random nodes; a run ends when fewer\n\
         than half are alive (lifetime). - : never happened.\n",
        REPORT_PERIOD_SECS, ROUND_SECS, CHURN_PER_ROUND
    ));
    let mut t =
        Table::new(["arm", "nodes", "reports", "energy", "reports/J", "first death (s)", "lifetime (s)"]);
    for o in &outcomes {
        let per_joule = if o.energy_spent > 0.0 { o.reports_delivered as f64 / o.energy_spent } else { 0.0 };
        t.row([
            Text(o.arm.into()),
            Int(NODES as u64),
            Int(o.reports_delivered),
            Fixed(o.energy_spent, 3),
            Fixed(per_joule, 4),
            Cell::opt_fixed(o.first_death_secs, 1),
            Cell::opt_fixed(o.lifetime_secs, 1),
        ]);
    }
    s.table("arms", t);

    // Ω(n_c) sweep: lifetime under pure maintenance as density (and so
    // cell population) grows — the maintained/unmaintained ratio must not
    // shrink with n_c.
    s.text("Ω(n_c) sweep: maintained vs unmaintained lifetime (120 m field)\n");
    let sweep = run_grid(&SWEEP_NODES, threads, |&n| {
        let builder = NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(20.0)
            .area_radius(120.0)
            .expected_nodes(n)
            .seed(31);
        run_lifetime(
            builder,
            EnergyModel::normalized(RADIO_RANGE),
            400.0,
            SimDuration::from_secs(SWEEP_HORIZON_S),
            SimDuration::from_secs(10),
            0.5,
        )
    });
    let mut t = Table::new(["n_c (mean)", "first head death (s)", "maintained (s)", "lengthening"]);
    let secs = |t: Option<SimTime>| Cell::opt_fixed(t.map(SimTime::as_secs_f64), 1);
    for res in &sweep {
        t.row([
            Fixed(res.mean_cell_population, 2),
            secs(res.first_head_death),
            secs(res.maintained_lifetime),
            Cell::opt_fixed(res.lengthening_factor, 3),
        ]);
    }
    s.table("lifetime_sweep", t);
    s.text(
        "expected shape: the baselines' round model is a lossless upper bound —\n\
         free construction, perfect aggregation, guaranteed delivery — while the\n\
         GS³ arm runs the real event-level data plane (frame loss, queue drops,\n\
         stale routes, reports dying in flight with their relays), so its\n\
         reports-per-joule lands below the LEACH bound but within a small\n\
         constant of it. The paper's own claim is the sweep: the lengthening\n\
         factor grows with n_c — every cell member takes a turn as head (Ω(n_c)).",
    );
    s
}
