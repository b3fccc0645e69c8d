//! The `paper` suite: the paper's experiments, one function per artifact,
//! written as `BENCH_paper.json`.
//!
//! Each function runs its grid through [`run_grid`] and returns a
//! [`Section`] of typed [`Table`]s.

use gs3_analysis::convergence::{max_distance_from_big, measure_configuration};
use gs3_analysis::lifetime::run_lifetime;
use gs3_analysis::locality::{changed_head_edges, measure_impact};
use gs3_analysis::metrics::{gap_region_spans, lattice_occupancy, measure};
use gs3_analysis::poisson::{expected_gap_region_diameter, expected_nonideal_ratio, figure7_8_sweep};
use gs3_analysis::report::{Cell, Table};
use gs3_analysis::stats::{quantile, Summary};
use gs3_core::harness::NetworkBuilder;
use gs3_core::invariants::{check_all_with, Strictness};
use gs3_core::{Gs3Config, Mode, RoleView};
use gs3_geometry::hex::{Axial, HexLayout};
use gs3_geometry::spiral::IccIcp;
use gs3_geometry::{coordination_radius, head_spacing, Angle, Point, Vec2, SQRT_3};
use gs3_sim::radio::EnergyModel;
use gs3_sim::{SimDuration, SimTime};

use crate::locality::{self, LocalityPoint, CRASH_RADIUS, SIZES};
use crate::runner::run_grid;
use crate::section::Section;
use crate::SEEDS;

use Cell::{Fixed, Int, Missing, Num, Text};

/// Runs every experiment, each grid over `threads` workers.
#[must_use]
pub fn sections(threads: usize) -> Vec<Section> {
    let gaps = gap_grid(threads);
    vec![
        fig7(&gaps),
        fig8(&gaps),
        table_a1(threads),
        thm11(threads),
        structure_quality(threads),
        sliding(),
        ablation(threads),
        healing_locality(threads),
    ]
}

/// Target gap probabilities of the matched-α deployments FIG7 and FIG8
/// share; FIG8 reads the first four.
const ALPHAS: [f64; 5] = [0.30, 0.20, 0.10, 0.05, 0.02];

/// Matched-α geometry: `R`, `R_t` and deployment radius.
const GAP_R: f64 = 60.0;
const GAP_R_T: f64 = 15.0;
const GAP_AREA: f64 = 260.0;

/// One matched-α deployment after 240 s of configuration.
struct GapCell {
    nodes: usize,
    /// Populated lattice sites whose hexagon lies inside the deployment.
    interior: usize,
    /// Interior sites without a head.
    gaps: usize,
    /// Spans of the connected regions of gap sites (cells).
    spans: Vec<u32>,
}

/// The deployment density whose gap probability `e^{−λ·R_t²}` is `alpha`.
fn matched_lambda(alpha: f64) -> f64 {
    -alpha.ln() / (GAP_R_T * GAP_R_T)
}

/// The [`ALPHAS`] × [`SEEDS`] grid, α-major.
fn gap_grid(threads: usize) -> Vec<GapCell> {
    let cells: Vec<(f64, u64)> = ALPHAS.iter().flat_map(|&a| SEEDS.map(|s| (a, s))).collect();
    run_grid(&cells, threads, |&(alpha, seed)| {
        let mut net = NetworkBuilder::new()
            .ideal_radius(GAP_R)
            .radius_tolerance(GAP_R_T)
            .area_radius(GAP_AREA)
            .density(matched_lambda(alpha))
            .seed(seed)
            .build()
            .expect("valid parameters");
        let nodes = net.engine().node_count();
        net.run_for(SimDuration::from_secs(240));
        let occupancy = lattice_occupancy(&net.snapshot());
        let interior: Vec<_> = occupancy
            .iter()
            .filter(|s| s.center.distance(Point::ORIGIN) <= GAP_AREA - GAP_R && s.nodes > 0)
            .collect();
        let gaps: Vec<Axial> = interior.iter().filter(|s| !s.has_head).map(|s| s.site).collect();
        GapCell { nodes, interior: interior.len(), gaps: gaps.len(), spans: gap_region_spans(&gaps) }
    })
}

/// The [`SEEDS`] runs of the `i`-th α.
fn runs_of(grid: &[GapCell], i: usize) -> &[GapCell] {
    &grid[i * SEEDS.len()..(i + 1) * SEEDS.len()]
}

/// `part / whole`, 0 when `whole` is 0.
fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// **FIG7** — the expected ratio of non-ideal cells as a function of
/// `R_t / R` (λ = 10, R = 100): the analytic curve `α = e^(−R_t²·λ)` the
/// paper plots, and the realized ratio of populated-but-headless interior
/// lattice sites at matched α (the paper's λ = 10 implies ~10⁷ nodes, so
/// each target α gets a simulable density with the same `λ·R_t²`).
fn fig7(grid: &[GapCell]) -> Section {
    let mut s = Section::new("FIG7", "Figure 7 — expected ratio of non-ideal cells (λ=10, R=100)");
    s.text("analytic reproduction (the curve Figure 7 plots):\n");
    let mut t = Table::new(["R_t/R", "alpha = E[non-ideal ratio]"]);
    for p in figure7_8_sweep(0.005, 0.05, 10, 10.0, 100.0) {
        t.row([Fixed(p.rt_over_r, 3), Num(p.nonideal_ratio)]);
    }
    s.table("analytic", t);
    s.text(format!(
        "paper's observation: ratio ≈ 0 once R_t/R ≥ 0.02 → α(R_t=2, λ=10) = {:.2e}\n",
        expected_nonideal_ratio(2.0, 10.0)
    ));

    s.text("empirical validation (α matched via λ·R_t², interior lattice sites):\n");
    let mut t = Table::new(["target alpha", "lambda_sim", "nodes", "measured ratio", "sites"]);
    for (i, &alpha) in ALPHAS.iter().enumerate() {
        let runs = runs_of(grid, i);
        let sites: usize = runs.iter().map(|r| r.interior).sum();
        let gaps: usize = runs.iter().map(|r| r.gaps).sum();
        let nodes: usize = runs.iter().map(|r| r.nodes).sum();
        t.row([
            Num(alpha),
            Fixed(matched_lambda(alpha), 5),
            Int((nodes / SEEDS.len()) as u64),
            Num(ratio(gaps, sites)),
            Int(sites as u64),
        ]);
    }
    s.table("empirical", t);
    s.text(
        "expected shape: the measured ratio tracks the target α and collapses\n\
         toward 0 as density rises — the paper's Figure 7 shape.",
    );
    s
}

/// **FIG8** — the expected diameter of an `R_t`-gap perturbed region as a
/// function of `R_t / R` (λ = 10, R = 100): the analytic `2αR/(1−α)²`, and
/// the spans of contiguous headless regions on FIG7's deployments.
fn fig8(grid: &[GapCell]) -> Section {
    let mut s =
        Section::new("FIG8", "Figure 8 — expected diameter of an R_t-gap perturbed region (λ=10, R=100)");
    s.text("analytic reproduction (the curve Figure 8 plots):\n");
    let mut t = Table::new(["R_t/R", "E[diameter] = 2aR/(1-a)^2 (m)"]);
    for p in figure7_8_sweep(0.005, 0.05, 10, 10.0, 100.0) {
        t.row([Fixed(p.rt_over_r, 3), Num(p.gap_region_diameter)]);
    }
    s.table("analytic", t);
    s.text(format!(
        "paper's observation: diameter ≈ 0 once R_t/R ≥ 0.02 → {:.2e} m at R_t = 2\n",
        expected_gap_region_diameter(2.0, 10.0, 100.0)
    ));

    s.text("empirical validation (α matched via λ·R_t², interior lattice sites):\n");
    s.text(
        "note: the paper's expectation 2αR/(1−α)² averages over *all* region\n\
         starts including empty ones; conditioned on a region existing the\n\
         geometric-run model predicts a span of 1/(1−α)² cells, which is what\n\
         a measurement over realized regions can compare against.\n",
    );
    let mut t = Table::new([
        "target alpha",
        "predicted span | exists (cells)",
        "measured span (cells)",
        "measured gap fraction",
        "regions",
    ]);
    for (i, &alpha) in ALPHAS[..4].iter().enumerate() {
        let runs = runs_of(grid, i);
        let spans: Vec<f64> = runs.iter().flat_map(|r| r.spans.iter().map(|&c| f64::from(c))).collect();
        let interior: usize = runs.iter().map(|r| r.interior).sum();
        let gaps: usize = runs.iter().map(|r| r.gaps).sum();
        t.row([
            Num(alpha),
            Num(1.0 / ((1.0 - alpha) * (1.0 - alpha))),
            Num(Summary::of(&spans).mean),
            Num(ratio(gaps, interior)),
            Int(spans.len() as u64),
        ]);
    }
    s.table("empirical", t);
    s.text(
        "expected shape: measured spans shrink toward one cell and regions\n\
         disappear as α falls — the collapse Figure 8 plots.",
    );
    s
}

/// **TBL-A1** — Appendix 1: the complexity and convergence properties of
/// GS³, one measured experiment per row.
fn table_a1(threads: usize) -> Section {
    let mut s = Section::new("TBL-A1", "Appendix 1 — complexity and convergence properties of GS3");
    a1_information_per_node(&mut s, threads);
    a1_lifetime_factor(&mut s, threads);
    a1_perturbation_convergence(&mut s, threads);
    a1_static_convergence(&mut s, threads);
    a1_arbitrary_state_convergence(&mut s, threads);
    s
}

/// Row 1: per-node information is θ(log n) — a *constant number of
/// identities* regardless of network size (each id being log n bits).
fn a1_information_per_node(s: &mut Section, threads: usize) {
    s.text("row 1 — information maintained at each node: θ(log n)\n");
    let mut t = Table::new(["n (nodes)", "max ids @ associate", "max ids @ head", "mean ids"]);
    let sizes = [400usize, 800, 1600, 3200];
    for row in run_grid(&sizes, threads, |&n| {
        let mut net = NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius((n as f64).sqrt() * 8.0)
            .expected_nodes(n)
            .seed(42)
            .build()
            .expect("valid parameters");
        let _ = net.run_to_fixpoint();
        let snap = net.snapshot();
        let (mut assoc_max, mut head_max, mut total, mut count) = (0usize, 0usize, 0usize, 0usize);
        for v in snap.nodes.iter().filter(|v| v.alive) {
            match v.role {
                RoleView::Associate { .. } => assoc_max = assoc_max.max(v.ids_stored),
                RoleView::Head { .. } => head_max = head_max.max(v.ids_stored),
                _ => {}
            }
            total += v.ids_stored;
            count += 1;
        }
        [
            Int(snap.nodes.len() as u64),
            Int(assoc_max as u64),
            Int(head_max as u64),
            Num(total as f64 / count.max(1) as f64),
        ]
    }) {
        t.row(row);
    }
    s.table("row1_information", t);
    s.text(
        "expected shape: id counts do not grow with n — an associate stores its\n\
         head (+ the advertised candidate list), a head its ≤6 neighbors,\n\
         parent, and cell members (bounded by density, not by n).\n",
    );
}

/// How long TBL-A1 row 2 drains each field before it stops waiting for
/// the structure to fail.
const LIFETIME_HORIZON_S: u64 = 12_000;

/// Row 2: intra-/inter-cell maintenance lengthens the structure lifetime
/// by a factor Ω(n_c).
fn a1_lifetime_factor(s: &mut Section, threads: usize) {
    s.text("row 2 — lifetime of the head structure: lengthened Ω(n_c) by maintenance\n");
    let mut t = Table::new([
        "n_c (per cell)",
        "first head death (s)",
        "maintained life (s)",
        "factor",
        "head turnovers",
        "cell shifts",
    ]);
    let populations = [12usize, 25, 50];
    for row in run_grid(&populations, threads, |&target_nc| {
        // Fix geometry; scale density to hit the target cell population.
        let cells = 7.0; // one band
        let builder = NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(20.0)
            .area_radius(150.0)
            .expected_nodes((target_nc as f64 * cells) as usize)
            .seed(7)
            // The paper's premise: traffic flows from children to parents
            // along the head graph with in-network aggregation — heads
            // relay everything, so their dissipation dominates.
            .traffic(SimDuration::from_secs(1));
        let energy =
            EnergyModel { tx_base: 0.02, tx_dist2: 1.2 / (160.0 * 160.0), rx: 0.002, idle: 0.0005 };
        let res = run_lifetime(
            builder,
            energy,
            400.0,
            SimDuration::from_secs(LIFETIME_HORIZON_S),
            SimDuration::from_secs(15),
            0.5,
        );
        let secs = |t: Option<SimTime>| t.map(SimTime::as_secs_f64);
        [
            Num(res.mean_cell_population),
            Cell::opt(secs(res.first_head_death)),
            Cell::opt(secs(res.maintained_lifetime)),
            Cell::opt(res.lengthening_factor),
            Int(res.head_turnovers),
            Int(res.cell_shifts),
        ]
    }) {
        t.row(row);
    }
    s.table("row2_lifetime", t);
    s.text(format!("(- : not reached within the {LIFETIME_HORIZON_S} s horizon)\n"));
    s.text(
        "expected shape: maintenance lengthens the structure's life by large\n\
         factors (order 5–20×) via head shift and cell shift. The paper's\n\
         Ω(n_c) growth assumes members dissipate ≈nothing while not serving;\n\
         with a realistic workload every member also pays its own reporting\n\
         cost, capping the factor near the head/member dissipation-rate\n\
         ratio — factor ≈ min(c·n_c, head_rate/member_rate).\n",
    );
}

/// Row 3: convergence under a perturbation is O(D_p) — proportional to the
/// perturbed diameter, independent of total network size.
fn a1_perturbation_convergence(s: &mut Section, threads: usize) {
    s.text("row 3 — convergence under perturbation: O(D_p), independent of n\n");
    let mut t = Table::new(["n", "D_p (kill diam, m)", "killed", "heal time (s)", "impact radius (m)"]);
    let mut cells: Vec<(usize, f64, f64)> = Vec::new();
    for &(n, area) in &[(1500usize, 330.0f64), (3000, 470.0)] {
        for &dp in &[120.0f64, 240.0, 360.0] {
            cells.push((n, area, dp));
        }
    }
    for row in run_grid(&cells, threads, |&(n, area, dp)| {
        let mut net = NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius(area)
            .expected_nodes(n)
            .seed(5)
            .build()
            .expect("valid parameters");
        let _ = net.run_to_fixpoint();
        // Center the kill on an actual head so every D_p kills at
        // least one cell nucleus.
        let nominal = Point::new(area / 2.5, 0.0);
        let center = net
            .snapshot()
            .heads()
            .map(|h| h.pos)
            .min_by(|a, b| nominal.distance(*a).total_cmp(&nominal.distance(*b)))
            .unwrap_or(nominal);
        let mut killed = 0usize;
        let report = measure_impact(
            &mut net,
            center,
            SimDuration::from_secs(1),
            SimDuration::from_secs(400),
            |net| {
                killed = net.kill_disk(center, dp / 2.0).len();
            },
        );
        [
            Int(n as u64),
            Num(dp),
            Int(killed as u64),
            Cell::opt(report.heal_time.map(|x| x.as_secs_f64())),
            Num(report.impact_radius),
        ]
    }) {
        t.row(row);
    }
    s.table("row3_perturbation", t);
    s.text(
        "expected shape: heal time and impact radius grow with D_p but do not\n\
         grow when n doubles — the paper's local-healing claim.\n",
    );
}

/// Row 4: static-network convergence is θ(D_b).
fn a1_static_convergence(s: &mut Section, threads: usize) {
    s.text("row 4 — convergence in static networks: θ(D_b)\n");
    let mut t = Table::new(["area radius (m)", "D_b (m)", "n", "diffusion time (s)", "messages"]);
    let areas = [160.0f64, 240.0, 320.0, 400.0];
    for row in run_grid(&areas, threads, |&area| {
        let builder = NetworkBuilder::new()
            .mode(Mode::Static)
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius(area)
            .expected_nodes((area * area * 0.014) as usize)
            .seed(3);
        let res = measure_configuration(builder, SimDuration::from_secs(900));
        [Num(area), Num(res.d_b), Int(res.nodes as u64), Num(res.time.as_secs_f64()), Int(res.messages)]
    }) {
        t.row(row);
    }
    s.table("row4_static", t);
    s.text(
        "expected shape: diffusion time grows linearly with D_b (one-way\n\
         diffusing computation, band after band).\n",
    );
}

/// Row 5: from an arbitrary (mass-corrupted) state, dynamic networks
/// stabilize in O(D_d).
fn a1_arbitrary_state_convergence(s: &mut Section, threads: usize) {
    s.text("row 5 — convergence from an arbitrary state: O(D_d)\n");
    let mut t =
        Table::new(["area radius (m)", "D_d (m)", "heads corrupted", "last repair (s)", "violations left"]);
    let areas = [200.0f64, 300.0];
    for row in run_grid(&areas, threads, |&area| {
        let mut net = NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius(area)
            .expected_nodes((area * area * 0.014) as usize)
            .seed(9)
            .build()
            .expect("valid parameters");
        let _ = net.run_to_fixpoint();
        let heads: Vec<_> = net.snapshot().heads().map(|h| h.id).collect();
        let report = measure_impact(
            &mut net,
            Point::ORIGIN,
            SimDuration::from_secs(2),
            SimDuration::from_secs(2000),
            |net| {
                // Corrupt the hop counts (tree state) of every other head
                // and the stored IL of a third: an adversarial global
                // state that sanity checking + inter-cell maintenance
                // must undo.
                for (i, id) in heads.iter().enumerate() {
                    if i % 2 == 0 {
                        net.corrupt_head_hops(*id, 7 + (i as u32 * 13) % 40);
                    }
                    if i % 3 == 0 {
                        net.corrupt_head_il(*id, Vec2::new(90.0, 50.0));
                    }
                }
            },
        );
        [
            Num(area),
            Num(2.0 * max_distance_from_big(&net)),
            Int(heads.len() as u64),
            Cell::opt(report.heal_time.map(|x| x.as_secs_f64())),
            Int(net.check_invariants().len() as u64),
        ]
    }) {
        t.row(row);
    }
    s.table("row5_arbitrary_state", t);
    s.text(
        "expected shape: the last repair lands within a few sanity-check\n\
         periods, growing mildly with the diameter, and the invariants are\n\
         fully restored (0 violations) — self-stabilization from an\n\
         arbitrary state.\n",
    );
}

/// THM11's deployments.
const THM11_SEEDS: [u64; 10] = [17, 1, 2, 3, 4, 5, 6, 7, 8, 9];

/// **THM11** — when the big node moves a distance `d`, the impact on the
/// head graph is contained within a disk of radius `√3·d/2` around the
/// move's midpoint. Each run settles a mobile network, moves the big node
/// in 8 s steps (physical motion), re-settles, and measures the furthest
/// head whose parent edge changed. The control runs the longest schedule
/// with the big node left in place: an edge it changes is background
/// churn, not move impact.
fn thm11(threads: usize) -> Section {
    let mut s = Section::new("THM11", "Theorem 11 — big-node move impact contained in √3·d/2");
    let (r, r_t) = (80.0, 18.0);
    let spacing = head_spacing(r);
    // Move lengths in lattice spacings; `None` is the control.
    let moves = [None, Some(0.5f64), Some(1.0), Some(1.5), Some(2.0)];
    let cells: Vec<(Option<f64>, u64)> =
        moves.iter().flat_map(|&m| THM11_SEEDS.map(|seed| (m, seed))).collect();
    let runs = run_grid(&cells, threads, |&(frac, seed)| {
        let d = spacing * frac.unwrap_or(0.0);
        let mut net = NetworkBuilder::new()
            .mode(Mode::Mobile)
            .ideal_radius(r)
            .radius_tolerance(r_t)
            .area_radius(400.0)
            .expected_nodes(2200)
            .seed(seed)
            .build()
            .expect("valid parameters");
        let _ = net.run_to_fixpoint();
        let before = net.snapshot();
        // Physical motion: a sequence of small position updates.
        let steps = frac.map_or(8, |f| (f * 4.0).ceil() as u32);
        for i in 1..=steps {
            if frac.is_some() {
                net.move_big(Point::new(d * f64::from(i) / f64::from(steps), 0.0));
            }
            net.run_for(SimDuration::from_secs(8));
        }
        let _ = net.run_to_fixpoint();
        let after = net.snapshot();

        let changed = changed_head_edges(&before, &after);
        let midpoint = Point::ORIGIN.midpoint(Point::new(d, 0.0));
        let worst = changed
            .iter()
            .filter_map(|id| after.node(*id).or_else(|| before.node(*id)))
            .map(|n| midpoint.distance(n.pos))
            .fold(0.0f64, f64::max);
        // One coordination radius of slack: the rim cell where the proxy
        // handoff lands flips one edge just outside the exact disk.
        let contained = worst <= SQRT_3 * d / 2.0 + net.config().coord_radius();
        (changed.len() as u64, worst, contained)
    });
    s.text(format!(
        "{} seeds per row (17, 1–9); contained: furthest change ≤ √3·d/2 + one coordination\n\
         radius ({:.1} m); the d = 0 row is the control (8 × 8 s, no move).\n",
        THM11_SEEDS.len(),
        coordination_radius(r, r_t)
    ));
    let mut t = Table::new([
        "d (move, m)",
        "bound √3·d/2 (m)",
        "edges changed (all seeds)",
        "contained (seeds)",
        "furthest change p50 (m)",
        "furthest change max (m)",
    ]);
    for (frac, runs) in moves.iter().zip(runs.chunks(THM11_SEEDS.len())) {
        let d = spacing * frac.unwrap_or(0.0);
        let furthest: Vec<f64> = runs.iter().map(|r| r.1).collect();
        t.row([
            Num(d),
            Num(SQRT_3 * d / 2.0),
            Int(runs.iter().map(|r| r.0).sum()),
            Int(runs.iter().filter(|r| r.2).count() as u64),
            Num(quantile(&furthest, 0.5)),
            Num(Summary::of(&furthest).max),
        ]);
    }
    s.table("moves", t);
    s.text(
        "expected shape: the control changes no edge, so every change in the\n\
         other rows is move impact; Theorem 11 predicts every seed contained\n\
         at every d. Where a seed is not, the repair reached further than the\n\
         theorem allows (EXPERIMENTS.md THM11, an open protocol defect).",
    );
    s
}

/// **COR1-2** — Corollaries 1 and 2: neighboring heads sit
/// `[√3R − 2R_t, √3R + 2R_t]` apart, inner cells have radius
/// `≤ R + 2R_t/√3`, heads sit within `R_t` of their ILs; two densities ×
/// [`SEEDS`].
fn structure_quality(threads: usize) -> Section {
    let mut s = Section::new("COR1-2", "Corollaries 1–2 — realized structure vs proved bounds");
    let r = 80.0;
    let r_t = 18.0;
    let spacing = SQRT_3 * r;
    s.text(format!(
        "bounds: head spacing ∈ [{:.1}, {:.1}] m; inner cell radius ≤ {:.1} m; head-to-IL ≤ {:.1} m\n",
        spacing - 2.0 * r_t,
        spacing + 2.0 * r_t,
        r + 2.0 * r_t / SQRT_3,
        r_t
    ));
    let mut t = Table::new([
        "nodes",
        "seed",
        "heads",
        "spacing min",
        "spacing max",
        "cell radius p95",
        "inner radius max",
        "IL dev max",
        "violations",
    ]);
    let cells: Vec<(usize, u64)> = [900usize, 1800].iter().flat_map(|&n| SEEDS.map(|seed| (n, seed))).collect();
    for row in run_grid(&cells, threads, |&(n, seed)| {
        let mut net = NetworkBuilder::new()
            .ideal_radius(r)
            .radius_tolerance(r_t)
            .area_radius(330.0)
            .expected_nodes(n)
            .seed(seed)
            .build()
            .expect("valid parameters");
        let _ = net.run_to_fixpoint();
        let (snap, idx) = net.view();
        let m = measure(snap, idx);
        // Cell radii of non-surrogate associates; the Corollary-2 bound
        // is for inner cells (boundary cells get the relaxed bound).
        let inner = idx.inner_heads();
        let mut all_radii = Vec::new();
        let mut inner_max = 0.0f64;
        for a in snap.associates() {
            if let RoleView::Associate { head, surrogate: false, .. } = &a.role {
                if let Some(h) = snap.node(*head) {
                    let radius = a.pos.distance(h.pos);
                    all_radii.push(radius);
                    if inner.contains(head) {
                        inner_max = inner_max.max(radius);
                    }
                }
            }
        }
        [
            Int(n as u64),
            Int(seed),
            Int(m.heads as u64),
            Num(m.neighbor_head_distance.min),
            Num(m.neighbor_head_distance.max),
            Num(quantile(&all_radii, 0.95)),
            Num(inner_max),
            Num(m.head_il_deviation.max),
            Int(check_all_with(snap, Strictness::Dynamic, idx).len() as u64),
        ]
    }) {
        t.row(row);
    }
    s.table("runs", t);
    s.text(
        "expected shape: every row respects the bounds (violations = 0);\n\
         tighter R_t/denser fields give tighter spacing spread.",
    );
    s
}

/// **SLIDE** — §4.3.5.1 claim 3: when the candidate sets of many cells die
/// at about the same rate, independent cell shifts make the head structure
/// slide as a whole. A uniform-energy field drains while we sample the
/// cells' ⟨ICC, ICP⟩ spiral positions and the neighbor-head spacing.
fn sliding() -> Section {
    let mut s = Section::new("SLIDE", "§4.3.5.1 — the structure slides coherently under uniform depletion");
    let r = 80.0;
    let mut net = NetworkBuilder::new()
        .ideal_radius(r)
        .radius_tolerance(20.0)
        .area_radius(150.0)
        .expected_nodes(340)
        .seed(55)
        .energy(EnergyModel::normalized(160.0), 500.0)
        .build()
        .expect("valid parameters");
    let _ = net.run_to_fixpoint();

    s.text(
        "min/max ⟨ICC,ICP⟩ range over the drainable cells: the big node's\n\
         mains-powered head never drains, so its cell never shifts.\n",
    );
    let mut t = Table::new([
        "t (s)",
        "heads",
        "alive",
        "cells shifted",
        "min ⟨ICC,ICP⟩",
        "max ⟨ICC,ICP⟩",
        "spacing mean (m)",
        "spacing sd (m)",
    ]);
    for _ in 0..24 {
        net.run_for(SimDuration::from_secs(60));
        let (snap, idx) = net.view();
        let m = measure(snap, idx);
        // (is the big node, spiral position) per head.
        let spirals: Vec<(bool, IccIcp)> = snap
            .heads()
            .filter_map(|h| match &h.role {
                RoleView::Head { icc_icp, .. } => Some((h.is_big, *icc_icp)),
                _ => None,
            })
            .collect();
        if spirals.is_empty() {
            s.text(format!("structure exhausted at {}", net.now()));
            break;
        }
        let shifted = spirals.iter().filter(|(_, k)| *k != IccIcp::ORIGIN).count();
        let drainable = spirals.iter().filter(|(big, _)| !big).map(|&(_, k)| k);
        let spiral = |k: Option<IccIcp>| k.map_or(Missing, |k| Text(k.to_string()));
        t.row([
            Fixed(net.now().as_secs_f64(), 0),
            Int(m.heads as u64),
            Int(net.engine().alive_count() as u64),
            Text(format!("{shifted}/{}", spirals.len())),
            spiral(drainable.clone().min()),
            spiral(drainable.max()),
            Num(m.neighbor_head_distance.mean),
            Num(m.neighbor_head_distance.std_dev),
        ]);
    }
    s.table("samples", t);
    s.text(format!(
        "expected shape: the shifted-cell count climbs toward all cells while\n\
         the ⟨ICC,ICP⟩ spread stays narrow (cells advance the same spiral in\n\
         near lockstep) and the head spacing statistics stay near √3·R = {:.1} m\n\
         — the structure slides as a whole instead of tearing.",
        SQRT_3 * r
    ));
    s
}

/// **ABLATION** — what the paper's two key mechanisms buy, measured by
/// turning each off: IL-anchored `HEAD_SELECT` (Section 3.2: heads select
/// neighbors from their cell's IL, not their own position, so deviation
/// does not accumulate with distance from the big node), and channel
/// reservation in `HEAD_ORG` (neighboring rounds never select
/// concurrently).
fn ablation(threads: usize) -> Section {
    let mut s = Section::new("ABLATION", "the paper's design choices, measured by removal");
    s.text("part 1 — IL-anchored selection vs position-anchored (error accumulation)\n");
    s.text("head deviation from the true lattice site, by band (R=60, R_t=14):\n");
    let mut results = run_grid(&[true, false], threads, |&anchored| band_deviations(anchored, 5));
    let without = results.pop().expect("two variants");
    let with = results.pop().expect("two variants");
    let mut t = Table::new([
        "band",
        "anchored: mean dev (m)",
        "anchored: max",
        "position-based: mean dev (m)",
        "position-based: max",
    ]);
    for band in 0..with.len().max(without.len()) {
        let a = with.get(band).map(|v| Summary::of(v)).unwrap_or_default();
        let b = without.get(band).map(|v| Summary::of(v)).unwrap_or_default();
        t.row([Int(band as u64), Num(a.mean), Num(a.max), Num(b.mean), Num(b.max)]);
    }
    s.table("anchoring", t);
    s.text(
        "expected shape: anchored deviation stays flat (bounded by R_t = 14 m at\n\
         every band); position-anchored deviation grows with the band index —\n\
         the random-walk accumulation the paper's IL trick eliminates.\n",
    );

    s.text("part 2 — channel reservation vs free-for-all HEAD_ORG\n");
    let mut t = Table::new(["reservation", "seed", "heads", "min head spacing (m)", "pairs < spacing/2"]);
    let cells: Vec<(bool, u64)> =
        [true, false].iter().flat_map(|&on| [3u64, 9, 27].map(|seed| (on, seed))).collect();
    for row in run_grid(&cells, threads, |&(reservation, seed)| {
        let r = 80.0;
        let mut cfg = Gs3Config::new(r, 18.0).expect("valid").with_mode(Mode::Static);
        cfg.channel_reservation = reservation;
        // Lossy broadcasts make concurrent rounds see *different*
        // reply sets (with perfect symmetric information, concurrent
        // HEAD_SELECTs deterministically agree and the hazard hides).
        let mut net = NetworkBuilder::new()
            .area_radius(300.0)
            .expected_nodes(1200)
            .seed(seed)
            .broadcast_loss(0.15)
            .config(cfg)
            .build()
            .expect("valid");
        net.engine_mut()
            .run_until_quiescent(SimTime::ZERO + SimDuration::from_secs(900))
            .expect("terminates");
        let heads: Vec<Point> = net.snapshot().heads().map(|h| h.pos).collect();
        let spacing = head_spacing(r);
        let mut min = f64::INFINITY;
        let mut close_pairs = 0u64;
        for (i, a) in heads.iter().enumerate() {
            for b in &heads[i + 1..] {
                let d = a.distance(*b);
                min = min.min(d);
                if d < spacing / 2.0 {
                    close_pairs += 1;
                }
            }
        }
        [
            Text(if reservation { "on" } else { "off" }.into()),
            Int(seed),
            Int(heads.len() as u64),
            Num(min),
            Int(close_pairs),
        ]
    }) {
        t.row(row);
    }
    s.table("reservation", t);
    s.text(
        "expected shape: with reservation, the minimum spacing respects\n\
         √3R − 2R_t and no close pairs exist; without it, concurrent rounds\n\
         double-select shared ideal locations (close pairs > 0 and/or\n\
         depressed minimum spacing).",
    );
    s
}

/// Builds, statically configures, and returns per-band head deviations
/// from the true lattice.
fn band_deviations(anchor_ils: bool, seed: u64) -> Vec<Vec<f64>> {
    let r = 60.0;
    let mut cfg = Gs3Config::new(r, 14.0).expect("valid").with_mode(Mode::Static);
    cfg.anchor_ils = anchor_ils;
    let mut net = NetworkBuilder::new()
        .area_radius(560.0)
        .expected_nodes(4200)
        .seed(seed)
        .config(cfg)
        .build()
        .expect("valid");
    net.engine_mut()
        .run_until_quiescent(SimTime::ZERO + SimDuration::from_secs(900))
        .expect("static diffusion terminates");
    // The *true* lattice: anchored at the big node, GR = 0.
    let layout = HexLayout::new(Point::ORIGIN, r, Angle::ZERO);
    let mut bands: Vec<Vec<f64>> = Vec::new();
    for h in net.snapshot().heads() {
        let site = layout.cell_at(h.pos);
        let band = site.band() as usize;
        if bands.len() <= band {
            bands.resize(band + 1, Vec::new());
        }
        bands[band].push(h.pos.distance(layout.ideal_location(site)));
    }
    bands
}

/// **LOCALITY** — Theorems 8–13: the same physical crash disk into
/// constant-density deployments of growing size ([`locality`]); each
/// episode's healing radius, message cost, taint count and latency should
/// stay flat in the network size.
fn healing_locality(threads: usize) -> Section {
    let mut s = Section::new("LOCALITY", "Theorems 8-13 — healing is contained, independent of |N|");
    let points = locality::sweep(threads);
    let mut t =
        Table::new(["nodes", "area (m)", "killed", "heal radius (m)", "messages", "tainted", "heal (s)"]);
    for &n in &SIZES {
        let of_size: Vec<&LocalityPoint> = points.iter().filter(|p| p.nodes == n).collect();
        let mean = |f: &dyn Fn(&LocalityPoint) -> f64| {
            of_size.iter().map(|p| f(p)).sum::<f64>() / of_size.len() as f64
        };
        let heals: Option<Vec<f64>> = of_size.iter().map(|p| p.heal_s).collect();
        t.row([
            Int(n as u64),
            Num(locality::area_for(n)),
            Num(mean(&|p| p.killed as f64)),
            Num(mean(&|p| p.radius_m)),
            Num(mean(&|p| p.messages as f64)),
            Num(mean(&|p| p.tainted as f64)),
            Cell::opt(heals.map(|h| Summary::of(&h).mean)),
        ]);
    }
    s.table("sizes", t);
    s.text(format!(
        "every row kills the same disk (r={CRASH_RADIUS} m, {} seeds each);\n\
         the paper's locality theorems predict the healing radius, message\n\
         cost, and taint count stay flat as the deployment doubles — only\n\
         the node count changes, never the repair.",
        locality::SEEDS.len()
    ));
    s
}
