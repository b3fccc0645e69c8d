//! The healing-locality sweep behind `paper`'s LOCALITY section and the
//! determinism tests.
//!
//! The paper's locality theorems (8–13) say the repair of a perturbation
//! is contained: the set of nodes that change state, and the traffic the
//! repair costs, depend on the perturbation — not on the network size.
//! This sweep measures that empirically with the telemetry episode
//! reducer: the *same physical fault* (a crash disk of fixed radius at a
//! fixed offset from the big node) is injected into constant-density
//! deployments of growing size, and each episode's spatial healing radius
//! and message cost are read back. Size-independence shows up as flat
//! columns.
//!
//! Everything is seeded; [`sweep_grid`] returns the same points at any
//! thread count (cells run via [`crate::runner::run_grid`]).

use gs3_core::chaos::{FaultKind, FaultPlan};
use gs3_core::harness::NetworkBuilder;
use gs3_geometry::Point;
use gs3_sim::SimDuration;

use crate::runner::run_grid;

/// Expected node counts on the constant-density size axis.
pub const SIZES: [usize; 4] = [200, 400, 800, 1600];

/// Seeds averaged per size.
pub const SEEDS: [u64; 3] = [11, 23, 37];

/// Cell geometry: `R = 40` as in the chaos-sweep scenario, but with the
/// tolerance widened to `R_t = 18`: the locality theorems assume the
/// density invariant (a candidate node within `R_t` of every ideal
/// location), and at this deployment density an `R_t` of 14 m leaves a
/// few-percent chance of a genuine gap per cell — a gapped deployment
/// cannot re-bridge a crash-severed head island no matter how long it
/// runs, which measures the *deployment*, not the protocol.
const R: f64 = 40.0;
const R_T: f64 = 18.0;

/// Reference deployment: 400 nodes on a 200 m disk; other sizes scale the
/// disk radius as `200·sqrt(n/400)` so density stays constant.
#[must_use]
pub fn area_for(nodes: usize) -> f64 {
    200.0 * (nodes as f64 / 400.0).sqrt()
}

/// The fixed physical perturbation: a crash disk of radius 45 m centered
/// 90 m from the big node — identical at every network size, so any
/// growth in the measured healing radius is a locality violation.
pub const CRASH_CENTER: Point = Point { x: 90.0, y: 0.0 };
/// Crash-disk radius in meters.
pub const CRASH_RADIUS: f64 = 45.0;

/// One (size, seed) cell's measurements, read from the episode reducer.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityPoint {
    /// Expected node count of the deployment.
    pub nodes: usize,
    /// Deployment disk radius (meters).
    pub area: f64,
    /// Deployment seed.
    pub seed: u64,
    /// Nodes the crash disk killed.
    pub killed: usize,
    /// The episode's spatial healing radius: max distance from the crash
    /// center at which episode-attributed traffic was sent (meters).
    pub radius_m: f64,
    /// Messages attributed to the episode (its healing cost).
    pub messages: u64,
    /// Nodes tainted by the episode's causal closure.
    pub tainted: u64,
    /// Healing latency in seconds (`None` when the settle window passed
    /// without a clean poll).
    pub heal_s: Option<f64>,
}

/// Runs one cell: deploy at constant density, converge, crash the fixed
/// disk, and reduce the episode.
#[must_use]
pub fn run_cell(nodes: usize, seed: u64) -> LocalityPoint {
    let area = area_for(nodes);
    let mut net = NetworkBuilder::new()
        .ideal_radius(R)
        .radius_tolerance(R_T)
        .area_radius(area)
        .expected_nodes(nodes)
        .seed(seed)
        .build()
        .expect("valid parameters");
    net.run_to_fixpoint();

    let plan = FaultPlan::new().at(
        SimDuration::from_secs(1),
        FaultKind::CrashDisk { center: CRASH_CENTER, radius: CRASH_RADIUS },
    );
    let rep = net.run_chaos(&plan);
    let outcome = &rep.outcomes[0];
    let ep = outcome
        .episode
        .and_then(|id| rep.episodes.iter().find(|e| e.id == id))
        .expect("a crash disk always opens an episode");
    LocalityPoint {
        nodes,
        area,
        seed,
        killed: outcome.killed,
        radius_m: ep.radius_m,
        messages: ep.messages,
        tainted: ep.tainted,
        heal_s: outcome.heal_latency.map(|l| l.as_secs_f64()),
    }
}

/// Runs an arbitrary (size × seed) grid over `threads` workers. Results
/// are in grid order regardless of the thread count.
#[must_use]
pub fn sweep_grid(sizes: &[usize], seeds: &[u64], threads: usize) -> Vec<LocalityPoint> {
    let mut cells: Vec<(usize, u64)> = Vec::new();
    for &n in sizes {
        for &seed in seeds {
            cells.push((n, seed));
        }
    }
    run_grid(&cells, threads, |&(n, seed)| run_cell(n, seed))
}

/// Runs the full [`SIZES`] × [`SEEDS`] grid over `threads` workers.
#[must_use]
pub fn sweep(threads: usize) -> Vec<LocalityPoint> {
    sweep_grid(&SIZES, &SEEDS, threads)
}
