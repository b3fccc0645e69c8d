//! # gs3-bench
//!
//! The experiment harness regenerating every data-bearing table and figure
//! of the GS³ paper, plus the derived-claim experiments indexed in
//! `DESIGN.md §4`. Two binaries:
//!
//! | binary | artifact |
//! |---|---|
//! | `artifact paper` | the paper's own tables, one [`paper`] section each: FIG7, FIG8, TBL-A1, THM11, COR1-2, SLIDE, ABLATION, LOCALITY — `BENCH_paper.json` |
//! | `artifact chaos` | robustness, [`chaos`]: CHAOS (healing vs burst loss × churn) and CONGESTION — `BENCH_chaos.json` |
//! | `artifact dataplane` | Section 6, [`dataplane`]: SEC6 (GS³ vs LEACH vs hop clustering) and DATA (reports per joule, Ω(n_c)) — `BENCH_dataplane.json` |
//! | `scale_probe` | scale headroom — 10⁶ nodes configure, lose a disk and heal: `BENCH_core.json` |
//!
//! Every suite in [`SUITES`] is a list of [`section::Section`]s, printed as
//! text or written as its JSON document by [`section::to_json`]. Its
//! (seed × parameter) grids fan out over `-j N` OS threads via
//! [`runner::run_grid`] with cell-order results, so the documents are
//! byte-identical at any thread count.
//!
//! Host time is not measured here. Events per second, set-up time, RSS
//! and every isolated per-layer cost come from the repository benchmark
//! (`BENCHMARK.json`, `benchmark/`); `scale_probe` is the one run too
//! large for it, and `benches/micro.rs` (hand-rolled, no external
//! harness) keeps the six rows that have no driver there yet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod dataplane;
pub mod locality;
pub mod paper;
pub mod runner;
pub mod section;

use gs3_core::harness::NetworkBuilder;

use section::Section;

/// A committed suite: its name and the function that runs its sections
/// over a number of worker threads. `BENCH_<name>.json` is its document.
pub type Suite = (&'static str, fn(usize) -> Vec<Section>);

/// Every committed suite.
pub const SUITES: [Suite; 3] =
    [("paper", paper::sections), ("chaos", chaos::sections), ("dataplane", dataplane::sections)];

/// Seeds used when an experiment averages over deployments.
pub const SEEDS: [u64; 5] = [11, 23, 37, 51, 73];

/// The standard mid-size scenario used by several experiments: `R = 80`,
/// `R_t = 18`, two full bands of cells, ≈1400 nodes.
#[must_use]
pub fn standard_builder(seed: u64) -> NetworkBuilder {
    NetworkBuilder::new()
        .ideal_radius(80.0)
        .radius_tolerance(18.0)
        .area_radius(320.0)
        .expected_nodes(1400)
        .seed(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_builder_is_valid() {
        let net = standard_builder(1).build().unwrap();
        assert!(net.engine().node_count() > 1000);
    }
}
