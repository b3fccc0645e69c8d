//! # gs3-baselines
//!
//! The clustering comparators the GS³ paper positions itself against
//! (Section 6):
//!
//! * [`leach`] — LEACH-style randomized rotating cluster heads \[10\]:
//!   unbounded head placement and cluster radius, global re-clustering on
//!   every rotation round.
//! * [`hop`] — geography-unaware hop-based clustering in the spirit of
//!   Banerjee & Khuller \[3\]: bounded *logical* radius, unbounded
//!   geographic radius, geographic interleaving of clusters.
//! * [`cluster`] — shared clustering types and the quality metrics
//!   (radius bounds, head spacing, misassignment, load balance) used by
//!   the `artifact dataplane` suite's SEC6 section.
//! * [`sim`] — a round-driven workload/energy simulator that drives the
//!   baselines through the same convergecast traffic and energy model the
//!   GS³ data plane runs under, for the reports-per-joule and lifetime
//!   comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod hop;
pub mod leach;
pub mod sim;

pub use cluster::{quality, ClusterQuality, Clustering};
pub use sim::{run_baseline, Baseline, BaselineOutcome, BaselineSimConfig};
