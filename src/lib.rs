//! # GS³ — scalable self-configuration and self-healing in wireless sensor networks
//!
//! Facade crate for the GS³ reproduction workspace. Re-exports every
//! workspace crate under one roof so the examples and integration tests can
//! use a single dependency.
//!
//! See the individual crates for the real API surface:
//!
//! * [`geometry`] — 2-D geometry and cellular-hexagon lattice math
//! * [`sim`] — the discrete-event wireless-network simulator
//! * [`core`] — the GS³ protocol (GS³-S / GS³-D / GS³-M) and its harness
//! * [`baselines`] — LEACH-style and hop-based clustering comparators
//! * [`analysis`] — analytics, metrics, and experiment drivers
//! * [`mc`] — bounded model checking of the protocol core on small fields
//!
//! # Example
//!
//! ```rust
//! use gs3::core::harness::{NetworkBuilder, RunOutcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = NetworkBuilder::new()
//!     .ideal_radius(100.0)
//!     .radius_tolerance(20.0)
//!     .area_radius(220.0)
//!     .expected_nodes(500)
//!     .seed(7)
//!     .build()?;
//! let outcome = net.run_to_fixpoint();
//! assert!(matches!(outcome, RunOutcome::Fixpoint { .. }));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

// The README's library example compiles and runs as a doctest.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use gs3_analysis as analysis;
pub use gs3_baselines as baselines;
pub use gs3_core as core;
pub use gs3_geometry as geometry;
pub use gs3_mc as mc;
pub use gs3_sim as sim;
