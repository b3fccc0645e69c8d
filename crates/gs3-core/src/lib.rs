//! # gs3-core
//!
//! A full, from-scratch implementation of **GS³** — *Scalable
//! Self-configuration and Self-healing in Wireless Sensor Networks*
//! (Zhang & Arora; extended abstract at PODC 2002) — on top of the
//! [`gs3_sim`] discrete-event simulator.
//!
//! GS³ organizes a dense planar sensor network into a cellular hexagonal
//! structure: cells of geographic radius tightly bounded around an ideal
//! radius `R`, one head per cell sitting within `R_t` of the cell's *ideal
//! location*, and all heads forming a tree (the *head graph*) rooted at a
//! gateway *big node*. The structure self-configures by a one-way diffusing
//! computation and self-heals locally under node joins, leaves, deaths,
//! movements, and state corruption.
//!
//! ## Layout
//!
//! * [`config`] — protocol parameters ([`config::Gs3Config`],
//!   [`config::Mode`] selecting GS³-S / GS³-D / GS³-M).
//! * [`messages`] / [`timers`] / [`state`] — the wire protocol and node
//!   state.
//! * [`node`] — [`node::Gs3Node`], the state machine; the protocol modules
//!   (head organization, intra-/inter-cell maintenance, join, sanity
//!   checking, big-node mobility) are private `impl` blocks behind it.
//! * [`snapshot`] / [`invariants`] — observable network views and the
//!   paper's invariant/fixpoint predicates as executable checks.
//! * [`harness`] — deployment, fixpoint detection, and perturbation
//!   injection ([`harness::NetworkBuilder`] / [`harness::Network`]).
//! * [`chaos`] — declarative fault plans ([`chaos::FaultPlan`]) and the
//!   chaos harness ([`harness::Network::run_chaos`]) that certifies
//!   self-healing, reporting per-fault healing latency in a
//!   [`chaos::ChaosReport`].
//!
//! ## Example
//!
//! ```rust
//! use gs3_core::harness::{NetworkBuilder, RunOutcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = NetworkBuilder::new()
//!     .ideal_radius(100.0)
//!     .radius_tolerance(20.0)
//!     .area_radius(220.0)
//!     .expected_nodes(800)
//!     .seed(7)
//!     .build()?;
//! let outcome = net.run_to_fixpoint();
//! assert!(matches!(outcome, RunOutcome::Fixpoint { .. }));
//! let snap = net.snapshot();
//! assert!(snap.heads().count() >= 7, "central cell plus first band");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod big;
pub mod chaos;
pub mod config;
mod congestion;
pub mod fingerprint;
pub mod harness;
mod head_org;
mod inter;
mod intra;
pub mod invariants;
mod join;
pub mod messages;
pub mod node;
mod reliable;
mod sanity;
pub mod snapshot;
pub mod state;
pub mod timers;
mod workload;

pub use chaos::{ChaosOptions, ChaosReport, Corruption, FaultKind, FaultOutcome, FaultPlan};
pub use config::{CongestionConfig, Gs3Config, Mode, ReliabilityConfig};
pub use gs3_dataplane::DataplaneConfig;
pub use gs3_sim::telemetry::json;
pub use harness::{Network, NetworkBuilder, RunOutcome};
pub use node::Gs3Node;
pub use snapshot::{NodeView, RoleView, Snapshot};
