//! # gs3-sim
//!
//! A from-scratch discrete-event simulator for dense multi-hop wireless
//! sensor networks — the experimental substrate of the GS³ reproduction.
//!
//! The paper evaluates GS³ over an abstract system model (Section 2): nodes
//! on a 2-D plane with adjustable transmission range, reliable
//! destination-aware transmission, possibly-lossy broadcast, dense
//! Poisson-distributed deployment, and perturbations (join / leave / death /
//! movement / state corruption). This crate realizes exactly that model:
//!
//! * [`engine::Engine`] — the event loop hosting protocol state machines
//!   (implementors of [`engine::Node`]) with deterministic, seeded replay.
//! * [`radio::RadioModel`] / [`radio::EnergyModel`] — channel latency, loss,
//!   range clamping, and first-order radio energy accounting (death on
//!   exhaustion drives the paper's *cell shift* dynamics).
//! * [`channel::ChannelManager`] — the area-based channel reservation that
//!   serializes neighboring `HEAD_ORG` rounds.
//! * [`faults`] — deterministic adversarial-channel fault injection:
//!   Gilbert–Elliott burst loss, unicast loss, duplication, extra delay
//!   and reordering, and geographic jamming disks, all seeded from the
//!   engine RNG for bit-reproducible chaos runs.
//! * [`deploy`] — Poisson deployments with `R_t`-gap injection and
//!   localization noise.
//! * [`telemetry`] (re-exported [`gs3_telemetry`]) — deterministic flight
//!   recorder, causal healing-episode tracking, log-bucketed histograms,
//!   and JSONL / Chrome-trace exporters, embedded in every [`engine::Engine`].
//! * [`fnv`] — FNV-1a in 64 and 128 bits, the one hasher behind every
//!   digest, fingerprint and signature.
//! * [`time`], [`queue`], [`spatial`], [`trace`], [`rng`] — supporting
//!   machinery.
//!
//! # Example
//!
//! ```rust
//! use gs3_geometry::Point;
//! use gs3_sim::engine::{Context, Engine, Node, Payload};
//! use gs3_sim::radio::{EnergyModel, RadioModel};
//! use gs3_sim::time::SimTime;
//! use gs3_sim::NodeId;
//!
//! #[derive(Debug, Clone)]
//! struct Ping;
//! impl Payload for Ping {}
//!
//! #[derive(Debug, Default)]
//! struct Echo { heard: bool }
//!
//! impl Node for Echo {
//!     type Msg = Ping;
//!     type Timer = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping, ()>) {
//!         if ctx.id() == NodeId::new(0) {
//!             ctx.broadcast(100.0, Ping);
//!         }
//!     }
//!     fn on_message(&mut self, _: NodeId, _: Ping, _: &mut Context<'_, Ping, ()>) {
//!         self.heard = true;
//!     }
//!     fn on_timer(&mut self, _: (), _: &mut Context<'_, Ping, ()>) {}
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut eng = Engine::new(RadioModel::ideal(200.0), EnergyModel::disabled(), 42);
//! eng.spawn(Echo::default(), Point::ORIGIN);
//! let other = eng.spawn(Echo::default(), Point::new(50.0, 0.0));
//! eng.run_until(SimTime::from_micros(1_000_000));
//! assert!(eng.node(other)?.heard);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod deploy;
pub mod engine;
pub mod faults;
pub mod fnv;
pub mod fxhash;
mod ids;
pub mod medium;
pub mod queue;
pub mod radio;
pub mod rng;
pub mod spatial;
pub mod time;
pub mod trace;

/// The telemetry layer ([`gs3_telemetry`]), re-exported so downstream
/// crates need no direct dependency.
pub use gs3_telemetry as telemetry;

pub use engine::{Context, Engine, EngineError, Node, Payload};
pub use faults::{AttemptRecord, BurstLoss, Fate, FaultConfig, FaultState, Jam};
pub use ids::NodeId;
pub use medium::ContentionConfig;
pub use time::{SimDuration, SimTime};
