//! # gs3-dataplane
//!
//! The convergecast data plane carried by the GS³ head tree: the
//! machinery that turns "each associate reports periodically" into real
//! traffic with loss, queueing, and flow control — the workload the
//! paper's §4.1/§4.3.5.1 lifetime claims assume but never simulate.
//!
//! Three pieces, all engine-agnostic (pure data structures driven by the
//! protocol in `gs3-core`):
//!
//! * [`queue::AggQueue`] — a per-head bounded aggregation queue of
//!   sequence-numbered report batches. Overflow drops the *oldest* batch
//!   (fresh data beats stale data in convergecast), with exact accounting
//!   of dropped batches and the reports inside them. Doubles as the
//!   quarantine buffer: a quarantined head keeps enqueuing and simply
//!   stops draining, so re-attachment replays the backlog through the
//!   ordinary credit-gated path with no separate replay machinery.
//! * [`queue::CreditGate`] — credit-based backpressure from parent toward
//!   leaves. A head may forward one batch upstream per credit; credits
//!   return when the parent dequeues the batch (or the sink consumes it).
//!   A stall-recovery escape hatch restores one credit after a configured
//!   number of consecutive starved ticks, so credit loss under faults
//!   (dead parent, dropped grant) degrades to slow-drip instead of
//!   deadlock.
//! * [`ledger::SinkLedger`] — the big node's delivery ledger:
//!   batches/reports consumed, end-to-end latency histogram
//!   ([`gs3_telemetry::metrics::LogHistogram`]), and per-source
//!   provenance checks.
//!
//! Everything here is allocation-light and deterministic: no clocks, no
//! randomness, no hashing — state advances only when the protocol calls
//! in, so a run with no traffic is byte-identical to a build without the
//! crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ledger;
pub mod queue;

pub use config::DataplaneConfig;
pub use ledger::SinkLedger;
pub use queue::{AggQueue, BatchEntry, CreditGate, Enqueue};
