//! Protocol configuration.
//!
//! # Adversarial-channel (chaos) parameters
//!
//! The channel faults a network runs under are *not* part of [`Gs3Config`]
//! — they belong to the simulated radio, configured through
//! [`gs3_sim::faults::FaultConfig`] (via `NetworkBuilder::fault_config`
//! or a scheduled `FaultKind::SetChannel`). The burst-loss model is
//! Gilbert–Elliott: a two-state Markov chain advanced once per delivery
//! attempt, with
//!
//! * `p_enter` — probability of jumping from the lossless *good* state to
//!   the *bad* state before an attempt (default `0.0`; the `gs3 chaos` CLI
//!   uses `0.02`),
//! * `p_exit = 1 / mean_burst` — probability of leaving the bad state, so
//!   bursts last `mean_burst` attempts on average (CLI default `4`),
//! * `loss_good` / `loss_bad` — per-attempt loss in each state (`0`/`1`
//!   for the classic all-or-nothing channel built by
//!   [`gs3_sim::faults::BurstLoss::bursty`]).
//!
//! The stationary loss rate is `p_enter / (p_enter + p_exit)`. All fault
//! randomness comes from the engine's seeded RNG, and disabled knobs draw
//! nothing, so runs stay bit-reproducible and an inert channel is
//! byte-identical to a fault-free one.
//!
//! These interact with failure detection, which needs [`FAILURE_MISSES`]
//! consecutive heartbeats lost: a mean burst shorter than
//! `FAILURE_MISSES × intra_heartbeat` worth of attempts only *delays*
//! detection — the chaos experiments (`EXPERIMENTS.md § Chaos testing`)
//! measure healing latency growing by whole heartbeat periods, never
//! diverging.
//!
//! # Fixed protocol parameters
//!
//! The paper parameterises GS³ by `R`, `R_t` and the reference direction
//! and leaves the heartbeat frequency open; those are the fields of
//! [`Gs3Config`]. Every other timing, retry and threshold value is a
//! `pub const` of this module (tabulated in DESIGN.md § Fixed protocol
//! parameters) and becomes a field again when two callers need different
//! values.

use gs3_dataplane::DataplaneConfig;
use gs3_geometry::{angular_slack, coordination_radius, head_spacing, Angle};
use gs3_sim::SimDuration;

/// Which variant of GS³ a network runs.
///
/// The paper develops the algorithm in three layers; each mode enables the
/// corresponding module set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// GS³-S: the one-shot diffusing computation, no maintenance (Section 3).
    Static,
    /// GS³-D: adds node-join handling, intra-cell maintenance (head shift,
    /// cell shift, abandonment), inter-cell maintenance, and sanity checking
    /// (Section 4).
    #[default]
    Dynamic,
    /// GS³-M: additionally handles big-node mobility via the proxy mechanism
    /// (Section 5).
    Mobile,
}

/// How long a head listens for `org_reply`s in `HEAD_ORG`.
pub const COLLECT_WINDOW: SimDuration = SimDuration::from_millis(300);
/// Heartbeats missed before a peer is declared failed.
pub const FAILURE_MISSES: u64 = 3;
/// Stagger between successive candidates' self-promotion attempts during
/// head-shift elections.
pub const ELECTION_STAGGER: SimDuration = SimDuration::from_millis(250);
/// Period of the low-frequency `SANITY_CHECK`.
pub const SANITY_PERIOD: SimDuration = SimDuration::from_secs(30);
/// How long a sanity round waits for neighbor verdicts.
pub const SANITY_WINDOW: SimDuration = SimDuration::from_secs(1);
/// Period at which boundary heads re-run `HEAD_ORG` toward empty
/// directions.
pub const BOUNDARY_CHECK_PERIOD: SimDuration = SimDuration::from_secs(20);
/// Delay before a freshly booted node begins join probing (lets the
/// initial diffusing computation claim it first).
pub const JOIN_INITIAL_DELAY: SimDuration = SimDuration::from_secs(30);
/// Retry period for join probing.
pub const JOIN_RETRY: SimDuration = SimDuration::from_secs(10);
/// How long a join probe collects offers before deciding.
pub const JOIN_WINDOW: SimDuration = SimDuration::from_millis(500);
/// Attempts saturate at this factor when join probing backs off; the total
/// backoff (factor × retry period + jitter) is capped at
/// [`Gs3Config::max_join_backoff`].
pub const MAX_JOIN_BACKOFF_FACTOR: u64 = 6;
/// Proxy refresh period (GS³-M big node).
pub const PROXY_REFRESH: SimDuration = SimDuration::from_secs(2);
/// Proxy role expires after this long without refresh.
pub const PROXY_TTL: SimDuration = SimDuration::from_secs(7);

/// Retransmissions attempted before the give-up hook fires (so a reliable
/// message is sent at most `1 + MAX_RETRIES` times).
pub const MAX_RETRIES: u32 = 4;
/// Base retransmission timeout; attempt `n` waits `BASE_RTO × 2ⁿ + jitter`,
/// with jitter uniform in `[0, BASE_RTO/2)` drawn from the seeded engine
/// RNG.
pub const BASE_RTO: SimDuration = SimDuration::from_millis(500);
/// Per-sender dedup window: how many recently seen sequence numbers a
/// receiver remembers to make redelivery idempotent.
pub const DEDUP_WINDOW: usize = 16;
/// Smoothing factor numerator for the heartbeat inter-arrival EWMA
/// (`alpha = EWMA_ALPHA_NUM / 16`).
pub const EWMA_ALPHA_NUM: u64 = 2;
/// Deviation multiplier `k` in the adaptive threshold `2·mean + k·dev`.
pub const PHI_K: u64 = 4;
/// Consecutive failed parent-seek rounds before a head enters quarantine.
pub const QUARANTINE_SEEK_LIMIT: u32 = 3;

/// MAC contention events observed since the last check (one check per
/// periodic-timer firing) at or above which a node stretches one more
/// step.
pub const STRETCH_THRESHOLD: u64 = 4;
/// Delta strictly below which an observation counts as *quiet*; the gap
/// up to [`STRETCH_THRESHOLD`] is hysteresis.
pub const CLEAR_THRESHOLD: u64 = 1;
/// Consecutive quiet observations required before a stretched node relaxes
/// one step. A single quiet interval is usually just the lull the stretch
/// itself bought — relaxing on it re-ignites the storm and the exponent
/// flaps instead of settling.
pub const RELAX_AFTER: u32 = 3;
/// Cap on the stretch exponent: periods stretch at most
/// `2^MAX_STRETCH_EXP` ×.
pub const MAX_STRETCH_EXP: u32 = 3;

const _: () = {
    assert!(PROXY_TTL.as_micros() > PROXY_REFRESH.as_micros());
    assert!(DEDUP_WINDOW >= 2);
    assert!(EWMA_ALPHA_NUM <= 16);
    assert!(CLEAR_THRESHOLD <= STRETCH_THRESHOLD);
    assert!(MAX_STRETCH_EXP < 64);
};

/// Switch for the control-plane reliability layer.
///
/// Follows the repo's RNG-inertness convention: with `enabled == false`
/// (the default) the layer draws nothing from the engine RNG, sends no
/// extra messages, and sets no extra timers, so runs are bit-identical to
/// a build without the layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityConfig {
    /// Master switch for the layer's three mechanisms, which only ever run
    /// together:
    ///
    /// * acked retransmission — one-shot control messages (`head_set`
    ///   assignments, `new_child_head`, `child_retire`, `replacing_head`,
    ///   `proxy_assign`/`proxy_release`, `parent_seek`) ride in acked
    ///   retransmission envelopes;
    /// * adaptive failure detection — fixed `heartbeat × FAILURE_MISSES`
    ///   timeouts give way to a per-neighbor EWMA of heartbeat
    ///   inter-arrival (phi-accrual style `2·mean + k·dev`, the doubled
    ///   mean granting one interval of grace), clamped so detection is
    ///   never slower than the legacy timeout;
    /// * quarantine-mode graceful degradation — a head that exhausts
    ///   [`QUARANTINE_SEEK_LIMIT`] consecutive `PARENT_SEEK` rounds without
    ///   re-attaching keeps serving its cell instead of abandoning: its
    ///   aggregation queue keeps filling (bounded, oldest dropped first)
    ///   but stops draining, and replays upstream on re-attach.
    pub enabled: bool,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig::disabled()
    }
}

impl ReliabilityConfig {
    /// The inert layer: no envelopes, fixed timeouts, no quarantine.
    /// Byte-identical runs to a build without the layer.
    #[must_use]
    pub fn disabled() -> Self {
        ReliabilityConfig { enabled: false }
    }

    /// The full layer: acked retransmission, adaptive detection, and
    /// quarantine all on.
    #[must_use]
    pub fn on() -> Self {
        ReliabilityConfig { enabled: true }
    }
}

/// Switch for congestion-adaptive graceful degradation.
///
/// Each node watches its own MAC contention counter (carrier-sense
/// deferrals, backoff-exhausted drops, and corrupted frames observed
/// locally — [`gs3_sim::engine::Context::mac_events`]) and, when the
/// per-observation delta crosses [`STRETCH_THRESHOLD`], multiplicatively
/// stretches its periodic timers (heartbeats, reports) by `2^stretch_exp`
/// and suppresses optional periodic broadcasts (sanity rounds, boundary
/// probing). When the delta falls back below [`CLEAR_THRESHOLD`] the
/// stretch relaxes one step per [`RELAX_AFTER`] quiet observations. This
/// trades detection latency for offered load, defusing the
/// broadcast-storm feedback loop where collisions kill heartbeats, false
/// failure detections trigger election broadcasts, and the extra
/// broadcasts cause more collisions.
///
/// Follows the repo's RNG-inertness convention: with `enabled == false`
/// (the default) no counters are read, no state changes, every timer keeps
/// its configured period, and runs are bit-identical to a build without
/// the layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestionConfig {
    /// Master switch for congestion adaptation.
    pub enabled: bool,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig::disabled()
    }
}

impl CongestionConfig {
    /// The inert layer: no observation, no stretching. Byte-identical
    /// runs to a build without the layer.
    #[must_use]
    pub fn disabled() -> Self {
        CongestionConfig { enabled: false }
    }

    /// Adaptation on: periodic timers stretch under contention and
    /// optional broadcasts are suppressed while stretched.
    #[must_use]
    pub fn on() -> Self {
        CongestionConfig { enabled: true }
    }
}

/// Tunable parameters of the GS³ protocol.
///
/// `r` and `r_t` are the paper's `R` (ideal cell radius) and `R_t` (radius
/// tolerance). The heartbeat periods are fields because the paper leaves
/// them open ("the frequency of heartbeat exchanges can be tuned"); the
/// windows and retry periods derived around them are module constants.
#[derive(Debug, Clone, PartialEq)]
pub struct Gs3Config {
    /// Ideal cell radius `R`.
    pub r: f64,
    /// Radius tolerance `R_t` (the density guarantee scale); must satisfy
    /// `0 < r_t ≤ r`.
    pub r_t: f64,
    /// The global reference direction `GR`. The paper diffuses it alongside
    /// the computation; since it only needs to be network-consistent, the
    /// reproduction distributes it through configuration.
    pub gr: Angle,
    /// Protocol variant.
    pub mode: Mode,
    /// Period of intra-cell heartbeats (`head_intra_alive`).
    pub intra_heartbeat: SimDuration,
    /// Period of inter-cell heartbeats (`head_inter_alive`).
    pub inter_heartbeat: SimDuration,
    /// Head retreats (head shift) when its energy falls below this and a
    /// candidate is available.
    pub head_retreat_energy: f64,
    /// Period of the sensing workload: associates report to their head,
    /// heads fold each period's reports into one batch and relay batches
    /// up the head graph under [`Gs3Config::dataplane`]'s credit window
    /// (the paper's data-aggregation traffic model, §4.1). Zero means no
    /// traffic.
    pub report_period: SimDuration,
    /// ABLATION KNOB (default true = paper-faithful): anchor `HEAD_SELECT`
    /// at the cell's *ideal location* rather than the head's actual
    /// position. The paper's key trick for stopping placement error from
    /// accumulating across bands; turning it off demonstrates the
    /// accumulation (the ABLATION section of `gs3-bench`'s `paper`).
    pub anchor_ils: bool,
    /// ABLATION KNOB (default true = paper-faithful): serialize
    /// neighboring `HEAD_ORG` rounds through the channel-reservation
    /// arbiter. Turning it off lets concurrent rounds double-select cells.
    pub channel_reservation: bool,
    /// Control-plane reliability layer (default: disabled / RNG-inert).
    pub reliability: ReliabilityConfig,
    /// Congestion-adaptive graceful degradation (default: disabled /
    /// RNG-inert).
    pub congestion: CongestionConfig,
    /// Tuning of the convergecast data plane the workload runs on; read
    /// only when [`Gs3Config::report_period`] is non-zero.
    pub dataplane: DataplaneConfig,
}

/// Configuration validation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `r` must be positive and finite.
    BadRadius(f64),
    /// `r_t` must satisfy `0 < r_t ≤ r`.
    BadTolerance {
        /// Offending tolerance.
        r_t: f64,
        /// The cell radius it was checked against.
        r: f64,
    },
    /// A heartbeat period (the named field) must be non-zero.
    ZeroHeartbeat(&'static str),
    /// A scenario value (the named `NetworkBuilder` field) is out of
    /// range: the deployment disk radius must be positive and finite, the
    /// density λ non-negative and finite.
    BadScenario {
        /// The builder field.
        field: &'static str,
        /// Its offending value.
        value: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadRadius(r) => write!(f, "ideal cell radius {r} must be positive"),
            ConfigError::BadTolerance { r_t, r } => {
                write!(f, "radius tolerance {r_t} must be in (0, {r}]")
            }
            ConfigError::ZeroHeartbeat(field) => write!(f, "{field} must be a non-zero period"),
            ConfigError::BadScenario { field, value } => write!(f, "scenario {field} {value} is out of range"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Gs3Config {
    /// A configuration with paper-faithful geometry and default heartbeat
    /// periods.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `r` or `r_t` is out of range.
    pub fn new(r: f64, r_t: f64) -> Result<Self, ConfigError> {
        let cfg = Gs3Config::unchecked(r, r_t);
        cfg.validate()?;
        Ok(cfg)
    }

    /// [`Gs3Config::new`] without the check, for a default that is valid
    /// by construction; whoever uses the result must still
    /// [`validate`](Gs3Config::validate) it.
    pub(crate) fn unchecked(r: f64, r_t: f64) -> Self {
        Gs3Config {
            r,
            r_t,
            gr: Angle::ZERO,
            mode: Mode::Dynamic,
            intra_heartbeat: SimDuration::from_secs(2),
            inter_heartbeat: SimDuration::from_secs(3),
            head_retreat_energy: 0.0,
            report_period: SimDuration::ZERO,
            anchor_ils: true,
            channel_reservation: true,
            reliability: ReliabilityConfig::disabled(),
            congestion: CongestionConfig::disabled(),
            dataplane: DataplaneConfig::on(),
        }
    }

    /// Checks the fields a network cannot run with: `r` positive and
    /// finite, `0 < r_t ≤ r`, and both heartbeat periods non-zero.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let (r, r_t) = (self.r, self.r_t);
        if !(r.is_finite() && r > 0.0) {
            return Err(ConfigError::BadRadius(r));
        }
        if !(r_t.is_finite() && r_t > 0.0 && r_t <= r) {
            return Err(ConfigError::BadTolerance { r_t, r });
        }
        for (field, period) in [("intra_heartbeat", self.intra_heartbeat), ("inter_heartbeat", self.inter_heartbeat)] {
            if period == SimDuration::ZERO {
                return Err(ConfigError::ZeroHeartbeat(field));
            }
        }
        Ok(())
    }

    /// The local-coordination radius `√3·R + 2·R_t` — the broadcast range
    /// of `HEAD_ORG`, `head_inter_alive`, and join probes.
    #[must_use]
    pub fn coord_radius(&self) -> f64 {
        coordination_radius(self.r, self.r_t)
    }

    /// The head-lattice spacing `√3·R`.
    #[must_use]
    pub fn spacing(&self) -> f64 {
        head_spacing(self.r)
    }

    /// Abandon the cell when the current IL's distance to every neighboring
    /// cell's IL exceeds this (paper: deviation beyond `2·√3·R`).
    #[must_use]
    pub fn abandon_il_distance(&self) -> f64 {
        2.0 * self.spacing()
    }

    /// The angular slack `α = asin(R_t/(√3·R))`.
    #[must_use]
    pub fn alpha(&self) -> Angle {
        angular_slack(self.r, self.r_t)
    }

    /// Broadcast range for intra-cell traffic: covers the worst-case cell
    /// radius `R + 2·R_t/√3` plus slack for heads displaced up to `R_t`
    /// from the IL.
    #[must_use]
    pub fn cell_radius_bound(&self) -> f64 {
        self.r + 2.0 * self.r_t / gs3_geometry::SQRT_3 + self.r_t
    }

    /// The intra-cell failure-detection timeout.
    #[must_use]
    pub fn intra_timeout(&self) -> SimDuration {
        self.intra_heartbeat * FAILURE_MISSES
    }

    /// The inter-cell failure-detection timeout.
    #[must_use]
    pub fn inter_timeout(&self) -> SimDuration {
        self.inter_heartbeat * FAILURE_MISSES
    }

    /// The hard cap on join-probe backoff: the saturated factor times the
    /// retry period, plus one full retry of jitter headroom.
    #[must_use]
    pub fn max_join_backoff(&self) -> SimDuration {
        JOIN_RETRY * (MAX_JOIN_BACKOFF_FACTOR + 1)
    }

    /// Two intra-cell plus two inter-cell failure-detection timeouts: how
    /// long the structure must stay unchanged before a run counts as
    /// settled — any shorter and a perturbation still inside its silent
    /// detection phase would read as stable.
    #[must_use]
    pub fn detection_window(&self) -> SimDuration {
        self.intra_timeout() * 2 + self.inter_timeout() * 2
    }

    /// Sets the protocol variant.
    #[must_use]
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_valid() {
        let c = Gs3Config::new(100.0, 10.0).unwrap();
        assert_eq!(c.mode, Mode::Dynamic);
        assert!((c.coord_radius() - (100.0 * gs3_geometry::SQRT_3 + 20.0)).abs() < 1e-9);
        assert!(c.cell_radius_bound() > c.r);
        assert!(c.intra_timeout() > c.intra_heartbeat);
    }

    #[test]
    fn rejects_bad_radius() {
        assert!(matches!(Gs3Config::new(0.0, 1.0), Err(ConfigError::BadRadius(_))));
        assert!(matches!(Gs3Config::new(f64::NAN, 1.0), Err(ConfigError::BadRadius(_))));
    }

    #[test]
    fn rejects_bad_tolerance() {
        assert!(matches!(Gs3Config::new(10.0, 0.0), Err(ConfigError::BadTolerance { .. })));
        assert!(matches!(Gs3Config::new(10.0, 20.0), Err(ConfigError::BadTolerance { .. })));
    }

    #[test]
    fn builder_setters() {
        let c = Gs3Config::new(50.0, 5.0).unwrap().with_mode(Mode::Mobile);
        assert_eq!(c.mode, Mode::Mobile);
    }

    #[test]
    fn derived_values_equal_the_expressions_they_replaced() {
        for (r, r_t) in [(100.0, 10.0), (40.0, 14.0), (7.5, 7.5)] {
            let c = Gs3Config::new(r, r_t).unwrap();
            assert_eq!(c.abandon_il_distance(), 2.0 * head_spacing(r));
            assert_eq!(c.detection_window(), (c.intra_timeout() * 2) + (c.inter_timeout() * 2));
            assert_eq!(c.detection_window(), SimDuration::from_secs(30));
            assert_eq!(c.max_join_backoff(), SimDuration::from_secs(10) * 7);
        }
    }

    #[test]
    fn error_display() {
        let e = Gs3Config::new(10.0, 20.0).unwrap_err();
        assert!(format!("{e}").contains("tolerance"));
    }
}
