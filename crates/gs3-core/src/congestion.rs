//! Congestion-adaptive graceful degradation.
//!
//! Each node periodically samples its own MAC contention counter
//! ([`gs3_sim::Context::mac_events`] — carrier-sense deferrals,
//! backoff-exhausted drops, and frames corrupted at this node) and reacts
//! with purely *local* load shedding: periodic timers (heartbeats, sensor
//! reports) stretch multiplicatively, and optional periodic broadcasts
//! (sanity rounds, boundary re-probing) are suppressed while stretched.
//! Contention is spatially symmetric — a congested node's peers are
//! congested too and stretch alongside it — so detection timeouts scale by
//! the observer's own stretch and stay conservative.
//!
//! This defuses the broadcast-storm feedback loop: collisions kill
//! heartbeats → false failure detections trigger election and re-org
//! broadcasts → the extra broadcasts cause more collisions. Stretching
//! trades detection latency for offered load until the medium clears.
//!
//! Disabled ([`CongestionConfig::enabled`] false, the default) the layer
//! reads nothing, changes nothing, and counts nothing — runs are
//! bit-identical to a build without it.

use gs3_sim::SimDuration;

use crate::config::{CLEAR_THRESHOLD, MAX_STRETCH_EXP, RELAX_AFTER, STRETCH_THRESHOLD};
use crate::node::{Ctx, Gs3Node};

/// Per-node congestion-adaptation state. Lives outside [`crate::state::Role`]
/// so a head shift or re-join does not reset the observation baseline.
#[derive(Debug, Clone, Default)]
pub(crate) struct CongestionState {
    /// The node's cumulative MAC contention counter at the last
    /// observation.
    pub(crate) last_seen: u64,
    /// Current stretch exponent: periods are multiplied by `2^stretch_exp`.
    pub(crate) stretch_exp: u32,
    /// Consecutive quiet observations since the last contended one.
    pub(crate) quiet: u32,
}

impl Gs3Node {
    /// Samples the node's MAC contention counter and adjusts the stretch
    /// exponent: a delta since the last observation at or above the
    /// stretch threshold stretches one step immediately; relaxing one step
    /// takes [`RELAX_AFTER`] *consecutive* deltas below the clear threshold
    /// (a single quiet interval is usually just the lull the stretch
    /// itself bought). Call once per periodic-timer firing.
    pub(crate) fn cong_observe(&mut self, ctx: &mut Ctx<'_>) {
        if !self.cfg.congestion.enabled {
            return;
        }
        let total = ctx.mac_events();
        let delta = total - self.cong.last_seen;
        self.cong.last_seen = total;
        if delta >= STRETCH_THRESHOLD {
            self.cong.quiet = 0;
            if self.cong.stretch_exp < MAX_STRETCH_EXP {
                self.cong.stretch_exp += 1;
                ctx.count("congestion_stretch");
            }
        } else if delta < CLEAR_THRESHOLD {
            if self.cong.stretch_exp > 0 {
                self.cong.quiet += 1;
                if self.cong.quiet >= RELAX_AFTER {
                    self.cong.quiet = 0;
                    self.cong.stretch_exp -= 1;
                    ctx.count("congestion_relax");
                }
            }
        } else {
            // Moderate contention: hold the current stretch.
            self.cong.quiet = 0;
        }
    }

    /// `d` scaled by the current stretch factor `2^stretch_exp`. Identity
    /// while unstretched (in particular, always while adaptation is
    /// disabled — the exponent never leaves zero).
    pub(crate) fn cong_stretch(&self, d: SimDuration) -> SimDuration {
        d * (1u64 << self.cong.stretch_exp)
    }

    /// Whether an optional periodic broadcast should be skipped this round
    /// (counted per suppression). False whenever unstretched.
    pub(crate) fn cong_suppress(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.cfg.congestion.enabled && self.cong.stretch_exp > 0 {
            ctx.count("suppressed_broadcast");
            true
        } else {
            false
        }
    }
}
