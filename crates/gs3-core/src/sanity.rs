//! Sanity checking (`SANITY_CHECK`) — paper Section 4.2.
//!
//! Every head periodically (low frequency) verifies the hexagonal relation
//! of the invariant against its own state: it must sit within `R_t` of its
//! IL, and its distance to each fresh neighbor must match the distance
//! between the two cells' ILs within `±2·R_t` (the I₂ bound, which also
//! covers neighbors at different `⟨ICC, ICP⟩`). On violation it polls its
//! neighbors; if *all* of them report valid state, this head concludes its
//! own state is corrupted and demotes itself (`head_retreat_corrupted`).

use gs3_sim::NodeId;

use crate::config::{SANITY_PERIOD, SANITY_WINDOW};
use crate::messages::Msg;
use crate::node::{Ctx, Gs3Node};
use crate::state::{Role, SanityRound};
use crate::timers::Timer;

impl Gs3Node {
    /// Counts this head's fresh neighbors and how many of them satisfy the
    /// pairwise I₂ bound `|dist(i,j) − dist(IL_i, IL_j)| ≤ 2·R_t`.
    fn neighbor_relation_counts(&self, ctx: &Ctx<'_>) -> (usize, usize) {
        let Role::Head(h) = &self.role else {
            return (0, 0);
        };
        let pos = ctx.position();
        let r_t = self.cfg.r_t;
        let fresh_cutoff = self.cfg.inter_timeout();
        let mut fresh = 0;
        let mut consistent = 0;
        for n in h.neighbors.values() {
            if ctx.now().saturating_since(n.last_heard) > fresh_cutoff {
                continue;
            }
            fresh += 1;
            let actual = pos.distance(n.pos);
            let ideal = h.il.distance(n.il);
            if (actual - ideal).abs() <= 2.0 * r_t + 1e-9 {
                consistent += 1;
            }
        }
        (fresh, consistent)
    }

    /// Whether this head's local state fully satisfies the hexagonal
    /// relation (the *trigger* condition: any inconsistency starts a
    /// sanity round).
    fn hexagonal_relation_holds(&self, ctx: &Ctx<'_>) -> bool {
        let Role::Head(h) = &self.role else {
            return true;
        };
        if ctx.position().distance(h.il) > self.cfg.r_t + 1e-9 {
            return false;
        }
        let (fresh, consistent) = self.neighbor_relation_counts(ctx);
        consistent == fresh
    }

    /// Whether this head should *answer* a neighbor's `sanity_check_req`
    /// with "valid". A single corrupted neighbor breaks the pairwise
    /// relation on both sides; answering by majority keeps sound heads
    /// responsive (otherwise the victim and its neighbors silently suspect
    /// each other forever and nobody can ever decide).
    fn answers_valid(&self, ctx: &Ctx<'_>) -> bool {
        let Role::Head(h) = &self.role else {
            return false;
        };
        if ctx.position().distance(h.il) > self.cfg.r_t + 1e-9 {
            return false;
        }
        let (fresh, consistent) = self.neighbor_relation_counts(ctx);
        fresh == 0 || 2 * consistent >= fresh
    }

    /// The periodic sanity tick.
    pub(crate) fn on_sanity_tick(&mut self, ctx: &mut Ctx<'_>) {
        let coord = self.cfg.coord_radius();
        if !matches!(self.role, Role::Head(_)) {
            return;
        }
        let ok = self.hexagonal_relation_holds(ctx);
        // Under congestion the round's broadcast is shed; the next
        // unstretched tick re-checks.
        let suppressed = !ok && self.cong_suppress(ctx);
        let Role::Head(h) = &mut self.role else {
            return;
        };
        if !ok && !suppressed && h.sanity.is_none() && !h.neighbors.is_empty() {
            h.sanity_rounds += 1;
            let round = h.sanity_rounds;
            let asked: Vec<NodeId> = h.neighbors.keys().copied().collect();
            h.sanity = Some(SanityRound { round, asked, valid: Vec::new() });
            ctx.event("sanity_round_opened", round);
            ctx.broadcast(coord, Msg::SanityCheckReq);
            ctx.set_timer(SANITY_WINDOW, Timer::SanityDeadline { round });
        }
        let jitter = self.phase_jitter(ctx, SANITY_PERIOD);
        ctx.set_timer(SANITY_PERIOD + jitter, Timer::SanityTick);
    }

    /// `sanity_check_req` received: self-check and answer only when our own
    /// state is consistent (an inconsistent neighbor stays silent, which
    /// prevents two corrupted heads from validating each other).
    pub(crate) fn on_sanity_check_req(&mut self, from: NodeId, ctx: &mut Ctx<'_>) {
        if !matches!(self.role, Role::Head(_)) {
            return;
        }
        if self.answers_valid(ctx) {
            ctx.unicast(from, Msg::SanityCheckValid);
        }
    }

    /// `sanity_check_valid` received.
    pub(crate) fn on_sanity_check_valid(&mut self, from: NodeId, _ctx: &mut Ctx<'_>) {
        if let Role::Head(h) = &mut self.role {
            if let Some(round) = &mut h.sanity {
                if round.asked.contains(&from) && !round.valid.contains(&from) {
                    round.valid.push(from);
                }
            }
        }
    }

    /// The verdict window closed.
    pub(crate) fn on_sanity_deadline(&mut self, round: u64, ctx: &mut Ctx<'_>) {
        // The retreat must reach the whole cell *and* the neighboring
        // heads (so they drop the victim and re-organize its direction).
        let cell_range = self.cfg.coord_radius();
        let Role::Head(h) = &mut self.role else {
            return;
        };
        let Some(sr) = &h.sanity else {
            return;
        };
        if sr.round != round {
            return;
        }
        // The paper demotes when *all* neighbors report valid, which is
        // sound for its isolated-corruption model but deadlocks when two
        // adjacent heads are corrupted (each stays silent and blocks the
        // other's round forever). A strict-majority verdict generalizes:
        // isolated corruption behaves identically (6/6 valid), and dense
        // corruption heals progressively from its boundary inward.
        let verdict = !sr.asked.is_empty() && 2 * sr.valid.len() > sr.asked.len();
        h.sanity = None;
        if verdict {
            // Every neighbor is consistent and we are not: our state is the
            // corrupted one. Demote; the cell's candidates will elect a
            // sound successor, and re-joining re-learns correct state.
            ctx.event("sanity_demotion", round);
            ctx.broadcast(cell_range, Msg::HeadRetreatCorrupted);
            self.flush_pending_reports(ctx);
            if self.is_big {
                self.become_big_away(ctx, self.cfg.mode == crate::config::Mode::Mobile);
            } else {
                self.become_bootup(ctx, true);
            }
        }
        // Otherwise: at least one neighbor is also suspect — "h cannot
        // decide whether it is valid at this moment, and will check this
        // next time" (the next sanity tick).
    }

    /// `head_retreat_corrupted` received.
    ///
    /// Per CANDIDATE_INTRA_CELL (Appendix 2), cell members transit to
    /// bootup: the cell's replicated state (notably its IL) may itself be
    /// corrupted, so the cell is rebuilt from scratch by the neighboring
    /// heads' periodic `HEAD_ORG`, which re-derives the correct lattice IL
    /// from their own (sound) geometry.
    pub(crate) fn on_head_retreat_corrupted(&mut self, from: NodeId, ctx: &mut Ctx<'_>) {
        match &mut self.role {
            Role::Associate(a) if a.head == from => {
                self.become_bootup(ctx, true);
            }
            Role::Head(h) => {
                h.neighbors.remove(&from);
                h.children.remove(&from);
                if h.parent == from {
                    h.parent_last_heard = ctx.now();
                }
                // Re-organize toward the freed direction promptly.
                self.schedule_reorg(ctx);
            }
            _ => {}
        }
    }
}
