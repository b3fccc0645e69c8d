//! Node join (`SMALL_NODE_BOOT_UP`, `HEAD_JOIN_RESP`,
//! `ASSOCIATE_JOIN_RESP`) — paper Section 4.2.
//!
//! A booting node probes its coordination neighborhood; heads offer
//! membership directly, associates offer themselves as *surrogate* heads
//! when no real head is in range. The prober joins the best (closest) head,
//! falls back to the best associate, and otherwise retries with backoff.

use std::sync::Arc;

use gs3_geometry::spiral::IccIcp;
use gs3_geometry::Point;
use gs3_sim::{NodeId, SimDuration};

use crate::config::{JOIN_RETRY, JOIN_WINDOW, MAX_JOIN_BACKOFF_FACTOR};
use crate::messages::{CellInfo, Msg};
use crate::node::{Ctx, Gs3Node};
use crate::state::Role;
use crate::timers::Timer;

impl Gs3Node {
    /// The periodic join probe while in bootup (or surrogate) state.
    pub(crate) fn on_join_probe(&mut self, ctx: &mut Ctx<'_>) {
        let coord = self.cfg.coord_radius();
        // Uncovered nodes are the densest broadcast source in a young or
        // damaged network; their probe cadence must shed load under
        // contention or the join storm starves the very HEAD_ORG rounds
        // that would absorb them.
        self.cong_observe(ctx);
        match &mut self.role {
            Role::Bootup(b) => {
                if b.awaiting_decision.is_some() {
                    // An organizing head may claim us — don't probe over it.
                    ctx.set_timer(JOIN_RETRY, Timer::JoinProbe);
                    return;
                }
                b.attempts += 1;
                b.probe_round += 1;
                b.collecting = true;
                b.head_offers.clear();
                b.assoc_offers.clear();
                let round = b.probe_round;
                let backoff_factor = u64::from(b.attempts).min(MAX_JOIN_BACKOFF_FACTOR);
                ctx.event("join_probe", round);
                ctx.broadcast(coord, Msg::BootupProbe { pos: ctx.position() });
                ctx.set_timer(JOIN_WINDOW, Timer::JoinDecision { round });
                // Jitter must scale WITH the backoff: a fixed ±retry/2
                // spread shrinks relative to the growing base delay, so
                // nodes that collided once re-probe in near-lockstep at
                // every subsequent attempt (phase-lock). Spread each
                // attempt over half its own base, capped at the named
                // config bound.
                use rand::Rng as _;
                let jitter_max = (JOIN_RETRY.as_micros() * backoff_factor / 2).max(1);
                let jitter = SimDuration::from_micros(ctx.rng().gen_range(0..jitter_max));
                let delay = (JOIN_RETRY * backoff_factor + jitter).min(self.cfg.max_join_backoff());
                ctx.set_timer(self.cong_stretch(delay), Timer::JoinProbe);
            }
            Role::Associate(a) if a.surrogate => {
                // A surrogate keeps looking for a real head.
                ctx.broadcast(coord, Msg::BootupProbe { pos: ctx.position() });
                let delay = self.cong_stretch(JOIN_RETRY);
                ctx.set_timer(delay, Timer::JoinProbe);
            }
            _ => {}
        }
    }

    /// `bootup_probe` received: offer membership per role.
    pub(crate) fn on_bootup_probe(&mut self, from: NodeId, pos: Point, ctx: &mut Ctx<'_>) {
        let _ = pos;
        match &self.role {
            Role::Head(h) => {
                ctx.unicast(
                    from,
                    Msg::HeadJoinResp { pos: ctx.position(), il: h.il, hops: h.hops },
                );
            }
            Role::Associate(a) if !a.surrogate => {
                ctx.unicast(from, Msg::AssociateJoinResp { pos: ctx.position(), head: a.head });
            }
            _ => {}
        }
    }

    /// `head_join_resp` received by a probing node.
    pub(crate) fn on_head_join_resp(
        &mut self,
        from: NodeId,
        pos: Point,
        il: Point,
        hops: u32,
        ctx: &mut Ctx<'_>,
    ) {
        let my_pos = ctx.position();
        match &mut self.role {
            Role::Bootup(b)
                if b.collecting && !b.head_offers.iter().any(|(id, ..)| *id == from) => {
                    b.head_offers.push((from, pos, hops));
                }
            Role::Associate(a) if a.surrogate => {
                // A real head appeared: leave the surrogate relationship.
                let cell = Arc::new(CellInfo {
                    head: from,
                    head_pos: pos,
                    il,
                    oil: il,
                    icc_icp: IccIcp::ORIGIN,
                    hops,
                    parent: from,
                    parent_il: il,
                    candidates: Vec::new(),
                    root_pos: il,
                });
                let _ = my_pos;
                self.become_associate(ctx, from, pos, cell, false, true);
            }
            _ => {}
        }
    }

    /// `associate_join_resp` received by a probing node.
    pub(crate) fn on_associate_join_resp(
        &mut self,
        from: NodeId,
        pos: Point,
        head: NodeId,
        _ctx: &mut Ctx<'_>,
    ) {
        if let Role::Bootup(b) = &mut self.role {
            if b.collecting && !b.assoc_offers.iter().any(|(id, _)| *id == from) {
                b.assoc_offers.push((from, pos));
                let _ = head;
            }
        }
    }

    /// The join offer window closed: pick the best offer.
    pub(crate) fn on_join_decision(&mut self, round: u64, ctx: &mut Ctx<'_>) {
        let my_pos = ctx.position();
        let Role::Bootup(b) = &mut self.role else {
            return;
        };
        if b.probe_round != round || !b.collecting {
            return;
        }
        b.collecting = false;

        // Best head = closest (the paper's default "best" criterion).
        let best_head = b
            .head_offers
            .iter()
            .min_by(|a, bo| my_pos.distance(a.1).total_cmp(&my_pos.distance(bo.1)))
            .copied();
        if let Some((head, pos, hops)) = best_head {
            let cell = Arc::new(CellInfo {
                head,
                head_pos: pos,
                il: pos,
                oil: pos,
                icc_icp: IccIcp::ORIGIN,
                hops,
                parent: head,
                parent_il: pos,
                candidates: Vec::new(),
                root_pos: pos,
            });
            ctx.event("joined_head", head.raw());
            self.become_associate(ctx, head, pos, cell, false, true);
            return;
        }

        // Fall back to the closest associate as surrogate head.
        let best_assoc = b
            .assoc_offers
            .iter()
            .min_by(|a, bo| my_pos.distance(a.1).total_cmp(&my_pos.distance(bo.1)))
            .copied();
        if let Some((assoc, pos)) = best_assoc {
            let cell = Arc::new(CellInfo {
                head: assoc,
                head_pos: pos,
                il: pos,
                oil: pos,
                icc_icp: IccIcp::ORIGIN,
                hops: u32::MAX / 2,
                parent: assoc,
                parent_il: pos,
                candidates: Vec::new(),
                root_pos: pos,
            });
            ctx.event("joined_surrogate", assoc.raw());
            self.become_associate(ctx, assoc, pos, cell, true, false);
            // Surrogates keep probing; ensure a probe is queued.
            ctx.set_timer(JOIN_RETRY + SimDuration::from_millis(1), Timer::JoinProbe);
        }
        // Neither: the standing JoinProbe timer retries with backoff.
    }
}
