//! Big-node specific behavior: `BIG_SLIDE` (GS³-D) and `BIG_MOVE` with the
//! proxy mechanism (GS³-M) — paper Sections 4.2 and 5.2.
//!
//! While the big node is away from head duty it overhears head heartbeats,
//! keeps the closest head designated as its *proxy* (the proxy advertises
//! hops 0, so the head graph stays a min-distance tree rooted at the big
//! node's location), and reclaims head duty the moment it stands within
//! `R_t` of some cell's current IL.

use std::sync::Arc;

use gs3_sim::NodeId;

use crate::config::{PROXY_REFRESH, PROXY_TTL};
use crate::messages::{CellInfo, Msg};
use crate::node::{Ctx, Gs3Node};
use crate::state::Role;
use crate::timers::Timer;

impl Gs3Node {
    /// Periodic away-state upkeep: prune stale head knowledge and maintain
    /// the proxy designation.
    pub(crate) fn on_big_check(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let pos = ctx.position();
        let mobile_mode = self.cfg.mode == crate::config::Mode::Mobile;

        let Role::BigAway(b) = &mut self.role else {
            return;
        };
        b.known_heads.retain(|_, (_, _, heard)| now.saturating_since(*heard) <= PROXY_TTL);

        // Self-stabilization backstop. Two ways the away big node must
        // re-anchor itself as root and re-run HEAD_ORG:
        //  * it hears no head at all (the structure died around it), or
        //  * in slide mode (it has not moved — its position IS the central
        //    cell's lattice anchor) no head claims an IL anywhere near it:
        //    the central cell dissolved (e.g. after a corruption demotion)
        //    and nobody else can re-found it, because the diffusing
        //    computation only grows outward.
        let central_claimed = b
            .known_heads
            .values()
            .any(|(_, il, _)| il.distance(pos) <= self.cfg.r);
        let must_reanchor = b.known_heads.is_empty() || (!b.mobile && !central_claimed);
        if must_reanchor && now.saturating_since(b.since) > PROXY_TTL * 2 {
            let me = ctx.id();
            let hs = self.become_head(ctx, pos, pos, gs3_geometry::spiral::IccIcp::ORIGIN, me, pos, pos, 0);
            let _ = hs;
            self.start_head_org(ctx);
            return;
        }
        let Role::BigAway(b) = &mut self.role else {
            return;
        };

        // Proxy = closest known head (fixpoint F₅). The paper introduces
        // the proxy for GS³-M, but an away big node in big_slide has the
        // same structural need — the head graph must stay rooted at the
        // gateway's location — so we maintain it in both away states.
        // Handovers (release + assign) go through the reliable layer when
        // enabled — losing one orphans the tree root until the next
        // change; periodic refreshes stay plain, the next one covers a
        // loss.
        let _ = mobile_mode;
        let mut handover: Vec<(NodeId, Msg)> = Vec::new();
        let mut refresh_to = None;
        {
            let closest = b
                .known_heads
                .iter()
                .min_by(|a, c| pos.distance(a.1 .0).total_cmp(&pos.distance(c.1 .0)))
                .map(|(id, _)| *id);
            if let Some(best) = closest {
                if b.proxy != Some(best) {
                    if let Some(old) = b.proxy {
                        handover.push((old, Msg::ProxyRelease));
                    }
                    b.proxy = Some(best);
                    // The initial assignment of this proxy.
                    handover.push((best, Msg::ProxyAssign));
                } else {
                    refresh_to = Some(best);
                }
            }
        }
        let _ = b;
        for (to, msg) in handover {
            self.send_ctrl(ctx, to, msg);
        }
        if let Some(best) = refresh_to {
            ctx.unicast(best, Msg::ProxyAssign);
        }
        ctx.set_timer(PROXY_REFRESH, Timer::BigCheck);
    }

    /// Called whenever the away big node hears a cell heartbeat: resume
    /// head duty when standing within `R_t` of that cell's current IL
    /// (`BIG_SLIDE` resumption / `BIG_MOVE` reclaim).
    pub(crate) fn big_maybe_resume(&mut self, head: NodeId, ci: Arc<CellInfo>, ctx: &mut Ctx<'_>) {
        debug_assert!(self.is_big);
        let pos = ctx.position();
        let Role::BigAway(b) = &self.role else {
            return;
        };
        if pos.distance(ci.il) > self.cfg.r_t {
            return;
        }
        let proxy = b.proxy;
        if let Some(proxy) = proxy {
            if proxy != head {
                self.send_ctrl(ctx, proxy, Msg::ProxyRelease);
            }
        }
        self.send_ctrl(ctx, head, Msg::ReplacingHead);
        let me = ctx.id();
        let (r_t, gr, coord) = (self.cfg.r_t, self.cfg.gr, self.cfg.coord_radius());
        let hs = self.become_head(ctx, ci.il, ci.oil, ci.icc_icp, me, ci.il, pos, 0);
        hs.organized_once = true;
        // Rebuild the member table from the inherited candidate knowledge;
        // the next intra heartbeat re-registers everyone.
        let info = hs.cell_info(me, pos, r_t, gr);
        ctx.broadcast(coord, Msg::NewHeadAnnounce(info));
    }

    /// `proxy_assign` received by a head: while the big node is away, the
    /// proxy *is* the root of the head graph — its distance to the big
    /// node is defined as 0 (Section 5.1) and the min-distance tree
    /// re-roots at it through the ordinary parent-selection rules.
    pub(crate) fn on_proxy_assign(&mut self, _from: NodeId, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        if let Role::Head(h) = &mut self.role {
            let was_proxy = h.is_proxy;
            h.is_proxy = true;
            h.proxy_refreshed = ctx.now();
            h.hops = 0;
            // "The distance from the proxy to H0 is set as 0": the proxy's
            // own position becomes the root anchor.
            h.root_pos = ctx.position();
            if !was_proxy && h.parent != me {
                ctx.unicast(h.parent, Msg::ChildRetire);
            }
            h.parent = me;
            h.parent_il = h.il;
            h.parent_last_heard = ctx.now();
        }
    }

    /// `proxy_release` received by a head: step down as root and re-hang
    /// under the best (min-hops) live neighbor.
    pub(crate) fn on_proxy_release(&mut self, _from: NodeId, ctx: &mut Ctx<'_>) {
        if let Role::Head(h) = &mut self.role {
            if h.is_proxy {
                h.is_proxy = false;
                self.rehang_after_proxy(ctx);
            }
        }
    }

    /// Picks a fresh parent after losing proxy/root status.
    pub(crate) fn rehang_after_proxy(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let Role::Head(h) = &mut self.role else {
            return;
        };
        let best = h
            .neighbors
            .iter()
            .filter(|(id, _)| **id != me && !h.children.contains_key(*id))
            .min_by_key(|(_, n)| n.hops)
            .map(|(id, n)| (*id, n.il, n.hops));
        let mut adopted = None;
        match best {
            Some((id, il, hops)) => {
                h.parent = id;
                h.parent_il = il;
                h.parent_last_heard = ctx.now();
                h.hops = hops.saturating_add(1);
                adopted = Some((id, h.il));
            }
            None => {
                // No usable neighbor yet; inflate hops so any future
                // advertisement wins, and let PARENT_SEEK machinery run.
                h.hops = u32::MAX / 2;
            }
        }
        let _ = h;
        if let Some((id, my_il)) = adopted {
            self.send_ctrl(ctx, id, Msg::NewChildHead { pos: ctx.position(), il: my_il });
        }
    }
}
