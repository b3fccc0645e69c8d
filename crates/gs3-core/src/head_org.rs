//! Head organization: `HEAD_ORG`, `HEAD_SELECT`, `HEAD_ORG_RESP`, and
//! `ASSOCIATE_ORG_RESP` (paper Section 3.2, Figure 3, Appendix 2).
//!
//! A head `i` reserves the channel over its coordination disk, solicits the
//! state of everything within `√3·R + 2·R_t` of itself with an `org`
//! broadcast, collects replies for a window, runs `HEAD_SELECT` over them,
//! and closes the round with a `⟨HeadSet⟩` broadcast naming the selected
//! neighbor heads. Selection anchors at the *ideal locations* computed from
//! `IL(P(i)) → IL(i)` — never at actual node positions — so placement error
//! does not accumulate across bands (the paper's key trick).

use std::sync::Arc;

use gs3_geometry::hex::{big_node_ideal_locations, child_ideal_locations};
use gs3_geometry::rank::RankKey;
use gs3_geometry::spiral::IccIcp;
use gs3_geometry::Point;
use gs3_sim::{NodeId, SimDuration};

use crate::config::{Mode, COLLECT_WINDOW};
use crate::messages::{CellInfo, HeadAssignment, Msg, OrgInfo};
use crate::node::{Ctx, Gs3Node};
use crate::state::{NeighborInfo, OrgRound, Role};
use crate::timers::Timer;

impl Gs3Node {
    /// Opens a `HEAD_ORG` round: reserve the channel; the grant callback
    /// does the soliciting. No-op when a round is already active.
    pub(crate) fn start_head_org(&mut self, ctx: &mut Ctx<'_>) {
        let coord = self.cfg.coord_radius();
        let Role::Head(h) = &mut self.role else {
            return;
        };
        if h.org.is_some() {
            return;
        }
        h.org_rounds += 1;
        h.org = Some(OrgRound { round: h.org_rounds, ..OrgRound::default() });
        if self.cfg.channel_reservation {
            ctx.reserve_channel(coord);
        } else {
            // Ablation: no arbitration — solicit immediately (concurrent
            // neighboring rounds become possible).
            self.on_org_channel_granted(ctx);
        }
    }

    /// Channel granted: broadcast `org` and open the collection window.
    pub(crate) fn on_org_channel_granted(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let pos = ctx.position();
        let coord = self.cfg.coord_radius();
        let Role::Head(h) = &mut self.role else {
            // Stale grant from a role we already left.
            ctx.release_channel();
            return;
        };
        let Some(org) = &mut h.org else {
            ctx.release_channel();
            return;
        };
        if org.soliciting {
            return;
        }
        org.soliciting = true;
        let round = org.round;
        let root_pos = if h.parent == me { pos } else { h.root_pos };
        let info = OrgInfo {
            head: me,
            pos,
            il: h.il,
            parent_il: h.parent_il,
            hops: h.hops,
            root_pos,
        };
        ctx.broadcast(coord, Msg::Org(info));
        ctx.set_timer(COLLECT_WINDOW, Timer::CollectDeadline { round });
    }

    /// `org` received: respond per role (`HEAD_ORG_RESP` for heads,
    /// `ASSOCIATE_ORG_RESP` for small nodes).
    pub(crate) fn on_org(&mut self, from: NodeId, info: OrgInfo, ctx: &mut Ctx<'_>) {
        if from == ctx.id() {
            return;
        }
        match &mut self.role {
            Role::Head(h) => {
                ctx.unicast(
                    from,
                    Msg::HeadOrgReply { pos: ctx.position(), il: h.il, icc_icp: h.icc_icp, hops: h.hops },
                );
                h.neighbors.insert(
                    from,
                    NeighborInfo {
                        pos: info.pos,
                        il: info.il,
                        icc_icp: IccIcp::ORIGIN,
                        hops: info.hops,
                        last_heard: ctx.now(),
                    },
                );
                // GS³-D HEAD_ORG_RESP: adopt the organizer as parent when it
                // is closer to the root.
                if self.cfg.mode != Mode::Static {
                    self.maybe_adopt_parent(from, info.il, info.pos, info.hops, ctx);
                }
            }
            Role::Associate(a) => {
                let dist = ctx.position().distance(a.head_pos);
                ctx.unicast(
                    from,
                    Msg::OrgReply { pos: ctx.position(), current_head: Some((a.head, dist)) },
                );
            }
            Role::Bootup(b) => {
                b.awaiting_decision = Some(from);
                ctx.unicast(from, Msg::OrgReply { pos: ctx.position(), current_head: None });
                ctx.set_timer(COLLECT_WINDOW * 3, Timer::AwaitDecision { org_head: from });
            }
            Role::BigAway(b) => {
                b.known_heads.insert(from, (info.pos, info.il, ctx.now()));
            }
        }
    }

    /// `org_reply` received by the organizing head.
    pub(crate) fn on_org_reply(
        &mut self,
        from: NodeId,
        pos: Point,
        current_head: Option<(NodeId, f64)>,
        _ctx: &mut Ctx<'_>,
    ) {
        if let Role::Head(h) = &mut self.role {
            if let Some(org) = &mut h.org {
                if org.soliciting && !org.small.iter().any(|(id, ..)| *id == from) {
                    org.small.push((from, pos, current_head));
                }
            }
        }
    }

    /// `head_org_reply` received by the organizing head.
    pub(crate) fn on_head_org_reply(
        &mut self,
        from: NodeId,
        pos: Point,
        il: Point,
        icc_icp: IccIcp,
        hops: u32,
        ctx: &mut Ctx<'_>,
    ) {
        if let Role::Head(h) = &mut self.role {
            h.neighbors.insert(
                from,
                NeighborInfo { pos, il, icc_icp, hops, last_heard: ctx.now() },
            );
            if let Some(org) = &mut h.org {
                if org.soliciting && !org.heads.iter().any(|(id, ..)| *id == from) {
                    org.heads.push((from, pos, il));
                }
            }
        }
    }

    /// The collection window closed: run `HEAD_SELECT` and broadcast the
    /// `⟨HeadSet⟩`.
    pub(crate) fn on_collect_deadline(&mut self, round: u64, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let pos = ctx.position();
        let coord = self.cfg.coord_radius();
        let (r, r_t, gr) = (self.cfg.r, self.cfg.r_t, self.cfg.gr);
        let spacing = self.cfg.spacing();

        let Role::Head(h) = &mut self.role else {
            return;
        };
        let Some(org) = &h.org else {
            return;
        };
        if org.round != round || !org.soliciting {
            return;
        }
        let org = h.org.take().expect("org round checked above");
        h.organized_once = true;

        // HEAD_SELECT Step 1: candidate ideal locations. The paper anchors
        // at IL(i) with reference direction IL(P(i))→IL(i); the ablation
        // uses actual positions instead, letting placement error compound
        // band after band.
        let is_root = h.parent == me;
        let (anchor, ref_from) = if self.cfg.anchor_ils {
            (h.il, h.parent_il)
        } else {
            (pos, h.parent_pos)
        };
        let candidate_ils = if is_root {
            big_node_ideal_locations(anchor, r, gr)
        } else {
            child_ideal_locations(ref_from, anchor, r)
        };

        // Existing heads (Step 2's `ExistingHeads`): replies from this round
        // plus fresh knowledge from the neighbor table, plus self.
        let mut existing: Vec<(Point, Point)> = vec![(pos, h.il)];
        existing.extend(org.heads.iter().map(|(_, p, il)| (*p, *il)));
        existing.extend(h.neighbors.values().map(|n| (n.pos, n.il)));

        // Step 2–4 per IL: drop ILs already owned; select the best node in
        // the candidate area of the rest.
        let mut assignments: Vec<HeadAssignment> = Vec::new();
        for il in candidate_ils {
            // An IL is "owned" when an existing head sits (by IL or actual
            // position) within half a lattice spacing of it. The paper tests
            // `dist ≤ R_t`; the wider margin additionally suppresses
            // duplicate heads next to cells whose IL has shifted (GS³-D),
            // see DESIGN.md interpretation notes.
            let owned = existing
                .iter()
                .any(|(p, e_il)| e_il.distance(il) < spacing / 2.0 || p.distance(il) < spacing / 2.0)
                || assignments.iter().any(|a| a.il.distance(il) < spacing / 2.0);
            if owned {
                continue;
            }
            // CA(il): replying small nodes within R_t, not already selected.
            let best = org
                .small
                .iter()
                .filter(|(id, p, _)| {
                    p.distance(il) <= r_t && !assignments.iter().any(|a| a.node == *id)
                })
                .min_by_key(|(id, p, _)| RankKey::new(il, *p, gr, id.raw()));
            if let Some((id, p, _)) = best {
                assignments.push(HeadAssignment { node: *id, pos: *p, il });
            }
            // Empty CA ⇒ an R_t-gap at this IL: select nothing now; the
            // periodic boundary check will retry (GS³-D Section 4.2).
        }

        // Register the new children.
        for a in &assignments {
            let info = NeighborInfo {
                pos: a.pos,
                il: a.il,
                icc_icp: IccIcp::ORIGIN,
                hops: h.hops + 1,
                last_heard: ctx.now(),
            };
            h.children.insert(a.node, info.clone());
            h.neighbors.insert(a.node, info);
        }

        let root_pos = if h.parent == me { pos } else { h.root_pos };
        let info = OrgInfo {
            head: me,
            pos,
            il: h.il,
            parent_il: h.parent_il,
            hops: h.hops,
            root_pos,
        };
        // With the reliability layer on, each selected node additionally
        // gets its own acked copy of the decision — a lost ⟨HeadSet⟩
        // broadcast otherwise silently un-selects a head and leaves an
        // R_t-gap until a boundary re-probe. Redelivery is safe: selected
        // nodes ignore a ⟨HeadSet⟩ re-stating the assignment they hold.
        let acked_copies: Vec<NodeId> = if self.cfg.reliability.enabled {
            assignments.iter().map(|a| a.node).collect()
        } else {
            Vec::new()
        };
        let msg = Msg::HeadSet { org: info, assignments };
        ctx.broadcast(coord, msg.clone());
        ctx.release_channel();
        let _ = h;
        for to in acked_copies {
            self.send_ctrl(ctx, to, msg.clone());
        }
    }

    /// `⟨HeadSet⟩` received: selected nodes become heads; bystanders pick
    /// (or improve) their head.
    pub(crate) fn on_head_set(
        &mut self,
        from: NodeId,
        org: OrgInfo,
        assignments: Vec<HeadAssignment>,
        ctx: &mut Ctx<'_>,
    ) {
        let me = ctx.id();
        let my_pos = ctx.position();

        if let Some(mine) = assignments.iter().find(|a| a.node == me) {
            // Redelivery (e.g. the reliable acked copy arriving after the
            // broadcast) of an assignment we already hold must not re-run
            // become_head — that would tear down the running cell.
            if let Role::Head(h) = &self.role {
                if h.il.distance(mine.il) < 1e-6 {
                    return;
                }
            }
            // Selected: become a head, anchor at the assigned IL, and run
            // HEAD_ORG in turn (the diffusing computation).
            ctx.cancel_timers(Timer::AwaitDecision { org_head: from });
            let il = mine.il;
            let hs = self.become_head(
                ctx,
                il,
                il,
                IccIcp::ORIGIN,
                org.head,
                org.il,
                org.root_pos,
                org.hops + 1,
            );
            hs.parent_pos = org.pos;
            self.start_head_org(ctx);
            return;
        }

        // Candidate heads this message informs us about: the organizer and
        // every assignment.
        let offers = std::iter::once((org.head, org.pos, org.il, org.hops))
            .chain(assignments.iter().map(|a| (a.node, a.pos, a.il, org.hops + 1)));
        let best = offers.min_by(|a, b| my_pos.distance(a.1).total_cmp(&my_pos.distance(b.1)));
        let Some((bh, bh_pos, bh_il, bh_hops)) = best else {
            return;
        };

        match &mut self.role {
            Role::Bootup(_) => {
                ctx.cancel_timers(Timer::AwaitDecision { org_head: from });
                let cell = provisional_cell(bh, bh_pos, bh_il, bh_hops, org.head, org.il, org.root_pos);
                self.become_associate(ctx, bh, bh_pos, cell, false, true);
            }
            Role::Associate(a) => {
                // ASSOCIATE_ORG_RESP: switch only to a strictly better
                // (closer) head.
                if bh != a.head && my_pos.distance(bh_pos) < my_pos.distance(a.head_pos) {
                    let cell =
                        provisional_cell(bh, bh_pos, bh_il, bh_hops, org.head, org.il, org.root_pos);
                    self.become_associate(ctx, bh, bh_pos, cell, false, true);
                }
            }
            Role::Head(h) => {
                // Track newly created heads near us as neighbors.
                for a in &assignments {
                    if a.il.distance(h.il) <= self.cfg.coord_radius() {
                        h.neighbors.insert(
                            a.node,
                            NeighborInfo {
                                pos: a.pos,
                                il: a.il,
                                icc_icp: IccIcp::ORIGIN,
                                hops: org.hops + 1,
                                last_heard: ctx.now(),
                            },
                        );
                    }
                }
            }
            Role::BigAway(b) => {
                b.known_heads.insert(org.head, (org.pos, org.il, ctx.now()));
            }
        }
    }

    /// A small node gave up waiting for a `⟨HeadSet⟩` decision.
    pub(crate) fn on_await_decision(&mut self, org_head: NodeId, _ctx: &mut Ctx<'_>) {
        if let Role::Bootup(b) = &mut self.role {
            if b.awaiting_decision == Some(org_head) {
                b.awaiting_decision = None;
            }
        }
    }

    /// Re-opens `HEAD_ORG` after a short delay (used by inter-cell child
    /// recovery so we do not thrash the channel).
    pub(crate) fn schedule_reorg(&mut self, ctx: &mut Ctx<'_>) {
        if let Role::Head(h) = &self.role {
            if h.org.is_none() {
                // Piggyback on the boundary tick machinery: fire it soon.
                ctx.cancel_timers(Timer::BoundaryTick);
                ctx.set_timer(SimDuration::from_millis(200), Timer::BoundaryTick);
            }
        }
    }
}

/// A minimal [`CellInfo`] for a node that just joined a cell and has not yet
/// heard the head's own heartbeat (which will overwrite all of this).
fn provisional_cell(
    head: NodeId,
    head_pos: Point,
    il: Point,
    hops: u32,
    parent: NodeId,
    parent_il: Point,
    root_pos: Point,
) -> Arc<CellInfo> {
    Arc::new(CellInfo {
        head,
        head_pos,
        il,
        oil: il,
        icc_icp: IccIcp::ORIGIN,
        hops,
        parent,
        parent_il,
        candidates: Vec::new(),
        root_pos,
    })
}
