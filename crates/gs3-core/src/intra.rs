//! Intra-cell maintenance (paper Section 4.2, Appendix 2):
//! `HEAD_INTRA_CELL`, `CANDIDATE_INTRA_CELL`, `ASSOCIATE_INTRA_CELL`,
//! `STRENGTHEN_CELL` (cell shift), head shift elections, and cell
//! abandonment.

use std::sync::Arc;

use gs3_geometry::spiral::CellSpiral;
use gs3_sim::{NodeId, SimDuration};

use crate::config::{Mode, ELECTION_STAGGER};
use crate::messages::{CellInfo, Msg};
use crate::node::{Ctx, Gs3Node};
use crate::state::{AssociateInfo, Role};
use crate::timers::Timer;

impl Gs3Node {
    /// Periodic `HEAD_INTRA_CELL`: prune silent associates, run the
    /// head-shift / cell-shift / abandonment decision ladder, and beat.
    pub(crate) fn on_intra_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        self.cong_observe(ctx);
        let me = ctx.id();
        let pos = ctx.position();
        let now = ctx.now();
        let timeout = self.cong_stretch(self.cfg.intra_timeout());
        let (r_t, gr) = (self.cfg.r_t, self.cfg.gr);
        let cell_range = self.cfg.cell_radius_bound();
        let period = self.cong_stretch(self.cfg.intra_heartbeat);
        let retreat_energy = self.cfg.head_retreat_energy;
        let mobile = self.cfg.mode == Mode::Mobile;
        let is_big = self.is_big;

        let Role::Head(h) = &mut self.role else {
            return;
        };

        h.associates.retain(|_, info| now.saturating_since(info.last_heard) <= timeout);
        let candidates = h.ranked_candidates(r_t, gr);

        // GS³-M: a big node that has wandered more than R_t from its IL
        // retreats and enters big_move (Section 5.2).
        if is_big && mobile && pos.distance(h.il) > r_t {
            let ci = h.cell_info(me, pos, r_t, gr);
            ctx.broadcast(cell_range, Msg::HeadRetreat(ci));
            ctx.event("big_retreat", 0);
            self.flush_pending_reports(ctx);
            self.become_big_away(ctx, true);
            return;
        }

        // Head shift: resource-scarce head with a live candidate retreats.
        if ctx.energy() < retreat_energy && !candidates.is_empty() {
            self.head_retreat(ctx);
            return;
        }

        // Cell shift: the candidate set is empty and this head is itself
        // failing — advance the IL along the intra-cell spiral.
        if candidates.is_empty() && ctx.energy() < retreat_energy {
            self.strengthen_cell(ctx);
            return;
        }

        // Abandonment: every neighboring cell's IL has deviated beyond the
        // tolerable bound — the hexagonal relation is unrecoverable here.
        let abandon = !h.neighbors.is_empty()
            && h.neighbors
                .values()
                .filter(|n| now.saturating_since(n.last_heard) <= self.cfg.inter_timeout() * 2)
                .all(|n| n.il.distance(h.il) > self.cfg.abandon_il_distance())
            && h.neighbors
                .values()
                .any(|n| now.saturating_since(n.last_heard) <= self.cfg.inter_timeout() * 2);
        if abandon {
            self.abandon_cell(ctx);
            return;
        }

        let ci = h.cell_info(me, pos, r_t, gr);
        ctx.broadcast(cell_range, Msg::HeadIntraAlive(ci));
        ctx.set_timer(period, Timer::IntraHeartbeat);
    }

    /// Head shift: broadcast `head_retreat` and demote self to associate;
    /// the candidates elect the successor.
    pub(crate) fn head_retreat(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let pos = ctx.position();
        let (r_t, gr) = (self.cfg.r_t, self.cfg.gr);
        let cell_range = self.cfg.cell_radius_bound();
        let Role::Head(h) = &mut self.role else {
            return;
        };
        let ci = h.cell_info(me, pos, r_t, gr);
        ctx.broadcast(cell_range, Msg::HeadRetreat(ci.clone()));
        ctx.event("head_retreat", 0);
        // The retreating head still knows its parent: hand the buffered
        // workload upstream before the role transition discards it.
        self.flush_pending_reports(ctx);
        if self.is_big {
            self.become_big_away(ctx, self.cfg.mode == Mode::Mobile);
        } else {
            let expected = ci.candidates.first().copied().unwrap_or(me);
            let head_pos = ci.il;
            self.become_associate(ctx, expected, head_pos, ci, false, false);
        }
    }

    /// `STRENGTHEN_CELL`: move the cell's IL to the next spiral position
    /// whose candidate area holds a live associate; abandon when the spiral
    /// is exhausted.
    pub(crate) fn strengthen_cell(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let pos = ctx.position();
        let (r, r_t, gr) = (self.cfg.r, self.cfg.r_t, self.cfg.gr);
        let cell_range = self.cfg.cell_radius_bound();

        let Role::Head(h) = &mut self.role else {
            return;
        };
        let spiral = CellSpiral::new(h.oil, r, r_t, gr);
        // Walk the ⟨ICC, ICP⟩ order starting after the current IL; the same
        // deterministic order at every cell is what slides the whole
        // structure coherently.
        let mut key = spiral.next(h.icc_icp);
        let mut found = None;
        while let Some(k) = key {
            let il = spiral.il_of(k).expect("next() only yields keys in the spiral");
            if h.associates.values().any(|a| a.pos.distance(il) <= r_t) {
                found = Some((k, il));
                break;
            }
            key = spiral.next(k);
        }

        match found {
            Some((k, il)) => {
                h.icc_icp = k;
                h.il = il;
                let ci = h.cell_info(me, pos, r_t, gr);
                // Per STRENGTHEN_CELL: announce the new candidate set, then
                // retreat so the new candidates elect a head at the new IL.
                ctx.broadcast(cell_range, Msg::HeadIntraAlive(ci.clone()));
                ctx.broadcast(cell_range, Msg::HeadRetreat(ci.clone()));
                ctx.event("cell_shift", 0);
                self.flush_pending_reports(ctx);
                if self.is_big {
                    self.become_big_away(ctx, self.cfg.mode == Mode::Mobile);
                } else {
                    let expected = ci.candidates.first().copied().unwrap_or(me);
                    self.become_associate(ctx, expected, il, ci, false, false);
                }
            }
            None => self.abandon_cell(ctx),
        }
    }

    /// Cell abandonment: dissolve the cell; members re-join neighbors.
    pub(crate) fn abandon_cell(&mut self, ctx: &mut Ctx<'_>) {
        let cell_range = self.cfg.cell_radius_bound();
        ctx.broadcast(cell_range, Msg::CellAbandoned);
        ctx.event("cell_abandoned", 0);
        self.flush_pending_reports(ctx);
        if self.is_big {
            self.become_big_away(ctx, self.cfg.mode == Mode::Mobile);
        } else {
            self.become_bootup(ctx, true);
        }
    }

    /// `head_intra_alive` received.
    pub(crate) fn on_head_intra_alive(&mut self, from: NodeId, ci: Arc<CellInfo>, ctx: &mut Ctx<'_>) {
        // Feed the failure detector only for the stream that refreshes
        // `last_heard` (our own head's beats); other cells' overheard
        // intra traffic must not skew the estimator.
        if matches!(&self.role, Role::Associate(a) if a.head == from) {
            self.detector_observe(from, ctx);
        }
        let my_pos = ctx.position();
        match &mut self.role {
            Role::Associate(a) => {
                if from == a.head {
                    if let Some(dead) = a.election_pending.take() {
                        ctx.cancel_timers(Timer::Election { dead_head: dead });
                    }
                    a.head_pos = ci.head_pos;
                    a.cell = ci;
                    a.last_heard = ctx.now();
                    ctx.unicast(
                        from,
                        Msg::HeadIntraAck { pos: my_pos, energy: ctx.energy() },
                    );
                } else {
                    // A different head's beat: switch if strictly closer
                    // (fixpoint F₃ — each associate ends at its best head).
                    if my_pos.distance(ci.head_pos) < my_pos.distance(a.head_pos) {
                        let head_pos = ci.head_pos;
                        self.become_associate(ctx, from, head_pos, ci, false, true);
                    }
                }
            }
            Role::Bootup(b) => {
                if b.awaiting_decision.is_none() {
                    let head_pos = ci.head_pos;
                    self.become_associate(ctx, from, head_pos, ci, false, true);
                }
            }
            Role::Head(_) => {
                // Heads learn about neighbors through inter-cell beats; an
                // intra beat reaching us is expected near cell borders.
            }
            Role::BigAway(b) => {
                b.known_heads.insert(from, (ci.head_pos, ci.il, ctx.now()));
                self.big_maybe_resume(from, ci, ctx);
            }
        }
    }

    /// `head_intra_ack` received by the head.
    pub(crate) fn on_head_intra_ack(
        &mut self,
        from: NodeId,
        pos: gs3_geometry::Point,
        energy: f64,
        ctx: &mut Ctx<'_>,
    ) {
        if let Role::Head(h) = &mut self.role {
            // Preserve the data-plane provenance mark across refreshes.
            let seq = h.associates.get(&from).map_or(0, |i| i.last_report_seq);
            h.associates.insert(
                from,
                AssociateInfo { pos, energy, last_heard: ctx.now(), last_report_seq: seq },
            );
        }
    }

    /// `associate_alive` received: a node joins this cell.
    pub(crate) fn on_associate_alive(
        &mut self,
        from: NodeId,
        pos: gs3_geometry::Point,
        ctx: &mut Ctx<'_>,
    ) {
        if let Role::Head(h) = &mut self.role {
            let seq = h.associates.get(&from).map_or(0, |i| i.last_report_seq);
            h.associates.insert(
                from,
                AssociateInfo {
                    pos,
                    energy: f64::INFINITY,
                    last_heard: ctx.now(),
                    last_report_seq: seq,
                },
            );
        }
    }

    /// `associate_retreat` received: a member left for another cell.
    pub(crate) fn on_associate_retreat(&mut self, from: NodeId, _ctx: &mut Ctx<'_>) {
        if let Role::Head(h) = &mut self.role {
            h.associates.remove(&from);
        }
    }

    /// `head_retreat` received.
    pub(crate) fn on_head_retreat(&mut self, from: NodeId, ci: Arc<CellInfo>, ctx: &mut Ctx<'_>) {
        match &mut self.role {
            Role::Associate(a) if from == a.head || ci.il.distance(a.cell.il) <= self.cfg.r_t => {
                a.cell = ci;
                a.last_heard = ctx.now();
                self.start_election_if_candidate(from, ctx);
            }
            Role::Head(h) => {
                h.neighbors.remove(&from);
                h.children.remove(&from);
                if h.parent == from {
                    // Give the cell's election time before declaring the
                    // parent gone; the successor inherits parenthood.
                    h.parent_last_heard = ctx.now();
                }
            }
            _ => {}
        }
    }

    /// Begin the staggered self-promotion countdown when this node is a
    /// candidate of the (just failed or retreated) head's cell.
    pub(crate) fn start_election_if_candidate(&mut self, dead_head: NodeId, ctx: &mut Ctx<'_>) {
        let my_pos = ctx.position();
        let me = ctx.id();
        let r_t = self.cfg.r_t;
        let Role::Associate(a) = &mut self.role else {
            return;
        };
        if a.election_pending.is_some() {
            return;
        }
        if !a.is_candidate(my_pos, r_t) {
            return;
        }
        // Rank position in the head's last advertised candidate list; a
        // candidate absent from the list (recent arrival) goes last.
        let idx = a.cell.candidates.iter().position(|c| *c == me).unwrap_or(a.cell.candidates.len());
        a.election_pending = Some(dead_head);
        let delay = ELECTION_STAGGER * (idx as u64) + SimDuration::from_millis(50);
        ctx.set_timer(delay, Timer::Election { dead_head });
    }

    /// A staggered election timer fired: self-promote unless a successor
    /// already announced.
    pub(crate) fn on_election(&mut self, dead_head: NodeId, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let pos = ctx.position();
        let (r_t, gr) = (self.cfg.r_t, self.cfg.gr);
        let coord = self.cfg.coord_radius();
        let Role::Associate(a) = &mut self.role else {
            return;
        };
        if a.election_pending != Some(dead_head) {
            return;
        }
        a.election_pending = None;
        let cell = a.cell.clone();
        // Inherit the cell wholesale: IL, OIL, spiral position, parentage.
        let hs = self.become_head(
            ctx,
            cell.il,
            cell.oil,
            cell.icc_icp,
            cell.parent,
            cell.parent_il,
            cell.root_pos,
            cell.hops,
        );
        hs.organized_once = true;
        let ci = hs.cell_info(me, pos, r_t, gr);
        let parent = cell.parent;
        let il = cell.il;
        ctx.event("head_elected", dead_head.raw());
        ctx.broadcast(coord, Msg::NewHeadAnnounce(ci));
        if parent != me {
            self.send_ctrl(ctx, parent, Msg::NewChildHead { pos, il });
        }
    }

    /// `new_head_announce` received.
    pub(crate) fn on_new_head_announce(&mut self, from: NodeId, ci: Arc<CellInfo>, ctx: &mut Ctx<'_>) {
        let my_pos = ctx.position();
        match &mut self.role {
            Role::Associate(a) => {
                let same_cell = ci.il.distance(a.cell.il) <= self.cfg.r_t
                    || a.head == ci.head
                    || a.cell.candidates.contains(&from);
                if same_cell {
                    if let Some(dead) = a.election_pending.take() {
                        ctx.cancel_timers(Timer::Election { dead_head: dead });
                    }
                    a.head = from;
                    a.head_pos = ci.head_pos;
                    a.cell = ci;
                    a.last_heard = ctx.now();
                    ctx.unicast(from, Msg::HeadIntraAck { pos: my_pos, energy: ctx.energy() });
                }
            }
            Role::Head(h) => {
                // The announcing head replaces any stale entry for its cell.
                let stale: Vec<NodeId> = h
                    .neighbors
                    .iter()
                    .filter(|(id, n)| **id != from && n.il.distance(ci.il) <= self.cfg.r_t)
                    .map(|(id, _)| *id)
                    .collect();
                for id in stale {
                    h.neighbors.remove(&id);
                    h.children.remove(&id);
                    if h.parent == id {
                        h.parent = from;
                        h.parent_il = ci.il;
                        h.parent_last_heard = ctx.now();
                    }
                }
                h.neighbors.insert(
                    from,
                    crate::state::NeighborInfo {
                        pos: ci.head_pos,
                        il: ci.il,
                        icc_icp: ci.icc_icp,
                        hops: ci.hops,
                        last_heard: ctx.now(),
                    },
                );
                if ci.parent == ctx.id() {
                    h.children.insert(
                        from,
                        crate::state::NeighborInfo {
                            pos: ci.head_pos,
                            il: ci.il,
                            icc_icp: ci.icc_icp,
                            hops: ci.hops,
                            last_heard: ctx.now(),
                        },
                    );
                }
            }
            Role::Bootup(b) => {
                if b.awaiting_decision.is_none()
                    && my_pos.distance(ci.head_pos) <= self.cfg.cell_radius_bound()
                {
                    let head_pos = ci.head_pos;
                    self.become_associate(ctx, from, head_pos, ci, false, true);
                }
            }
            Role::BigAway(b) => {
                b.known_heads.insert(from, (ci.head_pos, ci.il, ctx.now()));
                self.big_maybe_resume(from, ci, ctx);
            }
        }
    }

    /// `replacing_head` received: a candidate (or the big node) takes this
    /// cell over; step down quietly.
    pub(crate) fn on_replacing_head(&mut self, from: NodeId, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let pos = ctx.position();
        let (r_t, gr) = (self.cfg.r_t, self.cfg.gr);
        let Role::Head(h) = &mut self.role else {
            return;
        };
        let ci = h.cell_info(me, pos, r_t, gr);
        ctx.event("head_replaced", from.raw());
        // Hand any buffered workload upstream before stepping down — the
        // replacement knows nothing of what this head had aggregated.
        self.flush_pending_reports(ctx);
        if self.is_big {
            self.become_big_away(ctx, self.cfg.mode == Mode::Mobile);
        } else {
            let mut cell = ci;
            // Fresh from `cell_info` and sent to nobody: edits in place.
            Arc::make_mut(&mut cell).head = from;
            let head_pos = cell.il;
            self.become_associate(ctx, from, head_pos, cell, false, true);
        }
    }

    /// `cell_abandoned` received.
    pub(crate) fn on_cell_abandoned(&mut self, from: NodeId, ctx: &mut Ctx<'_>) {
        match &mut self.role {
            Role::Associate(a) if a.head == from => {
                self.become_bootup(ctx, true);
            }
            Role::Head(h) => {
                h.neighbors.remove(&from);
                h.children.remove(&from);
            }
            _ => {}
        }
    }

    /// Periodic associate-side liveness watch over the cell head.
    pub(crate) fn on_assoc_watch(&mut self, ctx: &mut Ctx<'_>) {
        self.cong_observe(ctx);
        let now = ctx.now();
        let timeout = self.cong_stretch(self.cfg.intra_timeout());
        let period = self.cong_stretch(self.cfg.intra_heartbeat);
        let Role::Associate(a) = &mut self.role else {
            return;
        };
        if a.surrogate {
            // Surrogate relationships have no heartbeat; the join probe
            // loop keeps looking for a real head.
            ctx.set_timer(period, Timer::AssocWatch);
            return;
        }
        let silent = now.saturating_since(a.last_heard);
        let head = a.head;
        // The adaptive detector may trigger the election earlier than the
        // legacy timeout on a calm channel (never later).
        let adaptive = crate::reliable::suspect_after(
            &self.rel,
            &self.cfg.reliability,
            head,
            timeout,
        );
        if silent > adaptive && silent <= timeout {
            crate::reliable::mark_suspected(self.rel.make_mut(), head, a.last_heard + timeout);
        }
        if silent > adaptive {
            if a.election_pending.is_none() {
                ctx.event("head_suspected", head.raw());
                self.start_election_if_candidate(head, ctx);
            }
            // Re-borrow: start_election_if_candidate may not have applied.
            if let Role::Associate(a) = &mut self.role {
                if a.election_pending.is_none() && silent > timeout * 2 {
                    // Not a candidate and nobody recovered the cell: rejoin
                    // from scratch (ASSOCIATE_INTRA_CELL's bootup path).
                    self.become_bootup(ctx, true);
                    return;
                }
            }
        }
        ctx.set_timer(period, Timer::AssocWatch);
    }
}
