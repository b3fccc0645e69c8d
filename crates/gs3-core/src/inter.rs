//! Inter-cell maintenance (`HEAD_INTER_CELL`, `PARENT_SEEK`, boundary
//! re-organization) — paper Section 4.2 and Appendix 2.

use gs3_geometry::hex::{big_node_ideal_locations, child_ideal_locations};
use gs3_geometry::spiral::IccIcp;
use gs3_geometry::Point;
use gs3_sim::NodeId;

use crate::config::{BOUNDARY_CHECK_PERIOD, PROXY_TTL};
use crate::messages::{HeadInfo, Msg};
use crate::node::{Ctx, Gs3Node};
use crate::reliable::{head_reattached, mark_suspected, note_seek_failed, suspect_after};
use crate::state::{NeighborInfo, Role};
use crate::timers::Timer;

impl Gs3Node {
    /// Periodic `HEAD_INTER_CELL`: prune the neighbor/child tables, detect
    /// parent/child failures, expire a stale proxy role, and beat.
    pub(crate) fn on_inter_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        self.cong_observe(ctx);
        let me = ctx.id();
        let pos = ctx.position();
        let now = ctx.now();
        let timeout = self.cong_stretch(self.cfg.inter_timeout());
        let coord = self.cfg.coord_radius();
        let period = self.cong_stretch(self.cfg.inter_heartbeat);
        let am_big = self.is_big();

        let Role::Head(h) = &mut self.role else {
            return;
        };

        // Expire the proxy role when the big node stopped refreshing it.
        if h.is_proxy && now.saturating_since(h.proxy_refreshed) > PROXY_TTL {
            h.is_proxy = false;
            self.rehang_after_proxy(ctx);
        }
        let rel_cfg = self.cfg.reliability.clone();
        let rel = &mut self.rel;
        let Role::Head(h) = &mut self.role else {
            return;
        };

        // Child failure: inter-cell silence twice over after the child
        // cell's own intra-cell healing window. The adaptive detector may
        // shorten (never lengthen) the window per peer; a verdict it
        // reaches before the legacy deadline is provisional until then.
        let mut early: Vec<(NodeId, gs3_sim::SimTime)> = Vec::new();
        let failed_children: Vec<NodeId> = h
            .children
            .iter()
            .filter_map(|(id, info)| {
                let silent = now.saturating_since(info.last_heard);
                if silent > suspect_after(rel, &rel_cfg, *id, timeout) * 2 {
                    if silent <= timeout * 2 {
                        early.push((*id, info.last_heard + timeout * 2));
                    }
                    Some(*id)
                } else {
                    None
                }
            })
            .collect();
        let any_child_failed = !failed_children.is_empty();
        for id in &failed_children {
            h.children.remove(id);
            h.neighbors.remove(id);
        }

        // Prune non-child neighbors that went silent.
        h.neighbors.retain(|id, info| {
            let silent = now.saturating_since(info.last_heard);
            if silent > suspect_after(rel, &rel_cfg, *id, timeout) * 2 {
                if silent <= timeout * 2 {
                    early.push((*id, info.last_heard + timeout * 2));
                }
                false
            } else {
                true
            }
        });

        // Parent failure: silence twice over, after which we seek a new
        // parent among the surviving neighbors. A *self-pointing* parent
        // on a small non-proxy head is structurally illegal (only the big
        // node and an appointed proxy root the tree) — corrupted state,
        // repaired through the same seek path immediately.
        let self_parent_corrupt = h.parent == me && !am_big && !h.is_proxy;
        let parent_silent = now.saturating_since(h.parent_last_heard);
        let parent_failed = self_parent_corrupt
            || (h.parent != me
                && parent_silent > suspect_after(rel, &rel_cfg, h.parent, timeout) * 2);
        if parent_failed && !self_parent_corrupt && parent_silent <= timeout * 2 {
            early.push((h.parent, h.parent_last_heard + timeout * 2));
        }
        for (peer, legacy_deadline) in early {
            mark_suspected(rel, peer, legacy_deadline);
        }
        let mut deferred_seek: Option<(NodeId, Msg)> = None;
        let mut abandon = false;
        if parent_failed {
            h.neighbors.remove(&h.parent);
            // The link is broken: inflate our hop count so that any
            // parent_seek_ack (and evaluate_parent) is accepted instead of
            // being rejected against the stale pre-failure hops.
            h.hops = u32::MAX / 2;
            let seeker_il = h.il;
            // A seek round still pending from the previous heartbeat went
            // unanswered: count it failed before opening the next one.
            if h.pending_seek.take().is_some() {
                note_seek_failed(h, &rel_cfg, ctx);
            }
            let best = h
                .neighbors
                .iter()
                .filter(|(id, _)| !h.children.contains_key(id))
                .min_by(|a, b| a.1.hops.cmp(&b.1.hops))
                .map(|(id, _)| *id);
            match best {
                Some(target) => {
                    // Optimistically lean on the best neighbor while the
                    // handshake completes.
                    h.parent_last_heard = now;
                    h.seek_rounds += 1;
                    let round = h.seek_rounds;
                    h.pending_seek = Some(round);
                    deferred_seek = Some((target, Msg::ParentSeek { il: seeker_il, round }));
                }
                None => {
                    // No neighbor to probe: the round fails outright.
                    note_seek_failed(h, &rel_cfg, ctx);
                    if !rel_cfg.enabled && h.children.is_empty() {
                        // Fully disconnected head: dissolve (the paper's
                        // head_disconnected path). With the reliability
                        // layer on, the head degrades gracefully instead:
                        // it keeps serving its cell and buffers upward
                        // reports until the partition heals.
                        abandon = true;
                    } else {
                        // Refresh and wait — for a child to re-parent us
                        // via its own beats, or for the partition to heal.
                        h.parent_last_heard = now;
                    }
                }
            }
        }

        // The root (big node or proxy) anchors the tree at its own
        // position; everyone else forwards the anchor learned from its
        // parent. A corrupted self-parent must NOT re-anchor here — it
        // would advertise itself as a fake hops-0 root and poison its
        // neighbors' parent choices.
        if h.parent == me && (am_big || h.is_proxy) {
            h.root_pos = pos;
            h.hops = 0;
        }
        // Child-cap rebalancing (reliable mode only). Quarantine keeps
        // partitioned heads alive, so after a heal they re-attach
        // laterally onto whatever head is reachable — which can leave one
        // parent over the I₂.₃ children cap forever (a child only
        // switches parents when *required*, and a working link never
        // requires it). The parent is the one node that sees the overload,
        // so it sheds the worst-placed (largest IL distance — lattice
        // children all sit at spacing) excess children; an evicted child
        // treats the reverse `child_retire` as a broken link and seeks a
        // better-placed parent. Legacy mode reaches this state only via
        // abandonment, which dissolves the cell instead — eviction stays
        // inside the reliability gate to preserve bit-identical disabled
        // runs.
        let mut evicted: Vec<NodeId> = Vec::new();
        if rel_cfg.enabled {
            let cap = if am_big || h.parent == me { 6 } else { 5 };
            while h.children.len() > cap {
                let worst = h
                    .children
                    .iter()
                    .max_by(|(aid, a), (bid, b)| {
                        a.il.distance(h.il)
                            .total_cmp(&b.il.distance(h.il))
                            .then_with(|| aid.cmp(bid))
                    })
                    .map(|(id, _)| *id)
                    .expect("len > cap >= 0 implies non-empty");
                h.children.remove(&worst);
                evicted.push(worst);
            }
        }
        let _ = h;
        let _ = rel;
        if abandon {
            self.abandon_cell(ctx);
            return;
        }
        for child in evicted {
            ctx.event("child_evicted", child.raw());
            self.send_ctrl(ctx, child, Msg::ChildRetire);
        }
        if let Some((target, seek)) = deferred_seek {
            ctx.event("parent_seek", target.raw());
            self.send_ctrl(ctx, target, seek);
        }
        self.evaluate_parent(ctx);
        let Role::Head(h) = &mut self.role else {
            return;
        };
        let effective_hops = if h.is_proxy { 0 } else { h.hops };
        let hi = HeadInfo {
            head: me,
            pos,
            il: h.il,
            icc_icp: h.icc_icp,
            hops: effective_hops,
            parent: h.parent,
            root_pos: h.root_pos,
        };
        ctx.broadcast(coord, Msg::HeadInterAlive(hi));
        ctx.set_timer(period, Timer::InterHeartbeat);

        if any_child_failed {
            // Recover the lost direction by re-running HEAD_ORG soon.
            self.schedule_reorg(ctx);
        }
    }

    /// `head_inter_alive` received.
    pub(crate) fn on_head_inter_alive(&mut self, from: NodeId, hi: HeadInfo, ctx: &mut Ctx<'_>) {
        self.detector_observe(from, ctx);
        let me = ctx.id();
        // Duplicate-head resolution. Two live heads can end up serving the
        // same cell (a lost `new_head_announce` lets a second candidate
        // win the staggered election; a falsely suspected head keeps
        // beating after its "successor" promoted). The hexagonal relation
        // holds for both, so the sanity check never fires — without an
        // explicit rule the duplicates beat forever and associates flap
        // between them. On hearing a same-cell beat of the same structure,
        // the better-placed head (closer to the shared IL; ties break
        // toward the lower id, and the big node always wins its own cell)
        // re-announces — rebinding the cell's associates and cancelling
        // elections — and orders the loser to step down. Both sides
        // evaluate the same RNG-free predicate on the same data, so
        // exactly one survivor emerges.
        let mut demote_duplicate = false;
        if let Role::Head(h) = &self.role {
            let same_cell = from != me
                && hi.il.distance(h.il) <= self.cfg.r_t
                && hi.root_pos.distance(h.root_pos) <= self.cfg.spacing() / 2.0
                && !h.is_proxy;
            if same_cell {
                let mine = ctx.position().distance(h.il);
                let theirs = hi.pos.distance(hi.il);
                demote_duplicate = self.is_big
                    || mine.total_cmp(&theirs).then_with(|| me.cmp(&from)).is_lt();
            }
        }
        if demote_duplicate {
            let pos = ctx.position();
            let (r_t, gr) = (self.cfg.r_t, self.cfg.gr);
            let coord = self.cfg.coord_radius();
            let Role::Head(h) = &mut self.role else { unreachable!() };
            h.neighbors.remove(&from);
            h.children.remove(&from);
            let ci = h.cell_info(me, pos, r_t, gr);
            ctx.event("duplicate_head_demoted", from.raw());
            ctx.broadcast(coord, Msg::NewHeadAnnounce(ci));
            self.send_ctrl(ctx, from, Msg::ReplacingHead);
            return;
        }
        match &mut self.role {
            Role::Head(h) => {
                h.neighbors.insert(
                    from,
                    NeighborInfo {
                        pos: hi.pos,
                        il: hi.il,
                        icc_icp: hi.icc_icp,
                        hops: hi.hops,
                        last_heard: ctx.now(),
                    },
                );
                if hi.parent == me {
                    h.children.insert(
                        from,
                        NeighborInfo {
                            pos: hi.pos,
                            il: hi.il,
                            icc_icp: hi.icc_icp,
                            hops: hi.hops,
                            last_heard: ctx.now(),
                        },
                    );
                } else {
                    h.children.remove(&from);
                }
                if from == h.parent {
                    h.parent_last_heard = ctx.now();
                    h.parent_il = hi.il;
                    h.parent_pos = hi.pos;
                    // A parent believed lost (seek in flight, failed
                    // rounds accumulated, or quarantine entered) beat
                    // again: the link is back.
                    if h.pending_seek.is_some() || h.failed_seeks > 0 || h.quarantined {
                        head_reattached(h, ctx);
                    }
                    if !h.is_proxy && h.parent != me {
                        h.hops = hi.hops.saturating_add(1);
                        h.root_pos = hi.root_pos;
                    }
                } else if !h.is_proxy && h.parent != me {
                    // Keep our root anchor as fresh as possible: a
                    // neighbor strictly closer to the root has a newer
                    // view of it along the shorter path. Parent selection
                    // itself happens once per heartbeat over the whole
                    // neighbor table (evaluate_parent), never per message:
                    // per-message switching races the propagation of hop
                    // improvements and flips equal-cost edges arbitrarily
                    // far from a root move.
                    if hi.hops < h.hops {
                        h.root_pos = hi.root_pos;
                    }
                }
            }
            Role::Associate(a) => {
                if from == a.head {
                    a.last_heard = ctx.now();
                    a.head_pos = hi.pos;
                }
            }
            Role::Bootup(b) => {
                if b.collecting
                    && !b.head_offers.iter().any(|(id, ..)| *id == from) {
                        b.head_offers.push((from, hi.pos, hi.hops));
                    }
            }
            Role::BigAway(b) => {
                b.known_heads.insert(from, (hi.pos, hi.il, ctx.now()));
            }
        }
    }

    /// Adopt `candidate` as parent when it is strictly closer to the big
    /// node than the current parent — the paper's rule ("a head chooses
    /// the neighboring head closest to the big node as its parent"), which
    /// keeps `G_h` a min-distance spanning tree of `G_hn` (fixpoint F₁.₂)
    /// and is what makes big-node moves contained (Theorem 11): cartesian
    /// distances to the root change only near the move, so far-away parent
    /// choices never flip.
    pub(crate) fn maybe_adopt_parent(
        &mut self,
        candidate: NodeId,
        candidate_il: Point,
        candidate_pos: Point,
        candidate_hops: u32,
        ctx: &mut Ctx<'_>,
    ) {
        let me = ctx.id();
        let pos = ctx.position();
        let Role::Head(h) = &mut self.role else {
            return;
        };
        if candidate == h.parent || candidate == me {
            return;
        }
        if h.children.contains_key(&candidate) {
            return;
        }
        // Change parents only when *required*: the candidate strictly
        // improves the hop distance to the root, or the current parent
        // link is broken. Equal-cost alternatives never cause a flip —
        // this "lazy" rule is what keeps the impact of a root move
        // contained (Theorem 11): a head whose current parent still lies
        // on a shortest path is untouched, however the root moved. Among
        // strict improvements, cartesian closeness to the root was already
        // folded into the ranked order in which beats arrive; hysteresis
        // is the strict inequality itself.
        let parent_broken = h.hops >= u32::MAX / 2;
        let improves = candidate_hops.saturating_add(1) < h.hops;
        let d_cand = candidate_pos.distance(h.root_pos);
        let d_self = pos.distance(h.root_pos);
        let mut switched = None;
        if improves || (parent_broken && d_cand < d_self) {
            let old = h.parent;
            h.parent = candidate;
            h.parent_il = candidate_il;
            h.parent_pos = candidate_pos;
            h.parent_last_heard = ctx.now();
            h.hops = candidate_hops.saturating_add(1);
            head_reattached(h, ctx);
            switched = Some((old, h.il));
        }
        let _ = h;
        if let Some((old, il)) = switched {
            self.send_ctrl(ctx, candidate, Msg::NewChildHead { pos, il });
            if old != me {
                self.send_ctrl(ctx, old, Msg::ChildRetire);
            }
        }
    }

    /// Once-per-heartbeat parent evaluation over the whole (fresh)
    /// neighbor table. Switches only when some neighbor offers a strictly
    /// better hop distance than the *parent's own current offer* — the
    /// "change only when required" rule that keeps root moves contained
    /// (Theorem 11): equal-cost alternatives never steal an edge, and a
    /// parent whose improvement simply hasn't beaten yet is not punished.
    pub(crate) fn evaluate_parent(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let now = ctx.now();
        let fresh_cutoff = self.cfg.inter_timeout();
        let Role::Head(h) = &mut self.role else {
            return;
        };
        if h.parent == me || h.is_proxy {
            return;
        }
        // The parent's current offer: its latest advertised hops (assume
        // still valid when it has not appeared in the table yet, e.g.
        // right after an election).
        let parent_offer = h
            .neighbors
            .get(&h.parent)
            .map_or_else(|| h.hops.saturating_sub(1), |n| n.hops);
        let root = h.root_pos;
        let best = h
            .neighbors
            .iter()
            .filter(|(id, n)| {
                **id != me
                    && !h.children.contains_key(*id)
                    && now.saturating_since(n.last_heard) <= fresh_cutoff
            })
            .min_by(|(aid, a), (bid, b)| {
                a.hops
                    .cmp(&b.hops)
                    .then_with(|| a.pos.distance(root).total_cmp(&b.pos.distance(root)))
                    .then_with(|| aid.cmp(bid))
            })
            .map(|(id, n)| (*id, n.il, n.pos, n.hops));
        let Some((best_id, best_il, best_pos, best_hops)) = best else {
            return;
        };
        // Switch when REQUIRED — the parent is no longer strictly closer
        // to the root than we are (the gradient-validity the paper's
        // "closest to the big node" rule maintains), or when a neighbor
        // improves the hop count by ≥2 (a real restructuring, not the ±1
        // seam churn a root-cell change induces across the whole field).
        // Lazy ±1 maintenance is what contains a root move within
        // Theorem 11's disk: a far head's parent margin (≈ √3R·cosθ)
        // dominates the distance shift a move of d ≤ √3R causes at range,
        // so validity never breaks away from the move.
        let pos = ctx.position();
        let d_self = pos.distance(h.root_pos);
        let parent_valid = h.parent_pos.distance(h.root_pos) + 1e-6 < d_self;
        let big_improvement = best_hops.saturating_add(2) <= parent_offer;
        let mut switched = None;
        if best_id != h.parent
            && (!parent_valid || big_improvement)
            && best_pos.distance(h.root_pos) + 1e-6 < d_self
        {
            let old = h.parent;
            h.parent = best_id;
            h.parent_il = best_il;
            h.parent_pos = best_pos;
            h.parent_last_heard = now;
            h.hops = best_hops.saturating_add(1);
            head_reattached(h, ctx);
            switched = Some((old, h.il));
        } else {
            // Keep the parent; follow its current offer.
            h.hops = parent_offer.saturating_add(1);
        }
        let _ = h;
        if let Some((old, il)) = switched {
            self.send_ctrl(ctx, best_id, Msg::NewChildHead { pos, il });
            if old != me {
                self.send_ctrl(ctx, old, Msg::ChildRetire);
            }
        }
    }

    /// `new_child_head` received: the sender adopted us as parent.
    pub(crate) fn on_new_child_head(
        &mut self,
        from: NodeId,
        pos: Point,
        il: Point,
        ctx: &mut Ctx<'_>,
    ) {
        if let Role::Head(h) = &mut self.role {
            let info = NeighborInfo {
                pos,
                il,
                icc_icp: IccIcp::ORIGIN,
                hops: h.hops.saturating_add(1),
                last_heard: ctx.now(),
            };
            h.children.insert(from, info.clone());
            h.neighbors.entry(from).or_insert(info);
        }
    }

    /// `child_retire` received: the sender switched to another parent.
    /// In reliable mode the same message arriving *from our own parent*
    /// is an eviction — the parent shed us to restore its children cap;
    /// break the link (and forget the evictor so the next seek probes
    /// someone else) and let the next heartbeat find a better-placed
    /// parent.
    pub(crate) fn on_child_retire(&mut self, from: NodeId, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        if let Role::Head(h) = &mut self.role {
            h.children.remove(&from);
            if self.cfg.reliability.enabled && from == h.parent && h.parent != me {
                h.neighbors.remove(&from);
                h.hops = u32::MAX / 2;
                h.parent_last_heard = gs3_sim::SimTime::ZERO;
            }
        }
    }

    /// `parent_seek` received: accept unless the seeker is our own parent
    /// (which would create a cycle). The ack echoes the probe's seek round
    /// so the seeker can reject acks from rounds it has moved past.
    pub(crate) fn on_parent_seek(&mut self, from: NodeId, il: Point, round: u64, ctx: &mut Ctx<'_>) {
        let am_big = self.is_big();
        let rel_enabled = self.cfg.reliability.enabled;
        let Role::Head(h) = &mut self.role else {
            return;
        };
        if from == h.parent {
            return;
        }
        // Admission control (reliable mode): a head already at its
        // children cap stays silent instead of acking a seek it would
        // immediately have to shed again via eviction.
        if rel_enabled {
            let cap = if am_big || h.parent == ctx.id() { 6 } else { 5 };
            if h.children.len() >= cap && !h.children.contains_key(&from) {
                return;
            }
        }
        let _ = il;
        ctx.unicast(
            from,
            Msg::ParentSeekAck { hops: h.hops, il: h.il, pos: ctx.position(), round },
        );
    }

    /// `parent_seek_ack` received: adopt the acceptor — unless the ack
    /// answers a seek round we are no longer waiting on (a delayed or
    /// duplicated ack from an earlier round carries stale hop information
    /// and could re-parent us on a head we already rejected).
    pub(crate) fn on_parent_seek_ack(
        &mut self,
        from: NodeId,
        hops: u32,
        il: Point,
        pos: Point,
        round: u64,
        ctx: &mut Ctx<'_>,
    ) {
        let me = ctx.id();
        let Role::Head(h) = &mut self.role else {
            return;
        };
        if h.pending_seek != Some(round) {
            ctx.count("parent_seek_stale_acks");
            return;
        }
        if h.parent == from || h.children.contains_key(&from) {
            return;
        }
        // Accept when it improves or when our parent link is broken (hops
        // inflated by the failure path).
        let mut switched = None;
        if hops.saturating_add(1) <= h.hops || h.hops >= u32::MAX / 2 {
            let old = h.parent;
            h.parent = from;
            h.parent_il = il;
            h.parent_pos = pos;
            h.parent_last_heard = ctx.now();
            h.hops = hops.saturating_add(1);
            h.neighbors.insert(
                from,
                NeighborInfo { pos, il, icc_icp: IccIcp::ORIGIN, hops, last_heard: ctx.now() },
            );
            head_reattached(h, ctx);
            switched = Some((old, h.il));
        } else {
            // Answered but useless: the round is settled, not failed.
            h.pending_seek = None;
        }
        let _ = h;
        if let Some((old, my_il)) = switched {
            self.send_ctrl(ctx, from, Msg::NewChildHead { pos: ctx.position(), il: my_il });
            if old != me && old != from {
                self.send_ctrl(ctx, old, Msg::ChildRetire);
            }
        }
    }

    /// Periodic boundary probe: when some neighbor IL is unoccupied (an
    /// `R_t`-gap at selection time, or a killed cell), re-run `HEAD_ORG` so
    /// newly appeared nodes get organized (GS³-D Section 4.2).
    pub(crate) fn on_boundary_tick(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let spacing = self.cfg.spacing();
        let r = self.cfg.r;
        let gr = self.cfg.gr;

        let needs_reorg = {
            let Role::Head(h) = &self.role else {
                return;
            };
            if h.org.is_some() {
                false
            } else {
                let ils = if h.parent == me {
                    big_node_ideal_locations(h.il, r, gr)
                } else {
                    child_ideal_locations(h.parent_il, h.il, r)
                };
                ils.iter().any(|il| {
                    let occupied = h.neighbors.values().any(|n| n.il.distance(*il) < spacing / 2.0)
                        || h.il.distance(*il) < spacing / 2.0;
                    !occupied
                })
            }
        };
        // Boundary re-organization opens a broadcast-heavy HEAD_ORG round,
        // but it is also what absorbs uncovered nodes — the densest
        // broadcast source there is — so under congestion its cadence is
        // stretched, never fully suppressed (a hole kept open by a probe
        // storm can only be closed by re-organizing through the storm).
        if needs_reorg {
            self.start_head_org(ctx);
        }
        let jitter = self.phase_jitter(ctx, BOUNDARY_CHECK_PERIOD);
        let period = self.cong_stretch(BOUNDARY_CHECK_PERIOD);
        ctx.set_timer(period + jitter, Timer::BoundaryTick);
    }
}
