//! The GS³ node state machine.
//!
//! [`Gs3Node`] implements [`gs3_sim::Node`] and dispatches every message
//! and timer to the module that owns it, mirroring the paper's program
//! structure (Figures 2, 6, 9):
//!
//! * head organization — `head_org.rs`
//! * intra-cell maintenance — `intra.rs`
//! * inter-cell maintenance — `inter.rs`
//! * node join — `join.rs`
//! * sanity checking — `sanity.rs`
//! * big-node slide/move — `big.rs`
//! * sensing workload — `workload.rs`

use std::sync::Arc;

use gs3_geometry::Point;
use gs3_geometry::spiral::IccIcp;
use gs3_sim::{Context, NodeId, SimDuration};

use crate::config::{
    Gs3Config, Mode, BOUNDARY_CHECK_PERIOD, JOIN_INITIAL_DELAY, JOIN_RETRY, PROXY_REFRESH,
    SANITY_PERIOD,
};
use crate::messages::{CellInfo, Msg};
use crate::reliable::ReliableState;
use crate::state::{AssocState, BigAwayState, DataState, HeadState, Role};
use crate::timers::Timer;

/// Shorthand for the simulator context type GS³ nodes use.
pub type Ctx<'a> = Context<'a, Msg, Timer>;

/// One GS³ protocol participant (big or small node).
#[derive(Debug, Clone)]
pub struct Gs3Node {
    /// One configuration per network, shared by all of its nodes.
    pub(crate) cfg: Arc<Gs3Config>,
    pub(crate) is_big: bool,
    pub(crate) role: Role,
    /// Reliability-layer state (sequence numbers, pending sends, dedup
    /// windows, failure detectors) — kept outside [`Role`] so it survives
    /// role transitions.
    pub(crate) rel: ReliableState,
    /// Congestion-adaptation state (observation baseline and stretch
    /// exponent) — also role-independent.
    pub(crate) cong: crate::congestion::CongestionState,
    /// Convergecast data-plane state (queues, credits, sequence spaces) —
    /// role-independent and untouched in a run with no traffic.
    pub(crate) data: DataState,
}

impl Gs3Node {
    /// Creates a small node.
    #[must_use]
    pub fn small(cfg: Arc<Gs3Config>) -> Self {
        Gs3Node {
            cfg,
            is_big: false,
            role: Role::bootup(),
            rel: ReliableState::default(),
            cong: Default::default(),
            data: DataState::default(),
        }
    }

    /// Creates the big node (initiator and root of the head graph).
    #[must_use]
    pub fn big(cfg: Arc<Gs3Config>) -> Self {
        Gs3Node {
            cfg,
            is_big: true,
            role: Role::bootup(),
            rel: ReliableState::default(),
            cong: Default::default(),
            data: DataState::default(),
        }
    }

    /// Whether this is the big node.
    #[must_use]
    pub fn is_big(&self) -> bool {
        self.is_big
    }

    /// The node's current role.
    #[must_use]
    pub fn role(&self) -> &Role {
        &self.role
    }

    /// The protocol configuration this node runs.
    #[must_use]
    pub fn config(&self) -> &Gs3Config {
        &self.cfg
    }

    /// Associate state accessor (None unless currently an associate).
    #[must_use]
    pub fn assoc_state(&self) -> Option<&AssocState> {
        match &self.role {
            Role::Associate(a) => Some(a),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Role transitions (shared by the protocol modules)
    // ------------------------------------------------------------------

    /// Becomes a head anchored at `il` (freshly selected by a `⟨HeadSet⟩`
    /// or reconstructed from an inherited [`CellInfo`]).
    // Load-bearing: mirrors HeadState::new's 8-value anchor; see the
    // justification there.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn become_head(
        &mut self,
        ctx: &mut Ctx<'_>,
        il: Point,
        oil: Point,
        icc_icp: IccIcp,
        parent: NodeId,
        parent_il: Point,
        root_pos: Point,
        hops: u32,
    ) -> &mut HeadState {
        // Leaving a previous cell politely.
        if let Role::Associate(a) = &self.role {
            if a.head != ctx.id() && !a.surrogate {
                ctx.unicast(a.head, Msg::AssociateRetreat);
            }
        }
        self.cancel_role_timers(ctx);
        let hs = HeadState::new(il, oil, icc_icp, parent, parent_il, root_pos, hops, ctx.now());
        self.role = Role::Head(Box::new(hs));
        if self.cfg.mode != Mode::Static {
            self.schedule_head_timers(ctx);
        }
        match &mut self.role {
            Role::Head(h) => h,
            _ => unreachable!("role was just set to Head"),
        }
    }

    /// Becomes an associate of `head` within `cell`.
    pub(crate) fn become_associate(
        &mut self,
        ctx: &mut Ctx<'_>,
        head: NodeId,
        head_pos: Point,
        cell: Arc<CellInfo>,
        surrogate: bool,
        announce: bool,
    ) {
        if let Role::Associate(a) = &self.role {
            if a.head != head && a.head != ctx.id() && !a.surrogate {
                ctx.unicast(a.head, Msg::AssociateRetreat);
            }
        }
        self.cancel_role_timers(ctx);
        if announce && !surrogate {
            ctx.unicast(head, Msg::AssociateAlive { pos: ctx.position() });
        }
        self.role = Role::Associate(AssocState {
            head,
            head_pos,
            cell,
            last_heard: ctx.now(),
            surrogate,
            election_pending: None,
        });
        if self.cfg.mode != Mode::Static {
            ctx.set_timer(self.cfg.intra_heartbeat, Timer::AssocWatch);
            if surrogate {
                // Surrogates keep probing for a real head.
                ctx.set_timer(JOIN_RETRY, Timer::JoinProbe);
            }
        }
    }

    /// Goes back to bootup (after abandonment, disconnection, or
    /// corruption-demotion) and schedules a prompt re-join in
    /// dynamic/mobile modes.
    pub(crate) fn become_bootup(&mut self, ctx: &mut Ctx<'_>, rejoin_quickly: bool) {
        self.cancel_role_timers(ctx);
        self.role = Role::bootup();
        if self.cfg.mode != Mode::Static {
            let base =
                if rejoin_quickly { SimDuration::from_millis(500) } else { JOIN_INITIAL_DELAY };
            let jitter = self.join_jitter(ctx);
            ctx.set_timer(base + jitter, Timer::JoinProbe);
        }
    }

    /// The big node steps away from head duty.
    pub(crate) fn become_big_away(&mut self, ctx: &mut Ctx<'_>, mobile: bool) {
        debug_assert!(self.is_big);
        self.cancel_role_timers(ctx);
        self.role = Role::BigAway(BigAwayState::new(mobile, ctx.now()));
        ctx.set_timer(PROXY_REFRESH, Timer::BigCheck);
    }

    /// Schedules the recurring head timers (heartbeats, sanity, boundary
    /// checks) with per-node phase jitter so cells do not beat in lockstep.
    fn schedule_head_timers(&mut self, ctx: &mut Ctx<'_>) {
        let j1 = self.phase_jitter(ctx, self.cfg.intra_heartbeat);
        ctx.set_timer(j1, Timer::IntraHeartbeat);
        let j2 = self.phase_jitter(ctx, self.cfg.inter_heartbeat);
        ctx.set_timer(j2, Timer::InterHeartbeat);
        let j3 = self.phase_jitter(ctx, SANITY_PERIOD);
        ctx.set_timer(SANITY_PERIOD + j3, Timer::SanityTick);
        let j4 = self.phase_jitter(ctx, BOUNDARY_CHECK_PERIOD);
        ctx.set_timer(BOUNDARY_CHECK_PERIOD + j4, Timer::BoundaryTick);
    }

    /// Cancels every timer tied to the current role (on role exit).
    fn cancel_role_timers(&mut self, ctx: &mut Ctx<'_>) {
        match &self.role {
            Role::Head(h) => {
                ctx.cancel_timers(Timer::IntraHeartbeat);
                ctx.cancel_timers(Timer::InterHeartbeat);
                ctx.cancel_timers(Timer::SanityTick);
                ctx.cancel_timers(Timer::BoundaryTick);
                if h.org.is_some() {
                    ctx.release_channel();
                }
            }
            Role::Associate(a) => {
                ctx.cancel_timers(Timer::AssocWatch);
                ctx.cancel_timers(Timer::JoinProbe);
                if let Some(dead) = a.election_pending {
                    ctx.cancel_timers(Timer::Election { dead_head: dead });
                }
            }
            Role::Bootup(_) => {
                ctx.cancel_timers(Timer::JoinProbe);
            }
            Role::BigAway(_) => {
                ctx.cancel_timers(Timer::BigCheck);
            }
        }
    }

    /// Uniform jitter in `[0, period/4)` used to de-synchronize periodic
    /// timers.
    pub(crate) fn phase_jitter(&self, ctx: &mut Ctx<'_>, period: SimDuration) -> SimDuration {
        use rand::Rng as _;
        let max = (period.as_micros() / 4).max(1);
        SimDuration::from_micros(ctx.rng().gen_range(0..max))
    }

    /// Jitter for join probing (avoids probe storms after mass failures).
    pub(crate) fn join_jitter(&self, ctx: &mut Ctx<'_>) -> SimDuration {
        use rand::Rng as _;
        let max = JOIN_RETRY.as_micros() / 2;
        SimDuration::from_micros(ctx.rng().gen_range(0..max))
    }
}

impl gs3_sim::Node for Gs3Node {
    type Msg = Msg;
    type Timer = Timer;

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_report_tick(ctx);
        if self.is_big {
            // The big node anchors the structure: its own position is the
            // 0-band cell's IL and OIL, it is its own parent, hops = 0.
            let pos = ctx.position();
            let me = ctx.id();
            self.become_head(ctx, pos, pos, IccIcp::ORIGIN, me, pos, pos, 0);
            self.start_head_org(ctx);
        } else {
            self.role = Role::bootup();
            if self.cfg.mode != Mode::Static {
                // Nodes present at deployment time hold off probing so the
                // initial diffusing computation claims them; late joiners
                // (spawned after that window) probe promptly.
                let delay = if ctx.now() >= gs3_sim::SimTime::ZERO + JOIN_INITIAL_DELAY {
                    SimDuration::from_secs(1) + self.join_jitter(ctx)
                } else {
                    JOIN_INITIAL_DELAY + self.join_jitter(ctx)
                };
                ctx.set_timer(delay, Timer::JoinProbe);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            // head organization
            Msg::Org(info) => self.on_org(from, info, ctx),
            Msg::OrgReply { pos, current_head } => self.on_org_reply(from, pos, current_head, ctx),
            Msg::HeadOrgReply { pos, il, icc_icp, hops } => {
                self.on_head_org_reply(from, pos, il, icc_icp, hops, ctx);
            }
            Msg::HeadSet { org, assignments } => self.on_head_set(from, org, assignments, ctx),
            // intra-cell
            Msg::HeadIntraAlive(ci) => self.on_head_intra_alive(from, ci, ctx),
            Msg::HeadIntraAck { pos, energy } => self.on_head_intra_ack(from, pos, energy, ctx),
            Msg::AssociateAlive { pos } => self.on_associate_alive(from, pos, ctx),
            Msg::AssociateRetreat => self.on_associate_retreat(from, ctx),
            Msg::HeadRetreat(ci) => self.on_head_retreat(from, ci, ctx),
            Msg::ReplacingHead => self.on_replacing_head(from, ctx),
            Msg::NewHeadAnnounce(ci) => self.on_new_head_announce(from, ci, ctx),
            Msg::CellAbandoned => self.on_cell_abandoned(from, ctx),
            // inter-cell
            Msg::HeadInterAlive(hi) => self.on_head_inter_alive(from, hi, ctx),
            Msg::NewChildHead { pos, il } => self.on_new_child_head(from, pos, il, ctx),
            Msg::ChildRetire => self.on_child_retire(from, ctx),
            Msg::ParentSeek { il, round } => self.on_parent_seek(from, il, round, ctx),
            Msg::ParentSeekAck { hops, il, pos, round } => {
                self.on_parent_seek_ack(from, hops, il, pos, round, ctx);
            }
            // sanity
            Msg::SanityCheckReq => self.on_sanity_check_req(from, ctx),
            Msg::SanityCheckValid => self.on_sanity_check_valid(from, ctx),
            Msg::HeadRetreatCorrupted => self.on_head_retreat_corrupted(from, ctx),
            // join
            Msg::BootupProbe { pos } => self.on_bootup_probe(from, pos, ctx),
            Msg::HeadJoinResp { pos, il, hops } => self.on_head_join_resp(from, pos, il, hops, ctx),
            Msg::AssociateJoinResp { pos, head } => {
                self.on_associate_join_resp(from, pos, head, ctx);
            }
            // sensing workload
            Msg::SensorReport { seq } => self.on_sensor_report(from, seq, ctx),
            Msg::DataBatch { items } => self.on_data_batch(from, items, ctx),
            Msg::DataCredit { grant } => self.on_data_credit(from, grant, ctx),
            // big-node mobility
            Msg::ProxyAssign => self.on_proxy_assign(from, ctx),
            Msg::ProxyRelease => self.on_proxy_release(from, ctx),
            // reliability envelope
            Msg::Reliable { seq, inner } => self.on_reliable(from, seq, *inner, ctx),
            Msg::DeliveryAck { seq } => self.on_delivery_ack(from, seq, ctx),
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        match timer {
            Timer::CollectDeadline { round } => self.on_collect_deadline(round, ctx),
            Timer::AwaitDecision { org_head } => self.on_await_decision(org_head, ctx),
            Timer::IntraHeartbeat => self.on_intra_heartbeat(ctx),
            Timer::InterHeartbeat => self.on_inter_heartbeat(ctx),
            Timer::AssocWatch => self.on_assoc_watch(ctx),
            Timer::SanityTick => self.on_sanity_tick(ctx),
            Timer::SanityDeadline { round } => self.on_sanity_deadline(round, ctx),
            Timer::BoundaryTick => self.on_boundary_tick(ctx),
            Timer::JoinProbe => self.on_join_probe(ctx),
            Timer::JoinDecision { round } => self.on_join_decision(round, ctx),
            Timer::Election { dead_head } => self.on_election(dead_head, ctx),
            Timer::BigCheck => self.on_big_check(ctx),
            Timer::ReportTick => self.on_report_tick(ctx),
            Timer::Retransmit { seq } => self.on_retransmit(seq, ctx),
        }
    }

    fn on_channel_granted(&mut self, ctx: &mut Ctx<'_>) {
        self.on_org_channel_granted(ctx);
    }
}
