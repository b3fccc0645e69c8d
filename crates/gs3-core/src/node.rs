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

use std::fmt;
use std::ops::Deref;
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
    /// role transitions, and boxed only when the layer is on.
    pub(crate) rel: LayerBox<ReliableState>,
    /// Congestion-adaptation state (observation baseline and stretch
    /// exponent) — also role-independent.
    pub(crate) cong: crate::congestion::CongestionState,
    /// As a leaf: sequence of the last sensor report sent. The one
    /// data-plane field a leaf's report tick writes, kept in the row (in
    /// what would be padding) so that the most frequent data-plane event
    /// does not chase the box below.
    pub(crate) leaf_seq: u32,
    /// Convergecast data-plane state (queues, credits, sequence spaces) —
    /// role-independent, and boxed only in a run with traffic.
    pub(crate) data: LayerBox<DataState>,
}

/// A layer's per-node state, with the one empty state that every node of
/// a network with the layer off reads.
pub(crate) trait LayerState: Default + fmt::Debug + 'static {
    /// The shared empty state: `Default::default()`, as a `static`.
    fn empty() -> &'static Self;
}

/// Per-node state of an optional protocol layer. A network whose
/// configuration turns the layer on boxes it on every node; one that does
/// not keeps a null pointer per node, and every read sees the layer's
/// shared [`LayerState::empty`] — so a node row holds only what every node
/// uses (DESIGN.md §6.1).
#[derive(Clone)]
pub(crate) struct LayerBox<T>(Option<Box<T>>);

impl<T: LayerState> LayerBox<T> {
    /// Boxes an empty state if the layer is `on`.
    fn new(on: bool) -> Self {
        LayerBox(on.then(Box::default))
    }

    /// The state, for writing. A node of a layer-off network boxes an
    /// empty state here on its first write — which no handler of such a
    /// run makes (every write sits behind the layer's switch).
    pub(crate) fn make_mut(&mut self) -> &mut T {
        self.0.get_or_insert_with(Box::default)
    }

    /// Whether this node holds its own box.
    #[cfg(test)]
    pub(crate) fn is_boxed(&self) -> bool {
        self.0.is_some()
    }
}

impl<T: LayerState> Deref for LayerBox<T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.0 {
            Some(state) => state,
            None => T::empty(),
        }
    }
}

impl<T: LayerState> fmt::Debug for LayerBox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Gs3Node {
    /// Creates a small node.
    #[must_use]
    pub fn small(cfg: Arc<Gs3Config>) -> Self {
        Gs3Node::new(cfg, false)
    }

    /// Creates the big node (initiator and root of the head graph).
    #[must_use]
    pub fn big(cfg: Arc<Gs3Config>) -> Self {
        Gs3Node::new(cfg, true)
    }

    /// A node in bootup, holding a box for each layer `cfg` turns on:
    /// reliability when it is enabled, the data plane when reports flow.
    fn new(cfg: Arc<Gs3Config>, is_big: bool) -> Self {
        let rel = LayerBox::new(cfg.reliability.enabled);
        let data = LayerBox::new(!cfg.report_period.is_zero());
        Gs3Node { cfg, is_big, role: Role::bootup(), rel, cong: Default::default(), leaf_seq: 0, data }
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

#[cfg(test)]
mod tests {
    use gs3_geometry::Point;
    use gs3_sim::SimDuration;

    use super::{DataState, LayerState, ReliableState};
    use crate::harness::{Network, NetworkBuilder};
    use crate::ReliabilityConfig;

    /// A 400-node Dynamic field, configured by `layers`.
    fn field(layers: impl FnOnce(NetworkBuilder) -> NetworkBuilder) -> Network {
        let base = NetworkBuilder::new()
            .ideal_radius(40.0)
            .radius_tolerance(14.0)
            .area_radius(200.0)
            .expected_nodes(400)
            .seed(11);
        layers(base).build().unwrap()
    }

    /// How many alive nodes box their reliability and data-plane state.
    fn boxes(net: &Network) -> (usize, usize) {
        let eng = net.engine();
        let nodes = || eng.alive_ids().map(|id| eng.node(id).unwrap());
        (nodes().filter(|n| n.rel.is_boxed()).count(), nodes().filter(|n| n.data.is_boxed()).count())
    }

    /// Through configuration, a disk of failures (heads among them:
    /// elections, parent seeks, child expiry), a join and the healing, a
    /// layer that is on is boxed on every node, the joiner included, and
    /// a layer that is off on none — no handler of a layer-off run writes
    /// its state.
    #[test]
    fn boxes_follow_the_layer_switches() {
        for (rel, traffic) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut net = field(|mut b| {
                if rel {
                    b = b.reliability(ReliabilityConfig::on());
                }
                if traffic {
                    b = b.traffic(SimDuration::from_secs(5));
                }
                b
            });
            net.run_to_fixpoint();
            assert!(!net.kill_disk(Point::new(60.0, 0.0), 45.0).is_empty());
            let joiner = net.join_node(Point::new(-30.0, 20.0));
            net.run_for(SimDuration::from_secs(120));
            let n = net.engine().alive_ids().count();
            let want = (if rel { n } else { 0 }, if traffic { n } else { 0 });
            assert_eq!(boxes(&net), want, "reliability {rel}, traffic {traffic}");
            let joiner = net.engine().node(joiner).unwrap();
            assert_eq!((joiner.rel.is_boxed(), joiner.data.is_boxed()), (rel, traffic));
        }
    }

    /// A state folds the same boxed or not: a fresh box holds exactly
    /// the shared empty state.
    #[test]
    fn an_empty_box_fingerprints_as_no_box() {
        let text = |s: &dyn std::fmt::Debug| format!("{s:?}");
        assert_eq!(text(ReliableState::empty()), text(&ReliableState::default()));
        assert_eq!(text(DataState::empty()), text(&DataState::default()));
        let mut net = field(|b| b);
        net.run_to_fixpoint();
        let before = net.fingerprint();
        let victim = net.engine().alive_ids().find(|id| *id != net.big_id()).unwrap();
        let node = net.engine_mut().node_mut(victim).unwrap();
        let _ = (node.rel.make_mut(), node.data.make_mut());
        assert!(node.rel.is_boxed() && node.data.is_boxed());
        assert_eq!(net.fingerprint(), before);
    }
}
