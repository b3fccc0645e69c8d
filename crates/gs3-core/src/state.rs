//! Per-node protocol state.
//!
//! A GS³ node is always in exactly one [`Role`]. The paper's status values
//! map as follows:
//!
//! | paper status            | here                                      |
//! |-------------------------|-------------------------------------------|
//! | `bootup`                | [`Role::Bootup`]                          |
//! | `head` (organizing)     | [`Role::Head`] with [`OrgRound`] active   |
//! | `work` (operating head) | [`Role::Head`] with no active round       |
//! | `associate`/`candidate` | [`Role::Associate`] (candidacy is derived: within `R_t` of the cell IL) |
//! | `big_slide`/`big_move`  | [`Role::BigAway`]                         |

use std::collections::BTreeMap;
use std::sync::Arc;

use gs3_geometry::spiral::IccIcp;
use gs3_geometry::Point;
use gs3_sim::{NodeId, SimTime};

use crate::messages::CellInfo;
use crate::node::LayerState;

/// What a node currently is.
#[derive(Debug, Clone, PartialEq)]
pub enum Role {
    /// Not yet part of any cell.
    Bootup(BootupState),
    /// A cell head (the big node when present, otherwise a small node).
    Head(Box<HeadState>),
    /// A cell member. Candidacy (being within `R_t` of the cell IL) is a
    /// derived property, not a separate role.
    Associate(AssocState),
    /// The big node while not acting as a head (`big_slide` in dynamic
    /// networks, `big_move` in mobile ones).
    BigAway(BigAwayState),
}

impl Role {
    /// Fresh bootup state.
    #[must_use]
    pub fn bootup() -> Role {
        Role::Bootup(BootupState::default())
    }

    /// Short status name (for traces and snapshots).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Role::Bootup(_) => "bootup",
            Role::Head(_) => "head",
            Role::Associate(_) => "associate",
            Role::BigAway(b) => {
                if b.mobile {
                    "big_move"
                } else {
                    "big_slide"
                }
            }
        }
    }
}

/// State of a node that has not joined a cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BootupState {
    /// Set while awaiting a `⟨HeadSet⟩` decision from this organizing head.
    pub awaiting_decision: Option<NodeId>,
    /// Monotone probe round (guards stale `JoinDecision` timers).
    pub probe_round: u64,
    /// True while a probe's offer window is open.
    pub collecting: bool,
    /// Head offers gathered in the current probe window: `(head, head_pos,
    /// hops)`.
    pub head_offers: Vec<(NodeId, Point, u32)>,
    /// Associate (surrogate) offers gathered: `(associate, pos)`.
    pub assoc_offers: Vec<(NodeId, Point)>,
    /// Number of probes sent (drives backoff).
    pub attempts: u32,
}

/// What a head knows about one neighboring head.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborInfo {
    /// Last reported position.
    pub pos: Point,
    /// Its cell's IL.
    pub il: Point,
    /// Its spiral position.
    pub icc_icp: IccIcp,
    /// Its advertised hops to the root.
    pub hops: u32,
    /// When we last heard from it.
    pub last_heard: SimTime,
}

/// What a head knows about one associate of its cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociateInfo {
    /// Last reported position.
    pub pos: Point,
    /// Last reported remaining energy.
    pub energy: f64,
    /// When we last heard from it.
    pub last_heard: SimTime,
    /// Highest sensor-report sequence seen from this associate (0 until
    /// the first sequenced report; data-plane provenance for gap/duplicate
    /// accounting).
    pub last_report_seq: u64,
}

/// A small node's `org_reply`: `(node, position, current head and its
/// distance if the node is an associate)`.
pub type SmallReply = (NodeId, Point, Option<(NodeId, f64)>);

/// An in-progress `HEAD_ORG` round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OrgRound {
    /// Monotone round id (guards stale `CollectDeadline` timers).
    pub round: u64,
    /// True once the channel grant arrived and `org` went out.
    pub soliciting: bool,
    /// Small-node replies.
    pub small: Vec<SmallReply>,
    /// Existing-head replies: `(node, pos, il)`.
    pub heads: Vec<(NodeId, Point, Point)>,
}

/// A pending sanity-check round.
#[derive(Debug, Clone, PartialEq)]
pub struct SanityRound {
    /// Monotone round id.
    pub round: u64,
    /// Neighbors asked for verdicts.
    pub asked: Vec<NodeId>,
    /// Neighbors that answered `sanity_check_valid`.
    pub valid: Vec<NodeId>,
}

/// Full state of an operating head.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadState {
    /// This cell's current IL.
    pub il: Point,
    /// This cell's original IL (the spiral anchor).
    pub oil: Point,
    /// Spiral position of the current IL.
    pub icc_icp: IccIcp,
    /// Parent head (self for the big node acting as root).
    pub parent: NodeId,
    /// The parent cell's IL.
    pub parent_il: Point,
    /// The parent's last known position.
    pub parent_pos: Point,
    /// The root's (big node's or proxy's) position as this head knows it.
    /// The paper parents each head on the neighboring head *closest to the
    /// big node* (cartesian), which is what keeps big-node moves contained
    /// (Theorem 11); this field diffuses the yardstick down the tree.
    pub root_pos: Point,
    /// Hops to the root (0 for the big node / proxy).
    pub hops: u32,
    /// When we last heard the parent.
    pub parent_last_heard: SimTime,
    /// Children heads.
    pub children: BTreeMap<NodeId, NeighborInfo>,
    /// All known neighboring heads (including parent and children).
    pub neighbors: BTreeMap<NodeId, NeighborInfo>,
    /// Cell members.
    pub associates: BTreeMap<NodeId, AssociateInfo>,
    /// The in-progress `HEAD_ORG` round, if any.
    pub org: Option<OrgRound>,
    /// Monotone `HEAD_ORG` round counter.
    pub org_rounds: u64,
    /// True once this head has completed at least one `HEAD_ORG`.
    pub organized_once: bool,
    /// The pending sanity round, if any.
    pub sanity: Option<SanityRound>,
    /// Monotone sanity round counter.
    pub sanity_rounds: u64,
    /// True while serving as the big node's proxy (advertises hops 0).
    pub is_proxy: bool,
    /// When the proxy role was last refreshed.
    pub proxy_refreshed: SimTime,
    /// Sensing-workload reports received since the last relay tick.
    pub pending_reports: u32,
    /// Monotone `parent_seek` round counter (echoed in acks so stale
    /// acks from earlier rounds can be rejected).
    pub seek_rounds: u64,
    /// The seek round currently awaiting an ack, if any.
    pub pending_seek: Option<u64>,
    /// Consecutive parent-seek rounds that went unanswered (reset on
    /// re-attach; drives quarantine entry).
    pub failed_seeks: u32,
    /// True while in quarantine: disconnected from the head graph but
    /// still serving the cell; the aggregation queue fills but does not
    /// drain.
    pub quarantined: bool,
}

impl HeadState {
    /// A head freshly anchored at `il` with the given parentage.
    #[must_use]
    // Load-bearing: a head's anchor is irreducibly 8 values (two ILs, the
    // spiral position, parentage, root, hops, birth time); bundling them
    // into an ad-hoc struct would just move the argument list.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        il: Point,
        oil: Point,
        icc_icp: IccIcp,
        parent: NodeId,
        parent_il: Point,
        root_pos: Point,
        hops: u32,
        now: SimTime,
    ) -> Self {
        HeadState {
            il,
            oil,
            icc_icp,
            parent,
            parent_il,
            parent_pos: parent_il,
            root_pos,
            hops,
            parent_last_heard: now,
            children: BTreeMap::new(),
            neighbors: BTreeMap::new(),
            associates: BTreeMap::new(),
            org: None,
            org_rounds: 0,
            organized_once: false,
            sanity: None,
            sanity_rounds: 0,
            is_proxy: false,
            proxy_refreshed: SimTime::ZERO,
            pending_reports: 0,
            seek_rounds: 0,
            pending_seek: None,
            failed_seeks: 0,
            quarantined: false,
        }
    }

    /// The ranked candidate list: associates within `r_t` of the current
    /// IL, best (lowest `⟨d, |A|, A⟩` rank) first.
    #[must_use]
    pub fn ranked_candidates(&self, r_t: f64, gr: gs3_geometry::Angle) -> Vec<NodeId> {
        let mut cands: Vec<(gs3_geometry::rank::RankKey, NodeId)> = self
            .associates
            .iter()
            .filter(|(_, info)| info.pos.distance(self.il) <= r_t)
            .map(|(id, info)| {
                (gs3_geometry::rank::RankKey::new(self.il, info.pos, gr, id.raw()), *id)
            })
            .collect();
        cands.sort_by_key(|a| a.0);
        cands.into_iter().map(|(_, id)| id).collect()
    }

    /// A [`CellInfo`] snapshot suitable for intra-cell broadcast: one
    /// shared record per beat.
    #[must_use]
    pub fn cell_info(&self, head: NodeId, head_pos: Point, r_t: f64, gr: gs3_geometry::Angle) -> Arc<CellInfo> {
        Arc::new(CellInfo {
            head,
            head_pos,
            il: self.il,
            oil: self.oil,
            icc_icp: self.icc_icp,
            hops: self.hops,
            parent: self.parent,
            parent_il: self.parent_il,
            candidates: self.ranked_candidates(r_t, gr),
            root_pos: self.root_pos,
        })
    }
}

/// Full state of an associate.
#[derive(Debug, Clone, PartialEq)]
pub struct AssocState {
    /// The cell head.
    pub head: NodeId,
    /// The head's last known position.
    pub head_pos: Point,
    /// The cell this node belongs to (inherited on election): the head's
    /// own record, shared with the rest of the cell.
    pub cell: Arc<CellInfo>,
    /// When we last heard the head.
    pub last_heard: SimTime,
    /// True when joined through an associate (no head in range) — the
    /// paper's *surrogate* relationship.
    pub surrogate: bool,
    /// An election in progress for this failed head, if any.
    pub election_pending: Option<NodeId>,
}

impl AssocState {
    /// Whether this associate is a head candidate: within `r_t` of the
    /// cell's current IL.
    #[must_use]
    pub fn is_candidate(&self, own_pos: Point, r_t: f64) -> bool {
        !self.surrogate && own_pos.distance(self.cell.il) <= r_t
    }
}

/// State of the big node while away from head duty.
#[derive(Debug, Clone, PartialEq)]
pub struct BigAwayState {
    /// True in GS³-M `big_move` (the big node physically moved); false in
    /// GS³-D `big_slide` (the structure slid away underneath it).
    pub mobile: bool,
    /// The current proxy, if one is assigned.
    pub proxy: Option<NodeId>,
    /// Heads recently overheard: id → (position, cell IL, when).
    pub known_heads: BTreeMap<NodeId, (Point, Point, SimTime)>,
    /// When the big node entered this away-state.
    pub since: SimTime,
}

impl BigAwayState {
    /// A fresh away-state entered at `since`.
    #[must_use]
    pub fn new(mobile: bool, since: SimTime) -> Self {
        BigAwayState { mobile, proxy: None, known_heads: BTreeMap::new(), since }
    }
}

/// Per-node convergecast data-plane state (see `gs3-dataplane`).
///
/// Lives *outside* [`Role`] so it survives role transitions (a head that
/// retreats and is re-elected keeps its batch sequence space, which the
/// sink's dedup depends on). Default-empty, and not even boxed in a run
/// with no traffic.
#[derive(Debug, Clone, Default)]
pub struct DataState {
    /// As a head: sequence of the last batch produced from the own cell.
    pub next_seq: u64,
    /// Production time of the oldest report accumulated since the last
    /// tick (batch latency is measured from here).
    pub accum_born: Option<SimTime>,
    /// As a head: the bounded aggregation queue (doubles as the quarantine
    /// buffer while partitioned — quarantine just stops the drain).
    pub queue: gs3_dataplane::AggQueue,
    /// As a head: credits held against the parent.
    pub gate: gs3_dataplane::CreditGate,
    /// The parent the gate's credits were issued by. Checked lazily at
    /// drain time: a mismatch means the head re-parented since, so the
    /// gate resets to a full window (the old parent's unreturned credits
    /// die with the old attachment).
    pub gate_parent: Option<NodeId>,
    /// On the big node only: the sink-side delivery ledger (boxed so the
    /// histogram never multiplies across a million-node arena).
    pub ledger: Option<Box<gs3_dataplane::SinkLedger>>,
}

impl LayerState for DataState {
    fn empty() -> &'static Self {
        static EMPTY: DataState = DataState {
            next_seq: 0,
            accum_born: None,
            queue: gs3_dataplane::AggQueue::new(),
            gate: gs3_dataplane::CreditGate::full(0),
            gate_parent: None,
            ledger: None,
        };
        &EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs3_geometry::Angle;

    #[test]
    fn role_names() {
        assert_eq!(Role::bootup().name(), "bootup");
        assert_eq!(Role::BigAway(BigAwayState::new(true, SimTime::ZERO)).name(), "big_move");
        assert_eq!(Role::BigAway(BigAwayState::new(false, SimTime::ZERO)).name(), "big_slide");
    }

    #[test]
    fn ranked_candidates_filters_and_sorts() {
        let mut h = HeadState::new(
            Point::ORIGIN,
            Point::ORIGIN,
            IccIcp::ORIGIN,
            NodeId::new(0),
            Point::ORIGIN,
            Point::ORIGIN,
            1,
            SimTime::ZERO,
        );
        let add = |h: &mut HeadState, id: u64, pos: Point| {
            h.associates.insert(
                NodeId::new(id),
                AssociateInfo { pos, energy: 1.0, last_heard: SimTime::ZERO, last_report_seq: 0 },
            );
        };
        add(&mut h, 1, Point::new(5.0, 0.0)); // candidate, d=5
        add(&mut h, 2, Point::new(0.0, 2.0)); // candidate, d=2 (best)
        add(&mut h, 3, Point::new(50.0, 0.0)); // not a candidate
        let ranked = h.ranked_candidates(10.0, Angle::ZERO);
        assert_eq!(ranked, vec![NodeId::new(2), NodeId::new(1)]);
    }

    #[test]
    fn candidacy_is_distance_to_il() {
        let cell = CellInfo {
            head: NodeId::new(9),
            head_pos: Point::ORIGIN,
            il: Point::new(100.0, 0.0),
            oil: Point::new(100.0, 0.0),
            icc_icp: IccIcp::ORIGIN,
            hops: 1,
            parent: NodeId::new(0),
            parent_il: Point::ORIGIN,
            candidates: vec![],
            root_pos: Point::ORIGIN,
        };
        let a = AssocState {
            head: NodeId::new(9),
            head_pos: Point::ORIGIN,
            cell: Arc::new(cell),
            last_heard: SimTime::ZERO,
            surrogate: false,
            election_pending: None,
        };
        assert!(a.is_candidate(Point::new(95.0, 0.0), 10.0));
        assert!(!a.is_candidate(Point::new(80.0, 0.0), 10.0));
        let mut s = a.clone();
        s.surrogate = true;
        assert!(!s.is_candidate(Point::new(95.0, 0.0), 10.0));
    }
}
