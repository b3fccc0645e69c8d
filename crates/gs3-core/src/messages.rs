//! The GS³ wire protocol.
//!
//! Message names follow the paper's Appendix 2 where one exists (`org`,
//! `org_reply`, `head_org_reply`, `⟨HeadSet⟩`, `head_intra_alive`,
//! `head_retreat`, `replacing_head`, `cell_abandoned`, `head_inter_alive`,
//! `new_child_head`, `parent_seek`, `sanity_check_req`, …).

use std::sync::Arc;

use gs3_geometry::spiral::IccIcp;
use gs3_geometry::Point;
use gs3_sim::{NodeId, Payload};

/// Identity and placement of a head running `HEAD_ORG`, carried in `org`
/// and `⟨HeadSet⟩` so responders can rank it and selected children can
/// anchor their own ILs.
#[derive(Debug, Clone, PartialEq)]
pub struct OrgInfo {
    /// The organizing head.
    pub head: NodeId,
    /// Its actual position.
    pub pos: Point,
    /// The IL of its cell (selection anchors here, not at `pos`, to stop
    /// deviation accumulating).
    pub il: Point,
    /// The IL of its parent's cell (fixes the outgoing reference
    /// direction).
    pub parent_il: Point,
    /// Its hop count to the big node (or to the proxy acting as root).
    pub hops: u32,
    /// The root's (big node's or proxy's) position as this head knows it
    /// (parents are chosen by cartesian distance to the root).
    pub root_pos: Point,
}

/// One origin cell's sub-batch inside a `data_batch` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataItem {
    /// The originating head's batch sequence number.
    pub seq: u64,
    /// Leaf reports summed into the sub-batch.
    pub count: u32,
    /// Absolute production time (µs) of the sub-batch's oldest report —
    /// the sink measures end-to-end latency against this.
    pub born_us: u64,
    /// The head that produced the sub-batch (sink-side provenance; the
    /// relaying sender changes hop by hop, the origin does not).
    pub origin: NodeId,
}

/// One head selection in a `⟨HeadSet⟩` broadcast.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadAssignment {
    /// The selected node.
    pub node: NodeId,
    /// Its position (so bystanders can rank it as a potential head).
    pub pos: Point,
    /// The IL of the new cell.
    pub il: Point,
}

/// Cell state carried by intra-cell traffic (`head_intra_alive`,
/// `head_retreat`, `new_head_announce`): everything an associate needs to
/// know to act as candidate, elect a successor, or inherit the cell.
///
/// Built once per beat and shared behind an [`Arc`] by the frame, every
/// queued copy of it and every associate that stores it — immutable once
/// sent. (`Arc`, not `Rc`: whole networks move across `run_grid`'s worker
/// threads.)
#[derive(Debug, Clone, PartialEq)]
pub struct CellInfo {
    /// The current head.
    pub head: NodeId,
    /// The head's position.
    pub head_pos: Point,
    /// The cell's current IL.
    pub il: Point,
    /// The cell's original IL (the spiral anchor for cell shift).
    pub oil: Point,
    /// Position of the current IL in the intra-cell spiral.
    pub icc_icp: IccIcp,
    /// The cell's hop count to the root.
    pub hops: u32,
    /// The cell's parent head (inherited on election).
    pub parent: NodeId,
    /// The parent cell's IL.
    pub parent_il: Point,
    /// Ranked candidate ids (best first) — the election order.
    pub candidates: Vec<NodeId>,
    /// The root's position as the cell knows it.
    pub root_pos: Point,
}

/// Head state carried by `head_inter_alive`.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadInfo {
    /// The advertising head.
    pub head: NodeId,
    /// Its position.
    pub pos: Point,
    /// Its cell's current IL.
    pub il: Point,
    /// Its spiral position.
    pub icc_icp: IccIcp,
    /// Its hop count to the root (0 when it is the big node or the proxy).
    pub hops: u32,
    /// Its parent (so receivers can tell siblings from parents).
    pub parent: NodeId,
    /// The root's position as this head knows it.
    pub root_pos: Point,
}

/// Every message of the GS³ protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ------------------------------------------------------ head organization
    /// `org`: a head opens `HEAD_ORG` and solicits state from everything in
    /// its coordination range.
    Org(OrgInfo),
    /// `org_reply`: a small node reports its state to an organizing head.
    OrgReply {
        /// The responder's position.
        pos: Point,
        /// Its current head, with its distance to it, when it is an
        /// associate.
        current_head: Option<(NodeId, f64)>,
    },
    /// `head_org_reply`: an existing head reports its state to an
    /// organizing head.
    HeadOrgReply {
        /// The responder's position.
        pos: Point,
        /// Its cell's IL.
        il: Point,
        /// Its spiral position.
        icc_icp: IccIcp,
        /// Its hops to the root.
        hops: u32,
    },
    /// `⟨HeadSet⟩`: the selection result, closing the `HEAD_ORG` round.
    HeadSet {
        /// The organizing head's info (repeated for late listeners).
        org: OrgInfo,
        /// The selected neighbor heads.
        assignments: Vec<HeadAssignment>,
    },

    // --------------------------------------------------- intra-cell maintenance
    /// `head_intra_alive`: periodic heartbeat from head to cell.
    HeadIntraAlive(Arc<CellInfo>),
    /// `head_intra_ack`: an associate confirms membership (and reports
    /// position/energy so the head can maintain the candidate set).
    HeadIntraAck {
        /// The associate's position.
        pos: Point,
        /// Remaining energy (drives proactive head shift).
        energy: f64,
    },
    /// `associate_alive`: a node joins (or re-joins) a cell.
    AssociateAlive {
        /// The joiner's position.
        pos: Point,
    },
    /// `associate_retreat`: an associate leaves for a better cell.
    AssociateRetreat,
    /// `head_retreat`: the head steps down; candidates should elect.
    HeadRetreat(Arc<CellInfo>),
    /// `replacing_head`: a candidate (or the big node) takes over from the
    /// current head.
    ReplacingHead,
    /// A freshly elected or shifted head claims its cell (announced within
    /// the cell and to neighboring heads).
    NewHeadAnnounce(Arc<CellInfo>),
    /// `cell_abandoned`: the cell dissolves; members must re-join
    /// elsewhere.
    CellAbandoned,

    // --------------------------------------------------- inter-cell maintenance
    /// `head_inter_alive`: periodic head-to-heads heartbeat.
    HeadInterAlive(HeadInfo),
    /// `new_child_head`: a head adopts the receiver as its parent.
    NewChildHead {
        /// The child's position.
        pos: Point,
        /// The child's cell IL.
        il: Point,
    },
    /// A head informs its former parent that it switched away.
    ChildRetire,
    /// `parent_seek`: a head that lost its parent probes a neighbor.
    ParentSeek {
        /// The seeker's cell IL.
        il: Point,
        /// The seeker's seek round — echoed in the ack so stale acks from
        /// earlier rounds can be discarded.
        round: u64,
    },
    /// `parent_seek_ack`: the probed head accepts.
    ParentSeekAck {
        /// The acceptor's hops to the root.
        hops: u32,
        /// The acceptor's cell IL.
        il: Point,
        /// The acceptor's position.
        pos: Point,
        /// The seek round this ack answers (copied from the probe).
        round: u64,
    },

    // ------------------------------------------------------------ sanity check
    /// `sanity_check_req`: a head suspecting corruption asks neighbors to
    /// self-check.
    SanityCheckReq,
    /// `sanity_check_valid`: the neighbor found its own state consistent.
    SanityCheckValid,
    /// `head_retreat_corrupted`: a corrupted head demotes itself.
    HeadRetreatCorrupted,

    // -------------------------------------------------------------- node join
    /// A booting node probes for nearby heads/associates
    /// (`SMALL_NODE_BOOT_UP`).
    BootupProbe {
        /// The prober's position.
        pos: Point,
    },
    /// `HEAD_JOIN_RESP`: a head offers membership.
    HeadJoinResp {
        /// The head's position.
        pos: Point,
        /// Its cell's IL.
        il: Point,
        /// Its hops to the root.
        hops: u32,
    },
    /// `ASSOCIATE_JOIN_RESP`: an associate offers itself as surrogate head.
    AssociateJoinResp {
        /// The associate's position.
        pos: Point,
        /// The associate's own head.
        head: NodeId,
    },

    // ------------------------------------------------------- sensing workload
    /// A sensor report from an associate to its cell head.
    SensorReport {
        /// The reporting leaf's report sequence number (provenance; the
        /// head tallies gaps and duplicates per associate). Starts at 1;
        /// zero marks a report a demoted head passed along to its
        /// successor, whose provenance did not survive the detour.
        seq: u64,
    },
    /// A data-plane frame relayed hop-by-hop up the head tree toward the
    /// sink (credit-gated; see `gs3-dataplane`). Carries one or more
    /// per-origin sub-batches: relaying heads pack whatever is queued —
    /// up to the configured MTU — into one frame, the in-network
    /// aggregation the paper's convergecast traffic assumes.
    DataBatch {
        /// The aggregated sub-batches (at least one; bounded by
        /// `DataplaneConfig::max_frame_items`).
        items: Vec<DataItem>,
    },
    /// A flow-control credit grant from a parent (or the sink) back to
    /// the child whose batch it just dequeued.
    DataCredit {
        /// Credits granted (capped at the receiver's window).
        grant: u32,
    },

    // -------------------------------------------------------- big-node mobility
    /// The big node designates the receiver as its proxy (advertises hops
    /// 0 while the big node is away).
    ProxyAssign,
    /// The big node releases the receiver from proxy duty.
    ProxyRelease,

    // --------------------------------------------------- reliability envelope
    /// A one-shot control message wrapped for acked retransmission: the
    /// receiver acks `seq`, dedups redeliveries through a bounded window,
    /// and processes `inner` at most once per window.
    Reliable {
        /// Sender-local sequence number (monotone across all destinations).
        seq: u64,
        /// The wrapped control message.
        inner: Box<Msg>,
    },
    /// Acknowledges receipt of [`Msg::Reliable`] carrying `seq`.
    DeliveryAck {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

impl Payload for Msg {
    fn kind(&self) -> &'static str {
        match self {
            Msg::Org(_) => "org",
            Msg::OrgReply { .. } => "org_reply",
            Msg::HeadOrgReply { .. } => "head_org_reply",
            Msg::HeadSet { .. } => "head_set",
            Msg::HeadIntraAlive(_) => "head_intra_alive",
            Msg::HeadIntraAck { .. } => "head_intra_ack",
            Msg::AssociateAlive { .. } => "associate_alive",
            Msg::AssociateRetreat => "associate_retreat",
            Msg::HeadRetreat(_) => "head_retreat",
            Msg::ReplacingHead => "replacing_head",
            Msg::NewHeadAnnounce(_) => "new_head_announce",
            Msg::CellAbandoned => "cell_abandoned",
            Msg::HeadInterAlive(_) => "head_inter_alive",
            Msg::NewChildHead { .. } => "new_child_head",
            Msg::ChildRetire => "child_retire",
            Msg::ParentSeek { .. } => "parent_seek",
            Msg::ParentSeekAck { .. } => "parent_seek_ack",
            Msg::SanityCheckReq => "sanity_check_req",
            Msg::SanityCheckValid => "sanity_check_valid",
            Msg::HeadRetreatCorrupted => "head_retreat_corrupted",
            Msg::BootupProbe { .. } => "bootup_probe",
            Msg::HeadJoinResp { .. } => "head_join_resp",
            Msg::AssociateJoinResp { .. } => "associate_join_resp",
            Msg::SensorReport { .. } => "sensor_report",
            Msg::DataBatch { .. } => "data_batch",
            Msg::DataCredit { .. } => "data_credit",
            Msg::ProxyAssign => "proxy_assign",
            Msg::ProxyRelease => "proxy_release",
            Msg::Reliable { .. } => "reliable",
            Msg::DeliveryAck { .. } => "delivery_ack",
        }
    }

    /// Approximate serialized size, bits — drives frame airtime under
    /// medium contention. Sized per field family: 64 bits per coordinate
    /// pair / id / counter, plus list contents; tiny signals cost one
    /// word. Only *relative* sizes matter (a `head_set` occupies the air
    /// roughly an order of magnitude longer than an ack).
    fn wire_bits(&self) -> u64 {
        const WORD: u64 = 64;
        // id + pos + il + parent_il + root_pos + hops
        const ORG_INFO: u64 = 6 * WORD;
        // head + head_pos + il + oil + icc_icp + hops + parent +
        // parent_il + root_pos
        const CELL_FIXED: u64 = 9 * WORD;
        match self {
            Msg::Org(_) => ORG_INFO,
            Msg::OrgReply { .. } => 3 * WORD,
            Msg::HeadOrgReply { .. } => 4 * WORD,
            Msg::HeadSet { assignments, .. } => {
                ORG_INFO + 3 * WORD * assignments.len() as u64
            }
            Msg::HeadIntraAlive(ci) | Msg::HeadRetreat(ci) | Msg::NewHeadAnnounce(ci) => {
                CELL_FIXED + WORD * ci.candidates.len() as u64
            }
            Msg::HeadIntraAck { .. } => 2 * WORD,
            Msg::AssociateAlive { .. } | Msg::BootupProbe { .. } => WORD,
            Msg::HeadInterAlive(_) => 7 * WORD,
            Msg::NewChildHead { .. } => 2 * WORD,
            Msg::ParentSeek { .. } => 2 * WORD,
            Msg::ParentSeekAck { .. } => 4 * WORD,
            Msg::HeadJoinResp { .. } => 3 * WORD,
            Msg::AssociateJoinResp { .. } => 2 * WORD,
            Msg::SensorReport { .. } => 2 * WORD,
            // Frame header, plus seq + count + born_us + origin per item.
            Msg::DataBatch { items } => WORD + 4 * WORD * items.len() as u64,
            Msg::DataCredit { .. } => WORD,
            Msg::Reliable { inner, .. } => WORD + inner.wire_bits(),
            Msg::DeliveryAck { .. } => WORD,
            // Bare signals cost one word.
            Msg::AssociateRetreat
            | Msg::ReplacingHead
            | Msg::CellAbandoned
            | Msg::ChildRetire
            | Msg::SanityCheckReq
            | Msg::SanityCheckValid
            | Msg::HeadRetreatCorrupted
            | Msg::ProxyAssign
            | Msg::ProxyRelease => WORD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_for_core_messages() {
        let org = OrgInfo {
            head: NodeId::new(0),
            pos: Point::ORIGIN,
            il: Point::ORIGIN,
            parent_il: Point::ORIGIN,
            hops: 0,
            root_pos: Point::ORIGIN,
        };
        let msgs = [
            Msg::Org(org.clone()),
            Msg::OrgReply { pos: Point::ORIGIN, current_head: None },
            Msg::HeadSet { org, assignments: vec![] },
            Msg::AssociateRetreat,
            Msg::ReplacingHead,
            Msg::CellAbandoned,
            Msg::ChildRetire,
            Msg::SanityCheckReq,
            Msg::SanityCheckValid,
            Msg::HeadRetreatCorrupted,
            Msg::BootupProbe { pos: Point::ORIGIN },
            Msg::ProxyAssign,
            Msg::ProxyRelease,
        ];
        let kinds: std::collections::BTreeSet<_> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds.len(), msgs.len());
    }

    /// Airtime on the contended medium is `wire_bits`; a silent change to
    /// one arm moved a headline experiment once (`sensor_report`, one
    /// word → two). One row per variant, in 64-bit words.
    #[test]
    fn wire_bits_table() {
        let o = Point::ORIGIN;
        let id = NodeId::new(1);
        let org =
            OrgInfo { head: id, pos: o, il: o, parent_il: o, hops: 0, root_pos: o };
        let cell = Arc::new(CellInfo {
            head: id,
            head_pos: o,
            il: o,
            oil: o,
            icc_icp: IccIcp::ORIGIN,
            hops: 1,
            parent: id,
            parent_il: o,
            candidates: vec![id, id, id],
            root_pos: o,
        });
        let head = HeadInfo {
            head: id,
            pos: o,
            il: o,
            icc_icp: IccIcp::ORIGIN,
            hops: 1,
            parent: id,
            root_pos: o,
        };
        let item = DataItem { seq: 1, count: 1, born_us: 0, origin: id };
        let assignment = HeadAssignment { node: id, pos: o, il: o };
        let table = [
            (Msg::Org(org.clone()), 6),
            (Msg::OrgReply { pos: o, current_head: None }, 3),
            (Msg::HeadOrgReply { pos: o, il: o, icc_icp: IccIcp::ORIGIN, hops: 1 }, 4),
            (Msg::HeadSet { org: org.clone(), assignments: vec![] }, 6),
            (Msg::HeadSet { org, assignments: vec![assignment.clone(), assignment] }, 12),
            (Msg::HeadIntraAlive(cell.clone()), 12),
            (Msg::HeadIntraAck { pos: o, energy: 1.0 }, 2),
            (Msg::AssociateAlive { pos: o }, 1),
            (Msg::AssociateRetreat, 1),
            (Msg::HeadRetreat(cell.clone()), 12),
            (Msg::ReplacingHead, 1),
            (Msg::NewHeadAnnounce(cell), 12),
            (Msg::CellAbandoned, 1),
            (Msg::HeadInterAlive(head), 7),
            (Msg::NewChildHead { pos: o, il: o }, 2),
            (Msg::ChildRetire, 1),
            (Msg::ParentSeek { il: o, round: 1 }, 2),
            (Msg::ParentSeekAck { hops: 1, il: o, pos: o, round: 1 }, 4),
            (Msg::SanityCheckReq, 1),
            (Msg::SanityCheckValid, 1),
            (Msg::HeadRetreatCorrupted, 1),
            (Msg::BootupProbe { pos: o }, 1),
            (Msg::HeadJoinResp { pos: o, il: o, hops: 1 }, 3),
            (Msg::AssociateJoinResp { pos: o, head: id }, 2),
            (Msg::SensorReport { seq: 1 }, 2),
            (Msg::DataBatch { items: vec![item] }, 5),
            (Msg::DataBatch { items: vec![item; 32] }, 129),
            (Msg::DataCredit { grant: 1 }, 1),
            (Msg::ProxyAssign, 1),
            (Msg::ProxyRelease, 1),
            (Msg::Reliable { seq: 1, inner: Box::new(Msg::ParentSeek { il: o, round: 1 }) }, 3),
            (Msg::DeliveryAck { seq: 1 }, 1),
        ];
        for (msg, words) in table {
            assert_eq!(msg.wire_bits(), 64 * words, "{}", msg.kind());
        }
    }

    #[test]
    fn paper_names_preserved() {
        assert_eq!(Msg::SanityCheckReq.kind(), "sanity_check_req");
        assert_eq!(Msg::AssociateRetreat.kind(), "associate_retreat");
    }
}
