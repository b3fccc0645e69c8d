//! Timer payloads of the GS³ node state machine.

use gs3_sim::NodeId;

/// All timers a GS³ node schedules. Round counters guard several timers
/// against stale firings after the state they belong to has been torn down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Timer {
    /// End of a `HEAD_ORG` collection window.
    CollectDeadline {
        /// The `HEAD_ORG` round this deadline belongs to.
        round: u64,
    },
    /// A small node that answered an `org` gives up waiting for the
    /// `⟨HeadSet⟩` decision.
    AwaitDecision {
        /// The head whose decision was awaited.
        org_head: NodeId,
    },
    /// Periodic `head_intra_alive`.
    IntraHeartbeat,
    /// Periodic `head_inter_alive`.
    InterHeartbeat,
    /// An associate checks whether its head went silent.
    AssocWatch,
    /// Periodic low-frequency `SANITY_CHECK`.
    SanityTick,
    /// End of a sanity round's neighbor-verdict window.
    SanityDeadline {
        /// The sanity round this deadline belongs to.
        round: u64,
    },
    /// Boundary heads periodically re-probe empty directions with
    /// `HEAD_ORG`.
    BoundaryTick,
    /// A booting node (re)probes for heads to join.
    JoinProbe,
    /// End of a join probe's offer-collection window.
    JoinDecision {
        /// The probe round this deadline belongs to.
        round: u64,
    },
    /// A candidate's staggered self-promotion attempt during head-shift
    /// election.
    Election {
        /// The head whose failure triggered the election.
        dead_head: NodeId,
    },
    /// The big node's periodic check while away from head duty
    /// (`BIG_SLIDE` / `BIG_MOVE`).
    BigCheck,
    /// The periodic sensing-workload tick (report / aggregate-and-relay).
    ReportTick,
    /// A reliable-delivery retransmission deadline for the pending send
    /// with this sequence number (cancelled when its ack arrives).
    Retransmit {
        /// The sequence number of the pending reliable send.
        seq: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_includes_round() {
        assert_eq!(Timer::CollectDeadline { round: 1 }, Timer::CollectDeadline { round: 1 });
        assert_ne!(Timer::CollectDeadline { round: 1 }, Timer::CollectDeadline { round: 2 });
        assert_ne!(
            Timer::Election { dead_head: NodeId::new(1) },
            Timer::Election { dead_head: NodeId::new(2) }
        );
    }

    /// A queue entry is the receiver, this enum inline, and a handle to
    /// the shared transmission record — no message. The width is gated
    /// because the engine moves one such entry per pending event through
    /// every radix redistribution (EXPERIMENTS.md "Performance").
    #[test]
    fn pending_event_is_at_most_48_bytes() {
        let bytes = gs3_sim::Engine::<crate::Gs3Node>::pending_event_bytes();
        assert!(bytes <= 48, "queue entry grew to {bytes} bytes");
    }

    /// A node's protocol state without what its network shares (the
    /// configuration) or its cell shares (the head's `CellInfo`): the
    /// arena's cold column is this wide per node, 10⁶ times over.
    #[test]
    fn gs3node_is_at_most_320_bytes() {
        let bytes = std::mem::size_of::<crate::Gs3Node>();
        assert!(bytes <= 320, "Gs3Node grew to {bytes} bytes");
    }

    /// One transmission record holds one `Msg`, and a handler receives
    /// one by value per delivery.
    #[test]
    fn msg_is_at_most_96_bytes() {
        let bytes = std::mem::size_of::<crate::messages::Msg>();
        assert!(bytes <= 96, "Msg grew to {bytes} bytes");
    }
}
