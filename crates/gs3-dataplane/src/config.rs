//! Data-plane configuration.

/// Tuning of the convergecast data plane.
///
/// There is no switch here: a scenario has traffic when its
/// `report_period` is non-zero, and traffic *is* this data plane —
/// sequenced reports, per-head aggregation queues, credit-gated relay,
/// a sink ledger. With no traffic the layer is *inert* — no messages,
/// timers, RNG draws or counters, and no ledger is ever allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataplaneConfig {
    /// Bound of each head's aggregation queue, in batches. Overflow drops
    /// the oldest batch (with its reports accounted as lost).
    pub queue_capacity: usize,
    /// Credits a head holds against its parent when freshly attached —
    /// the maximum number of its batches in flight or queued upstream.
    pub credit_window: u32,
    /// Consecutive report ticks a head may sit starved (zero credits,
    /// non-empty queue) before the stall-recovery escape hatch restores a
    /// single credit.
    pub stall_recovery_ticks: u32,
    /// In-network aggregation bound: the most sub-batches a relaying head
    /// packs into one `data_batch` frame (its MTU, in batch items). This
    /// is what makes convergecast scale — without it every origin cell
    /// costs the inner rings one whole frame per period, and the funnel's
    /// transmit budget (not its queue) becomes the lifetime bottleneck.
    /// The round-model baselines assume perfect aggregation (one frame
    /// per cluster per round, any load); a bounded MTU is the honest
    /// event-level counterpart.
    pub max_frame_items: usize,
}

impl DataplaneConfig {
    /// The default tuning.
    #[must_use]
    pub fn on() -> Self {
        DataplaneConfig {
            queue_capacity: 32,
            credit_window: 4,
            stall_recovery_ticks: 4,
            max_frame_items: 32,
        }
    }
}
