//! The sink-side delivery ledger.

use std::collections::BTreeMap;

use gs3_sim::NodeId;
use gs3_telemetry::json::{self, JsonWriter};
use gs3_telemetry::metrics::LogHistogram;

/// Width of the per-origin anti-replay window, in sequence numbers.
///
/// Radio jitter reorders batches sent in the same drain burst (a credit
/// window's worth go out back-to-back), so the sink cannot use a bare
/// high-water mark: a batch arriving just behind its successor would be
/// misbooked as a replay. A 64-bit bitmap behind the high-water mark —
/// the classic IPsec anti-replay shape — accepts any reordering narrower
/// than 64 sequences while still rejecting true re-deliveries.
const REPLAY_WINDOW: u64 = 64;

/// Per-origin anti-replay state: highest sequence consumed plus a bitmap
/// of which of the `REPLAY_WINDOW` sequences below it were consumed.
#[derive(Debug, Clone, Copy, Default)]
struct SeqWindow {
    high: u64,
    /// Bit `k` set ⇔ sequence `high - 1 - k` was consumed.
    bitmap: u64,
}

impl SeqWindow {
    /// Marks `seq` consumed. Returns false if it was already consumed (or
    /// is too far behind the window to tell — treated as a replay).
    fn admit(&mut self, seq: u64) -> bool {
        if seq > self.high {
            let shift = seq - self.high;
            self.bitmap = if shift >= REPLAY_WINDOW {
                0
            } else {
                // The old high-water mark becomes bit (shift - 1).
                (self.bitmap << shift) | (1 << (shift - 1))
            };
            self.high = seq;
            return true;
        }
        if seq == self.high {
            return false;
        }
        let back = self.high - seq;
        if back > REPLAY_WINDOW {
            return false;
        }
        let bit = 1u64 << (back - 1);
        if self.bitmap & bit != 0 {
            return false;
        }
        self.bitmap |= bit;
        true
    }
}

/// What the big node has consumed from the convergecast stream.
///
/// Lives only on the sink (boxed behind the big node's data-plane state),
/// so its histogram never multiplies across a million-node arena.
#[derive(Debug, Clone, Default)]
pub struct SinkLedger {
    /// Batches consumed.
    pub batches: u64,
    /// Leaf reports summed across consumed batches.
    pub reports: u64,
    /// End-to-end latency (µs) from the batch's oldest report to sink
    /// consumption.
    pub latency_us: LogHistogram,
    /// Anti-replay window per originating head, for provenance:
    /// re-deliveries of an already-consumed sequence are counted instead
    /// of double-booked, while jitter-reordered arrivals still consume.
    seen: BTreeMap<NodeId, SeqWindow>,
    /// Batches whose (origin, seq) was already consumed — replay
    /// duplicates suppressed at the sink.
    pub duplicate_batches: u64,
}

impl SinkLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        SinkLedger::default()
    }

    /// Consumes one delivered batch. Returns false (and books a
    /// duplicate, counting no reports) when this origin already delivered
    /// `seq` — the sink-side half of the no-double-counting guarantee for
    /// quarantine replays.
    pub fn consume(&mut self, origin: NodeId, seq: u64, count: u32, latency_us: u64) -> bool {
        if !self.seen.entry(origin).or_default().admit(seq) {
            self.duplicate_batches += 1;
            return false;
        }
        self.batches += 1;
        self.reports += u64::from(count);
        self.latency_us.record(latency_us);
        true
    }

    /// Serialize as one stable-keyed JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }

    /// Writes the [`SinkLedger::to_json`] object in place.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("batches").u64(self.batches);
            w.key("reports").u64(self.reports);
            w.key("duplicate_batches").u64(self.duplicate_batches);
            self.latency_us.write_json(w.key("latency_us"));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_tracks_and_dedups() {
        let mut l = SinkLedger::new();
        let origin = NodeId::new(7);
        assert!(l.consume(origin, 1, 3, 1000));
        assert!(l.consume(origin, 2, 2, 2000));
        assert!(!l.consume(origin, 2, 2, 2000), "replayed seq rejected");
        assert!(!l.consume(origin, 1, 3, 9000), "replayed seq rejected");
        assert_eq!(l.batches, 2);
        assert_eq!(l.reports, 5);
        assert_eq!(l.duplicate_batches, 2);
        assert_eq!(l.latency_us.count(), 2);
        // A different origin has its own sequence space.
        assert!(l.consume(NodeId::new(9), 1, 1, 500));
        assert_eq!(l.reports, 6);
    }

    #[test]
    fn reordered_burst_still_consumes() {
        // Jitter can deliver a drain burst out of order; nothing in a
        // burst is a duplicate.
        let mut l = SinkLedger::new();
        let origin = NodeId::new(4);
        assert!(l.consume(origin, 3, 1, 10));
        assert!(l.consume(origin, 1, 1, 10), "late-but-new seq consumed");
        assert!(l.consume(origin, 2, 1, 10), "late-but-new seq consumed");
        assert!(!l.consume(origin, 2, 1, 10), "second copy rejected");
        assert_eq!(l.batches, 3);
        assert_eq!(l.duplicate_batches, 1);
    }

    #[test]
    fn seq_gaps_still_consume() {
        // Drops upstream leave gaps; the ledger only rejects replays,
        // never gaps.
        let mut l = SinkLedger::new();
        let origin = NodeId::new(3);
        assert!(l.consume(origin, 5, 1, 10));
        assert!(l.consume(origin, 9, 1, 10));
        assert!(l.consume(origin, 7, 1, 10), "in-window gap fill consumed");
        assert!(!l.consume(origin, 7, 1, 10), "but only once");
        assert_eq!(l.batches, 3);
    }

    #[test]
    fn window_expiry_treats_ancient_as_replay() {
        let mut l = SinkLedger::new();
        let origin = NodeId::new(2);
        assert!(l.consume(origin, 100, 1, 10));
        assert!(!l.consume(origin, 100 - REPLAY_WINDOW - 1, 1, 10), "beyond the window");
        assert!(l.consume(origin, 100 - REPLAY_WINDOW, 1, 10), "window edge admitted");
    }

    #[test]
    fn far_jump_clears_bitmap() {
        let mut l = SinkLedger::new();
        let origin = NodeId::new(6);
        assert!(l.consume(origin, 1, 1, 10));
        assert!(l.consume(origin, 1 + 2 * REPLAY_WINDOW, 1, 10));
        assert!(!l.consume(origin, 1, 1, 10), "fell out of the window");
    }

    #[test]
    fn json_golden() {
        let mut l = SinkLedger::new();
        let _ = l.consume(NodeId::new(1), 1, 4, 128);
        let _ = l.consume(NodeId::new(1), 1, 4, 128);
        let _ = l.consume(NodeId::new(2), 1, 2, 1000);
        // Captured before the move onto `JsonWriter`; bytes are the contract.
        assert_eq!(
            l.to_json(),
            r#"{"batches":2,"reports":6,"duplicate_batches":1,"latency_us":{"count":2,"sum":1128,"mean":564.0,"p50":255,"p99":1000,"max":1000}}"#
        );
    }
}
