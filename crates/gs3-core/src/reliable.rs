//! Control-plane reliability layer.
//!
//! Three cooperating mechanisms, all gated by [`ReliabilityConfig`] and all
//! RNG-inert when disabled (no messages, no timers, no RNG draws — runs are
//! bit-identical to a build without the layer):
//!
//! * **Acked retransmission** — one-shot control messages (`head_set`
//!   assignments, `new_child_head`, `child_retire`, `replacing_head`,
//!   `proxy_assign`/`proxy_release`, `parent_seek`) are wrapped in
//!   [`Msg::Reliable`] envelopes carrying a sender-local sequence number.
//!   The receiver acks every copy and dedups through a bounded per-sender
//!   window, so redelivery is idempotent. The sender retransmits with
//!   exponential backoff plus seeded jitter and, after [`MAX_RETRIES`]
//!   attempts, fires a protocol-level give-up hook instead of retrying
//!   forever.
//! * **Adaptive failure detection** — a per-neighbor EWMA of heartbeat
//!   inter-arrival times (phi-accrual style). The suspicion threshold
//!   `2·mean + k·dev` (the doubled mean grants one interval of grace) is
//!   clamped so detection is never *slower* than the legacy fixed
//!   `heartbeat × FAILURE_MISSES` timeout; on calm channels it is faster.
//! * **Quarantine-mode graceful degradation** — a head that exhausts
//!   consecutive `PARENT_SEEK` rounds under persistent partition keeps
//!   serving its cell instead of abandoning it, buffers upward aggregate
//!   reports behind a bounded buffer, and drains the buffer when it
//!   re-attaches to the head graph.
//!
//! All tallies flow through [`Context::count`](gs3_sim::Context::count)
//! into the trace's protocol counters and from there into `ChaosReport`.

use std::collections::{BTreeMap, BTreeSet};

use gs3_sim::{NodeId, SimDuration, SimTime};

use crate::config::{
    ReliabilityConfig, BASE_RTO, DEDUP_WINDOW, EWMA_ALPHA_NUM, MAX_RETRIES, PHI_K,
    QUARANTINE_SEEK_LIMIT,
};
use crate::messages::Msg;
use crate::node::{Ctx, Gs3Node, LayerState};
use crate::state::{HeadState, Role};
use crate::timers::Timer;

/// A reliable send awaiting its [`Msg::DeliveryAck`].
#[derive(Debug, Clone)]
pub(crate) struct PendingSend {
    /// The destination.
    pub to: NodeId,
    /// The wrapped control message (kept for retransmission and for the
    /// give-up hook).
    pub msg: Msg,
    /// Transmissions so far beyond the first (drives the backoff exponent).
    pub attempt: u32,
}

/// A per-neighbor heartbeat inter-arrival estimator (integer microseconds;
/// no floats so traces stay platform-stable).
#[derive(Debug, Clone)]
pub(crate) struct Detector {
    /// When the peer was last heard.
    pub last: SimTime,
    /// EWMA of the inter-arrival time.
    pub mean_us: u64,
    /// EWMA of the absolute deviation from the mean.
    pub dev_us: u64,
    /// Inter-arrival samples folded in so far (warm-up guard).
    pub samples: u32,
}

/// A per-sender anti-replay window, value-ordered (IPsec-style): `hi` is
/// the highest sequence accepted so far and `recent` holds every accepted
/// sequence still inside `(hi − window, hi]`. A delivery is rejected as a
/// duplicate when its sequence is in `recent` *or* at-or-below the window
/// floor.
///
/// The floor rule is what makes readmission impossible: an accepted
/// sequence leaves `recent` only by falling below the floor, where the
/// floor keeps rejecting it forever. The previous FIFO-evicting window
/// lacked that property — under reordering, a sequence *higher* than the
/// survivors could be evicted first and a late duplicate of it would
/// dispatch twice (found by `gs3 mc`'s `no-dedup-readmit` oracle; replayed
/// in `tests/mc_regressions.rs`). The price is that a first delivery
/// arriving below the floor (delayed behind `window` fresh sequences) is
/// rejected as stale; liveness is preserved by retransmission and, past
/// the retry budget, the protocol-level give-up fallback.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SeenWindow {
    /// Highest sequence accepted from this sender.
    pub hi: u64,
    /// Accepted sequences in `(hi − window, hi]`.
    pub recent: BTreeSet<u64>,
}

impl SeenWindow {
    /// Admits or rejects one delivered sequence. Returns true when `seq`
    /// is fresh (dispatch the inner message), false when it is a duplicate
    /// or below the window floor.
    pub fn admit(&mut self, seq: u64, window: u64) -> bool {
        let window = window.max(1);
        if seq.saturating_add(window) <= self.hi {
            return false;
        }
        if !self.recent.insert(seq) {
            return false;
        }
        self.hi = self.hi.max(seq);
        let floor = self.hi.saturating_sub(window);
        while self.recent.first().is_some_and(|&lo| lo <= floor) {
            self.recent.pop_first();
        }
        true
    }
}

/// Reliability-layer state carried by every node across role transitions.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReliableState {
    /// Next sequence number to allocate (monotone across destinations).
    pub next_seq: u64,
    /// Unacked reliable sends by sequence number.
    pub pending: BTreeMap<u64, PendingSend>,
    /// Per-sender anti-replay windows (dedup).
    pub seen: BTreeMap<NodeId, SeenWindow>,
    /// Per-neighbor inter-arrival estimators.
    pub detectors: BTreeMap<NodeId, Detector>,
    /// Peers suspected by the adaptive detector *earlier* than the legacy
    /// timeout would have fired, mapped to that legacy deadline — hearing
    /// the peer again before it proves the suspicion false.
    pub suspected: BTreeMap<NodeId, SimTime>,
}

impl LayerState for ReliableState {
    fn empty() -> &'static Self {
        static EMPTY: ReliableState = ReliableState {
            next_seq: 0,
            pending: BTreeMap::new(),
            seen: BTreeMap::new(),
            detectors: BTreeMap::new(),
            suspected: BTreeMap::new(),
        };
        &EMPTY
    }
}

/// The adaptive per-peer suspicion timeout: `2·mean + k·dev` once the
/// estimator is warm (≥ 4 samples), clamped to never exceed `legacy`.
/// Falls back to `legacy` when the reliability layer is off or the peer is
/// still unknown.
pub(crate) fn suspect_after(
    rel: &ReliableState,
    cfg: &ReliabilityConfig,
    peer: NodeId,
    legacy: SimDuration,
) -> SimDuration {
    if !cfg.enabled {
        return legacy;
    }
    match rel.detectors.get(&peer) {
        Some(d) if d.samples >= 4 => {
            let adaptive_us = (2 * d.mean_us).saturating_add(PHI_K.saturating_mul(d.dev_us));
            legacy.min(SimDuration::from_micros(adaptive_us.max(1)))
        }
        _ => legacy,
    }
}

/// Records that `peer` was suspected ahead of the legacy deadline, so a
/// later sighting before that deadline can be tallied as a false suspicion.
pub(crate) fn mark_suspected(rel: &mut ReliableState, peer: NodeId, legacy_deadline: SimTime) {
    rel.suspected.insert(peer, legacy_deadline);
    if rel.suspected.len() > 64 {
        // Opportunistic bound: drop the stalest entries (deadline long
        // past — they can never be proven false anymore).
        let cutoff = *rel.suspected.values().min().expect("nonempty");
        rel.suspected.retain(|_, d| *d > cutoff);
    }
}

/// Bumps the failed-seek counter of a partitioned head and enters
/// quarantine once [`QUARANTINE_SEEK_LIMIT`] is reached.
pub(crate) fn note_seek_failed(h: &mut HeadState, cfg: &ReliabilityConfig, ctx: &mut Ctx<'_>) {
    h.failed_seeks = h.failed_seeks.saturating_add(1);
    if cfg.enabled && !h.quarantined && h.failed_seeks >= QUARANTINE_SEEK_LIMIT {
        h.quarantined = true;
        ctx.count("quarantine_entries");
        ctx.event("quarantine_enter", u64::from(h.failed_seeks));
    }
}

/// A head re-attached to the head graph (accepted a `parent_seek_ack`,
/// adopted a better parent, or heard its silent parent again): reset the
/// seek bookkeeping and leave quarantine. The quarantine buffer is the
/// head's aggregation queue: the batches queued meanwhile replay through
/// the ordinary credit-gated drain at the next report tick, and the
/// sink's `(origin, seq)` dedup keeps any overlap from double-counting.
pub(crate) fn head_reattached(h: &mut HeadState, ctx: &mut Ctx<'_>) {
    h.failed_seeks = 0;
    h.pending_seek = None;
    ctx.event("head_reattached", h.parent.raw());
    if h.quarantined {
        h.quarantined = false;
        ctx.count("quarantine_exits");
        ctx.event("quarantine_exit", 0);
    }
}

impl Gs3Node {
    /// Sends a one-shot control message, reliably when the layer is
    /// enabled (envelope + retransmission timer), as a plain unicast
    /// otherwise.
    pub(crate) fn send_ctrl(&mut self, ctx: &mut Ctx<'_>, to: NodeId, msg: Msg) {
        if !self.cfg.reliability.enabled {
            ctx.unicast(to, msg);
            return;
        }
        let rel = self.rel.make_mut();
        rel.next_seq += 1;
        let seq = rel.next_seq;
        rel.pending.insert(seq, PendingSend { to, msg: msg.clone(), attempt: 0 });
        ctx.unicast(to, Msg::Reliable { seq, inner: Box::new(msg) });
        ctx.count("reliable_sent");
        let rto = self.retransmit_after(ctx, 0);
        ctx.set_timer(rto, Timer::Retransmit { seq });
    }

    /// The backoff delay before the next retransmission of an attempt:
    /// `BASE_RTO × 2^attempt` plus jitter uniform in `[0, BASE_RTO/2)`
    /// drawn from the seeded engine RNG.
    fn retransmit_after(&self, ctx: &mut Ctx<'_>, attempt: u32) -> SimDuration {
        use rand::Rng as _;
        let mult = 1u64 << attempt.min(10);
        let jitter = SimDuration::from_micros(ctx.rng().gen_range(0..BASE_RTO.as_micros() / 2));
        BASE_RTO * mult + jitter
    }

    /// Handles an incoming [`Msg::Reliable`]: ack every copy, dedup through
    /// the per-sender anti-replay window, and dispatch the inner message
    /// at most once, ever (see [`SeenWindow`]).
    pub(crate) fn on_reliable(
        &mut self,
        from: NodeId,
        seq: u64,
        inner: Msg,
        ctx: &mut Ctx<'_>,
    ) {
        ctx.unicast(from, Msg::DeliveryAck { seq });
        let seen = self.rel.make_mut().seen.entry(from).or_default();
        if !seen.admit(seq, DEDUP_WINDOW as u64) {
            ctx.count("reliable_dedup_hits");
            return;
        }
        // The accept point, visible to the model checker's no-readmission
        // oracle through the flight recorder (recorded only in Full mode;
        // digest-inert). Sender id and sequence packed into one word.
        ctx.event("rel_apply", (from.raw() << 40) | (seq & 0xFF_FFFF_FFFF));
        <Self as gs3_sim::Node>::on_message(self, from, inner, ctx);
    }

    /// Handles a [`Msg::DeliveryAck`]: settle the pending send and cancel
    /// its retransmission timer.
    pub(crate) fn on_delivery_ack(&mut self, from: NodeId, seq: u64, ctx: &mut Ctx<'_>) {
        if self.rel.pending.get(&seq).is_some_and(|p| p.to == from) {
            self.rel.make_mut().pending.remove(&seq);
            ctx.cancel_timers(Timer::Retransmit { seq });
            ctx.count("reliable_acked");
        }
    }

    /// A retransmission deadline fired: resend with deeper backoff, or —
    /// past [`MAX_RETRIES`] — give up and run the protocol-level fallback
    /// for the abandoned message.
    pub(crate) fn on_retransmit(&mut self, seq: u64, ctx: &mut Ctx<'_>) {
        // Retransmit timers are only armed on enabled-layer paths, but the
        // gate must be explicit: with reliability disabled this handler has
        // to stay RNG-inert even if a stale timer fires, or the shared
        // seeded stream shifts and every digest changes.
        if !self.cfg.reliability.enabled {
            return;
        }
        let pending = &mut self.rel.make_mut().pending;
        let Some(p) = pending.get_mut(&seq) else { return };
        p.attempt += 1;
        if p.attempt > MAX_RETRIES {
            let p = pending.remove(&seq).expect("pending send present");
            ctx.count("reliable_give_ups");
            ctx.event("reliable_give_up", p.to.raw());
            self.on_reliable_give_up(p.to, p.msg, ctx);
            return;
        }
        let (to, msg, attempt) = (p.to, p.msg.clone(), p.attempt);
        ctx.unicast(to, Msg::Reliable { seq, inner: Box::new(msg) });
        ctx.count("reliable_retransmits");
        let rto = self.retransmit_after(ctx, attempt);
        ctx.set_timer(rto, Timer::Retransmit { seq });
    }

    /// Protocol-level fallback when a reliable send is abandoned: instead
    /// of pretending delivery, repair the state that depended on it.
    fn on_reliable_give_up(&mut self, to: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        let cfg = &self.cfg.reliability;
        match msg {
            Msg::NewChildHead { .. } => {
                // The adoption never registered: the chosen parent is
                // unreachable. Forget it and inflate hops so the next
                // inter heartbeat re-runs parent selection.
                if let Role::Head(h) = &mut self.role {
                    if h.parent == to {
                        h.neighbors.remove(&to);
                        h.hops = u32::MAX / 2;
                        h.parent_last_heard = SimTime::ZERO;
                    }
                }
            }
            Msg::ParentSeek { round, .. } => {
                // The probed neighbor never answered: strike it from the
                // neighbor table so the next seek round tries the
                // next-closest head, and count the round as failed.
                if let Role::Head(h) = &mut self.role {
                    h.neighbors.remove(&to);
                    if h.pending_seek == Some(round) {
                        h.pending_seek = None;
                        note_seek_failed(h, cfg, ctx);
                    }
                }
            }
            Msg::ProxyAssign => {
                // The chosen proxy is unreachable: forget it so the next
                // BigCheck picks the next-closest known head.
                if let Role::BigAway(b) = &mut self.role {
                    if b.proxy == Some(to) {
                        b.proxy = None;
                        b.known_heads.remove(&to);
                    }
                }
            }
            // ChildRetire / ReplacingHead / ProxyRelease are courtesy
            // notifications; the receiver's own failure detection covers
            // the loss.
            // gs3-lint: allow(t1) -- deliberately partial: only messages with give-up repair actions are named; courtesy messages need no fallback
            _ => {}
        }
    }

    /// Feeds a heartbeat sighting of `from` into its inter-arrival
    /// estimator and clears (and tallies) any suspicion the sighting
    /// proves false. No-op unless the reliability layer is on.
    pub(crate) fn detector_observe(&mut self, from: NodeId, ctx: &mut Ctx<'_>) {
        if !self.cfg.reliability.enabled {
            return;
        }
        let now = ctx.now();
        let rel = self.rel.make_mut();
        if let Some(legacy_deadline) = rel.suspected.remove(&from) {
            if now < legacy_deadline {
                ctx.count("detector_false_suspicions");
            }
        }
        let alpha = EWMA_ALPHA_NUM;
        match rel.detectors.get_mut(&from) {
            None => {
                rel.detectors.insert(from, Detector { last: now, mean_us: 0, dev_us: 0, samples: 0 });
                if rel.detectors.len() > 128 {
                    // Opportunistic bound: forget peers not heard for the
                    // longest (mobile networks churn neighbor sets).
                    let cutoff = rel.detectors.values().map(|d| d.last).min().expect("nonempty");
                    rel.detectors.retain(|_, d| d.last > cutoff);
                }
            }
            Some(d) => {
                let sample = now.saturating_since(d.last).as_micros();
                d.last = now;
                if sample == 0 {
                    return; // duplicate delivery at the same instant
                }
                if d.samples == 0 {
                    d.mean_us = sample;
                    d.dev_us = sample / 2;
                } else {
                    d.mean_us = ((16 - alpha) * d.mean_us + alpha * sample) / 16;
                    let dev_sample = d.mean_us.abs_diff(sample);
                    d.dev_us = ((16 - alpha) * d.dev_us + alpha * dev_sample) / 16;
                }
                d.samples = d.samples.saturating_add(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm_detector(mean_us: u64, dev_us: u64) -> ReliableState {
        let mut rel = ReliableState::default();
        rel.detectors.insert(
            NodeId::new(7),
            Detector { last: SimTime::ZERO, mean_us, dev_us, samples: 8 },
        );
        rel
    }

    #[test]
    fn suspect_after_clamps_to_legacy() {
        let cfg = ReliabilityConfig::on();
        let legacy = SimDuration::from_secs(9);
        // Warm detector with a huge mean: clamp wins.
        let rel = warm_detector(100_000_000, 0);
        assert_eq!(suspect_after(&rel, &cfg, NodeId::new(7), legacy), legacy);
        // Calm channel: 2·mean + k·dev well under legacy.
        let rel = warm_detector(1_000_000, 10_000);
        let adaptive = suspect_after(&rel, &cfg, NodeId::new(7), legacy);
        assert_eq!(adaptive, SimDuration::from_micros(2_040_000));
    }

    #[test]
    fn suspect_after_needs_warmup_and_flag() {
        let legacy = SimDuration::from_secs(9);
        let mut rel = warm_detector(1_000_000, 0);
        rel.detectors.get_mut(&NodeId::new(7)).unwrap().samples = 2;
        let on = ReliabilityConfig::on();
        assert_eq!(suspect_after(&rel, &on, NodeId::new(7), legacy), legacy, "cold detector");
        let rel = warm_detector(1_000_000, 0);
        let off = ReliabilityConfig::disabled();
        assert_eq!(suspect_after(&rel, &off, NodeId::new(7), legacy), legacy, "flag off");
        assert_eq!(
            suspect_after(&rel, &on, NodeId::new(99), legacy),
            legacy,
            "unknown peer"
        );
    }

    #[test]
    fn suspected_map_stays_bounded() {
        let mut rel = ReliableState::default();
        for i in 0..200 {
            mark_suspected(&mut rel, NodeId::new(i), SimTime::from_micros(i));
        }
        assert!(rel.suspected.len() <= 64 + 1);
    }

    #[test]
    fn seen_window_basic_dedup() {
        let mut w = SeenWindow::default();
        assert!(w.admit(1, 16));
        assert!(!w.admit(1, 16), "immediate duplicate rejected");
        assert!(w.admit(2, 16));
        assert!(!w.admit(2, 16));
        assert!(!w.admit(1, 16));
    }

    // The readmission counterexample `gs3 mc` minimized against the old
    // FIFO-evicting window (window = 2): accept 100, then the reordered
    // 99 and 98, then 101 — FIFO eviction would push out 100 while 98/99
    // stayed, so a late duplicate of 100 dispatched twice. The
    // value-ordered window must reject every re-delivery of an accepted
    // sequence, forever.
    #[test]
    fn seen_window_never_readmits_under_reordering() {
        let mut w = SeenWindow::default();
        assert!(w.admit(100, 2));
        assert!(w.admit(99, 2), "in-window reordered arrival accepted");
        assert!(!w.admit(98, 2), "below the floor: stale-rejected");
        assert!(w.admit(101, 2));
        assert!(!w.admit(100, 2), "accepted seq must never readmit");
        assert!(!w.admit(99, 2), "accepted seq must never readmit");
        assert!(!w.admit(101, 2));
        assert!(w.admit(102, 2));
        assert!(!w.admit(100, 2), "still rejected after more traffic");
    }

    // Regression for the `d4` lint finding on `on_retransmit`: with the
    // reliability layer disabled (the digest-pinned default), a stale
    // Retransmit deadline must return before touching the shared seeded
    // RNG — otherwise one forged timer shifts the stream and every
    // subsequent draw (hence every digest) diverges. Compare a run with
    // an injected stale timer against an untouched control run.
    #[test]
    fn stale_retransmit_is_rng_inert_when_disabled() {
        use crate::harness::NetworkBuilder;

        let run = |inject: bool| {
            let mut net = NetworkBuilder::new()
                .area_radius(200.0)
                .expected_nodes(120)
                .seed(11)
                .build()
                .unwrap();
            net.run_for(SimDuration::from_secs(30));
            assert!(
                !net.config().reliability.enabled,
                "control premise: reliability defaults to disabled"
            );
            if inject {
                let big = net.big_id();
                net.engine_mut()
                    .inject_timer(big, Timer::Retransmit { seq: 9_999 }, SimDuration::from_millis(1))
                    .unwrap();
            }
            net.run_for(SimDuration::from_secs(5));
            (net.engine().rng_state(), net.engine().trace().digest())
        };
        assert_eq!(
            run(false),
            run(true),
            "a stale Retransmit timer perturbed the RNG stream or traffic digest"
        );
    }

    #[test]
    fn seen_window_memory_stays_bounded() {
        let mut w = SeenWindow::default();
        for seq in 1..=10_000u64 {
            assert!(w.admit(seq, 16));
        }
        assert!(w.recent.len() <= 16, "window holds at most `window` seqs");
        assert_eq!(w.hi, 10_000);
        assert!(!w.admit(5, 16), "ancient seq stays rejected");
    }
}
