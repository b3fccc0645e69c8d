//! Run statistics.
//!
//! The trace counts channel activity by message kind. It is the basis for
//! the paper's message-complexity observations (local coordination ⇒
//! per-perturbation message counts independent of network size).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::fnv::Fnv64;

/// One message kind's label, pre-folded for [`fold_delivery`].
///
/// An FNV-1a step reads only the low byte of the running hash
/// (`h ^ b = (h & !0xff) + ((h & 0xff) ^ b)`, and what the multiply makes
/// of the high part stays a multiple of 256), so folding a string `s` from
/// `h` splits into `(h & !0xff)·P^|s|` plus the fold of `s` started from
/// the low byte alone — one of 256 values, tabulated here once per kind.
#[derive(Debug, Clone)]
pub struct KindFold {
    kind: &'static str,
    /// `P^kind.len()`, `P` the FNV prime.
    pow: u64,
    /// `from_low_byte[x]`: the byte-serial fold of `kind` started at `x`.
    /// Behind an `Arc` so a forked engine takes the tables along for a
    /// reference bump each instead of building them again.
    from_low_byte: Arc<[u64; 256]>,
}

impl KindFold {
    /// Tabulates `kind`.
    #[must_use]
    pub fn new(kind: &'static str) -> Self {
        let mut from_low_byte = [0u64; 256];
        for (x, slot) in from_low_byte.iter_mut().enumerate() {
            *slot = Fnv64::resume(x as u64).bytes(kind.as_bytes()).finish();
        }
        // Folding a zero byte from 1 multiplies by P, so |kind| of them is P^|kind|.
        let mut pow = Fnv64::resume(1);
        for _ in kind.bytes() {
            pow.bytes(&[0]);
        }
        KindFold { kind, pow: pow.finish(), from_low_byte: Arc::new(from_low_byte) }
    }

    #[inline]
    fn fold(&self, h: u64) -> u64 {
        (h & !0xff).wrapping_mul(self.pow).wrapping_add(self.from_low_byte[(h & 0xff) as usize])
    }
}

/// The [`KindFold`]s of the kinds sent so far, each built on first use.
/// Scratch the engine keeps beside its reusable buffers — derived from the
/// kind strings alone, so it is no part of any run's state.
#[derive(Debug, Clone, Default)]
pub(crate) struct KindFolds(Vec<KindFold>);

impl KindFolds {
    /// The table for `kind`; looked up once per frame, not per copy.
    pub(crate) fn get(&mut self, kind: &'static str) -> usize {
        self.0.iter().position(|k| k.kind == kind).unwrap_or_else(|| {
            self.0.push(KindFold::new(kind));
            self.0.len() - 1
        })
    }

    pub(crate) fn at(&self, id: usize) -> &KindFold {
        &self.0[id]
    }
}

/// One scheduled delivery folded into the running digest `h`: exactly the
/// FNV-1a hash of `at_micros`, `from` and `to` as little-endian `u64`s
/// followed by the kind label's bytes, continued from `h`.
#[inline]
#[must_use]
pub fn fold_delivery(h: u64, at_micros: u64, from: u64, to: u64, kind: &KindFold) -> u64 {
    kind.fold(Fnv64::resume(h).u64(at_micros).u64(from).u64(to).finish())
}

/// Counters accumulated over a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    unicasts_sent: u64,
    broadcasts_sent: u64,
    deliveries: u64,
    broadcast_losses: u64,
    unicast_failures: u64,
    per_kind_sent: BTreeMap<&'static str, u64>,
    timers_fired: u64,
    // Fault-injection accounting (all zero when faults are off).
    dropped_by_burst: u64,
    dropped_by_jam: u64,
    dropped_unicast: u64,
    duplicated: u64,
    delayed: u64,
    // Scripted-fate accounting (all zero unless a channel script is
    // installed — the model checker's decision point).
    scripted_drops: u64,
    scripted_duplicates: u64,
    scripted_delays: u64,
    // Shared-medium contention accounting (all zero while contention is
    // disabled and no `Fate::Collide` is scripted).
    mac_collisions: u64,
    mac_defers: u64,
    mac_backoff_exhausted: u64,
    scheduled_deliveries: u64,
    /// Protocol-level named counters bumped via [`crate::Context::count`]
    /// (e.g. the reliability layer's retransmit/dedup/give-up tallies).
    /// Empty when no node records any.
    proto_counters: BTreeMap<&'static str, u64>,
    /// Running FNV-1a hash of every scheduled delivery
    /// (time, sender, receiver, kind).
    digest: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            unicasts_sent: 0,
            broadcasts_sent: 0,
            deliveries: 0,
            broadcast_losses: 0,
            unicast_failures: 0,
            per_kind_sent: BTreeMap::new(),
            timers_fired: 0,
            dropped_by_burst: 0,
            dropped_by_jam: 0,
            dropped_unicast: 0,
            duplicated: 0,
            delayed: 0,
            scripted_drops: 0,
            scripted_duplicates: 0,
            scripted_delays: 0,
            mac_collisions: 0,
            mac_defers: 0,
            mac_backoff_exhausted: 0,
            scheduled_deliveries: 0,
            proto_counters: BTreeMap::new(),
            digest: Fnv64::new().finish(),
        }
    }
}

impl Trace {
    /// A fresh, all-zero trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Counts one unicast transmission of `kind` (the engine calls this
    /// once per send; public so the per-send cost can be benchmarked).
    pub fn record_unicast(&mut self, kind: &'static str) {
        self.unicasts_sent += 1;
        *self.per_kind_sent.entry(kind).or_insert(0) += 1;
    }

    /// Counts one broadcast transmission of `kind`, however many receive it.
    pub fn record_broadcast(&mut self, kind: &'static str) {
        self.broadcasts_sent += 1;
        *self.per_kind_sent.entry(kind).or_insert(0) += 1;
    }

    pub(crate) fn record_delivery(&mut self) {
        self.deliveries += 1;
    }

    pub(crate) fn record_broadcast_loss(&mut self) {
        self.broadcast_losses += 1;
    }

    pub(crate) fn record_unicast_failure(&mut self) {
        self.unicast_failures += 1;
    }

    pub(crate) fn record_timer(&mut self) {
        self.timers_fired += 1;
    }

    pub(crate) fn record_dropped_by_burst(&mut self) {
        self.dropped_by_burst += 1;
    }

    pub(crate) fn record_dropped_by_jam(&mut self) {
        self.dropped_by_jam += 1;
    }

    pub(crate) fn record_dropped_unicast(&mut self) {
        self.dropped_unicast += 1;
    }

    pub(crate) fn record_duplicated(&mut self) {
        self.duplicated += 1;
    }

    pub(crate) fn record_delayed(&mut self) {
        self.delayed += 1;
    }

    pub(crate) fn record_scripted_drop(&mut self) {
        self.scripted_drops += 1;
    }

    pub(crate) fn record_scripted_duplicate(&mut self) {
        self.scripted_duplicates += 1;
    }

    pub(crate) fn record_scripted_delay(&mut self) {
        self.scripted_delays += 1;
    }

    pub(crate) fn record_mac_collision(&mut self) {
        self.mac_collisions += 1;
    }

    pub(crate) fn record_mac_defer(&mut self) {
        self.mac_defers += 1;
    }

    pub(crate) fn record_mac_backoff_exhausted(&mut self) {
        self.mac_backoff_exhausted += 1;
    }

    pub(crate) fn record_proto(&mut self, name: &'static str, by: u64) {
        *self.proto_counters.entry(name).or_insert(0) += by;
    }

    /// Folds one scheduled delivery into the digest: delivery time in
    /// microseconds, sender and receiver raw ids, and the message kind.
    pub(crate) fn record_scheduled_delivery(
        &mut self,
        at_micros: u64,
        from: u64,
        to: u64,
        kind: &KindFold,
    ) {
        self.scheduled_deliveries += 1;
        self.digest = fold_delivery(self.digest, at_micros, from, to, kind);
    }

    /// The digest fold as the definition reads — FNV-1a, one byte at a
    /// time — kept as the oracle [`fold_delivery`] is tested against.
    #[cfg(test)]
    fn record_scheduled_delivery_bytewise(&mut self, at_micros: u64, from: u64, to: u64, kind: &str) {
        self.scheduled_deliveries += 1;
        let mut h = Fnv64::resume(self.digest);
        h.bytes(&at_micros.to_le_bytes()).bytes(&from.to_le_bytes()).bytes(&to.to_le_bytes());
        self.digest = h.bytes(kind.as_bytes()).finish();
    }

    /// Total unicast transmissions.
    #[must_use]
    pub fn unicasts_sent(&self) -> u64 {
        self.unicasts_sent
    }

    /// Total broadcast transmissions (each counted once regardless of
    /// receiver count).
    #[must_use]
    pub fn broadcasts_sent(&self) -> u64 {
        self.broadcasts_sent
    }

    /// Total message deliveries (per receiver).
    #[must_use]
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Broadcast copies dropped by the channel.
    #[must_use]
    pub fn broadcast_losses(&self) -> u64 {
        self.broadcast_losses
    }

    /// Unicasts that failed (destination dead or out of range).
    #[must_use]
    pub fn unicast_failures(&self) -> u64 {
        self.unicast_failures
    }

    /// Timer events fired.
    #[must_use]
    pub fn timers_fired(&self) -> u64 {
        self.timers_fired
    }

    /// Transmissions (unicast + broadcast) by message kind.
    #[must_use]
    pub fn sent_by_kind(&self) -> &BTreeMap<&'static str, u64> {
        &self.per_kind_sent
    }

    /// Total transmissions of the given kind.
    #[must_use]
    pub fn sent_of_kind(&self, kind: &str) -> u64 {
        self.per_kind_sent.get(kind).copied().unwrap_or(0)
    }

    /// Total transmissions (unicast + broadcast).
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.unicasts_sent + self.broadcasts_sent
    }

    /// Delivery attempts lost to Gilbert–Elliott burst loss.
    #[must_use]
    pub fn dropped_by_burst(&self) -> u64 {
        self.dropped_by_burst
    }

    /// Delivery attempts blocked by a jamming disk.
    #[must_use]
    pub fn dropped_by_jam(&self) -> u64 {
        self.dropped_by_jam
    }

    /// Unicast deliveries lost to the unicast-loss fault (distinct from
    /// [`Trace::unicast_failures`], which counts dead/out-of-range
    /// destinations).
    #[must_use]
    pub fn dropped_unicast(&self) -> u64 {
        self.dropped_unicast
    }

    /// Deliveries duplicated by the duplication fault.
    #[must_use]
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Deliveries held back by the extra-delay fault.
    #[must_use]
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    /// Attempts dropped by a scripted [`crate::faults::Fate::Drop`].
    #[must_use]
    pub fn scripted_drops(&self) -> u64 {
        self.scripted_drops
    }

    /// Attempts duplicated by a scripted [`crate::faults::Fate::Duplicate`].
    #[must_use]
    pub fn scripted_duplicates(&self) -> u64 {
        self.scripted_duplicates
    }

    /// Attempts delayed by a scripted [`crate::faults::Fate::Delay`].
    #[must_use]
    pub fn scripted_delays(&self) -> u64 {
        self.scripted_delays
    }

    /// Frames corrupted by an overlapping transmission audible at the
    /// receiver (or a scripted [`crate::faults::Fate::Collide`]).
    #[must_use]
    pub fn mac_collisions(&self) -> u64 {
        self.mac_collisions
    }

    /// Send attempts deferred by carrier sense (each backoff round counts
    /// once).
    #[must_use]
    pub fn mac_defers(&self) -> u64 {
        self.mac_defers
    }

    /// Frames dropped after exhausting the backoff retry budget.
    #[must_use]
    pub fn mac_backoff_exhausted(&self) -> u64 {
        self.mac_backoff_exhausted
    }

    /// Deliveries actually scheduled onto the wire (after all fault
    /// filtering; duplicates count per copy).
    #[must_use]
    pub fn scheduled_deliveries(&self) -> u64 {
        self.scheduled_deliveries
    }

    /// Value of the named protocol counter (0 when never bumped).
    #[must_use]
    pub fn proto(&self, name: &str) -> u64 {
        self.proto_counters.get(name).copied().unwrap_or(0)
    }

    /// All protocol counters recorded via [`crate::Context::count`].
    #[must_use]
    pub fn proto_counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.proto_counters
    }

    /// A stable FNV-1a hash of the full delivery sequence — every
    /// scheduled delivery's time, sender, receiver, and kind, in schedule
    /// order. Two runs with the same seed and fault schedule produce the
    /// same digest; any divergence in channel behavior changes it.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} unicasts, {} broadcasts, {} deliveries, {} bcast losses, {} unicast failures, {} timers",
            self.unicasts_sent,
            self.broadcasts_sent,
            self.deliveries,
            self.broadcast_losses,
            self.unicast_failures,
            self.timers_fired
        )?;
        if self.dropped_by_burst + self.dropped_by_jam + self.dropped_unicast + self.duplicated
            + self.delayed
            > 0
        {
            writeln!(
                f,
                "faults: {} burst drops, {} jam drops, {} unicast drops, {} duplicated, {} delayed",
                self.dropped_by_burst,
                self.dropped_by_jam,
                self.dropped_unicast,
                self.duplicated,
                self.delayed
            )?;
        }
        if self.mac_collisions + self.mac_defers + self.mac_backoff_exhausted > 0 {
            writeln!(
                f,
                "medium: {} collisions, {} defers, {} backoff exhausted",
                self.mac_collisions, self.mac_defers, self.mac_backoff_exhausted
            )?;
        }
        for (kind, count) in &self.per_kind_sent {
            writeln!(f, "  {kind}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = Trace::new();
        t.record_unicast("org_reply");
        t.record_unicast("org_reply");
        t.record_broadcast("org");
        t.record_delivery();
        t.record_broadcast_loss();
        t.record_unicast_failure();
        t.record_timer();
        assert_eq!(t.unicasts_sent(), 2);
        assert_eq!(t.broadcasts_sent(), 1);
        assert_eq!(t.total_sent(), 3);
        assert_eq!(t.deliveries(), 1);
        assert_eq!(t.broadcast_losses(), 1);
        assert_eq!(t.unicast_failures(), 1);
        assert_eq!(t.timers_fired(), 1);
        assert_eq!(t.sent_of_kind("org_reply"), 2);
        assert_eq!(t.sent_of_kind("org"), 1);
        assert_eq!(t.sent_of_kind("nothing"), 0);
    }

    #[test]
    fn display_lists_kinds() {
        let mut t = Trace::new();
        t.record_broadcast("org");
        let s = format!("{t}");
        assert!(s.contains("org: 1"));
        assert!(!s.contains("faults:"), "fault line only appears when faults fired");
        t.record_dropped_by_jam();
        assert!(format!("{t}").contains("1 jam drops"));
    }

    #[test]
    fn fault_counters_accumulate() {
        let mut t = Trace::new();
        t.record_dropped_by_burst();
        t.record_dropped_by_burst();
        t.record_dropped_by_jam();
        t.record_dropped_unicast();
        t.record_duplicated();
        t.record_delayed();
        assert_eq!(t.dropped_by_burst(), 2);
        assert_eq!(t.dropped_by_jam(), 1);
        assert_eq!(t.dropped_unicast(), 1);
        assert_eq!(t.duplicated(), 1);
        assert_eq!(t.delayed(), 1);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let (org, org_reply) = (KindFold::new("org"), KindFold::new("org_reply"));
        let fresh = Trace::new().digest();
        let mut a = Trace::new();
        a.record_scheduled_delivery(100, 1, 2, &org);
        a.record_scheduled_delivery(200, 2, 3, &org_reply);
        let mut b = Trace::new();
        b.record_scheduled_delivery(200, 2, 3, &org_reply);
        b.record_scheduled_delivery(100, 1, 2, &org);
        let mut c = Trace::new();
        c.record_scheduled_delivery(100, 1, 2, &org);
        c.record_scheduled_delivery(200, 2, 3, &org_reply);
        assert_ne!(a.digest(), fresh);
        assert_ne!(a.digest(), b.digest(), "order must matter");
        assert_eq!(a.digest(), c.digest(), "same sequence, same digest");
        assert_eq!(a.scheduled_deliveries(), 2);
    }

    /// A delivery's fold — shortened words, then the kind's table —
    /// against the byte-serial definition, chained: every record starts
    /// from the digest the previous one left, so an error confined to the
    /// low byte of one step still changes the end. (The word fold alone
    /// is checked against its definition in [`crate::fnv`].)
    #[test]
    fn delivery_fold_equals_the_bytewise_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const KINDS: [&str; 5] =
            ["", "org", "head_intra_alive", "head_inter_alive", "a_forty_byte_kind_label_0123456789abcdef"];
        assert_eq!(KINDS[4].len(), 40);
        let mut folds = KindFolds::default();
        let mut rng = StdRng::seed_from_u64(14);
        let word = |rng: &mut StdRng| rng.gen::<u64>() >> rng.gen_range(0u32..64);
        let (mut fast, mut slow) = (Trace::new(), Trace::new());
        for step in 0..if cfg!(miri) { 500 } else { 20_000 } {
            let (at, from, to) = (word(&mut rng), word(&mut rng), word(&mut rng));
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            let id = folds.get(kind);
            fast.record_scheduled_delivery(at, from, to, folds.at(id));
            slow.record_scheduled_delivery_bytewise(at, from, to, kind);
            assert_eq!(fast.digest(), slow.digest(), "step {step}: ({at:#x}, {from:#x}, {to:#x}, {kind:?})");
        }
        assert_eq!(fast, slow);
        assert_eq!(folds.0.len(), KINDS.len(), "one table per kind, reused");
    }
}
