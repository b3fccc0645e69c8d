//! Run statistics.
//!
//! The trace counts a run: one table of engine counters ([`Counter`]),
//! transmissions by message kind, and protocol counters bumped by name.
//! It is the basis for the paper's message-complexity observations (local
//! coordination ⇒ per-perturbation message counts independent of network
//! size), and every report of counts is a view of it
//! ([`Trace::write_json`], [`Trace::since`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use gs3_telemetry::json::JsonWriter;

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

/// Declares [`Counter`] from one table: each row is a variant, its doc
/// line and the name every report keys it by.
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $variant:ident => $name:literal,)*) => {
        /// One of the engine's run counters: a slot of [`Trace`]'s table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in table order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant,)*];
            /// How many counters there are.
            pub const COUNT: usize = [$($name,)*].len();

            /// The counter's key in every report.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counters! {
    /// Unicast transmissions.
    UnicastsSent => "unicasts_sent",
    /// Broadcast transmissions, each counted once however many receive it.
    BroadcastsSent => "broadcasts_sent",
    /// Message deliveries, one per receiver.
    Deliveries => "deliveries",
    /// Broadcast copies dropped by the channel.
    BroadcastLosses => "broadcast_losses",
    /// Unicasts that failed: destination dead, unknown or out of range.
    UnicastFailures => "unicast_failures",
    /// Timer events fired.
    TimersFired => "timers_fired",
    /// Delivery attempts lost to Gilbert–Elliott burst loss.
    DroppedByBurst => "dropped_by_burst",
    /// Delivery attempts blocked by a jamming disk.
    DroppedByJam => "dropped_by_jam",
    /// Unicast deliveries lost to the unicast-loss fault (a dead or
    /// out-of-range destination is a [`Counter::UnicastFailures`]).
    DroppedUnicast => "dropped_unicast",
    /// Deliveries duplicated by the duplication fault.
    Duplicated => "duplicated",
    /// Deliveries held back by the extra-delay fault.
    Delayed => "delayed",
    /// Attempts dropped by a scripted [`crate::faults::Fate::Drop`].
    ScriptedDrops => "scripted_drops",
    /// Attempts duplicated by a scripted [`crate::faults::Fate::Duplicate`].
    ScriptedDuplicates => "scripted_duplicates",
    /// Attempts delayed by a scripted [`crate::faults::Fate::Delay`].
    ScriptedDelays => "scripted_delays",
    /// Frames corrupted by an overlapping transmission audible at the
    /// receiver (or a scripted [`crate::faults::Fate::Collide`]).
    MacCollisions => "mac_collisions",
    /// Send attempts deferred by carrier sense, one per backoff round.
    MacDefers => "mac_defers",
    /// Frames dropped after exhausting the backoff retry budget.
    MacBackoffExhausted => "mac_backoff_exhausted",
    /// Deliveries scheduled onto the wire after all fault filtering;
    /// duplicates count per copy.
    ScheduledDeliveries => "scheduled_deliveries",
}

/// Counters accumulated over a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The [`Counter`] table, indexed by variant.
    counts: [u64; Counter::COUNT],
    /// Transmissions (unicast + broadcast) by message kind.
    per_kind_sent: BTreeMap<&'static str, u64>,
    /// Protocol-level named counters bumped via [`crate::Context::count`]
    /// (e.g. the reliability layer's retransmit/dedup/give-up tallies).
    /// Empty when no node records any; never holds a zero.
    proto: BTreeMap<&'static str, u64>,
    /// Running FNV-1a hash of every scheduled delivery
    /// (time, sender, receiver, kind).
    digest: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            counts: [0; Counter::COUNT],
            per_kind_sent: BTreeMap::new(),
            proto: BTreeMap::new(),
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
        self.bump(Counter::UnicastsSent);
        *self.per_kind_sent.entry(kind).or_insert(0) += 1;
    }

    /// Counts one broadcast transmission of `kind`, however many receive it.
    pub fn record_broadcast(&mut self, kind: &'static str) {
        self.bump(Counter::BroadcastsSent);
        *self.per_kind_sent.entry(kind).or_insert(0) += 1;
    }

    /// Adds one to `counter`.
    #[inline]
    pub(crate) fn bump(&mut self, counter: Counter) {
        self.counts[counter as usize] += 1;
    }

    pub(crate) fn record_proto(&mut self, name: &'static str, by: u64) {
        *self.proto.entry(name).or_insert(0) += by;
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
        self.bump(Counter::ScheduledDeliveries);
        self.digest = fold_delivery(self.digest, at_micros, from, to, kind);
    }

    /// The digest fold as the definition reads — FNV-1a, one byte at a
    /// time — kept as the oracle [`fold_delivery`] is tested against.
    #[cfg(test)]
    fn record_scheduled_delivery_bytewise(&mut self, at_micros: u64, from: u64, to: u64, kind: &str) {
        self.bump(Counter::ScheduledDeliveries);
        let mut h = Fnv64::resume(self.digest);
        h.bytes(&at_micros.to_le_bytes()).bytes(&from.to_le_bytes()).bytes(&to.to_le_bytes());
        self.digest = h.bytes(kind.as_bytes()).finish();
    }

    /// The value of `counter`.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    /// What happened between `earlier`, a trace of the same run, and this
    /// one: every counter subtracted, and of the per-kind and protocol
    /// counts only those that moved. The digest is this trace's — a hash
    /// chain has no difference.
    #[must_use]
    pub fn since(&self, earlier: &Trace) -> Trace {
        fn moved(
            now: &BTreeMap<&'static str, u64>,
            then: &BTreeMap<&'static str, u64>,
        ) -> BTreeMap<&'static str, u64> {
            now.iter()
                .filter_map(|(&name, &n)| {
                    let d = n.saturating_sub(then.get(name).copied().unwrap_or(0));
                    (d > 0).then_some((name, d))
                })
                .collect()
        }
        Trace {
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i])),
            per_kind_sent: moved(&self.per_kind_sent, &earlier.per_kind_sent),
            proto: moved(&self.proto, &earlier.proto),
            digest: self.digest,
        }
    }

    /// Every counter by name: the [`Counter`] table in order, then the
    /// protocol counters in name order.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let table = Counter::ALL.into_iter().map(|c| (c.name(), self.get(c)));
        table.chain(self.proto.iter().map(|(&name, &n)| (name, n)))
    }

    /// Writes the trace as one JSON object: every [`Counter`] by name in
    /// table order, then `sent_by_kind` and `proto` as objects. The digest
    /// is not part of it; reports carry it in a field of its own.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            for c in Counter::ALL {
                w.key(c.name()).u64(self.get(c));
            }
            for (key, map) in [("sent_by_kind", &self.per_kind_sent), ("proto", &self.proto)] {
                w.key(key).object(|w| {
                    for (name, &n) in map {
                        w.key(name).u64(n);
                    }
                });
            }
        });
    }

    /// [`Counter::UnicastsSent`].
    #[must_use]
    pub fn unicasts_sent(&self) -> u64 {
        self.get(Counter::UnicastsSent)
    }

    /// [`Counter::BroadcastsSent`].
    #[must_use]
    pub fn broadcasts_sent(&self) -> u64 {
        self.get(Counter::BroadcastsSent)
    }

    /// [`Counter::Deliveries`].
    #[must_use]
    pub fn deliveries(&self) -> u64 {
        self.get(Counter::Deliveries)
    }

    /// [`Counter::TimersFired`].
    #[must_use]
    pub fn timers_fired(&self) -> u64 {
        self.get(Counter::TimersFired)
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
        self.unicasts_sent() + self.broadcasts_sent()
    }

    /// [`Counter::DroppedByBurst`].
    #[must_use]
    pub fn dropped_by_burst(&self) -> u64 {
        self.get(Counter::DroppedByBurst)
    }

    /// [`Counter::DroppedByJam`].
    #[must_use]
    pub fn dropped_by_jam(&self) -> u64 {
        self.get(Counter::DroppedByJam)
    }

    /// [`Counter::DroppedUnicast`].
    #[must_use]
    pub fn dropped_unicast(&self) -> u64 {
        self.get(Counter::DroppedUnicast)
    }

    /// [`Counter::Duplicated`].
    #[must_use]
    pub fn duplicated(&self) -> u64 {
        self.get(Counter::Duplicated)
    }

    /// [`Counter::MacCollisions`].
    #[must_use]
    pub fn mac_collisions(&self) -> u64 {
        self.get(Counter::MacCollisions)
    }

    /// [`Counter::MacDefers`].
    #[must_use]
    pub fn mac_defers(&self) -> u64 {
        self.get(Counter::MacDefers)
    }

    /// [`Counter::MacBackoffExhausted`].
    #[must_use]
    pub fn mac_backoff_exhausted(&self) -> u64 {
        self.get(Counter::MacBackoffExhausted)
    }

    /// Value of the named protocol counter (0 when never bumped).
    #[must_use]
    pub fn proto(&self, name: &str) -> u64 {
        self.proto.get(name).copied().unwrap_or(0)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = Trace::new();
        t.record_unicast("org_reply");
        t.record_unicast("org_reply");
        t.record_broadcast("org");
        t.bump(Counter::DroppedByBurst);
        t.bump(Counter::DroppedByBurst);
        t.bump(Counter::Delayed);
        assert_eq!(t.unicasts_sent(), 2);
        assert_eq!(t.broadcasts_sent(), 1);
        assert_eq!(t.total_sent(), 3);
        assert_eq!(t.dropped_by_burst(), 2);
        assert_eq!(t.get(Counter::Delayed), 1);
        assert_eq!(t.get(Counter::Deliveries), 0);
        assert_eq!(t.sent_of_kind("org_reply"), 2);
        assert_eq!(t.sent_of_kind("org"), 1);
        assert_eq!(t.sent_of_kind("nothing"), 0);
    }

    #[test]
    fn counter_names_are_distinct_and_in_table_order() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT);
        assert_eq!(names.iter().collect::<std::collections::BTreeSet<_>>().len(), Counter::COUNT);
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} indexes the table at its position");
        }
    }

    #[test]
    fn json_names_every_counter_then_the_maps_and_no_digest() {
        let mut t = Trace::new();
        t.record_broadcast("org");
        t.bump(Counter::DroppedByJam);
        t.record_proto("reliable_sent", 3);
        let doc = gs3_telemetry::json::to_string(|w| t.write_json(w));
        let table: String = Counter::ALL
            .iter()
            .map(|c| format!("\"{}\":{},", c.name(), t.get(*c)))
            .collect();
        assert_eq!(doc, format!("{{{table}\"sent_by_kind\":{{\"org\":1}},\"proto\":{{\"reliable_sent\":3}}}}"));
        assert!(!doc.contains("digest"));
    }

    #[test]
    fn since_keeps_the_table_and_drops_unmoved_names() {
        let mut start = Trace::new();
        start.record_unicast("org");
        start.record_proto("reliable_sent", 2);
        let mut end = start.clone();
        end.record_broadcast("head_set");
        end.record_proto("reliable_acked", 1);
        let d = end.since(&start);
        assert_eq!((d.unicasts_sent(), d.broadcasts_sent()), (0, 1));
        assert_eq!(d.sent_by_kind().iter().collect::<Vec<_>>(), [(&"head_set", &1)]);
        assert_eq!(d.named().filter(|(name, _)| name.starts_with("reliable")).collect::<Vec<_>>(), [(
            "reliable_acked",
            1
        )]);
        assert_eq!(d.named().count(), Counter::COUNT + 1, "every table counter stays, at zero or not");
        assert_eq!(d.digest(), end.digest());
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
        assert_eq!(a.get(Counter::ScheduledDeliveries), 2);
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
