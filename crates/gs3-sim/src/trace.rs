//! Run statistics.
//!
//! The trace counts a run: one table of engine counters ([`Counter`]),
//! transmissions by message kind, and protocol counters bumped by name.
//! It is the basis for the paper's message-complexity observations (local
//! coordination ⇒ per-perturbation message counts independent of network
//! size), and every report of counts is a view of it
//! ([`Trace::write_json`], [`Trace::since`]).
//!
//! Kinds and protocol counter names are counted by [`Label`] id, in rows
//! indexed by it; every view names them, in name order, when it is built.

use std::collections::BTreeMap;
use std::sync::Arc;

use gs3_telemetry::json::JsonWriter;
use gs3_telemetry::Label;

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
        KindFold { pow: pow.finish(), from_low_byte: Arc::new(from_low_byte) }
    }

    #[inline]
    fn fold(&self, h: u64) -> u64 {
        (h & !0xff).wrapping_mul(self.pow).wrapping_add(self.from_low_byte[(h & 0xff) as usize])
    }
}

/// The [`KindFold`]s of the kinds sent so far, by [`Label`] index, each
/// built on first use. Scratch the engine keeps beside its reusable
/// buffers — derived from the kind strings alone, so it is no part of any
/// run's state.
#[derive(Debug, Clone, Default)]
pub(crate) struct KindFolds(Vec<Option<KindFold>>);

impl KindFolds {
    /// The table for `kind`, built on its first use.
    #[inline]
    pub(crate) fn get(&mut self, kind: Label) -> &KindFold {
        let i = kind.index();
        if self.0.get(i).is_none_or(Option::is_none) {
            self.build(kind);
        }
        self.0[i].as_ref().expect("built above")
    }

    #[cold]
    fn build(&mut self, kind: Label) {
        let i = kind.index();
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(KindFold::new(kind.name()));
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

/// Counts by [`Label`] index; a zero, or an index past the end, is a
/// label this row never counted. Ids are process-wide, so two rows index
/// alike, and whatever id a name got, the rows of two traces agree
/// exactly when their counts by name do.
#[derive(Debug, Clone, Default)]
struct Row(Vec<u64>);

impl Row {
    #[inline]
    fn add(&mut self, label: Label, by: u64) {
        match self.0.get_mut(label.index()) {
            Some(n) => *n += by,
            None => self.grow(label, by),
        }
    }

    #[cold]
    fn grow(&mut self, label: Label, by: u64) {
        self.0.resize(label.index(), 0);
        self.0.push(by);
    }

    fn get(&self, name: &str) -> u64 {
        Label::find(name).and_then(|l| self.0.get(l.index()).copied()).unwrap_or(0)
    }

    /// The row without its trailing zeros.
    fn counted(&self) -> &[u64] {
        let end = self.0.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        &self.0[..end]
    }

    /// What moved since `then`, the same row earlier.
    fn since(&self, then: &Row) -> Row {
        let then = |i: usize| then.0.get(i).copied().unwrap_or(0);
        let mut d = Row(self.0.iter().enumerate().map(|(i, &n)| n.saturating_sub(then(i))).collect());
        d.0.truncate(d.counted().len());
        d
    }

    /// The counted labels by name, in name order.
    fn named(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (i, &n) in self.0.iter().enumerate().filter(|&(_, &n)| n > 0) {
            by_name.insert(Label::from_index(i).name(), n);
        }
        by_name
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.counted() == other.counted()
    }
}

impl Eq for Row {}

/// Counters accumulated over a simulation run. Equality, like every view,
/// is by name: two traces are equal when their tables, their counts by
/// kind and by protocol counter name, and their digests are.
#[derive(Clone, PartialEq, Eq)]
pub struct Trace {
    /// The [`Counter`] table, indexed by variant.
    counts: [u64; Counter::COUNT],
    /// Transmissions (unicast + broadcast) by message kind.
    sent: Row,
    /// Protocol-level named counters bumped via [`crate::Context::count`]
    /// (e.g. the reliability layer's retransmit/dedup/give-up tallies).
    proto: Row,
    /// Running FNV-1a hash of every scheduled delivery
    /// (time, sender, receiver, kind).
    digest: u64,
}

impl Default for Trace {
    fn default() -> Self {
        let (sent, proto) = (Row::default(), Row::default());
        Trace { counts: [0; Counter::COUNT], sent, proto, digest: Fnv64::new().finish() }
    }
}

/// By name, as the trace read when it kept its counts in name-keyed maps.
impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("counts", &self.counts)
            .field("per_kind_sent", &self.sent.named())
            .field("proto", &self.proto.named())
            .field("digest", &self.digest)
            .finish()
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
    #[inline]
    pub fn record_unicast(&mut self, kind: impl Into<Label>) {
        self.bump(Counter::UnicastsSent);
        self.sent.add(kind.into(), 1);
    }

    /// Counts one broadcast transmission of `kind`, however many receive it.
    #[inline]
    pub fn record_broadcast(&mut self, kind: impl Into<Label>) {
        self.bump(Counter::BroadcastsSent);
        self.sent.add(kind.into(), 1);
    }

    /// Adds one to `counter`.
    #[inline]
    pub(crate) fn bump(&mut self, counter: Counter) {
        self.counts[counter as usize] += 1;
    }

    pub(crate) fn record_proto(&mut self, name: impl Into<Label>, by: u64) {
        self.proto.add(name.into(), by);
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
        Trace {
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i])),
            sent: self.sent.since(&earlier.sent),
            proto: self.proto.since(&earlier.proto),
            digest: self.digest,
        }
    }

    /// Every counter by name: the [`Counter`] table in order, then the
    /// protocol counters counted at all, in name order.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let table = Counter::ALL.into_iter().map(|c| (c.name(), self.get(c)));
        table.chain(self.proto.named())
    }

    /// Writes the trace as one JSON object: every [`Counter`] by name in
    /// table order, then `sent_by_kind` and `proto` as objects. The digest
    /// is not part of it; reports carry it in a field of its own.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            for c in Counter::ALL {
                w.key(c.name()).u64(self.get(c));
            }
            for (key, row) in [("sent_by_kind", &self.sent), ("proto", &self.proto)] {
                w.key(key).object(|w| {
                    for (name, n) in row.named() {
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

    /// Transmissions (unicast + broadcast) by message kind, of the kinds
    /// sent at all.
    #[must_use]
    pub fn sent_by_kind(&self) -> BTreeMap<&'static str, u64> {
        self.sent.named()
    }

    /// Total transmissions of the given kind.
    #[must_use]
    pub fn sent_of_kind(&self, kind: &str) -> u64 {
        self.sent.get(kind)
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
        self.proto.get(name)
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
            fast.record_scheduled_delivery(at, from, to, folds.get(Label::of(kind)));
            slow.record_scheduled_delivery_bytewise(at, from, to, kind);
            assert_eq!(fast.digest(), slow.digest(), "step {step}: ({at:#x}, {from:#x}, {to:#x}, {kind:?})");
        }
        assert_eq!(fast, slow);
        assert_eq!(folds.0.iter().flatten().count(), KINDS.len(), "one table per kind, reused");
    }

    /// The name-keyed maps the trace kept before it counted by label id:
    /// the oracle its views, [`Trace::since`] and `==` are checked against.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Oracle {
        sent: BTreeMap<&'static str, u64>,
        proto: BTreeMap<&'static str, u64>,
    }

    impl Oracle {
        fn add(&mut self, other: &Oracle) {
            for (mine, theirs) in [(&mut self.sent, &other.sent), (&mut self.proto, &other.proto)] {
                for (&name, &n) in theirs {
                    *mine.entry(name).or_insert(0) += n;
                }
            }
        }

        /// What moved since `then`; names that did not move are absent.
        fn since(&self, then: &Oracle) -> Oracle {
            let moved = |now: &BTreeMap<&'static str, u64>, then: &BTreeMap<&'static str, u64>| {
                now.iter()
                    .map(|(&name, &n)| (name, n - then.get(name).copied().unwrap_or(0)))
                    .filter(|&(_, d)| d > 0)
                    .collect()
            };
            Oracle { sent: moved(&self.sent, &then.sent), proto: moved(&self.proto, &then.proto) }
        }

        /// The `sent_by_kind` and `proto` members of [`Trace::write_json`].
        fn json(&self) -> String {
            gs3_telemetry::json::to_string(|w| {
                w.object(|w| {
                    for (key, map) in [("sent_by_kind", &self.sent), ("proto", &self.proto)] {
                        w.key(key).object(|w| {
                            for (name, &n) in map {
                                w.key(name).u64(n);
                            }
                        });
                    }
                });
            })
        }
    }

    /// Every view of `t` against `o`, by name.
    fn assert_views(t: &Trace, o: &Oracle, at: &str) {
        assert_eq!(t.sent_by_kind(), o.sent, "{at}: sent_by_kind");
        let proto: BTreeMap<_, _> = t.named().skip(Counter::COUNT).collect();
        assert_eq!(proto, o.proto, "{at}: named");
        for name in o.sent.keys().chain(o.proto.keys()).chain(&["never_counted"]) {
            let (sent, proto) = (o.sent.get(name).copied(), o.proto.get(name).copied());
            assert_eq!(t.sent_of_kind(name), sent.unwrap_or(0), "{at}: sent_of_kind({name})");
            assert_eq!(t.proto(name), proto.unwrap_or(0), "{at}: proto({name})");
        }
        let doc = gs3_telemetry::json::to_string(|w| t.write_json(w));
        let maps = o.json();
        assert!(doc.ends_with(&format!(",{}", &maps[1..])), "{at}: {doc} does not end in {maps}");
    }

    #[derive(Debug, Clone)]
    struct Said(&'static str);

    impl crate::Payload for Said {
        fn kind(&self) -> &'static str {
            self.0
        }
    }

    /// Each 20 ms tick a [`Talker`] unicasts (to any id, the dead and the
    /// unknown included) or broadcasts one of its kinds, and bumps one of
    /// its counter names by 0–2; it answers a tenth of what it hears. It
    /// logs in its own oracle what it asked the engine to count.
    #[derive(Debug)]
    struct Talker {
        kinds: Vec<&'static str>,
        names: Vec<&'static str>,
        oracle: Oracle,
    }

    impl Talker {
        fn say(&mut self, ctx: &mut crate::Context<'_, Said, ()>, to: Option<crate::NodeId>) {
            use rand::Rng;
            let kind = self.kinds[ctx.rng().gen_range(0..self.kinds.len())];
            match to {
                Some(to) => ctx.unicast(to, Said(kind)),
                None => ctx.broadcast(60.0, Said(kind)),
            }
            *self.oracle.sent.entry(kind).or_insert(0) += 1;
            let (name, by) = (self.names[ctx.rng().gen_range(0..self.names.len())], ctx.rng().gen_range(0..3));
            if by == 1 && ctx.rng().gen_bool(0.5) {
                ctx.count(name);
            } else {
                ctx.count_by(name, by);
            }
            if by > 0 {
                *self.oracle.proto.entry(name).or_insert(0) += by;
            }
        }
    }

    impl crate::Node for Talker {
        type Msg = Said;
        type Timer = ();

        fn on_start(&mut self, ctx: &mut crate::Context<'_, Said, ()>) {
            ctx.set_timer(crate::SimDuration::from_millis(20), ());
        }

        fn on_message(&mut self, from: crate::NodeId, _: Said, ctx: &mut crate::Context<'_, Said, ()>) {
            use rand::Rng;
            if ctx.rng().gen_bool(0.1) {
                self.say(ctx, Some(from));
            }
        }

        fn on_timer(&mut self, (): (), ctx: &mut crate::Context<'_, Said, ()>) {
            use rand::Rng;
            let to = match ctx.rng().gen_range(0..3u32) {
                0 => None,
                _ => Some(crate::NodeId::new(ctx.rng().gen_range(0..70))),
            };
            self.say(ctx, to);
            ctx.set_timer(crate::SimDuration::from_millis(20), ());
        }
    }

    /// A chaos run at the engine's level — contention, a lossy,
    /// duplicating, delaying channel, a jam, and crashes — whose nodes
    /// count a dozen kinds (two of them also at a second, leaked address)
    /// and eight protocol names. At every checkpoint each view of the
    /// trace equals the oracle the nodes kept, `since` between any two
    /// checkpoints equals the oracle's difference, and traces compare
    /// equal exactly when their tables, digests and oracles do.
    #[test]
    fn views_since_and_eq_match_a_name_keyed_oracle_over_a_chaos_run() {
        use crate::faults::{BurstLoss, FaultConfig};
        use crate::radio::{EnergyModel, RadioModel};
        use crate::{ContentionConfig, Engine, NodeId, SimDuration};
        use gs3_geometry::Point;

        const KINDS: [&str; 10] =
            ["org", "org_reply", "head_set", "join", "beat", "a", "", "retreat", "x", "y"];
        const NAMES: [&str; 8] =
            ["reliable_sent", "reliable_acked", "data_queue_drops", "z", "m", "quarantine_entries", "q1", "q2"];
        let leaked: Vec<&'static str> = ["org", "beat"].iter().map(|k| &*String::from(*k).leak()).collect();
        let mut eng = Engine::new(RadioModel::ideal(60.0), EnergyModel::disabled(), 23);
        eng.set_contention(ContentionConfig::on());
        eng.set_fault_config(FaultConfig {
            burst: BurstLoss::bursty(0.02, 4.0),
            unicast_loss: 0.05,
            duplicate: 0.03,
            delay_prob: 0.05,
            delay_max: SimDuration::from_millis(30),
        });
        for i in 0..60u32 {
            let mut kinds = KINDS.to_vec();
            if i % 2 == 1 {
                kinds.extend(&leaked);
            }
            let talker = Talker { kinds, names: NAMES.to_vec(), oracle: Oracle::default() };
            eng.spawn(talker, Point::new(f64::from(i % 8) * 25.0, f64::from(i / 8) * 25.0));
        }
        let oracle = |eng: &Engine<Talker>| {
            let mut o = Oracle::default();
            for id in eng.ids() {
                o.add(&eng.node(id).unwrap().oracle);
            }
            o
        };
        let mut points = vec![(Trace::new(), Oracle::default())];
        for step in 1..=if cfg!(miri) { 3 } else { 12 } {
            match step {
                3 => drop(eng.faults_mut().start_jam(Point::new(80.0, 80.0), 40.0)),
                5 | 8 => {
                    for id in (step..60).step_by(9) {
                        eng.kill(NodeId::new(id as u64)).unwrap();
                    }
                }
                _ => {}
            }
            eng.run_for(SimDuration::from_millis(250));
            let (t, o) = (eng.trace().clone(), oracle(&eng));
            assert_views(&t, &o, &format!("checkpoint {step}"));
            points.push((t, o));
        }
        let end = &points.last().unwrap().0;
        assert!(end.mac_collisions() > 0 && end.mac_defers() > 0, "contention bit");
        assert!(end.dropped_by_burst() > 0 && end.dropped_by_jam() > 0, "the channel bit");
        assert!(end.get(Counter::UnicastFailures) > 0, "the dead and the unknown were sent to");
        assert_eq!(end.sent_by_kind().len(), KINDS.len(), "every kind sent, each under one name");
        for (i, (a, oa)) in points.iter().enumerate() {
            for (b, ob) in &points[i..] {
                let d = b.since(a);
                assert_views(&d, &ob.since(oa), &format!("since, checkpoint {i}"));
                assert_eq!(d.counts, std::array::from_fn(|c| b.counts[c] - a.counts[c]));
                assert_eq!(d.digest(), b.digest());
                assert_eq!(a == b, a.counts == b.counts && a.digest == b.digest && oa == ob);
            }
            // Rows that end in zeros still compare by what they count.
            assert_eq!(a.since(&Trace::new()), *a);
            let nothing = a.since(a);
            assert_eq!(nothing, Trace { digest: a.digest, ..Trace::new() });
            assert_views(&nothing, &Oracle::default(), "since itself");
        }
    }

    /// Names used first in reverse name order, and the same names in name
    /// order, give the same views, in name order, and equal traces.
    #[test]
    fn first_use_order_changes_no_view() {
        let names: Vec<&'static str> =
            (0..6).map(|i| &*format!("first_use_{}", (b'a' + i) as char).leak()).collect();
        let (mut late, mut early) = (Trace::new(), Trace::new());
        for (n, &name) in names.iter().enumerate().rev() {
            late.record_unicast(name);
            late.record_proto(name, n as u64 + 1);
        }
        assert!(Label::of(names[5]) < Label::of(names[0]), "ids follow first use");
        for (n, &name) in names.iter().enumerate() {
            early.record_proto(name, n as u64 + 1);
            early.record_unicast(name);
        }
        assert_eq!(late, early);
        let view: Vec<(&str, u64)> = late.named().skip(Counter::COUNT).collect();
        assert_eq!(view, names.iter().enumerate().map(|(n, &name)| (name, n as u64 + 1)).collect::<Vec<_>>());
        assert!(late.sent_by_kind().keys().copied().eq(names.iter().copied()));
        let json = |t: &Trace| gs3_telemetry::json::to_string(|w| t.write_json(w));
        assert_eq!(json(&late), json(&early));
        assert_eq!(format!("{late:?}"), format!("{early:?}"));
    }

    /// A kind reaching the trace at a second address counts under the
    /// name it already has.
    #[test]
    fn a_kind_at_a_second_address_counts_under_its_name() {
        let mut t = Trace::new();
        t.record_unicast("second_address_kind");
        t.record_broadcast(&*String::from("second_address_kind").leak());
        t.record_proto("second_address_kind", 2);
        t.record_proto(&*String::from("second_address_kind").leak(), 3);
        assert_eq!(t.sent_of_kind("second_address_kind"), 2);
        assert_eq!(t.sent_by_kind().len(), 1);
        assert_eq!(t.proto("second_address_kind"), 5);
    }
}
