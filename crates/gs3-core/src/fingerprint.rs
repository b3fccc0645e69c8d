//! Canonical protocol-state fingerprints for model-checking dedup.
//!
//! The bounded model checker ([`gs3-mc`](../../gs3-mc)) explores a tree of
//! forked simulations and must recognize when two different histories have
//! reached *the same* protocol state, or the search degenerates into pure
//! tree enumeration. [`Network::fingerprint`] folds everything that can
//! influence future behavior into one 128-bit FNV-1a hash:
//!
//! * every node's liveness, position, energy, channel-arbiter view, and
//!   full [`Role`] state,
//! * each node's reliability-layer state (outstanding sends, anti-replay
//!   windows, failure-detector estimators),
//! * each node's congestion-adaptation state (observation baseline,
//!   stretch exponent, quiet streak) and data-plane state (sequence
//!   numbers, the oldest unsent report's age, the aggregation queue, the
//!   credit gate and the parent it was issued by),
//! * the pending event queue, in canonical `(fire time, seq)` order,
//! * the channel-reservation arbiter,
//! * the adversarial-channel state (configuration, Gilbert–Elliott chain
//!   phase, jams, and any unconsumed delivery script),
//! * the RNG state words — two states with equal protocol state but
//!   diverged random streams schedule different jitter and must **not**
//!   merge.
//!
//! What is deliberately **excluded**:
//!
//! * the absolute simulation clock — every stored [`SimTime`] is folded
//!   as an age (`now − t`) and every queued event as a delay
//!   (`at − now`), so states that differ only by a rigid time shift
//!   dedup together (the checker's main source of merging, since jittered
//!   heartbeats otherwise make every state unique),
//! * event-queue sequence numbers and timer ids — they encode *history*
//!   (how many events were ever scheduled), not future behavior; only
//!   the canonical ordering and each timer's liveness are folded,
//! * the global delivery-attempt counter and the attempt log — the
//!   checker re-probes attempt indices from whichever representative
//!   state it resumes, so the counter is bookkeeping, not behavior,
//! * traces, counters, and telemetry — observational by construction,
//! * the big node's sink ledger — a handler reads only its admit/duplicate
//!   verdict, which picks a counter to bump (the credit goes back either
//!   way), so its windows and histogram never change a future event.
//!
//! Two states with equal fingerprints are treated as interchangeable
//! futures; a collision of the 128-bit hash is possible in principle but
//! vanishingly unlikely at model-checking scale (billions of states would
//! be needed before birthday effects matter).

use std::fmt::Write as _;

use gs3_sim::{NodeId, SimTime};

use crate::congestion::CongestionState;
use crate::harness::Network;
use crate::node::Gs3Node;
use crate::reliable::ReliableState;
use crate::state::{
    AssocState, BigAwayState, BootupState, DataState, HeadState, NeighborInfo, Role, SanityRound,
};

/// 128-bit FNV-1a, folded byte-by-byte.
///
/// FNV is not cryptographic — fine here: fingerprints defend against
/// accidental collision between explored states, not an adversary.
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// A hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    /// The digest so far.
    #[must_use]
    pub fn digest(&self) -> u128 {
        self.0
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Folds a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `i64` (little-endian).
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }

    /// Folds an `f64` by its bit pattern (`-0.0` and `0.0` differ; all
    /// state floats are produced deterministically, so bitwise equality
    /// is the right notion).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a string, length-prefixed so concatenations can't alias.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn id(&mut self, id: NodeId) {
        self.u64(id.raw());
    }

    fn opt_id(&mut self, id: Option<NodeId>) {
        match id {
            None => self.bytes(&[0]),
            Some(id) => {
                self.bytes(&[1]);
                self.id(id);
            }
        }
    }

    fn point(&mut self, p: gs3_geometry::Point) {
        self.f64(p.x);
        self.f64(p.y);
    }

    /// A stored past timestamp, normalized to an age relative to `now`.
    fn age(&mut self, now: SimTime, t: SimTime) {
        self.u64(now.saturating_since(t).as_micros());
    }

    /// A stored timestamp that may lie in the future (deadlines),
    /// normalized to a signed offset from `now`.
    fn offset(&mut self, now: SimTime, t: SimTime) {
        self.i64(t.as_micros() as i64 - now.as_micros() as i64);
    }
}

fn fold_neighbor(h: &mut Fnv128, now: SimTime, info: &NeighborInfo) {
    h.point(info.pos);
    h.point(info.il);
    h.u64(u64::from(info.icc_icp.icc));
    h.u64(u64::from(info.icc_icp.icp));
    h.u64(u64::from(info.hops));
    h.age(now, info.last_heard);
}

fn fold_sanity(h: &mut Fnv128, round: &SanityRound) {
    h.u64(round.round);
    h.u64(round.asked.len() as u64);
    for id in &round.asked {
        h.id(*id);
    }
    h.u64(round.valid.len() as u64);
    for id in &round.valid {
        h.id(*id);
    }
}

fn fold_bootup(h: &mut Fnv128, b: &BootupState) {
    h.opt_id(b.awaiting_decision);
    h.u64(b.probe_round);
    h.bool(b.collecting);
    h.u64(b.head_offers.len() as u64);
    for (id, pos, hops) in &b.head_offers {
        h.id(*id);
        h.point(*pos);
        h.u64(u64::from(*hops));
    }
    h.u64(b.assoc_offers.len() as u64);
    for (id, pos) in &b.assoc_offers {
        h.id(*id);
        h.point(*pos);
    }
    h.u64(u64::from(b.attempts));
}

fn fold_head(h: &mut Fnv128, now: SimTime, s: &HeadState) {
    h.point(s.il);
    h.point(s.oil);
    h.u64(u64::from(s.icc_icp.icc));
    h.u64(u64::from(s.icc_icp.icp));
    h.id(s.parent);
    h.point(s.parent_il);
    h.point(s.parent_pos);
    h.point(s.root_pos);
    h.u64(u64::from(s.hops));
    h.age(now, s.parent_last_heard);
    for (label, map) in [("children", &s.children), ("neighbors", &s.neighbors)] {
        h.str(label);
        h.u64(map.len() as u64);
        for (id, info) in map {
            h.id(*id);
            fold_neighbor(h, now, info);
        }
    }
    h.u64(s.associates.len() as u64);
    for (id, info) in &s.associates {
        h.id(*id);
        h.point(info.pos);
        h.f64(info.energy);
        h.age(now, info.last_heard);
    }
    match &s.org {
        None => h.bytes(&[0]),
        Some(org) => {
            h.bytes(&[1]);
            h.u64(org.round);
            h.bool(org.soliciting);
            h.u64(org.small.len() as u64);
            for (id, pos, current) in &org.small {
                h.id(*id);
                h.point(*pos);
                match current {
                    None => h.bytes(&[0]),
                    Some((head, d)) => {
                        h.bytes(&[1]);
                        h.id(*head);
                        h.f64(*d);
                    }
                }
            }
            h.u64(org.heads.len() as u64);
            for (id, pos, il) in &org.heads {
                h.id(*id);
                h.point(*pos);
                h.point(*il);
            }
        }
    }
    h.u64(s.org_rounds);
    h.bool(s.organized_once);
    match &s.sanity {
        None => h.bytes(&[0]),
        Some(round) => {
            h.bytes(&[1]);
            fold_sanity(h, round);
        }
    }
    h.u64(s.sanity_rounds);
    h.bool(s.is_proxy);
    h.age(now, s.proxy_refreshed);
    h.u64(u64::from(s.pending_reports));
    h.u64(s.seek_rounds);
    match s.pending_seek {
        None => h.bytes(&[0]),
        Some(round) => {
            h.bytes(&[1]);
            h.u64(round);
        }
    }
    h.u64(u64::from(s.failed_seeks));
    h.bool(s.quarantined);
}

fn fold_assoc(h: &mut Fnv128, now: SimTime, a: &AssocState) {
    h.id(a.head);
    h.point(a.head_pos);
    let c = &a.cell;
    h.id(c.head);
    h.point(c.head_pos);
    h.point(c.il);
    h.point(c.oil);
    h.u64(u64::from(c.icc_icp.icc));
    h.u64(u64::from(c.icc_icp.icp));
    h.u64(u64::from(c.hops));
    h.id(c.parent);
    h.point(c.parent_il);
    h.u64(c.candidates.len() as u64);
    for id in &c.candidates {
        h.id(*id);
    }
    h.point(c.root_pos);
    h.age(now, a.last_heard);
    h.bool(a.surrogate);
    h.opt_id(a.election_pending);
}

fn fold_big_away(h: &mut Fnv128, now: SimTime, b: &BigAwayState) {
    h.bool(b.mobile);
    h.opt_id(b.proxy);
    h.u64(b.known_heads.len() as u64);
    for (id, (pos, il, when)) in &b.known_heads {
        h.id(*id);
        h.point(*pos);
        h.point(*il);
        h.age(now, *when);
    }
    h.age(now, b.since);
}

fn fold_role(h: &mut Fnv128, now: SimTime, role: &Role) {
    match role {
        Role::Bootup(b) => {
            h.bytes(&[0]);
            fold_bootup(h, b);
        }
        Role::Head(s) => {
            h.bytes(&[1]);
            fold_head(h, now, s);
        }
        Role::Associate(a) => {
            h.bytes(&[2]);
            fold_assoc(h, now, a);
        }
        Role::BigAway(b) => {
            h.bytes(&[3]);
            fold_big_away(h, now, b);
        }
    }
}

fn fold_reliable(h: &mut Fnv128, now: SimTime, rel: &ReliableState) {
    h.u64(rel.next_seq);
    h.u64(rel.pending.len() as u64);
    let mut scratch = String::new();
    for (seq, send) in &rel.pending {
        h.u64(*seq);
        h.id(send.to);
        scratch.clear();
        let _ = write!(scratch, "{:?}", send.msg);
        h.str(&scratch);
        h.u64(u64::from(send.attempt));
    }
    h.u64(rel.seen.len() as u64);
    for (id, win) in &rel.seen {
        h.id(*id);
        h.u64(win.hi);
        h.u64(win.recent.len() as u64);
        for seq in &win.recent {
            h.u64(*seq);
        }
    }
    h.u64(rel.detectors.len() as u64);
    for (id, det) in &rel.detectors {
        h.id(*id);
        h.age(now, det.last);
        h.u64(det.mean_us);
        h.u64(det.dev_us);
        h.u64(u64::from(det.samples));
    }
    h.u64(rel.suspected.len() as u64);
    for (id, deadline) in &rel.suspected {
        h.id(*id);
        h.offset(now, *deadline);
    }
}

fn fold_cong(h: &mut Fnv128, c: &CongestionState) {
    h.u64(c.last_seen);
    h.u64(u64::from(c.stretch_exp));
    h.u64(u64::from(c.quiet));
}

fn fold_data(h: &mut Fnv128, now: SimTime, d: &DataState) {
    h.u64(d.leaf_seq);
    h.u64(d.next_seq);
    match d.accum_born {
        None => h.bytes(&[0]),
        Some(t) => {
            h.bytes(&[1]);
            h.age(now, t);
        }
    }
    h.u64(d.queue.len() as u64);
    for e in d.queue.iter() {
        h.id(e.from);
        h.id(e.origin);
        h.u64(e.seq);
        h.u64(u64::from(e.count));
        h.age(now, e.born);
    }
    h.u64(u64::from(d.gate.credits()));
    h.u64(u64::from(d.gate.starved_ticks()));
    h.opt_id(d.gate_parent);
}

fn fold_node(h: &mut Fnv128, now: SimTime, node: &Gs3Node) {
    h.bool(node.is_big);
    fold_role(h, now, node.role());
    fold_reliable(h, now, &node.rel);
    fold_cong(h, &node.cong);
    fold_data(h, now, &node.data);
}

impl Network {
    /// The canonical 128-bit fingerprint of the current protocol state.
    ///
    /// Two networks with equal fingerprints behave identically under
    /// identical future inputs; see the [module docs](self) for exactly
    /// what is folded and what is normalized away. The fingerprint is a
    /// pure function of the state — computing it never mutates anything
    /// (in particular, it draws no RNG).
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        let eng = self.engine();
        let now = eng.now();
        let mut h = Fnv128::new();

        // Per-node physical + protocol state, in id order.
        let ids: Vec<NodeId> = eng.ids().collect();
        h.u64(ids.len() as u64);
        for id in ids {
            h.id(id);
            let alive = eng.is_alive(id).expect("id came from the engine");
            h.bool(alive);
            if !alive {
                // A dead node's residual state can't influence anything.
                continue;
            }
            h.point(eng.position(id).expect("alive node has a position"));
            h.f64(eng.energy(id).expect("alive node has an energy"));
            fold_node(&mut h, now, eng.node(id).expect("alive node exists"));
        }

        // Pending events, canonically ordered and time-normalized by the
        // engine (queue seq and timer ids are masked there).
        let pending = eng.pending_event_hashes();
        h.u64(pending.len() as u64);
        for ev in pending {
            h.u64(ev);
        }

        // Channel arbiter: granted claims + waiting queue. The Debug
        // form is deterministic and time-free (claims hold no SimTime).
        h.str(&format!("{:?}", eng.channel_state()));

        // Adversarial channel: configuration, chain phase, jams, and any
        // unconsumed script ops (the attempt counter and log are
        // bookkeeping, not behavior — see module docs).
        let faults = eng.faults();
        h.str(&format!("{:?}", faults.config()));
        h.bool(faults.burst_in_bad_state());
        h.u64(faults.jams().len() as u64);
        for jam in faults.jams() {
            h.u64(jam.id);
            h.point(jam.center);
            h.f64(jam.radius);
        }
        h.u64(faults.script().len() as u64);
        for (attempt, fate) in faults.script() {
            h.u64(*attempt);
            h.str(&format!("{fate:?}"));
        }

        // The random stream: protocol jitter draws from it, so states
        // with diverged streams must not merge.
        for word in eng.rng_state() {
            h.u64(word);
        }

        h.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::NetworkBuilder;
    use gs3_geometry::Point;
    use gs3_sim::SimDuration;

    fn pinned_net(seed: u64) -> Network {
        NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius(150.0)
            .seed(seed)
            .with_small_node(Point::new(70.0, 10.0))
            .with_small_node(Point::new(-60.0, 40.0))
            .with_small_node(Point::new(10.0, -75.0))
            .with_small_node(Point::new(100.0, -20.0))
            .build()
            .unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_pure() {
        let mut net = pinned_net(11);
        net.run_to_fixpoint().unwrap();
        let a = net.fingerprint();
        let b = net.fingerprint();
        assert_eq!(a, b, "computing a fingerprint must not perturb the state");
        // An identically-built twin lands on the same fingerprint.
        let mut twin = pinned_net(11);
        twin.run_to_fixpoint().unwrap();
        assert_eq!(a, twin.fingerprint());
    }

    #[test]
    fn fingerprint_separates_different_states() {
        let mut net = pinned_net(11);
        net.run_to_fixpoint().unwrap();
        let configured = net.fingerprint();

        let fresh = pinned_net(11);
        assert_ne!(fresh.fingerprint(), configured, "bootup vs configured");

        let mut other_seed = pinned_net(12);
        other_seed.run_to_fixpoint().unwrap();
        assert_ne!(
            other_seed.fingerprint(),
            configured,
            "diverged RNG streams must not merge"
        );

        let mut crashed = net.clone();
        let big = crashed.big_id();
        let victim = crashed
            .engine()
            .alive_ids()
            .find(|id| *id != big)
            .expect("a small node exists");
        crashed.engine_mut().kill(victim).unwrap();
        assert_ne!(crashed.fingerprint(), net.fingerprint());
    }

    #[test]
    fn fingerprint_folds_congestion_and_data_plane_state() {
        let mut net = pinned_net(11);
        net.run_to_fixpoint().unwrap();
        let base = net.fingerprint();
        let victim = net.engine().alive_ids().find(|id| *id != net.big_id()).unwrap();
        let mut stretched = net.clone();
        stretched.engine_mut().node_mut(victim).unwrap().cong.stretch_exp += 1;
        assert_ne!(stretched.fingerprint(), base, "stretch exponent");
        let mut sequenced = net.clone();
        sequenced.engine_mut().node_mut(victim).unwrap().data.leaf_seq += 1;
        assert_ne!(sequenced.fingerprint(), base, "leaf sequence number");
    }

    #[test]
    fn fingerprint_ignores_rigid_time_shift() {
        // Two copies of a quiescent network run to different absolute
        // times have identical future behavior; the fingerprint must
        // agree. (While events are pending the clock offset *does* show
        // up — as changed event delays and state ages — so this only
        // holds at quiescence, which is exactly the normalization the
        // model checker needs for its terminal states.)
        let mut net = pinned_net(13);
        net.run_to_fixpoint().unwrap();
        let mut later = net.clone();
        if !later.engine().is_quiescent() {
            // The protocol keeps heartbeating forever; a truly quiescent
            // state needs the run to have drained, which run_to_fixpoint
            // does not guarantee. In that case the shifted copy advances
            // through real events and the states legitimately differ —
            // nothing to assert. Only the drained case is checked.
            return;
        }
        let now = later.engine().now();
        later.engine_mut().run_until(now + SimDuration::from_secs(50));
        assert_eq!(net.fingerprint(), later.fingerprint());
    }
}
