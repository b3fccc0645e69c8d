//! Canonical protocol-state fingerprints for model-checking dedup.
//!
//! The bounded model checker ([`gs3-mc`](../../gs3-mc)) explores a tree of
//! forked simulations and must recognize when two different histories have
//! reached *the same* protocol state, or the search degenerates into pure
//! tree enumeration. [`Network::fingerprint`] folds everything that can
//! influence future behavior into one 128-bit FNV-1a hash
//! ([`gs3_sim::fnv`]): this module folds the network and each node's
//! protocol state, [`Engine::fold_state`](gs3_sim::Engine::fold_state) the
//! engine's half (node columns, pending events, channel arbiter, faults,
//! medium, RNG).
//!
//! **Total by construction.** Both halves destructure every struct they
//! read without `..`, so a field added to any of them does not compile
//! (E0027) until it is folded or bound to `_` with its reason. Every
//! stored instant folds as an age (`now − t`) or a signed offset from
//! `now`, and every queued event as a delay (`at − now`), so states that
//! differ only by a rigid time shift dedup together — the checker's main
//! source of merging, since jittered heartbeats otherwise make every state
//! unique.
//!
//! The `_` bindings are the whole exclusion list:
//!
//! * folded by another fold — `Engine::queue`, `Engine::flights` and
//!   `Arena::pending_timers` through `pending_event_hashes` (each event's
//!   rank, delay, target and payload, and a timer's liveness);
//!   `Engine::grid`, an index over the alive nodes' positions;
//!   `Gs3Node::cfg`, the network's one shared configuration, folded as
//!   `Network::cfg`;
//! * history, not behavior — `Arena::next_timer_id`,
//!   `FaultState::next_jam_id`, `MediumState::next_id` and `Tx::id`
//!   (matched only against the window an in-flight frame carries, which no
//!   hash folds);
//! * bookkeeping no handler reads back — `Engine::trace`,
//!   `Engine::telemetry`, `Engine::events_processed`, `Engine::kind_folds`;
//!   `MediumState::max_airtime_us` (a scan cutoff: how
//!   far a scan walks, never its answer); `AssociateInfo::last_report_seq`
//!   (it only picks a gap or duplicate counter); `DataState::ledger` (the
//!   sink ledger: a handler reads only its admit/duplicate verdict, which
//!   picks a counter to bump — the credit goes back either way — so its
//!   windows and histogram never change a future event); `Network::view`
//!   (the cached snapshot and index, whose verdicts equal a rebuild's) and
//!   `Network::verdict` (the cached verdict on `view`);
//! * scratch, empty between calls — `Network::scratch`,
//!   `Engine::action_buf`, `Engine::recv_buf`, `Engine::grant_buf`.
//!
//! Two states with equal fingerprints are treated as interchangeable
//! futures; a collision of the 128-bit hash is possible in principle but
//! vanishingly unlikely at model-checking scale (billions of states would
//! be needed before birthday effects matter).

use gs3_dataplane::BatchEntry;
use gs3_geometry::spiral::IccIcp;
use gs3_sim::fnv::Fnv128;
use gs3_sim::SimTime;

use crate::congestion::CongestionState;
use crate::harness::Network;
use crate::messages::CellInfo;
use crate::node::Gs3Node;
use crate::reliable::{Detector, PendingSend, ReliableState, SeenWindow};
use crate::state::{
    AssocState, AssociateInfo, BigAwayState, BootupState, DataState, HeadState, NeighborInfo, OrgRound,
    Role, SanityRound,
};

fn fold_neighbor<'h>(h: &'h mut Fnv128, now: SimTime, info: &NeighborInfo) -> &'h mut Fnv128 {
    let NeighborInfo { pos, il, icc_icp: IccIcp { icc, icp }, hops, last_heard } = info;
    h.point(*pos).point(*il).u64(u64::from(*icc)).u64(u64::from(*icp)).u64(u64::from(*hops));
    h.age(now, *last_heard)
}

fn fold_bootup(h: &mut Fnv128, b: &BootupState) {
    let BootupState { awaiting_decision, probe_round, collecting, head_offers, assoc_offers, attempts } = b;
    h.opt(*awaiting_decision, Fnv128::id).u64(*probe_round).bool(*collecting);
    h.each(head_offers, |h, (id, pos, hops)| h.id(*id).point(*pos).u64(u64::from(*hops)));
    h.each(assoc_offers, |h, (id, pos)| h.id(*id).point(*pos)).u64(u64::from(*attempts));
}

fn fold_head(h: &mut Fnv128, now: SimTime, s: &HeadState) {
    let HeadState {
        il,
        oil,
        icc_icp: IccIcp { icc, icp },
        parent,
        parent_il,
        parent_pos,
        root_pos,
        hops,
        parent_last_heard,
        children,
        neighbors,
        associates,
        org,
        org_rounds,
        organized_once,
        sanity,
        sanity_rounds,
        is_proxy,
        proxy_refreshed,
        pending_reports,
        seek_rounds,
        pending_seek,
        failed_seeks,
        quarantined,
    } = s;
    h.point(*il).point(*oil).u64(u64::from(*icc)).u64(u64::from(*icp)).id(*parent).point(*parent_il);
    h.point(*parent_pos).point(*root_pos).u64(u64::from(*hops)).age(now, *parent_last_heard);
    for map in [children, neighbors] {
        h.each(map, |h, (id, info)| fold_neighbor(h.id(*id), now, info));
    }
    h.each(associates, |h, (id, info)| {
        // `last_report_seq` only picks a gap or duplicate counter (workload.rs).
        let AssociateInfo { pos, energy, last_heard, last_report_seq: _ } = info;
        h.id(*id).point(*pos).f64(*energy).age(now, *last_heard)
    });
    h.opt(org.as_ref(), |h, OrgRound { round, soliciting, small, heads }| {
        h.u64(*round).bool(*soliciting);
        h.each(small, |h, (id, pos, current)| {
            h.id(*id).point(*pos).opt(*current, |h, (head, d)| h.id(head).f64(d))
        });
        h.each(heads, |h, (id, pos, il)| h.id(*id).point(*pos).point(*il))
    });
    h.u64(*org_rounds).bool(*organized_once);
    h.opt(sanity.as_ref(), |h, SanityRound { round, asked, valid }| {
        h.u64(*round).each(asked, |h, id| h.id(*id)).each(valid, |h, id| h.id(*id))
    });
    h.u64(*sanity_rounds).bool(*is_proxy).age(now, *proxy_refreshed).u64(u64::from(*pending_reports));
    h.u64(*seek_rounds).opt(*pending_seek, Fnv128::u64).u64(u64::from(*failed_seeks)).bool(*quarantined);
}

fn fold_assoc(h: &mut Fnv128, now: SimTime, a: &AssocState) {
    let AssocState { head, head_pos, cell, last_heard, surrogate, election_pending } = a;
    let CellInfo {
        head: cell_head,
        head_pos: cell_head_pos,
        il,
        oil,
        icc_icp: IccIcp { icc, icp },
        hops,
        parent,
        parent_il,
        candidates,
        root_pos,
    } = &**cell;
    h.id(*head).point(*head_pos).id(*cell_head).point(*cell_head_pos).point(*il).point(*oil);
    h.u64(u64::from(*icc)).u64(u64::from(*icp)).u64(u64::from(*hops)).id(*parent).point(*parent_il);
    h.each(candidates, |h, id| h.id(*id)).point(*root_pos);
    h.age(now, *last_heard).bool(*surrogate).opt(*election_pending, Fnv128::id);
}

fn fold_big_away(h: &mut Fnv128, now: SimTime, b: &BigAwayState) {
    let BigAwayState { mobile, proxy, known_heads, since } = b;
    h.bool(*mobile).opt(*proxy, Fnv128::id);
    h.each(known_heads, |h, (id, (pos, il, when))| h.id(*id).point(*pos).point(*il).age(now, *when));
    h.age(now, *since);
}

fn fold_role(h: &mut Fnv128, now: SimTime, role: &Role) {
    match role {
        Role::Bootup(b) => fold_bootup(h.bytes(&[0]), b),
        Role::Head(s) => fold_head(h.bytes(&[1]), now, s),
        Role::Associate(a) => fold_assoc(h.bytes(&[2]), now, a),
        Role::BigAway(b) => fold_big_away(h.bytes(&[3]), now, b),
    }
}

fn fold_reliable(h: &mut Fnv128, now: SimTime, rel: &ReliableState) {
    let ReliableState { next_seq, pending, seen, detectors, suspected } = rel;
    h.u64(*next_seq);
    h.each(pending, |h, (seq, PendingSend { to, msg, attempt })| {
        h.u64(*seq).id(*to).debug(msg).u64(u64::from(*attempt))
    });
    h.each(seen, |h, (id, SeenWindow { hi, recent })| h.id(*id).u64(*hi).each(recent, |h, seq| h.u64(*seq)));
    h.each(detectors, |h, (id, Detector { last, mean_us, dev_us, samples })| {
        h.id(*id).age(now, *last).u64(*mean_us).u64(*dev_us).u64(u64::from(*samples))
    });
    h.each(suspected, |h, (id, deadline)| h.id(*id).offset(now, *deadline));
}

fn fold_cong(h: &mut Fnv128, c: &CongestionState) {
    let CongestionState { last_seen, stretch_exp, quiet } = c;
    h.u64(*last_seen).u64(u64::from(*stretch_exp)).u64(u64::from(*quiet));
}

fn fold_data(h: &mut Fnv128, now: SimTime, d: &DataState) {
    let DataState {
        leaf_seq,
        next_seq,
        accum_born,
        queue,
        gate,
        gate_parent,
        ledger: _, // the sink ledger: its verdict only picks a counter (module docs)
    } = d;
    h.u64(*leaf_seq).u64(*next_seq).opt(*accum_born, |h, t| h.age(now, t));
    h.each(queue.iter(), |h, BatchEntry { from, origin, seq, count, born }| {
        h.id(*from).id(*origin).u64(*seq).u64(u64::from(*count)).age(now, *born)
    });
    h.u64(u64::from(gate.credits())).u64(u64::from(gate.starved_ticks())).opt(*gate_parent, Fnv128::id);
}

fn fold_node(h: &mut Fnv128, now: SimTime, node: &Gs3Node) {
    let Gs3Node {
        cfg: _, // the network's one shared configuration, folded once as `Network::cfg`
        is_big,
        role,
        rel,
        cong,
        data,
    } = node;
    h.bool(*is_big);
    fold_role(h, now, role);
    fold_reliable(h, now, rel);
    fold_cong(h, cong);
    fold_data(h, now, data);
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
        let Network {
            eng,
            bigs,
            cfg,
            rng,
            budget,
            scratch: _, // scratch, empty between calls
            view: _,    // cached snapshot and index; their verdicts equal a rebuild's
            verdict: _, // cached verdict on `view`: a function of the state folded above
        } = self;
        let now = eng.now();
        let mut h = Fnv128::new();
        h.each(bigs, |h, id| h.id(*id)).debug(&**cfg).opt(*budget, Fnv128::f64);
        for word in rng.state_words() {
            h.u64(word);
        }
        eng.fold_state(&mut h, |h, node| fold_node(h, now, node));
        h.finish()
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
        net.run_to_fixpoint();
        let a = net.fingerprint();
        let b = net.fingerprint();
        assert_eq!(a, b, "computing a fingerprint must not perturb the state");
        // An identically-built twin lands on the same fingerprint.
        let mut twin = pinned_net(11);
        twin.run_to_fixpoint();
        assert_eq!(a, twin.fingerprint());
    }

    #[test]
    fn fingerprint_separates_different_states() {
        let mut net = pinned_net(11);
        net.run_to_fixpoint();
        let configured = net.fingerprint();

        let fresh = pinned_net(11);
        assert_ne!(fresh.fingerprint(), configured, "bootup vs configured");

        let mut other_seed = pinned_net(12);
        other_seed.run_to_fixpoint();
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
        net.run_to_fixpoint();
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
    fn fingerprint_folds_the_engine_outside_the_nodes() {
        let mut net = pinned_net(11);
        net.run_to_fixpoint();
        let base = net.fingerprint();
        let mut jammed = net.clone();
        jammed.start_jam(Point::new(900.0, 900.0), 1.0);
        assert_ne!(jammed.fingerprint(), base, "a jam far from every node");
        let mut contended = net.clone();
        contended.engine_mut().set_contention(gs3_sim::ContentionConfig::on());
        assert_ne!(contended.fingerprint(), base, "the contention configuration");
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
        net.run_to_fixpoint();
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
