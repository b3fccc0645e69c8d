//! For the model checker and harnesses: state hashes, episodes.

use std::fmt::Write as _;

use super::*;
use crate::faults::Jam;
use crate::fnv::{Fnv128, Fnv64};
use crate::medium::Tx;

impl<N: Node> Engine<N> {
    /// The raw 256-bit RNG state: equal in two runs exactly when they have
    /// drawn the same stream (what RNG-inertness tests compare).
    #[must_use]
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state_words()
    }

    /// Canonical per-event hashes of the pending queue, one `u64` per
    /// pending event, in the queue's deterministic firing order
    /// (`(time, seq)`).
    ///
    /// Each hash folds the event's *relative* firing time (`at − now`),
    /// its firing rank, the receiver, and the payload — but not the
    /// absolute time, the raw scheduling seq, or raw timer ids, so two
    /// runs that reach structurally identical states through different
    /// histories fingerprint equal. A timer event additionally folds
    /// whether its id is still live in the owner's pending set: a
    /// cancelled (stale) entry hashes differently from a live one.
    /// Episode tags and transmission airtime windows are
    /// observation/contention metadata and excluded, and a delivery folds
    /// its transmission record's *contents*, never the slab slot it
    /// happens to occupy.
    #[must_use]
    pub fn pending_event_hashes(&self) -> Vec<u64> {
        let mut entries: Vec<_> = self.queue.entries().collect();
        entries.sort_by_key(|&(at, seq, _)| (at, seq));
        entries
            .iter()
            .enumerate()
            .map(|(rank, &(at, _seq, ev))| {
                let mut h = Fnv64::new();
                h.u64(rank as u64).u64(at.saturating_since(self.now).as_micros()).id(ev.to);
                match &ev.kind {
                    EventKind::Start => {
                        h.bytes(&[0]);
                    }
                    EventKind::Deliver { flight } => {
                        let t = self.flights.get(*flight);
                        h.bytes(&[1, u8::from(t.dest.is_directed())]).id(t.from);
                        let _ = write!(h, "{:?}", t.msg);
                    }
                    EventKind::Timer { timer_id, timer } => {
                        let live = self.arena.timers.contains(ev.to.index(), *timer_id);
                        h.bytes(&[2, u8::from(live)]);
                        let _ = write!(h, "{timer:?}");
                    }
                    EventKind::ChannelGrant => {
                        h.bytes(&[3]);
                    }
                    EventKind::Resend { flight, attempt } => {
                        let t = self.flights.get(*flight);
                        match t.dest {
                            Dest::Node(to) => h.bytes(&[4]).id(to),
                            Dest::Disk(radius) => h.bytes(&[5]).f64(radius),
                        };
                        h.bytes(&attempt.to_le_bytes());
                        let _ = write!(h, "{:?}", t.msg);
                    }
                }
                h.finish()
            })
            .collect()
    }

    /// Folds the engine's half of the model checker's canonical state
    /// fingerprint into `h`; `fold_node` folds each alive node's protocol
    /// state. Every struct is destructured without `..`, so a new field
    /// does not compile until it is folded here or bound to `_` with its
    /// reason. Stored instants fold as offsets from `now`, so states that
    /// differ only by a rigid time shift fold equal.
    pub fn fold_state(&self, h: &mut Fnv128, mut fold_node: impl FnMut(&mut Fnv128, &N)) {
        let Engine {
            radio,
            energy_model,
            arena:
                Arena {
                    nodes,
                    positions,
                    alive,
                    energy,
                    timers: _,        // each queued timer folds its liveness (pending_event_hashes)
                    next_timer_id: _, // history: timer ids are never folded
                    mac_events,
                    energy_settled,
                },
            grid: _,    // an index over the alive nodes' positions, which are folded
            queue: _,   // pending_event_hashes folds each event's rank, delay, target and payload
            flights: _, // reached only through the queue entries pending_event_hashes folds
            channel,
            faults:
                FaultState {
                    config,
                    burst_bad,
                    jams,
                    next_jam_id: _, // history: the handle the next jam gets
                    script,
                    attempts,
                },
            contention,
            medium:
                MediumState {
                    txs,
                    next_id: _,        // history: the id the next transmission gets
                    max_airtime_us: _, // a scan cutoff: how far a scan walks, never its answer
                },
            rng,
            trace: _,            // observational
            telemetry: _,        // observational
            now,
            events_processed: _, // observational
            action_buf: _,       // scratch, empty between callbacks
            recv_buf: _,         // scratch, empty between callbacks
            kind_folds: _,       // the digest's tables, derived from the kind labels alone
            grant_buf: _,        // scratch, empty between callbacks
        } = self;
        let now = *now;
        h.debug(radio).debug(energy_model).debug(contention);
        // Per node in id order; a dead node's residual state can't
        // influence anything.
        h.u64(nodes.len() as u64);
        for (i, node) in nodes.iter().enumerate() {
            h.bool(alive[i]);
            if alive[i] {
                h.point(positions[i]).f64(energy[i]).u64(mac_events[i]);
                // The idle drain's settlement clock is read only while
                // idle drain is on (`settle_idle`).
                if energy_model.idle != 0.0 {
                    h.age(now, energy_settled[i]);
                }
                fold_node(h, node);
            }
        }
        h.each(self.pending_event_hashes(), Fnv128::u64);
        h.debug(channel).debug(config).bool(*burst_bad);
        h.each(jams, |h, Jam { id, center, radius }| h.u64(*id).point(*center).f64(*radius));
        // Script ops key on global attempt indices: fold them relative to
        // the counter, which is history.
        h.each(script, |h, (attempt, fate)| h.u64(attempt.wrapping_sub(*attempts)).debug(fate));
        // The medium's on-air transmissions, their windows as offsets.
        // `id: _`: matched only against the window an in-flight frame
        // carries, which no hash folds.
        h.each(txs, |h, Tx { id: _, start_us, end_us, origin, range }| {
            let at = |us: &u64| SimTime::from_micros(*us);
            h.offset(now, at(start_us)).offset(now, at(end_us)).point(*origin).f64(*range)
        });
        for word in rng.state_words() {
            h.u64(word);
        }
    }

    /// Opens a healing episode at the current time; returns its id.
    /// Perturbation harnesses call this right before injecting a fault,
    /// then seed the taint set via [`Self::taint_episode_near`] /
    /// [`Self::taint_episode_node`].
    pub fn open_episode(&mut self, label: &'static str) -> u32 {
        self.telemetry.episodes.open(label, self.now.as_micros())
    }

    /// Registers `center` as a perturbation origin of `episode` and
    /// seed-taints every alive node within `radius` of it (the radio
    /// neighborhood that observes the perturbation first — e.g. the
    /// nodes who will notice a crashed head's silence).
    pub fn taint_episode_near(&mut self, episode: u32, center: Point, radius: f64) {
        self.telemetry.episodes.add_origin(episode, (center.x, center.y));
        let mut found = Vec::new();
        self.grid.disk_into(center, radius, &mut found);
        for (h, _) in found {
            self.telemetry.episodes.taint_node(episode, h as u64);
        }
    }

    /// Seed-taints a single node for `episode` (e.g. a joining node or a
    /// corrupted-state victim that is itself alive and will send).
    pub fn taint_episode_node(&mut self, episode: u32, id: NodeId) {
        self.telemetry.episodes.taint_node(episode, id.raw());
    }

    /// Closes every open episode at the current time (the harness calls
    /// this when it observes the network healed).
    pub fn close_episodes(&mut self) {
        self.telemetry.episodes.close_all(self.now.as_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::chatter_pair;
    use super::*;
    use crate::faults::FaultConfig;
    use crate::time::SimDuration;

    #[test]
    fn episodes_attribute_tainted_traffic_and_stay_inert() {
        // Node 0 chatters at node 1 forever. Opening an episode and
        // tainting node 0 must attribute its sends/deliveries (and taint
        // node 1 at depth 1) without perturbing the digest stream.
        let run = |episode: bool| {
            let mut eng = chatter_pair(FaultConfig::none());
            if episode {
                let ep = eng.open_episode("test");
                eng.taint_episode_near(ep, Point::ORIGIN, 10.0);
            }
            eng.run_for(SimDuration::from_secs(10));
            (eng.trace().digest(), eng.events_processed())
        };
        assert_eq!(run(true), run(false));

        let mut eng = chatter_pair(FaultConfig::none());
        let ep = eng.open_episode("test");
        eng.taint_episode_near(ep, Point::ORIGIN, 10.0);
        eng.run_for(SimDuration::from_secs(10));
        eng.close_episodes();
        let e = eng.telemetry().episodes.episode(ep).unwrap();
        assert!(e.messages > 0, "tainted sender's transmissions attributed");
        assert!(e.deliveries > 0);
        assert!(e.tainted >= 2, "receiver tainted at depth 1");
        assert!((e.radius_m - 50.0).abs() < 1e-9, "radius reaches node 1");
        assert_eq!(e.heal_latency_us(), Some(eng.now().as_micros()));
    }
}
