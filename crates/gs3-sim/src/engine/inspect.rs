//! For the model checker and harnesses: pending-state hashes, episodes.

use super::*;

impl<N: Node> Engine<N> {
    /// The channel-reservation arbiter's live state (granted claims and
    /// the waiting queue) — read-only, for canonical state fingerprints.
    #[must_use]
    pub fn channel_state(&self) -> &ChannelManager {
        &self.channel
    }

    /// The raw 256-bit RNG state, folded into the model checker's state
    /// fingerprint so two states about to draw different random streams
    /// are never merged.
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
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut entries: Vec<_> = self.queue.entries().collect();
        entries.sort_by_key(|&(at, seq, _)| (at, seq));
        entries
            .iter()
            .enumerate()
            .map(|(rank, &(at, _seq, ev))| {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                eat(&mut h, &(rank as u64).to_le_bytes());
                eat(&mut h, &at.saturating_since(self.now).as_micros().to_le_bytes());
                eat(&mut h, &ev.to.raw().to_le_bytes());
                match &ev.kind {
                    EventKind::Start => eat(&mut h, &[0]),
                    EventKind::Deliver { flight } => {
                        let t = self.flights.get(*flight);
                        eat(&mut h, &[1, u8::from(t.dest.is_directed())]);
                        eat(&mut h, &t.from.raw().to_le_bytes());
                        eat(&mut h, format!("{:?}", t.msg).as_bytes());
                    }
                    EventKind::Timer { timer_id, timer } => {
                        let live = self.arena.pending_timers.get(ev.to.index()).is_some_and(|t| {
                            t.binary_search_by_key(timer_id, |(tid, _)| *tid).is_ok()
                        });
                        eat(&mut h, &[2, u8::from(live)]);
                        eat(&mut h, format!("{timer:?}").as_bytes());
                    }
                    EventKind::ChannelGrant => eat(&mut h, &[3]),
                    EventKind::Resend { flight, attempt } => {
                        let t = self.flights.get(*flight);
                        match t.dest {
                            Dest::Node(to) => {
                                eat(&mut h, &[4]);
                                eat(&mut h, &to.raw().to_le_bytes());
                            }
                            Dest::Disk(radius) => {
                                eat(&mut h, &[5]);
                                eat(&mut h, &radius.to_bits().to_le_bytes());
                            }
                        }
                        eat(&mut h, &attempt.to_le_bytes());
                        eat(&mut h, format!("{:?}", t.msg).as_bytes());
                    }
                }
                h
            })
            .collect()
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
