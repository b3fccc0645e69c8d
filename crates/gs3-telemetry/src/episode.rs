//! Causal healing-episode tracking.
//!
//! Every injected perturbation (a `FaultPlan` entry, a node kill, a
//! big-node move) opens an **episode**. The perturbation site seeds a
//! *taint set* — the nodes whose next transmissions are causally part of
//! the episode (for a crash that is the victims' radio neighborhood,
//! since a dead node sends nothing). A message sent by a tainted node
//! carries the episode tag through the engine; a **directed** (unicast)
//! delivery of it taints the receiver one causal hop deeper, up to
//! [`MAX_CAUSAL_DEPTH`]. Broadcast receptions never taint — they are
//! ambient (every radio neighbor hears a beacon), and letting them
//! propagate would flood the closure across the deployment in a few
//! hops. Unicast traffic is the *directed* repair dialogue — org
//! replies, head claims, association acks — so the closure follows the
//! actual healing wave. Together with the depth bound this keeps
//! attribution *local by construction*, matching the form of the
//! paper's locality claims (Theorems 8–13) — if healing really is
//! local, the measured radius is flat in network size, which the
//! LOCALITY section of the `paper` bench demonstrates.
//!
//! Per episode the reducer accumulates: message cost (transmissions by
//! tainted nodes), deliveries, spatial radius in meters (farthest
//! tainted activity from the nearest perturbation origin), causal-hop
//! radius, and — once the chaos harness observes the invariants clean
//! and closes episodes — healing latency.

use std::collections::BTreeMap;

use crate::json::{self, JsonWriter};

/// Maximum causal propagation depth (hops of message causality from the
/// perturbation site). A constant, network-size-independent bound.
pub const MAX_CAUSAL_DEPTH: u8 = 3;

/// The "no episode" tag.
pub const NO_TAG: u64 = 0;

/// Pack an episode id and causal depth into the `u64` tag that rides a
/// scheduled message. Tag 0 means "no episode" (episode ids start at 1).
#[must_use]
pub const fn pack_tag(episode: u32, depth: u8) -> u64 {
    ((episode as u64) << 8) | depth as u64
}

/// Episode id carried by a tag (0 when the tag is [`NO_TAG`]).
#[must_use]
pub const fn tag_episode(tag: u64) -> u32 {
    (tag >> 8) as u32
}

/// Causal depth carried by a tag.
#[must_use]
pub const fn tag_depth(tag: u64) -> u8 {
    (tag & 0xff) as u8
}

/// One healing episode: the measurable footprint of one perturbation.
#[derive(Clone, Debug, PartialEq)]
pub struct Episode {
    /// Episode id (≥ 1).
    pub id: u32,
    /// Perturbation label, e.g. `"crash_random"`.
    pub label: &'static str,
    /// When the perturbation was injected (µs).
    pub opened_us: u64,
    /// When the harness observed the network healed (µs), if it did.
    pub closed_us: Option<u64>,
    /// Perturbation site(s); radius is measured to the nearest origin.
    pub origins: Vec<(f64, f64)>,
    /// Transmissions causally attributed to this episode.
    pub messages: u64,
    /// Deliveries of attributed messages.
    pub deliveries: u64,
    /// Farthest attributed activity from the nearest origin, meters.
    pub radius_m: f64,
    /// Deepest causal hop reached (≤ [`MAX_CAUSAL_DEPTH`]).
    pub max_depth: u8,
    /// Number of distinct nodes tainted by this episode.
    pub tainted: u64,
}

impl Episode {
    /// Healing latency (close − open) in µs, when the episode closed.
    #[must_use]
    pub fn heal_latency_us(&self) -> Option<u64> {
        self.closed_us.map(|c| c.saturating_sub(self.opened_us))
    }

    /// Serialize as one JSON object, the form every chaos report's
    /// `episodes` array takes.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }

    /// Writes the [`Episode::to_json`] object in place.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("id").u64(self.id.into());
            w.key("label").str(self.label);
            w.key("opened_us").u64(self.opened_us);
            w.key("heal_latency_us").opt_u64(self.heal_latency_us());
            w.key("messages").u64(self.messages);
            w.key("deliveries").u64(self.deliveries);
            w.key("radius_m").fixed(self.radius_m, 1);
            w.key("max_depth").u64(self.max_depth.into());
            w.key("tainted").u64(self.tainted);
        });
    }

    fn dist_to_nearest_origin(&self, pos: (f64, f64)) -> f64 {
        self.origins
            .iter()
            .map(|o| {
                let dx = o.0 - pos.0;
                let dy = o.1 - pos.1;
                (dx * dx + dy * dy).sqrt()
            })
            .fold(f64::INFINITY, f64::min)
    }

    fn touch(&mut self, pos: (f64, f64), depth: u8) {
        if !self.origins.is_empty() {
            let d = self.dist_to_nearest_origin(pos);
            if d.is_finite() && d > self.radius_m {
                self.radius_m = d;
            }
        }
        if depth > self.max_depth {
            self.max_depth = depth;
        }
    }
}

/// Tracks open episodes and the sticky per-node taint map.
#[derive(Debug, Clone, Default)]
pub struct EpisodeTracker {
    episodes: Vec<Episode>,
    /// node → (episode, causal depth). A node keeps the *first* taint it
    /// acquires for an episode; deeper re-taints don't overwrite.
    taint: BTreeMap<u64, (u32, u8)>,
    open: u32,
}

impl EpisodeTracker {
    /// A tracker with no episodes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new episode; returns its id (≥ 1).
    pub fn open(&mut self, label: &'static str, t_us: u64) -> u32 {
        let id = self.episodes.len() as u32 + 1;
        self.episodes.push(Episode {
            id,
            label,
            opened_us: t_us,
            closed_us: None,
            origins: Vec::new(),
            messages: 0,
            deliveries: 0,
            radius_m: 0.0,
            max_depth: 0,
            tainted: 0,
        });
        self.open += 1;
        id
    }

    /// Record a perturbation site for `episode` (radius is measured to
    /// the nearest origin; multi-site faults add several).
    pub fn add_origin(&mut self, episode: u32, origin: (f64, f64)) {
        if let Some(ep) = self.get_mut(episode) {
            ep.origins.push(origin);
        }
    }

    /// Seed-taint `node` at causal depth 0 (a perturbation-site node).
    pub fn taint_node(&mut self, episode: u32, node: u64) {
        if self.get_mut(episode).is_none() {
            return;
        }
        let prev = self.taint.insert(node, (episode, 0));
        let fresh = !matches!(prev, Some((p, _)) if p == episode);
        if fresh {
            if let Some(ep) = self.get_mut(episode) {
                ep.tainted += 1;
            }
        }
    }

    /// Are any episodes currently open? The engine gates the whole
    /// attribution path on this, so closed-world runs pay nothing.
    #[must_use]
    pub fn any_open(&self) -> bool {
        self.open > 0
    }

    /// The tag a transmission from `node` should carry: the node's taint
    /// if its episode is still open and its depth admits propagation.
    #[must_use]
    pub fn tag_for_sender(&self, node: u64) -> u64 {
        match self.taint.get(&node) {
            Some(&(ep, depth)) => {
                let open = self
                    .episodes
                    .get(ep as usize - 1)
                    .is_some_and(|e| e.closed_us.is_none());
                if open && depth < MAX_CAUSAL_DEPTH {
                    pack_tag(ep, depth)
                } else {
                    NO_TAG
                }
            }
            None => NO_TAG,
        }
    }

    /// The open episode `node` is currently tainted by (0 when none) —
    /// display attribution, independent of the propagation depth bound.
    #[must_use]
    pub fn episode_of(&self, node: u64) -> u32 {
        match self.taint.get(&node) {
            Some(&(ep, _))
                if self
                    .episodes
                    .get(ep as usize - 1)
                    .is_some_and(|e| e.closed_us.is_none()) =>
            {
                ep
            }
            _ => 0,
        }
    }

    /// Account one transmission by a tainted sender at `pos` carrying
    /// `tag`.
    pub fn on_send(&mut self, tag: u64, pos: (f64, f64)) {
        let (ep_id, depth) = (tag_episode(tag), tag_depth(tag));
        if let Some(ep) = self.get_mut(ep_id) {
            ep.messages += 1;
            ep.touch(pos, depth);
        }
    }

    /// Account the delivery of a tagged message to `node` at `pos`.
    ///
    /// Only a **directed** (unicast) delivery pulls the receiver into the
    /// causal closure — it taints one hop deeper (bounded) and extends
    /// the spatial radius. A broadcast reception is ambient: every radio
    /// neighbor of a tainted node hears its periodic beacons, so letting
    /// broadcasts taint would flood the closure across the whole
    /// deployment within [`MAX_CAUSAL_DEPTH`] hops and the measured
    /// radius would just track the deployment boundary. Broadcast
    /// deliveries are still *counted* (they are real attributed
    /// traffic), they just don't propagate.
    pub fn on_delivery(&mut self, tag: u64, node: u64, pos: (f64, f64), directed: bool) {
        let (ep_id, depth) = (tag_episode(tag), tag_depth(tag));
        let Some(ep) = self.get_mut(ep_id) else { return };
        if ep.closed_us.is_some() {
            return;
        }
        ep.deliveries += 1;
        if !directed {
            return;
        }
        let next_depth = depth.saturating_add(1);
        ep.touch(pos, next_depth);
        if next_depth <= MAX_CAUSAL_DEPTH {
            let fresh = match self.taint.get(&node) {
                Some(&(existing, _)) => existing != ep_id,
                None => true,
            };
            if fresh {
                self.taint.insert(node, (ep_id, next_depth));
                if let Some(ep) = self.get_mut(ep_id) {
                    ep.tainted += 1;
                }
            }
        }
    }

    /// Close every open episode at `t_us` (the harness calls this when
    /// the invariants come back clean — healing observed).
    pub fn close_all(&mut self, t_us: u64) {
        if self.open == 0 {
            return;
        }
        for ep in &mut self.episodes {
            if ep.closed_us.is_none() {
                ep.closed_us = Some(t_us);
            }
        }
        self.open = 0;
        self.taint.clear();
    }

    /// All episodes, open and closed, in id order.
    #[must_use]
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Look up one episode by id.
    #[must_use]
    pub fn episode(&self, id: u32) -> Option<&Episode> {
        if id == 0 {
            return None;
        }
        self.episodes.get(id as usize - 1)
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut Episode> {
        if id == 0 {
            return None;
        }
        self.episodes.get_mut(id as usize - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips() {
        let tag = pack_tag(7, 2);
        assert_eq!(tag_episode(tag), 7);
        assert_eq!(tag_depth(tag), 2);
        assert_eq!(tag_episode(NO_TAG), 0);
    }

    #[test]
    fn taint_propagates_and_bounds_depth() {
        let mut t = EpisodeTracker::new();
        let ep = t.open("crash", 100);
        t.add_origin(ep, (0.0, 0.0));
        t.taint_node(ep, 1);
        assert!(t.any_open());

        // Node 1 unicasts (depth 0) → node 2 tainted at depth 1.
        let tag = t.tag_for_sender(1);
        assert_eq!(tag_depth(tag), 0);
        t.on_send(tag, (0.0, 0.0));
        t.on_delivery(tag, 2, (3.0, 4.0), true);
        assert_eq!(t.episode(ep).unwrap().radius_m, 5.0);
        assert_eq!(t.episode(ep).unwrap().tainted, 2);

        // Walk depth out to the bound.
        let t2 = t.tag_for_sender(2);
        t.on_delivery(t2, 3, (0.0, 0.0), true);
        let t3 = t.tag_for_sender(3);
        t.on_delivery(t3, 4, (0.0, 0.0), true);
        // Node 4 sits at depth 3 == MAX: its sends no longer propagate.
        assert_eq!(t.tag_for_sender(4), NO_TAG);
    }

    #[test]
    fn broadcasts_count_but_never_taint() {
        let mut t = EpisodeTracker::new();
        let ep = t.open("crash", 0);
        t.add_origin(ep, (0.0, 0.0));
        t.taint_node(ep, 1);

        // A tainted node's beacon reaches a distant hearer: the delivery
        // is counted, but the hearer stays outside the causal closure
        // and the radius is untouched.
        let tag = t.tag_for_sender(1);
        t.on_delivery(tag, 2, (60.0, 80.0), false);
        let e = t.episode(ep).unwrap();
        assert_eq!(e.deliveries, 1);
        assert_eq!(e.tainted, 1);
        assert_eq!(e.radius_m, 0.0);
        assert_eq!(t.tag_for_sender(2), NO_TAG);
    }

    #[test]
    fn closing_stops_attribution() {
        let mut t = EpisodeTracker::new();
        let ep = t.open("join", 0);
        t.taint_node(ep, 9);
        t.close_all(500);
        assert!(!t.any_open());
        assert_eq!(t.tag_for_sender(9), NO_TAG);
        assert_eq!(t.episode(ep).unwrap().heal_latency_us(), Some(500));
        // Late deliveries of in-flight tagged messages are ignored.
        t.on_delivery(pack_tag(ep, 0), 10, (1.0, 1.0), true);
        assert_eq!(t.episode(ep).unwrap().deliveries, 0);
    }

    #[test]
    fn episode_json_shape() {
        let mut t = EpisodeTracker::new();
        let ep = t.open("move_big", 10);
        t.add_origin(ep, (1.0, 2.0));
        t.close_all(40);
        let j = t.episode(ep).unwrap().to_json();
        assert!(j.contains("\"label\":\"move_big\""));
        assert!(j.contains("\"heal_latency_us\":30"));
        assert!(j.contains("\"radius_m\":0.0"));
    }
}
