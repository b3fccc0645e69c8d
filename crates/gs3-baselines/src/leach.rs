//! A LEACH-style randomized rotating clustering baseline
//! (Heinzelman, Chandrakasan & Balakrishnan — reference \[10\] of the GS³
//! paper).
//!
//! Each round, every eligible node independently elects itself cluster
//! head with the LEACH threshold probability
//! `T(n) = p / (1 − p · (r mod ⌈1/p⌉))`; nodes that served recently are
//! ineligible until the rotation epoch completes. Non-heads join the
//! nearest head. As the GS³ paper observes, this "guarantees neither the
//! placement nor the number of clusters", and every perturbation is
//! handled by *globally* re-running the election — the comparison the
//! `artifact dataplane` suite's SEC6 section quantifies.

use gs3_geometry::Point;
use rand::Rng;

use crate::cluster::{assign_nearest, Clustering};

/// LEACH parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeachConfig {
    /// Desired fraction of nodes serving as cluster heads per round
    /// (LEACH's `P`).
    pub p: f64,
}

impl Default for LeachConfig {
    fn default() -> Self {
        LeachConfig { p: 0.05 }
    }
}

/// The rotating-election state across rounds.
#[derive(Debug, Clone)]
pub struct Leach {
    cfg: LeachConfig,
    round: u64,
    /// Round at which each node last served as head (`u64::MAX` = never).
    last_served: Vec<u64>,
}

impl Leach {
    /// Creates the election state for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    #[must_use]
    pub fn new(n: usize, cfg: LeachConfig) -> Self {
        assert!(cfg.p > 0.0 && cfg.p < 1.0, "LEACH p must be in (0, 1)");
        Leach { cfg, round: 0, last_served: vec![u64::MAX; n] }
    }

    /// The rotation epoch length `⌈1/p⌉`.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        (1.0 / self.cfg.p).ceil() as u64
    }

    /// The current round number.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Runs one election round over `points` and returns the resulting
    /// clustering. `alive[i] = false` excludes node `i` entirely.
    pub fn run_round<R: Rng + ?Sized>(
        &mut self,
        points: &[Point],
        alive: &[bool],
        rng: &mut R,
    ) -> Clustering {
        assert_eq!(points.len(), self.last_served.len(), "point count changed");
        assert_eq!(points.len(), alive.len(), "alive mask length mismatch");
        let epoch = self.epoch();
        let r_mod = self.round % epoch;
        let threshold = self.cfg.p / (1.0 - self.cfg.p * r_mod as f64);

        let mut heads = Vec::new();
        for (i, &is_alive) in alive.iter().enumerate() {
            if !is_alive {
                continue;
            }
            let eligible = self.last_served[i] == u64::MAX
                || self.round.saturating_sub(self.last_served[i]) >= epoch;
            if eligible && rng.gen::<f64>() < threshold {
                heads.push(i);
                self.last_served[i] = self.round;
            }
        }
        self.round += 1;

        if heads.is_empty() {
            // LEACH can elect nobody in a round; everyone stays
            // unclustered until the next round (a known availability gap).
            return Clustering { heads, assignment: vec![None; points.len()] };
        }
        let mut clustering = assign_nearest(points, &heads);
        for (i, a) in clustering.assignment.iter_mut().enumerate() {
            if !alive[i] {
                *a = None;
            }
        }
        clustering
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pts(n: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(5);
        (0..n).map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0))).collect()
    }

    #[test]
    fn round_elects_roughly_p_fraction() {
        let points = pts(2000);
        let alive = vec![true; points.len()];
        let mut leach = Leach::new(points.len(), LeachConfig { p: 0.05 });
        let mut rng = StdRng::seed_from_u64(6);
        let c = leach.run_round(&points, &alive, &mut rng);
        let frac = c.cluster_count() as f64 / points.len() as f64;
        assert!((frac - 0.05).abs() < 0.02, "head fraction {frac}");
        c.validate(points.len());
    }

    #[test]
    fn rotation_excludes_recent_heads() {
        let points = pts(500);
        let alive = vec![true; points.len()];
        let mut leach = Leach::new(points.len(), LeachConfig { p: 0.2 });
        let mut rng = StdRng::seed_from_u64(7);
        let first = leach.run_round(&points, &alive, &mut rng);
        // Within the same epoch, yesterday's heads must not serve again.
        for _ in 0..(leach.epoch() - 1) {
            let next = leach.run_round(&points, &alive, &mut rng);
            for h in &next.heads {
                assert!(!first.heads.contains(h), "head {h} served twice in one epoch");
            }
        }
    }

    #[test]
    fn all_nodes_serve_within_epochs() {
        // With the threshold ramp, every node serves once per epoch in
        // expectation; after several epochs nearly all have served.
        let points = pts(200);
        let alive = vec![true; points.len()];
        let mut leach = Leach::new(points.len(), LeachConfig { p: 0.2 });
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..(leach.epoch() * 6) {
            let _ = leach.run_round(&points, &alive, &mut rng);
        }
        let served = leach.last_served.iter().filter(|s| **s != u64::MAX).count();
        assert!(served as f64 > 0.9 * points.len() as f64, "served {served}");
    }

    #[test]
    fn dead_nodes_excluded() {
        let points = pts(300);
        let mut alive = vec![true; points.len()];
        for a in alive.iter_mut().take(150) {
            *a = false;
        }
        let mut leach = Leach::new(points.len(), LeachConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        let c = leach.run_round(&points, &alive, &mut rng);
        for h in &c.heads {
            assert!(alive[*h]);
        }
        for (i, a) in c.assignment.iter().enumerate() {
            if !alive[i] {
                assert!(a.is_none());
            }
        }
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn rejects_bad_p() {
        let _ = Leach::new(10, LeachConfig { p: 1.5 });
    }
}
