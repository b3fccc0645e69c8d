//! Structure-lifetime experiments (Appendix-1 row 2, §4.3.5.1 claim 3).
//!
//! With energy accounting on, heads dissipate faster than associates
//! (they transmit the heartbeats and relay traffic). Without maintenance
//! the structure dies with its first head; with intra-/inter-cell
//! maintenance every member of a cell takes a turn as head (head shift),
//! and then the IL walks the intra-cell spiral (cell shift), so the
//! structure's lifetime scales with the cell population `n_c` — the
//! paper's `Ω(n_c)` claim.

use std::collections::BTreeMap;

use gs3_core::harness::NetworkBuilder;
use gs3_core::snapshot::RoleView;
use gs3_geometry::Point;
use gs3_sim::radio::EnergyModel;
use gs3_sim::{NodeId, SimDuration, SimTime};

use crate::metrics::{coverage_ratio, measure};

/// Outcome of one lifetime run.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeResult {
    /// When the first initially-configured head died — the lifetime of the
    /// structure *without* maintenance (no head shift ⇒ the first head
    /// death orphans its cell permanently).
    pub first_head_death: Option<SimTime>,
    /// When coverage fell below the failure threshold — the lifetime
    /// *with* maintenance.
    pub maintained_lifetime: Option<SimTime>,
    /// Head-shift events observed (distinct heads seen per cell, summed).
    pub head_turnovers: u64,
    /// Cell-shift events observed (IL spiral advances, summed).
    pub cell_shifts: u64,
    /// Mean initial cell population `n_c`.
    pub mean_cell_population: f64,
    /// Ratio `maintained_lifetime / first_head_death` (the empirical
    /// lengthening factor; `None` if either end was not reached).
    pub lengthening_factor: Option<f64>,
}

/// Runs a network under energy drain until the structure fails or
/// `horizon` passes, sampling every `sample_every`.
///
/// `coverage_floor` (e.g. 0.5) defines structural failure: the fraction of
/// big-connected nodes in a cell dropping below it.
#[must_use]
pub fn run_lifetime(
    builder: NetworkBuilder,
    energy: EnergyModel,
    budget: f64,
    horizon: SimDuration,
    sample_every: SimDuration,
    coverage_floor: f64,
) -> LifetimeResult {
    let mut net = builder.energy(energy, budget).build().expect("valid builder");
    let _ = net.run_to_fixpoint();

    // Every sample reads the network's view: each costs the churn since
    // the last one, not an O(n) connectivity rebuild.
    let (snap, idx) = net.view();
    let initial_heads: Vec<NodeId> = snap.heads().map(|n| n.id).collect();
    let m0 = measure(snap, idx);
    let mean_cell_population = if m0.heads == 0 {
        0.0
    } else {
        (m0.associates + m0.heads) as f64 / m0.heads as f64
    };

    let mut first_head_death: Option<SimTime> = None;
    let mut maintained_lifetime: Option<SimTime> = None;
    // Track head-per-cell turnover and spiral advances by sampling.
    let mut seen_heads_per_cell: BTreeMap<(i64, i64), std::collections::BTreeSet<NodeId>> =
        BTreeMap::new();
    let mut max_icc_icp_per_cell: BTreeMap<(i64, i64), (u32, u32)> = BTreeMap::new();
    let mut cell_shifts = 0u64;
    let quantize = |p: Point, r: f64| ((p.x / r).round() as i64, (p.y / r).round() as i64);

    let deadline = net.now() + horizon;
    while net.now() < deadline {
        net.run_for(sample_every);
        // First initial-head death.
        if first_head_death.is_none() {
            let dead = initial_heads
                .iter()
                .any(|id| !net.engine().is_alive(*id).unwrap_or(false));
            if dead {
                first_head_death = Some(net.now());
            }
        }
        let (snap, idx) = net.view();
        for h in snap.heads() {
            if let RoleView::Head { oil, icc_icp, .. } = &h.role {
                let key = quantize(*oil, snap.r);
                seen_heads_per_cell.entry(key).or_default().insert(h.id);
                let cur = (icc_icp.icc, icc_icp.icp);
                let prev = max_icc_icp_per_cell.entry(key).or_insert(cur);
                if cur > *prev {
                    cell_shifts += 1;
                    *prev = cur;
                }
            }
        }
        if maintained_lifetime.is_none() && coverage_ratio(snap, idx) < coverage_floor {
            maintained_lifetime = Some(net.now());
            break;
        }
        if net.engine().alive_count() <= 1 {
            maintained_lifetime.get_or_insert(net.now());
            break;
        }
    }

    let head_turnovers = seen_heads_per_cell
        .values()
        .map(|s| s.len().saturating_sub(1) as u64)
        .sum();
    let lengthening_factor = match (first_head_death, maintained_lifetime) {
        (Some(f), Some(m)) if f > SimTime::ZERO => {
            Some(m.as_secs_f64() / f.as_secs_f64())
        }
        _ => None,
    };
    LifetimeResult {
        first_head_death,
        maintained_lifetime,
        head_turnovers,
        cell_shifts,
        mean_cell_population,
        lengthening_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintenance_outlives_first_head_death() {
        let builder = NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(20.0)
            .area_radius(120.0)
            .expected_nodes(220)
            .seed(31);
        let res = run_lifetime(
            builder,
            EnergyModel::normalized(160.0),
            400.0,
            SimDuration::from_secs(4000),
            SimDuration::from_secs(10),
            0.5,
        );
        let first = res.first_head_death.expect("heads must eventually die");
        if let Some(maintained) = res.maintained_lifetime {
            assert!(maintained >= first, "maintenance cannot shorten life");
        }
        assert!(res.head_turnovers > 0, "head shift must occur");
        assert!(res.mean_cell_population > 1.0);
    }
}
