//! The machine-readable result of one model-checking run.

use std::collections::BTreeSet;

use gs3_core::json::{self, JsonWriter};

use crate::counterexample::Counterexample;
use crate::properties::Property;
use crate::strategy::McStrategy;

/// Per-property verification tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyStat {
    /// The property.
    pub property: Property,
    /// How many times the predicate was evaluated (terminal states for
    /// terminal properties, search edges for path properties).
    pub checked: u64,
    /// How many evaluations violated it (before dedup/minimization).
    pub violations: u64,
}

/// Everything `gs3 mc` reports, in a shape CI can gate on.
///
/// `to_json` is deterministic: the same `(scenario, seed, strategy,
/// budgets)` produce a byte-identical document, so CI can diff two runs
/// directly.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Frontier discipline used.
    pub strategy: McStrategy,
    /// States expanded (cloned, stepped, and checked).
    pub states_explored: u64,
    /// Candidate child states discarded because their fingerprint was
    /// already visited.
    pub states_deduped: u64,
    /// Peak frontier length.
    pub frontier_peak: u64,
    /// Paths that reached the horizon (terminal states checked).
    pub terminals: u64,
    /// Paths cut short by `max_depth` (forced to run to the horizon).
    pub depth_capped: u64,
    /// True when `max_states` tripped before the frontier drained: the
    /// run is sound but not exhaustive.
    pub state_budget_exhausted: bool,
    /// True when every reachable state within the fault budget was
    /// visited (the frontier drained).
    pub exhaustive: bool,
    /// Distinct structural signatures across terminal states. With zero
    /// fault budget on a deterministic system this has exactly one
    /// element — the cross-validation anchor against the plain simulator.
    pub terminal_signatures: BTreeSet<u64>,
    /// Per-property tallies, in [`Property::all`] order.
    pub properties: Vec<PropertyStat>,
    /// Minimized, deduplicated counterexamples (capped; the per-property
    /// `violations` counters are not).
    pub counterexamples: Vec<Counterexample>,
}

impl McReport {
    /// Serialize to the deterministic report document.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }

    /// Writes the [`McReport::to_json`] object in place.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("version").u64(1);
            w.key("scenario").str(&self.scenario);
            w.key("seed").u64(self.seed);
            w.key("strategy").str(self.strategy.name());
            w.key("states_explored").u64(self.states_explored);
            w.key("states_deduped").u64(self.states_deduped);
            w.key("frontier_peak").u64(self.frontier_peak);
            w.key("terminals").u64(self.terminals);
            w.key("depth_capped").u64(self.depth_capped);
            w.key("state_budget_exhausted").bool(self.state_budget_exhausted);
            w.key("exhaustive").bool(self.exhaustive);
            w.key("terminal_signatures").array(|w| {
                for &sig in &self.terminal_signatures {
                    w.u64(sig);
                }
            });
            w.key("properties").object(|w| {
                for stat in &self.properties {
                    w.key(stat.property.name()).object(|w| {
                        w.key("checked").u64(stat.checked);
                        w.key("violations").u64(stat.violations);
                    });
                }
            });
            w.key("counterexamples").array(|w| {
                for ce in &self.counterexamples {
                    ce.write_json(w);
                }
            });
        });
    }

    /// True when at least one property was violated.
    #[must_use]
    pub fn has_violations(&self) -> bool {
        self.properties.iter().any(|p| p.violations > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_serializes_deterministically() {
        let report = McReport {
            scenario: "pair5".into(),
            seed: 11,
            strategy: McStrategy::Bfs,
            states_explored: 0,
            states_deduped: 0,
            frontier_peak: 1,
            terminals: 0,
            depth_capped: 0,
            state_budget_exhausted: false,
            exhaustive: true,
            terminal_signatures: BTreeSet::new(),
            properties: Property::all()
                .iter()
                .map(|p| PropertyStat { property: *p, checked: 0, violations: 0 })
                .collect(),
            counterexamples: Vec::new(),
        };
        // Golden captured before the move onto `JsonWriter`.
        assert_eq!(
            report.to_json(),
            r#"{"version":1,"scenario":"pair5","seed":11,"strategy":"bfs","states_explored":0,"states_deduped":0,"frontier_peak":1,"terminals":0,"depth_capped":0,"state_budget_exhausted":false,"exhaustive":true,"terminal_signatures":[],"properties":{"healing_converges":{"checked":0,"violations":0},"single_head_per_cell":{"checked":0,"violations":0},"quarantine_drains":{"checked":0,"violations":0},"no_dedup_readmit":{"checked":0,"violations":0}},"counterexamples":[]}"#
        );
        assert!(!report.has_violations());
    }
}
