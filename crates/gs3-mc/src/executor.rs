//! The bounded search itself: fork, branch, dedup, check, minimize.
//!
//! ## State-space model
//!
//! A *state* is a whole forked [`Network`] (engine, nodes, queue, RNG);
//! `Clone` is the save/restore primitive. The root is the scenario's
//! converged fixpoint. From a state the checker branches on:
//!
//! * **Step** — process the next pending engine event untouched;
//! * **Fate** — process it with exactly one delivery attempt scripted to
//!   drop / duplicate / delay (one child per attempt the event makes,
//!   per non-deliver fate), via the per-attempt script threaded through
//!   `gs3-sim`;
//! * **Crash** — fail-stop one alive small node at the current instant
//!   (only when no event is pending at exactly `now`, so the crash time
//!   replays unambiguously as a `FaultPlan` offset).
//!
//! Attempts inside a `Fate` choice are addressed *relative* to the live
//! global attempt counter (`attempt_count() + offset`), so a choice
//! trace stays valid when minimization removes other choices.
//!
//! Once a path has spent its fault budget it no longer branches: the
//! remaining schedule is deterministic, and the path leaps to the
//! horizon in one expansion. Visited-state dedup keys on everything that
//! decides a path's future (`dedup_key`): the canonical
//! time-shift-invariant [`Network::fingerprint`], the healing deadline as
//! an offset from now, and the fault budget spent. The search is
//! exhaustive whenever the frontier drains before `max_states` trips.

use std::collections::{BTreeSet, VecDeque};

use gs3_core::chaos::{FaultKind, FaultPlan};
use gs3_core::harness::Network;
use gs3_sim::faults::Fate;
use gs3_sim::telemetry::RecorderMode;
use gs3_sim::{NodeId, SimDuration, SimTime};

use crate::counterexample::{Choice, Counterexample};
use crate::properties::Property;
use crate::report::{McReport, PropertyStat};
use crate::scenario::{Scenario, RING};
use crate::strategy::{Budgets, McStrategy};

/// Maximum counterexamples retained in a report (violation *counters*
/// are never capped).
const MAX_COUNTEREXAMPLES: usize = 8;

/// A configured model-checking run. See the module docs.
#[derive(Debug, Clone)]
pub struct ModelChecker {
    /// The pinned field to explore.
    pub scenario: Scenario,
    /// Frontier discipline.
    pub strategy: McStrategy,
    /// Exploration and fault budgets.
    pub budgets: Budgets,
}

/// One frontier entry: a forked network plus the path that produced it.
#[derive(Debug, Clone)]
struct PathState {
    net: Network,
    depth: u32,
    fates_used: u32,
    crashes_used: u32,
    choices: Vec<Choice>,
    /// This path's terminal instant: the base horizon, extended to
    /// `fault time + heal_window` by every injected fault so late faults
    /// still get their full healing bound.
    deadline: SimTime,
    /// `(receiver, sender‖seq)` pairs the reliable layer applied along
    /// this path — the `NoDedupReadmit` oracle.
    applied: BTreeSet<(u64, u64)>,
}

/// What the visited set stores per state: the fingerprint, the deadline's
/// offset from now (µs), and the fates and crashes spent.
type Key = (u128, u64, u32, u32);

/// The visited-set key of `path`: two paths with equal keys have the same
/// future — the same successors, checked against the same deadline.
fn dedup_key(path: &PathState) -> Key {
    let PathState {
        net,
        // Only decides whether `max_depth` caps the path, which the
        // shipped budgets never reach (`depth_capped` 0).
        depth: _,
        fates_used,
        crashes_used,
        // How the state was reached, kept for counterexamples.
        choices: _,
        deadline,
        // The `no_dedup_readmit` oracle's history; the reliability layer's
        // windows, which decide what it can re-apply, are in the
        // fingerprint. Measured: none of the 1 820 merges of a two-fault
        // `rel7` run (`--max-path-faults 2 --max-fates 2`) differ in it.
        applied: _,
    } = path;
    (net.fingerprint(), deadline.saturating_since(net.now()).as_micros(), *fates_used, *crashes_used)
}

/// Has this path reached its terminal instant (nothing pending, or the
/// next event is past its deadline)?
fn is_terminal(net: &Network, deadline: SimTime) -> bool {
    match net.engine().next_event_time() {
        None => true,
        Some(t) => t > deadline,
    }
}

/// Drain the flight-recorder ring, returning the `rel_apply` oracle
/// pairs it held. The ring is reset so the next step starts empty.
fn drain_oracle(net: &mut Network) -> Vec<(u64, u64)> {
    let pairs: Vec<(u64, u64)> = {
        let rec = &net.engine().telemetry().recorder;
        let mut held = rec.events().peekable();
        if held.peek().is_none() {
            return Vec::new();
        }
        held.filter(|e| e.kind == "rel_apply").map(|e| (e.node, e.data)).collect()
    };
    net.engine_mut().set_recording(RecorderMode::Counters);
    net.engine_mut().set_recording(RecorderMode::Full { capacity: RING });
    pairs
}

impl ModelChecker {
    /// Run the bounded search and produce the report.
    ///
    /// Deterministic: the same `(scenario, strategy, budgets)` produce a
    /// byte-identical report.
    #[must_use]
    pub fn run(&self) -> McReport {
        let root = self.scenario.build();
        let deadline = root.now() + self.budgets.horizon;
        Explorer::new(self, root, deadline).run()
    }
}

struct Explorer<'a> {
    mc: &'a ModelChecker,
    root: Network,
    base_deadline: SimTime,
    visited: BTreeSet<Key>,
    frontier: VecDeque<PathState>,
    states_explored: u64,
    states_deduped: u64,
    frontier_peak: u64,
    terminals: u64,
    depth_capped: u64,
    state_budget_exhausted: bool,
    terminal_signatures: BTreeSet<u64>,
    stats: Vec<PropertyStat>,
    counterexamples: Vec<Counterexample>,
    ce_seen: BTreeSet<(&'static str, String)>,
}

impl<'a> Explorer<'a> {
    fn new(mc: &'a ModelChecker, root: Network, deadline: SimTime) -> Self {
        let path = PathState {
            net: root.clone(),
            depth: 0,
            fates_used: 0,
            crashes_used: 0,
            choices: Vec::new(),
            deadline,
            applied: BTreeSet::new(),
        };
        let visited = BTreeSet::from([dedup_key(&path)]);
        let frontier = VecDeque::from([path]);
        Explorer {
            mc,
            root,
            base_deadline: deadline,
            visited,
            frontier,
            states_explored: 0,
            states_deduped: 0,
            frontier_peak: 1,
            terminals: 0,
            depth_capped: 0,
            state_budget_exhausted: false,
            terminal_signatures: BTreeSet::new(),
            stats: Property::all()
                .iter()
                .map(|p| PropertyStat { property: *p, checked: 0, violations: 0 })
                .collect(),
            counterexamples: Vec::new(),
            ce_seen: BTreeSet::new(),
        }
    }

    fn stat_mut(&mut self, p: Property) -> &mut PropertyStat {
        self.stats.iter_mut().find(|s| s.property == p).expect("all properties have stats")
    }

    fn run(mut self) -> McReport {
        let budgets = self.mc.budgets;
        while let Some(mut path) = match self.mc.strategy {
            McStrategy::Bfs => self.frontier.pop_front(),
            McStrategy::Dfs => self.frontier.pop_back(),
        } {
            if self.states_explored >= budgets.max_states {
                self.state_budget_exhausted = true;
                break;
            }
            self.states_explored += 1;

            if is_terminal(&path.net, path.deadline) {
                self.on_terminal(&mut path);
                continue;
            }
            let faults_used = path.fates_used + path.crashes_used;
            let can_fate =
                path.fates_used < budgets.max_fates && faults_used < budgets.max_path_faults;
            let can_crash =
                path.crashes_used < budgets.max_crashes && faults_used < budgets.max_path_faults;
            if path.depth >= budgets.max_depth || (!can_fate && !can_crash) {
                if path.depth >= budgets.max_depth {
                    self.depth_capped += 1;
                }
                self.leap_to_horizon(&mut path);
                self.on_terminal(&mut path);
                continue;
            }
            self.expand(path, can_fate, can_crash);
        }
        let exhaustive = self.frontier.is_empty() && !self.state_budget_exhausted;
        McReport {
            scenario: self.mc.scenario.name.to_string(),
            seed: self.mc.scenario.seed,
            strategy: self.mc.strategy,
            states_explored: self.states_explored,
            states_deduped: self.states_deduped,
            frontier_peak: self.frontier_peak,
            terminals: self.terminals,
            depth_capped: self.depth_capped,
            state_budget_exhausted: self.state_budget_exhausted,
            exhaustive,
            terminal_signatures: self.terminal_signatures,
            properties: self.stats,
            counterexamples: self.counterexamples,
        }
    }

    /// Expand one live state into its Step, Fate and Crash children.
    fn expand(&mut self, path: PathState, can_fate: bool, can_crash: bool) {
        // Probe: step a fork with attempt logging on to learn which
        // delivery attempts the next event makes. With no script
        // installed every attempt gets its natural fate, so the probe
        // *is* the baseline Step child.
        let mut probe = path.clone();
        probe.net.engine_mut().faults_mut().set_attempt_logging(true);
        probe.net.engine_mut().step();
        probe.net.engine_mut().faults_mut().set_attempt_logging(false);
        let attempts = probe.net.engine_mut().faults_mut().take_attempt_log();
        let count0 = path.net.engine().faults().attempt_count();
        probe.depth += 1;
        probe.choices.push(Choice::Step);
        self.push_child(probe);

        if can_fate {
            for att in &attempts {
                let offset = att.index - count0;
                for fate in [Fate::Drop, Fate::Duplicate, Fate::Delay(self.mc.budgets.delay)] {
                    let mut child = path.clone();
                    child.net.engine_mut().faults_mut().install_script([(att.index, fate)]);
                    child.net.engine_mut().step();
                    child.depth += 1;
                    child.fates_used += 1;
                    child.deadline =
                        child.deadline.max(child.net.now() + self.mc.budgets.heal_window);
                    child.choices.push(Choice::Fate { offset, fate });
                    self.push_child(child);
                }
            }
        }

        if can_crash {
            // Only crash between events: `next_event_time() > now` makes
            // the crash instant unambiguous for FaultPlan replay.
            let now = path.net.now();
            let gap = path.net.engine().next_event_time().is_some_and(|t| t > now);
            if gap {
                let victims: Vec<NodeId> = path
                    .net
                    .engine()
                    .alive_ids()
                    .filter(|id| !path.net.big_ids().contains(id))
                    .collect();
                for id in victims {
                    let mut child = path.clone();
                    child.deadline =
                        child.deadline.max(child.net.now() + self.mc.budgets.heal_window);
                    child.net.kill(id);
                    child.depth += 1;
                    child.crashes_used += 1;
                    child.choices.push(Choice::Crash { id: id.raw() });
                    self.push_child(child);
                }
            }
        }
    }

    /// Oracle-check a freshly stepped child, dedup it, and enqueue it.
    fn push_child(&mut self, mut child: PathState) {
        // Crash children consume no event and record none; draining is a
        // no-op for them.
        let pairs = drain_oracle(&mut child.net);
        if !pairs.is_empty() {
            self.stat_mut(Property::NoDedupReadmit).checked += pairs.len() as u64;
            for pair in pairs {
                if !child.applied.insert(pair) {
                    self.stat_mut(Property::NoDedupReadmit).violations += 1;
                    let detail = format!(
                        "node {} re-applied sender/seq key {:#x}",
                        pair.0, pair.1
                    );
                    self.record_counterexample(Property::NoDedupReadmit, detail, &child.choices);
                    return; // a violating path is not explored further
                }
            }
        }
        if !self.visited.insert(dedup_key(&child)) {
            self.states_deduped += 1;
            return;
        }
        self.frontier.push_back(child);
        self.frontier_peak = self.frontier_peak.max(self.frontier.len() as u64);
    }

    /// Deterministically run a budget-spent path to the horizon,
    /// oracle-checking every step on the way.
    fn leap_to_horizon(&mut self, path: &mut PathState) {
        path.choices.push(Choice::Run);
        while !is_terminal(&path.net, path.deadline) {
            path.net.engine_mut().step();
            let pairs = drain_oracle(&mut path.net);
            if pairs.is_empty() {
                continue;
            }
            self.stat_mut(Property::NoDedupReadmit).checked += pairs.len() as u64;
            for pair in pairs {
                if !path.applied.insert(pair) {
                    self.stat_mut(Property::NoDedupReadmit).violations += 1;
                    let detail =
                        format!("node {} re-applied sender/seq key {:#x}", pair.0, pair.1);
                    let choices = path.choices.clone();
                    self.record_counterexample(Property::NoDedupReadmit, detail, &choices);
                }
            }
        }
    }

    /// Check all terminal properties against a horizon-terminal state.
    fn on_terminal(&mut self, path: &mut PathState) {
        self.terminals += 1;
        self.terminal_signatures.insert(path.net.structural_signature());
        for p in Property::all().iter().copied().filter(|p| p.is_terminal()) {
            self.stat_mut(p).checked += 1;
            if let Some(detail) = p.check_terminal(&path.net) {
                self.stat_mut(p).violations += 1;
                let choices = path.choices.clone();
                self.record_counterexample(p, detail, &choices);
            }
        }
    }

    /// Minimize a violating trace, convert it to a fault plan, and file
    /// the counterexample (deduplicated and capped).
    fn record_counterexample(&mut self, property: Property, detail: String, choices: &[Choice]) {
        if self.counterexamples.len() >= MAX_COUNTEREXAMPLES {
            return;
        }
        if !self.ce_seen.insert((property.name(), detail.clone())) {
            return;
        }
        let minimized = self.minimize(property, choices.to_vec());
        let plan = self.choices_to_plan(&minimized);
        self.counterexamples.push(Counterexample {
            property,
            detail,
            scenario: self.mc.scenario.name.to_string(),
            seed: self.mc.scenario.seed,
            choices: minimized,
            plan,
        });
    }

    /// Greedy trace minimization: neutralize each fault choice (Fate →
    /// Step, Crash → removed) and keep the change whenever the violation
    /// persists; then collapse the trailing fault-free step run into
    /// `Run`. Step choices are never removed — they advance simulated
    /// time, which later choices' timing depends on.
    fn minimize(&self, property: Property, mut choices: Vec<Choice>) -> Vec<Choice> {
        loop {
            let mut changed = false;
            for i in 0..choices.len() {
                let candidate: Vec<Choice> = match choices[i] {
                    Choice::Fate { .. } => {
                        let mut c = choices.clone();
                        c[i] = Choice::Step;
                        c
                    }
                    Choice::Crash { .. } => {
                        let mut c = choices.clone();
                        c.remove(i);
                        c
                    }
                    Choice::Step | Choice::Run => continue,
                };
                if self.replay_violates(property, &candidate) {
                    choices = candidate;
                    changed = true;
                    break;
                }
            }
            if !changed {
                break;
            }
        }
        // Steps after the last fault replay identically under `Run`.
        let last_fault = choices
            .iter()
            .rposition(|c| matches!(c, Choice::Fate { .. } | Choice::Crash { .. }));
        if let Some(i) = last_fault {
            if choices[i + 1..].iter().any(|c| matches!(c, Choice::Step)) {
                let mut collapsed: Vec<Choice> = choices[..=i].to_vec();
                collapsed.push(Choice::Run);
                if self.replay_violates(property, &collapsed) {
                    choices = collapsed;
                }
            }
        }
        choices
    }

    /// Replay a choice trace from the root and re-evaluate the property.
    fn replay_violates(&self, property: Property, choices: &[Choice]) -> bool {
        let (net, dedup_violated) = self.replay(choices);
        match property {
            Property::NoDedupReadmit => dedup_violated,
            p => p.check_terminal(&net).is_some(),
        }
    }

    /// Deterministically re-execute a choice trace from the root state.
    /// Returns the final network and whether the dedup oracle fired.
    fn replay(&self, choices: &[Choice]) -> (Network, bool) {
        let mut net = self.root.clone();
        let mut deadline = self.base_deadline;
        let mut applied: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut dup = false;
        let check = |net: &mut Network, applied: &mut BTreeSet<(u64, u64)>, dup: &mut bool| {
            for pair in drain_oracle(net) {
                if !applied.insert(pair) {
                    *dup = true;
                }
            }
        };
        for choice in choices {
            match choice {
                Choice::Step => {
                    net.engine_mut().step();
                    check(&mut net, &mut applied, &mut dup);
                }
                Choice::Fate { offset, fate } => {
                    let abs = net.engine().faults().attempt_count() + offset;
                    net.engine_mut().faults_mut().install_script([(abs, *fate)]);
                    net.engine_mut().step();
                    deadline = deadline.max(net.now() + self.mc.budgets.heal_window);
                    check(&mut net, &mut applied, &mut dup);
                }
                Choice::Crash { id } => {
                    deadline = deadline.max(net.now() + self.mc.budgets.heal_window);
                    net.kill(NodeId::new(*id));
                }
                Choice::Run => {
                    while !is_terminal(&net, deadline) {
                        net.engine_mut().step();
                        check(&mut net, &mut applied, &mut dup);
                    }
                }
            }
        }
        (net, dup)
    }

    /// Convert a (minimized) trace into a standalone [`FaultPlan`]:
    /// scripted fates become one `SetScript` of *absolute* attempt
    /// indices at offset zero, crashes become `CrashNode` events at
    /// their exact simulated offsets. The conversion replays the trace
    /// to resolve relative attempt offsets and crash times.
    fn choices_to_plan(&self, choices: &[Choice]) -> FaultPlan {
        let mut net = self.root.clone();
        let start = net.now();
        let mut ops: Vec<(u64, Fate)> = Vec::new();
        let mut plan = FaultPlan::new();
        for choice in choices {
            match choice {
                Choice::Step => {
                    net.engine_mut().step();
                }
                Choice::Fate { offset, fate } => {
                    let abs = net.engine().faults().attempt_count() + offset;
                    ops.push((abs, *fate));
                    net.engine_mut().faults_mut().install_script([(abs, *fate)]);
                    net.engine_mut().step();
                }
                Choice::Crash { id } => {
                    let after = net.now().saturating_since(start);
                    plan = plan.at(after, FaultKind::CrashNode { id: NodeId::new(*id) });
                    net.kill(NodeId::new(*id));
                }
                Choice::Run => break,
            }
        }
        if !ops.is_empty() {
            plan = plan.at(SimDuration::ZERO, FaultKind::SetScript { ops });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(strategy: McStrategy, max_fates: u32, max_crashes: u32, max_states: u64) -> McReport {
        let budgets = Budgets {
            max_states,
            max_fates,
            max_crashes,
            horizon: SimDuration::from_secs(12),
            ..Budgets::default()
        };
        ModelChecker { scenario: Scenario::pair5(), strategy, budgets }.run()
    }

    #[test]
    fn fault_free_search_has_single_terminal() {
        let report = tiny(McStrategy::Bfs, 0, 0, 5_000);
        assert!(report.exhaustive, "fault-free pair5 must drain: {report:?}");
        assert_eq!(report.terminals, 1);
        assert_eq!(report.terminal_signatures.len(), 1);
        assert!(!report.has_violations());
        assert_eq!(report.counterexamples.len(), 0);
    }

    #[test]
    fn report_is_deterministic_across_runs() {
        let a = tiny(McStrategy::Bfs, 1, 0, 400);
        let b = tiny(McStrategy::Bfs, 1, 0, 400);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn dfs_and_bfs_visit_the_same_states_on_exhaustion() {
        let bfs = tiny(McStrategy::Bfs, 0, 1, 20_000);
        let dfs = tiny(McStrategy::Dfs, 0, 1, 20_000);
        assert!(bfs.exhaustive && dfs.exhaustive);
        assert_eq!(bfs.states_explored, dfs.states_explored);
        assert_eq!(bfs.terminal_signatures, dfs.terminal_signatures);
    }

    #[test]
    fn paths_differing_only_in_deadline_are_both_enqueued() {
        let budgets = Budgets::default();
        let mc = ModelChecker { scenario: Scenario::pair5(), strategy: McStrategy::Bfs, budgets };
        let root = mc.scenario.build();
        let deadline = root.now() + mc.budgets.horizon;
        let mut explorer = Explorer::new(&mc, root, deadline);
        let mut early = explorer.frontier.pop_front().expect("the root");
        early.net.engine_mut().step();
        let mut late = early.clone();
        late.deadline += mc.budgets.heal_window;
        explorer.push_child(early);
        explorer.push_child(late);
        let enqueued = (explorer.frontier.len(), explorer.states_deduped);
        assert_eq!(enqueued, (2, 0), "a later healing deadline is a different future");
    }

    #[test]
    fn crash_branches_survive_healing_check() {
        // Exhaustive single-crash exploration on the smallest field: the
        // protocol must heal every single small-node crash.
        let report = tiny(McStrategy::Bfs, 0, 1, 20_000);
        assert!(report.exhaustive, "single-crash pair5 must drain");
        assert!(report.terminals > 1, "crash branches create terminals");
        let healing = &report.properties[0];
        assert_eq!(healing.property, Property::HealingConverges);
        assert!(healing.checked >= report.terminals);
        assert_eq!(
            healing.violations, 0,
            "single crash must always heal on pair5: {:?}",
            report.counterexamples.iter().map(|c| &c.detail).collect::<Vec<_>>()
        );
    }
}
