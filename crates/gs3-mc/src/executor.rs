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
//! trace stays valid when minimization removes other choices. The
//! attempts one event makes are numbered consecutively, so the Step
//! child's counter advance is the set of offsets to branch on.
//!
//! Once a path has spent its fault budget it no longer branches: the
//! remaining schedule is deterministic, and the path leaps to the
//! horizon in one `Run`. Every one of these changes — expansion, the
//! leap, and a counterexample's replay from the root — goes through the
//! one choice interpreter, `PathState::apply`.
//!
//! Visited-state dedup keys on everything that
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

/// What one [`PathState::apply`] fed the `NoDedupReadmit` oracle.
#[derive(Debug, Default)]
struct OracleFeed {
    /// `rel_apply` pairs seen.
    checked: u64,
    /// The pairs among them this path had already applied, in order.
    readmitted: Vec<(u64, u64)>,
}

impl PathState {
    /// The unbranched path at `net`, terminal at `deadline`.
    fn root(net: Network, deadline: SimTime) -> Self {
        PathState {
            net,
            depth: 0,
            fates_used: 0,
            crashes_used: 0,
            choices: Vec::new(),
            deadline,
            applied: BTreeSet::new(),
        }
    }

    /// The one way a choice changes a path: act on the network, extend
    /// the healing deadline past a fault, spend its budget, and record it.
    /// `Run` steps to the terminal instant and is not counted in `depth`.
    fn apply(&mut self, choice: Choice, budgets: &Budgets) -> OracleFeed {
        let mut feed = OracleFeed::default();
        match choice {
            Choice::Step => self.step(&mut feed),
            Choice::Fate { offset, fate } => {
                let index = attempt_count(&self.net) + offset;
                self.net.engine_mut().faults_mut().install_script([(index, fate)]);
                self.step(&mut feed);
                self.fates_used += 1;
            }
            Choice::Crash { id } => {
                self.net.kill(NodeId::new(id));
                self.crashes_used += 1;
            }
            Choice::Run => {
                while !self.is_terminal() {
                    self.step(&mut feed);
                }
            }
        }
        if matches!(choice, Choice::Fate { .. } | Choice::Crash { .. }) {
            self.deadline = self.deadline.max(self.net.now() + budgets.heal_window);
        }
        if choice != Choice::Run {
            self.depth += 1;
        }
        self.choices.push(choice);
        feed
    }

    /// Has this path reached its terminal instant (nothing pending, or the
    /// next event is past its deadline)?
    fn is_terminal(&self) -> bool {
        self.net.engine().next_event_time().is_none_or(|t| t > self.deadline)
    }

    /// Process the next engine event and feed its `rel_apply` pairs to
    /// this path's `applied` set.
    fn step(&mut self, feed: &mut OracleFeed) {
        self.net.engine_mut().step();
        for pair in drain_oracle(&mut self.net) {
            feed.checked += 1;
            if !self.applied.insert(pair) {
                feed.readmitted.push(pair);
            }
        }
    }
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
        // fingerprint. Measured: none of the 1 668 402 merges of a
        // two-fault `rel7` run (`--max-path-faults 2 --max-fates 2
        // --max-states 3000000`) differ in it.
        applied: _,
    } = path;
    (net.fingerprint(), deadline.saturating_since(net.now()).as_micros(), *fates_used, *crashes_used)
}

/// Delivery attempts `net` has made so far: the index its next one gets.
fn attempt_count(net: &Network) -> u64 {
    net.engine().faults().attempt_count()
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
        Explorer::new(self, PathState::root(root, deadline)).run()
    }
}

struct Explorer<'a> {
    mc: &'a ModelChecker,
    /// Where every path, and every replay, starts.
    root: PathState,
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
    fn new(mc: &'a ModelChecker, root: PathState) -> Self {
        let visited = BTreeSet::from([dedup_key(&root)]);
        let frontier = VecDeque::from([root.clone()]);
        Explorer {
            mc,
            root,
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

            if path.is_terminal() {
                self.on_terminal(&path);
                continue;
            }
            let faults_used = path.fates_used + path.crashes_used;
            let can_fate =
                path.fates_used < budgets.max_fates && faults_used < budgets.max_path_faults;
            let can_crash =
                path.crashes_used < budgets.max_crashes && faults_used < budgets.max_path_faults;
            let capped = path.depth >= budgets.max_depth;
            if capped || !(can_fate || can_crash) {
                self.depth_capped += u64::from(capped);
                // The remaining schedule is deterministic: one leap.
                let feed = path.apply(Choice::Run, &budgets);
                self.file_readmits(feed, &path.choices, usize::MAX);
                self.on_terminal(&path);
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
        let budgets = self.mc.budgets;
        // Probe: the Step child. With no script installed every attempt
        // gets its natural fate, and the attempts one event makes are
        // numbered consecutively, so the counter's advance names every
        // attempt a Fate child can script.
        let mut probe = path.clone();
        let feed = probe.apply(Choice::Step, &budgets);
        let attempts = attempt_count(&probe.net) - attempt_count(&path.net);
        self.push_child(probe, feed);

        if can_fate {
            for offset in 0..attempts {
                for fate in [Fate::Drop, Fate::Duplicate, Fate::Delay(budgets.delay)] {
                    let mut child = path.clone();
                    let feed = child.apply(Choice::Fate { offset, fate }, &budgets);
                    self.push_child(child, feed);
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
                    let feed = child.apply(Choice::Crash { id: id.raw() }, &budgets);
                    self.push_child(child, feed);
                }
            }
        }
    }

    /// File a freshly applied child's oracle feed, then dedup and enqueue
    /// it; a child that re-applied a pair is not explored further.
    fn push_child(&mut self, child: PathState, feed: OracleFeed) {
        if self.file_readmits(feed, &child.choices, 1) {
            return;
        }
        if !self.visited.insert(dedup_key(&child)) {
            self.states_deduped += 1;
            return;
        }
        self.frontier.push_back(child);
        self.frontier_peak = self.frontier_peak.max(self.frontier.len() as u64);
    }

    /// Count `feed` against `NoDedupReadmit` and file its first `limit`
    /// readmits as violations of the path `choices`. Returns whether there
    /// was any.
    fn file_readmits(&mut self, feed: OracleFeed, choices: &[Choice], limit: usize) -> bool {
        self.stat_mut(Property::NoDedupReadmit).checked += feed.checked;
        for &(node, key) in feed.readmitted.iter().take(limit) {
            self.stat_mut(Property::NoDedupReadmit).violations += 1;
            let detail = format!("node {node} re-applied sender/seq key {key:#x}");
            self.record_counterexample(Property::NoDedupReadmit, detail, choices);
        }
        !feed.readmitted.is_empty()
    }

    /// Check all terminal properties against a horizon-terminal state.
    fn on_terminal(&mut self, path: &PathState) {
        self.terminals += 1;
        self.terminal_signatures.insert(path.net.structural_signature());
        for p in Property::all().iter().copied().filter(|p| p.is_terminal()) {
            self.stat_mut(p).checked += 1;
            if let Some(detail) = p.check_terminal(&path.net) {
                self.stat_mut(p).violations += 1;
                self.record_counterexample(p, detail, &path.choices);
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
        let (_, _, plan) = self.replay(&minimized);
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
                let candidate = match choices[i] {
                    Choice::Fate { .. } => [&choices[..i], &[Choice::Step], &choices[i + 1..]].concat(),
                    Choice::Crash { .. } => [&choices[..i], &choices[i + 1..]].concat(),
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
                let collapsed = [&choices[..=i], &[Choice::Run]].concat();
                if self.replay_violates(property, &collapsed) {
                    choices = collapsed;
                }
            }
        }
        choices
    }

    /// Replay a choice trace from the root and re-evaluate the property.
    fn replay_violates(&self, property: Property, choices: &[Choice]) -> bool {
        let (net, readmitted, _) = self.replay(choices);
        match property {
            Property::NoDedupReadmit => readmitted,
            p => p.check_terminal(&net).is_some(),
        }
    }

    /// Deterministically re-execute a choice trace from the root state.
    /// Returns the final network, whether the dedup oracle fired, and the
    /// trace as a standalone [`FaultPlan`] in time order: scripted fates
    /// become one `SetScript` of *absolute* attempt indices at offset
    /// zero, crashes `CrashNode` events at their offsets from the root's
    /// instant.
    fn replay(&self, choices: &[Choice]) -> (Network, bool, FaultPlan) {
        let mut path = self.root.clone();
        let start = path.net.now();
        let mut readmitted = false;
        let mut ops: Vec<(u64, Fate)> = Vec::new();
        let mut crashes = Vec::new();
        for &choice in choices {
            match choice {
                Choice::Fate { offset, fate } => ops.push((attempt_count(&path.net) + offset, fate)),
                Choice::Crash { id } => crashes.push((path.net.now().saturating_since(start), id)),
                Choice::Step | Choice::Run => {}
            }
            readmitted |= !path.apply(choice, &self.mc.budgets).readmitted.is_empty();
        }
        let mut plan = FaultPlan::new();
        if !ops.is_empty() {
            plan = plan.at(SimDuration::ZERO, FaultKind::SetScript { ops });
        }
        for (after, id) in crashes {
            plan = plan.at(after, FaultKind::CrashNode { id: NodeId::new(id) });
        }
        (path.net, readmitted, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs3_sim::trace::Counter;
    use std::collections::BTreeMap;

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

    fn explorer(mc: &ModelChecker) -> Explorer<'_> {
        let root = mc.scenario.build();
        let deadline = root.now() + mc.budgets.horizon;
        Explorer::new(mc, PathState::root(root, deadline))
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
        let mut explorer = explorer(&mc);
        let mut early = explorer.frontier.pop_front().expect("the root");
        early.net.engine_mut().step();
        let mut late = early.clone();
        late.deadline += mc.budgets.heal_window;
        explorer.push_child(early, OracleFeed::default());
        explorer.push_child(late, OracleFeed::default());
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

    #[test]
    fn fate_children_cover_every_attempt_of_the_fault_free_path() {
        // One fault per path and no merges: the fault-free path, plus one
        // terminal per (attempt, non-deliver fate) along it.
        let report = tiny(McStrategy::Bfs, 1, 0, 20_000);
        assert!(report.exhaustive);
        let mut plain = Scenario::pair5().build();
        let start = attempt_count(&plain);
        plain.run_for(SimDuration::from_secs(12));
        let attempts = attempt_count(&plain) - start;
        assert!(attempts > 0, "the fault-free path delivers something");
        assert_eq!(report.terminals, 1 + 3 * attempts);
    }

    #[test]
    fn a_fate_trace_replays_as_its_fault_plan() {
        for (scenario, fate) in [(Scenario::rel7(), Fate::Duplicate), (Scenario::pair5(), Fate::Drop)] {
            let mc = ModelChecker { scenario, strategy: McStrategy::Bfs, budgets: Budgets::default() };
            let mut trace = vec![Choice::Step; 40];
            trace.extend([Choice::Fate { offset: 0, fate }, Choice::Run]);
            let (net, _, plan) = explorer(&mc).replay(&trace);
            let counts = net.engine().trace();
            let scripted = counts.get(Counter::ScriptedDrops) + counts.get(Counter::ScriptedDuplicates);
            assert_eq!(scripted, 1, "{}: the fate bit", mc.scenario.name);

            let mut plain = mc.scenario.build();
            let start = plain.now();
            let mut jams = BTreeMap::new();
            for ev in plan.events() {
                plain.engine_mut().run_until(start + ev.after);
                plain.apply_fault(&ev.kind, &mut jams);
            }
            plain.engine_mut().run_until(net.now());
            let digest = |n: &Network| (n.engine().trace().digest(), n.structural_signature());
            assert_eq!(digest(&plain), digest(&net), "{}", mc.scenario.name);
        }
    }
}
