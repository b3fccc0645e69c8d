//! Model-checker regressions: committed counterexample fixtures replay
//! deterministically as `FaultPlan`s against the plain simulator, green
//! certificates reproduce byte-for-byte, and the checker's fault-free
//! exploration cross-validates against an ordinary simulation run.
//!
//! The red fixture is the checker's own find: under a healing bound of
//! 10 s, crashing node 3 of `sparse7` — the *only* head candidate of its
//! deliberately under-dense east cell — leaves the orphaned associates
//! uncovered long past the bound, because no candidate can take over and
//! they must time out, fall back to bootup, and be absorbed by the
//! stretched central cell. The coverage hole becomes *visible* ~14 s
//! after the crash (until then the orphans' stale state still reads as
//! covered) and clears at ~19 s. Replaying the committed plan must
//! reproduce exactly that window: violated at +17 s (where the checker's
//! horizon caught it), healed by +25 s (the default `heal_window`).

use std::collections::BTreeMap;

use gs3::core::harness::Network;
use gs3::core::FaultPlan;
use gs3::mc::{Budgets, McStrategy, ModelChecker, Scenario};
use gs3::sim::SimDuration;

const CE_SPARSE7: &str = include_str!("fixtures/mc/ce-sparse7-healing_converges-0.json");
const PLAN_SPARSE7: &str = include_str!("fixtures/mc/ce-sparse7-healing_converges-0.plan.json");
const CERT_PAIR5: &str = include_str!("fixtures/mc/cert-pair5.json");
const CERT_SPARSE7: &str = include_str!("fixtures/mc/cert-sparse7.json");

/// Apply a model-checker plan to a converged scenario network through the
/// interpreter `gs3 chaos --plan` uses: fault offsets are relative to the
/// moment replay starts, exactly as the checker recorded them relative to
/// its converged root.
fn replay_plan(net: &mut Network, plan: &FaultPlan) {
    let start = net.now();
    let mut jams = BTreeMap::new();
    for ev in plan.events() {
        net.engine_mut().run_until(start + ev.after);
        net.apply_fault(&ev.kind, &mut jams);
    }
}

#[test]
fn committed_counterexample_replays_as_a_failing_fault_plan() {
    let plan = FaultPlan::from_json(PLAN_SPARSE7).expect("committed plan fixture parses");
    assert!(!plan.is_empty(), "the fixture must schedule at least one fault");

    let mut net = Scenario::by_name("sparse7").unwrap().build();
    assert!(net.check_invariants().is_empty(), "root state is legal");
    replay_plan(&mut net, &plan);

    // The violation the checker minimized to: 17 s after the crash the
    // orphaned east-cell associates are visibly uncovered — far past the
    // 10 s healing bound the red run was checked under.
    net.run_for(SimDuration::from_secs(17));
    let at_bound = net.check_invariants();
    assert!(
        !at_bound.is_empty(),
        "replaying the committed plan must reproduce the violation 17 s after the crash"
    );
    assert!(
        at_bound.iter().any(|v| v.to_string().contains("Coverage")),
        "the reproduced violation is the recorded coverage hole, got: {at_bound:?}"
    );

    // ...and it is a slow-healing path, not divergence: the default 25 s
    // window (absorption into the stretched central cell) clears it.
    net.run_for(SimDuration::from_secs(8));
    assert!(
        net.check_invariants().is_empty(),
        "the sparse7 coverage hole must heal by +25 s via central-cell absorption"
    );
}

#[test]
fn counterexample_fixture_embeds_its_plan_verbatim() {
    // `gs3 chaos --plan` accepts either file; they must stay in sync.
    let embedded = format!("\"plan\":{}", PLAN_SPARSE7.trim());
    assert!(
        CE_SPARSE7.contains(&embedded),
        "the counterexample fixture must embed the standalone plan fixture verbatim"
    );
    assert!(CE_SPARSE7.contains("\"property\":\"healing_converges\""));
    assert!(gs3::core::json::parse(CE_SPARSE7).is_ok());
}

#[test]
fn green_certificates_reproduce_byte_for_byte() {
    // The committed certificates are full default-budget exhaustive runs;
    // regenerating them must yield identical bytes (determinism is part
    // of the report contract, so CI can diff two runs directly).
    for (scenario, cert) in [("pair5", CERT_PAIR5), ("sparse7", CERT_SPARSE7)] {
        let report = ModelChecker {
            scenario: Scenario::by_name(scenario).unwrap(),
            strategy: McStrategy::Bfs,
            budgets: Budgets::default(),
        }
        .run();
        assert!(report.exhaustive, "{scenario} must be exhaustive under default budgets");
        assert!(!report.has_violations(), "{scenario} is green under default budgets");
        assert_eq!(
            report.to_json(),
            cert.trim(),
            "{scenario} certificate drifted — regenerate tests/fixtures/mc/cert-{scenario}.json \
             and explain the state-space change in the PR"
        );
    }
}

#[test]
fn fault_free_bfs_cross_validates_against_plain_simulation() {
    // With a zero fault budget the checker explores exactly one path —
    // the seed-deterministic schedule — so its single terminal state must
    // be structurally identical to just running the simulator.
    let horizon = SimDuration::from_secs(12);
    let budgets = Budgets {
        max_fates: 0,
        max_crashes: 0,
        max_path_faults: 0,
        horizon,
        ..Budgets::default()
    };
    let report = ModelChecker {
        scenario: Scenario::by_name("pair5").unwrap(),
        strategy: McStrategy::Bfs,
        budgets,
    }
    .run();
    assert!(report.exhaustive);
    assert_eq!(report.terminal_signatures.len(), 1, "deterministic system, one terminal");

    let mut plain = Scenario::by_name("pair5").unwrap().build();
    plain.run_for(horizon);
    let sig = plain.structural_signature();
    assert_eq!(
        report.terminal_signatures.iter().next().copied(),
        Some(sig),
        "the checker's terminal structure must equal the plain simulator's"
    );
}

#[test]
fn fingerprint_is_stable_and_discriminating() {
    // Same scenario, two independent builds: identical canonical state.
    let a = Scenario::by_name("pair5").unwrap().build();
    let b = Scenario::by_name("pair5").unwrap().build();
    assert_eq!(a.fingerprint(), b.fingerprint(), "rebuilds must not perturb the fingerprint");

    // Different scenarios must not collide (no false dedup across roots).
    let c = Scenario::by_name("rel7").unwrap().build();
    assert_ne!(a.fingerprint(), c.fingerprint(), "distinct fields, distinct fingerprints");

    // Advancing the schedule changes the canonical state.
    let mut d = Scenario::by_name("pair5").unwrap().build();
    d.run_for(SimDuration::from_secs(2));
    assert_ne!(a.fingerprint(), d.fingerprint(), "stepping must move the fingerprint");
}
