//! Regression gates over the committed `BENCH_chaos.json`,
//! `BENCH_dataplane.json`, `BENCH_paper.json` and `BENCH_core.json`
//! artifacts.
//!
//! The first three are byte-compared against fresh output in CI; the last
//! is a 15-minute run, so it is held to HEAD where a test can: the type
//! widths exactly, the row's shape, and the binary that writes it driven
//! at 3 000 nodes.
//!
//! `BENCH_paper.json` is gated on each claim EXPERIMENTS.md makes from
//! it, never on a raw number: FIG7's measured ratio falls with α, COR1-2
//! and TBL-A1 row 5 leave no violation, TBL-A1 row 3 does not heal slower
//! when n doubles, THM11's control changes no edge, and the IL-anchored
//! ablation arm stays within `R_t` at every band.
//!
//! `BENCH_chaos.json` is byte-compared against a fresh `chaos_sweep
//! --json` in CI, so it is what HEAD emits; the test here checks that it
//! still says what EXPERIMENTS.md "Congestion collapse" says about it —
//! 30 runs per cell and arm; congestion adaptation lowers mean collisions
//! in every cell; the non-adaptive arm configures and heals every run;
//! the adaptive arm never configures in more runs than the non-adaptive
//! one; every run that configures heals — and never pins a raw count, so
//! a regenerated file fails `cargo test` only when the text has become
//! false.

use std::path::Path;
use std::process::Command;

use gs3_core::json::{parse, JsonValue};
use gs3_core::messages::Msg;
use gs3_core::Gs3Node;
use gs3_sim::Engine;

fn artifact(name: &str) -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("committed {name}: {e}"));
    parse(&doc).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn items<'d>(v: &'d JsonValue, key: &str) -> &'d [JsonValue] {
    v.get(key).and_then(JsonValue::as_arr).unwrap_or_else(|| panic!("missing array {key:?}"))
}

fn int(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or_else(|| panic!("missing integer {key:?}"))
}

fn arm<'d>(cell: &'d JsonValue, name: &str) -> &'d JsonValue {
    cell.get(name).unwrap_or_else(|| panic!("cell lacks arm {name:?}: {cell:?}"))
}

/// A number (integer or decimal, `-1` sentinels included).
fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or_else(|| panic!("missing number {key:?}"))
}

#[test]
fn committed_dataplane_artifact_compares_arms_and_shows_omega_nc() {
    let doc = artifact("BENCH_dataplane.json");

    assert_eq!(doc.get("suite").and_then(JsonValue::as_str), Some("BENCH_dataplane"));
    assert_eq!(
        doc.get("smoke").and_then(JsonValue::as_bool),
        Some(false),
        "committed artifact must be the full run"
    );
    assert!(int(&doc, "nodes") >= 10_000, "the comparison must run at >=10k nodes");

    // All three arms present, each with a live workload and a real energy
    // bill (raw values drift with tuning; the shape is what's pinned).
    let arms = items(&doc, "arms");
    let names: Vec<_> = arms.iter().map(|a| a.get("arm").and_then(JsonValue::as_str)).collect();
    assert_eq!(names, [Some("gs3"), Some("leach"), Some("hop")]);
    for arm in arms {
        assert!(int(arm, "reports_delivered") > 0, "every arm must deliver reports: {arm:?}");
        assert!(num(arm, "energy_spent") > 0.0, "every arm must dissipate energy: {arm:?}");
        assert!(num(arm, "reports_per_joule") > 0.0);
    }

    // The Ω(n_c) claim: the maintained/unmaintained lengthening factor
    // exists, exceeds 1, and does not shrink as cell population grows.
    let sweep = items(&doc, "lifetime_sweep");
    let n_c: Vec<f64> = sweep.iter().map(|p| num(p, "mean_cell_population")).collect();
    let lengthening: Vec<f64> = sweep.iter().map(|p| num(p, "lengthening")).collect();
    assert!(n_c.len() >= 2, "sweep needs at least two densities");
    assert!(n_c.windows(2).all(|w| w[0] < w[1]), "densities must ascend: {n_c:?}");
    assert!(
        lengthening.iter().all(|&f| f > 1.0),
        "maintenance must lengthen life at every density: {lengthening:?}"
    );
    assert!(
        lengthening.windows(2).all(|w| w[1] >= w[0]),
        "the lengthening factor must grow with n_c (Ω(n_c)): {lengthening:?}"
    );
}

#[test]
fn committed_chaos_artifact_says_what_experiments_md_says() {
    let doc = artifact("BENCH_chaos.json");
    let cong = items(&doc, "congestion_cells");
    assert_eq!(cong.len(), 4, "expected a 2×2 congestion grid");

    for cell in cong {
        let (off, on) = (arm(cell, "adaptive_off"), arm(cell, "adaptive_on"));
        for a in [off, on] {
            assert_eq!(int(a, "runs"), 30, "a cell is 30 seeds per arm: {cell:?}");
            assert_eq!(int(a, "healed"), int(a, "configured"), "a configured run must heal: {cell:?}");
        }
        assert!(
            int(on, "collisions") < int(off, "collisions"),
            "adaptation no longer sheds collisions: {cell:?}"
        );
        assert_eq!(int(off, "configured"), 30, "non-adaptive run failed to configure: {cell:?}");
        assert!(
            int(on, "configured") <= int(off, "configured"),
            "the adaptive arm out-configures the non-adaptive one — rewrite EXPERIMENTS.md: {cell:?}"
        );
    }

    // The burst × churn grid: every calm and steady cell heals every run
    // in both arms; a storm cell may lose at most one (seed 181's dead
    // ancestor).
    for cell in items(&doc, "cells") {
        let storm = cell.get("churn").and_then(JsonValue::as_str) == Some("storm");
        for name in ["reliable_off", "reliable_on"] {
            let a = arm(cell, name);
            assert_eq!(int(a, "runs"), 30, "a cell is 30 seeds per arm: {cell:?}");
            let lost = int(a, "runs") - int(a, "healed");
            assert!(lost <= u64::from(storm), "{name} cell lost {lost} runs: {cell:?}");
        }
    }
}

/// The rows of table `name` in section `id` of `BENCH_paper.json`.
fn paper_table<'d>(doc: &'d JsonValue, id: &str, name: &str) -> &'d [JsonValue] {
    let section = items(doc, "sections")
        .iter()
        .find(|s| s.get("id").and_then(JsonValue::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no section {id:?}"));
    let tables = section.get("tables").unwrap_or_else(|| panic!("{id} has no tables"));
    items(tables, name)
}

#[test]
fn committed_paper_artifact_says_what_experiments_md_says() {
    let doc = artifact("BENCH_paper.json");
    assert_eq!(doc.get("suite").and_then(JsonValue::as_str), Some("BENCH_paper"));

    // FIG7: rows run from the largest target α down; fewer gaps are
    // expected as the matched density rises, never more.
    let fig7 = paper_table(&doc, "FIG7", "empirical");
    let alpha: Vec<f64> = fig7.iter().map(|r| num(r, "target alpha")).collect();
    let ratio: Vec<f64> = fig7.iter().map(|r| num(r, "measured ratio")).collect();
    assert!(alpha.windows(2).all(|w| w[1] < w[0]), "α must descend: {alpha:?}");
    assert!(ratio.windows(2).all(|w| w[1] <= w[0]), "the non-ideal ratio rose as α fell: {ratio:?}");

    for (id, name, column) in
        [("COR1-2", "runs", "violations"), ("TBL-A1", "row5_arbitrary_state", "violations left")]
    {
        for row in paper_table(&doc, id, name) {
            assert_eq!(int(row, column), 0, "{id} leaves invariant violations: {row:?}");
        }
    }

    // TBL-A1 row 3: local healing — doubling n at a fixed D_p must not
    // slow the heal. (The impact radius is not gated: it widens with the
    // field once D_p spans several cells.)
    let row3 = paper_table(&doc, "TBL-A1", "row3_perturbation");
    let heal = |n: u64, dp: f64| {
        let row = row3
            .iter()
            .find(|r| int(r, "n") == n && num(r, "D_p (kill diam, m)") == dp)
            .unwrap_or_else(|| panic!("no row n={n} D_p={dp}"));
        num(row, "heal time (s)")
    };
    for dp in [120.0, 240.0, 360.0] {
        assert!(heal(3000, dp) <= heal(1500, dp), "heal time grew with n at D_p = {dp}");
    }

    // THM11: the no-move control is the first row and flips no edge, so
    // every changed edge in the move rows is caused by the move.
    let control = &paper_table(&doc, "THM11", "moves")[0];
    assert_eq!(num(control, "d (move, m)"), 0.0, "the first THM11 row is the control: {control:?}");
    assert_eq!(int(control, "edges changed (all seeds)"), 0, "background churn: {control:?}");

    // ABLATION part 1: with IL anchoring, no band drifts past R_t = 14 m.
    for row in paper_table(&doc, "ABLATION", "anchoring") {
        assert!(num(row, "anchored: max") < 14.0, "anchored deviation reached R_t: {row:?}");
    }
}

/// The one row of a `scale_probe` document.
fn probe_row(doc: &JsonValue) -> &JsonValue {
    assert_eq!(doc.get("suite").and_then(JsonValue::as_str), Some("BENCH_core"));
    let rows = items(doc, "scenarios");
    assert_eq!(rows.len(), 1, "BENCH_core is the scale probe's one row");
    &rows[0]
}

#[test]
fn committed_core_artifact_is_the_million_node_probe_at_heads_type_widths() {
    let doc = artifact("BENCH_core.json");
    // The row was measured at these widths; a PR that moves one
    // re-runs the probe (the bounds themselves are gated in gs3-core).
    assert_eq!(int(&doc, "pending_event_bytes"), Engine::<Gs3Node>::pending_event_bytes() as u64);
    assert_eq!(int(&doc, "node_bytes"), std::mem::size_of::<Gs3Node>() as u64);
    assert_eq!(int(&doc, "msg_bytes"), std::mem::size_of::<Msg>() as u64);

    let row = probe_row(&doc);
    assert_eq!(int(row, "nodes"), 1_000_000, "committed artifact must be the full run");
    assert_eq!((int(row, "configured"), int(row, "healed")), (1, 1), "{row:?}");
    assert!(num(row, "peak_rss_mb") > 0.0, "{row:?}");
}

#[test]
fn scale_probe_configures_crashes_heals_and_repeats_exactly() {
    // The binary itself, at a size a debug build finishes in seconds.
    let run = |name: &str| {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let probe = Command::new(env!("CARGO_BIN_EXE_scale_probe"))
            .args(["--nodes", "3000", "--out"])
            .arg(&out)
            .output()
            .expect("spawn scale_probe");
        let stderr = String::from_utf8_lossy(&probe.stderr);
        assert!(probe.status.success(), "a 3 000-node field must configure and heal: {stderr}");
        parse(&std::fs::read_to_string(&out).expect("probe artifact")).expect("probe JSON")
    };
    let (a, b) = (run("probe-a.json"), run("probe-b.json"));
    let (a, b) = (probe_row(&a), probe_row(&b));
    assert_eq!(int(a, "nodes"), 3000);
    assert_eq!((int(a, "configured"), int(a, "healed")), (1, 1), "{a:?}");
    assert!(int(a, "killed") > 0 && int(a, "events") > 0, "{a:?}");
    for exact in ["events", "peak_queue_depth", "killed"] {
        assert_eq!(int(a, exact), int(b, exact), "{exact} differs between two runs");
    }
}
