//! Regression gates over the committed `BENCH_chaos.json`,
//! `BENCH_dataplane.json`, `BENCH_paper.json` and `BENCH_core.json`
//! artifacts, and the command line of the binary that writes the first
//! three.
//!
//! The first three are suites of sections, byte-compared against a fresh
//! `artifact <suite> --json` in CI; the last is a 15-minute run, so it is
//! held to HEAD where a test can: the type widths exactly, the row's
//! shape, and the binary that writes it driven at 3 000 nodes.
//!
//! Each suite is gated on the claims EXPERIMENTS.md makes from it, never
//! on a raw number, so a regenerated file fails `cargo test` only when the
//! text has become false:
//!
//! - `paper`: FIG7's measured ratio falls with α, COR1-2 and TBL-A1 row 5
//!   leave no violation, TBL-A1 row 3 does not heal slower when n doubles,
//!   THM11's control changes no edge, and the IL-anchored ablation arm
//!   stays within `R_t` at every band.
//! - `chaos` ("Congestion collapse"): 30 runs per cell and arm; congestion
//!   adaptation lowers mean collisions in every cell; the non-adaptive arm
//!   configures and heals every run; the adaptive arm never configures in
//!   more runs than the non-adaptive one; every run that configures heals;
//!   burst × churn cells lose no run outside storm churn, at most one in it.
//! - `dataplane`: GS³'s min head spacing respects √3R − 2R_t and LEACH's
//!   does not; GS³ misassigns no node and hop clustering does; all three
//!   arms deliver at ≥ 10k nodes; the Ω(n_c) lengthening exceeds 1 and
//!   grows with n_c.

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
    v.get(key).and_then(JsonValue::as_u64).unwrap_or_else(|| panic!("missing integer {key:?} in {v:?}"))
}

/// A number, integer or decimal (a `null` cell panics).
fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or_else(|| panic!("missing number {key:?} in {v:?}"))
}

fn text<'d>(v: &'d JsonValue, key: &str) -> &'d str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("missing text {key:?} in {v:?}"))
}

/// The rows of table `name` in section `id` of a suite document.
fn table<'d>(doc: &'d JsonValue, id: &str, name: &str) -> &'d [JsonValue] {
    let section = items(doc, "sections")
        .iter()
        .find(|s| s.get("id").and_then(JsonValue::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no section {id:?}"));
    let tables = section.get("tables").unwrap_or_else(|| panic!("{id} has no tables"));
    items(tables, name)
}

/// The row of `rows` whose `column` reads `value`.
fn row<'d>(rows: &'d [JsonValue], column: &str, value: &str) -> &'d JsonValue {
    rows.iter().find(|r| text(r, column) == value).unwrap_or_else(|| panic!("no row {column} = {value:?}"))
}

/// The (off, on) row pairs of a table with one row per cell and arm.
fn arm_pairs<'d>(rows: &'d [JsonValue], arm: &str) -> Vec<(&'d JsonValue, &'d JsonValue)> {
    assert_eq!(rows.len() % 2, 0, "one row per cell and arm");
    rows.chunks(2)
        .map(|pair| {
            assert_eq!((text(&pair[0], arm), text(&pair[1], arm)), ("off", "on"), "{pair:?}");
            (&pair[0], &pair[1])
        })
        .collect()
}

#[test]
fn committed_dataplane_artifact_says_what_experiments_md_says() {
    let doc = artifact("BENCH_dataplane.json");
    assert_eq!(doc.get("suite").and_then(JsonValue::as_str), Some("BENCH_dataplane"));

    // SEC6 over one shared deployment: GS³'s head spacing respects
    // Corollary 1 and LEACH's placement does not; GS³ assigns every node
    // to its best head and hop clustering interleaves geographically.
    let sec6 = table(&doc, "SEC6", "quality");
    let spacing = row(sec6, "metric", "min head spacing (m)");
    let bound = num(spacing, "GS3 bound");
    assert!(num(spacing, "GS3") >= bound, "GS³ head spacing below √3R − 2R_t: {spacing:?}");
    assert!(num(spacing, "LEACH") < bound, "LEACH placement now respects the bound: {spacing:?}");
    let misassigned = row(sec6, "metric", "misassigned fraction");
    assert_eq!(num(misassigned, "GS3"), 0.0, "GS³ misassigned a node: {misassigned:?}");
    assert!(num(misassigned, "hop-based") > 0.0, "hop clustering no longer interleaves: {misassigned:?}");

    // DATA: all three arms present, each with a live workload and a real
    // energy bill (raw values drift with tuning; the shape is what's
    // pinned).
    let arms = table(&doc, "DATA", "arms");
    let names: Vec<&str> = arms.iter().map(|a| text(a, "arm")).collect();
    assert_eq!(names, ["gs3", "leach", "hop"]);
    for arm in arms {
        assert!(int(arm, "nodes") >= 10_000, "the comparison must run at >=10k nodes: {arm:?}");
        assert!(int(arm, "reports") > 0, "every arm must deliver reports: {arm:?}");
        assert!(num(arm, "energy") > 0.0, "every arm must dissipate energy: {arm:?}");
        assert!(num(arm, "reports/J") > 0.0);
    }

    // The Ω(n_c) claim: the maintained/unmaintained lengthening factor
    // exists, exceeds 1, and does not shrink as cell population grows.
    let sweep = table(&doc, "DATA", "lifetime_sweep");
    let n_c: Vec<f64> = sweep.iter().map(|p| num(p, "n_c (mean)")).collect();
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
    assert_eq!(doc.get("suite").and_then(JsonValue::as_str), Some("BENCH_chaos"));
    let cong = arm_pairs(table(&doc, "CONGESTION", "cells"), "adaptive");
    assert_eq!(cong.len(), 4, "expected a 2×2 congestion grid");

    for (off, on) in cong {
        for a in [off, on] {
            assert_eq!(int(a, "runs"), 30, "a cell is 30 seeds per arm: {a:?}");
            assert_eq!(int(a, "healed"), int(a, "configured"), "a configured run must heal: {a:?}");
        }
        assert!(
            int(on, "collisions") < int(off, "collisions"),
            "adaptation no longer sheds collisions: {off:?} vs {on:?}"
        );
        assert_eq!(int(off, "configured"), 30, "non-adaptive run failed to configure: {off:?}");
        assert!(
            int(on, "configured") <= int(off, "configured"),
            "the adaptive arm out-configures the non-adaptive one — rewrite EXPERIMENTS.md: {on:?}"
        );
    }

    // The burst × churn grid: every calm and steady cell heals every run
    // in both arms; a storm cell may lose at most one (seed 181's dead
    // ancestor).
    let cells = arm_pairs(table(&doc, "CHAOS", "cells"), "reliable");
    assert_eq!(cells.len(), 12, "expected a 4×3 burst × churn grid");
    for a in cells.into_iter().flat_map(|(off, on)| [off, on]) {
        assert_eq!(int(a, "runs"), 30, "a cell is 30 seeds per arm: {a:?}");
        let lost = int(a, "runs") - int(a, "healed");
        let storm = text(a, "churn") == "storm";
        assert!(lost <= u64::from(storm), "cell lost {lost} runs: {a:?}");
    }
}

#[test]
fn committed_paper_artifact_says_what_experiments_md_says() {
    let doc = artifact("BENCH_paper.json");
    assert_eq!(doc.get("suite").and_then(JsonValue::as_str), Some("BENCH_paper"));

    // FIG7: rows run from the largest target α down; fewer gaps are
    // expected as the matched density rises, never more.
    let fig7 = table(&doc, "FIG7", "empirical");
    let alpha: Vec<f64> = fig7.iter().map(|r| num(r, "target alpha")).collect();
    let ratio: Vec<f64> = fig7.iter().map(|r| num(r, "measured ratio")).collect();
    assert!(alpha.windows(2).all(|w| w[1] < w[0]), "α must descend: {alpha:?}");
    assert!(ratio.windows(2).all(|w| w[1] <= w[0]), "the non-ideal ratio rose as α fell: {ratio:?}");

    for (id, name, column) in
        [("COR1-2", "runs", "violations"), ("TBL-A1", "row5_arbitrary_state", "violations left")]
    {
        for row in table(&doc, id, name) {
            assert_eq!(int(row, column), 0, "{id} leaves invariant violations: {row:?}");
        }
    }

    // TBL-A1 row 3: local healing — doubling n at a fixed D_p must not
    // slow the heal. (The impact radius is not gated: it widens with the
    // field once D_p spans several cells.)
    let row3 = table(&doc, "TBL-A1", "row3_perturbation");
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
    let control = &table(&doc, "THM11", "moves")[0];
    assert_eq!(num(control, "d (move, m)"), 0.0, "the first THM11 row is the control: {control:?}");
    assert_eq!(int(control, "edges changed (all seeds)"), 0, "background churn: {control:?}");

    // ABLATION part 1: with IL anchoring, no band drifts past R_t = 14 m.
    for row in table(&doc, "ABLATION", "anchoring") {
        assert!(num(row, "anchored: max") < 14.0, "anchored deviation reached R_t: {row:?}");
    }
}

#[test]
fn artifact_rejects_a_bad_command_line_with_one_error_line() {
    let cases: [&[&str]; 4] = [&[], &["fig7"], &["chaos", "--jsno"], &["paper", "-j", "x"]];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_artifact")).args(args).output().expect("spawn artifact");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a suite");
        assert!(stderr.starts_with("error: ") && stderr.lines().count() == 1, "{args:?}: {stderr}");
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
