//! The contract rules.
//!
//! | rule | contract |
//! |------|----------|
//! | `d1` | no hash containers (`HashMap`, `HashSet`, `FxHashMap`, `FxHashSet`) in `gs3-core`, `gs3-sim` or `gs3-dataplane` `src` — iteration order would leak into traces and digests; use `BTreeMap`/`BTreeSet` or a dense column — and no std default hasher there either: its algorithm is unspecified across releases, so hash with `gs3_sim::fnv` |
//! | `d2` | no `Instant::now`, `SystemTime`, or `std::time` import beyond `Duration` outside `gs3-sim/src/time.rs` — all time must flow from the simulation clock |
//! | `d3` | no direct `f64 ==`/`!=` against float literals on geometry values, and no `partial_cmp(…).unwrap()` — use the NaN-total `total_cmp` comparators |
//! | `d4` | RNG inertness (cross-procedural): every seeded-RNG draw in a config-gated subsystem file that is reachable from protocol entry points must be dominated by that subsystem's config guard, either in its own function or on every reachable call path — a disabled subsystem must not shift the shared RNG stream |
//! | `d5` | every `.for_each_cell(` call outside test code — the spatial grid's one hash-ordered view; each call site argues in an `allow(d5)` why its consumer is order-independent |
//! | `t1` | no catch-all arm (`_` or a bare binding) in a `gs3-core` match over `Msg`/`Timer` — then rustc's exhaustiveness check (E0004) rejects every unhandled variant |
//! | `t3` | no dead protocol arms (over the call graph): every `Msg`/`Timer` variant a reachable `gs3-core` match arm names must be constructed by some reachable code |
//! | `w1` | wire-schema pinning (in `schema.rs`): the `Msg`/`Timer`/`FaultKind` layouts must byte-match the committed `protocol.schema.json`; regenerate explicitly with `--write-schema` |
//! | `a1` | no `Box`/`Rc`, `BTreeMap`/`BTreeSet`, `static` items or `thread_local!` in the simulator's per-event hot path — the million-node target needs dense arena columns indexed by `u32`, and engine state is owned fields passed explicitly |
//!
//! `d1`, `d2`, `d5` and `a1` are rows of one banned-token table (`BANS`)
//! checked in one pass. What no rule checks because the compiler does:
//! an unhandled `Msg`/`Timer` variant (E0004, given `t1`), and interior
//! mutability anywhere the engine owns (the `Send + Sync` bound in
//! `gs3-sim`'s engine and `gs3-core`'s harness).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::diag::Finding;
use crate::lexer::{Tok, TokKind};
use crate::model::find_matches;
use crate::syntax::{extract_fns, matching_close, matching_open};
use crate::SourceFile;

/// Method/function names whose `f64` results are geometry values; a
/// float-literal equality against any of these is a `d3` finding in every
/// crate (inside `gs3-geometry`, all float-literal equalities count).
const GEOM_FNS: [&str; 8] =
    ["length", "distance", "radians", "degrees", "dot", "cross", "norm", "length_squared"];

fn push(findings: &mut Vec<Finding>, rule: &'static str, rel: &str, line: u32, msg: String) {
    findings.push(Finding { rule, rel: rel.to_string(), line, msg, allowed: None });
}

/// The crates whose state feeds digests, wire traffic and scheduling.
fn protocol_src(rel: &str) -> bool {
    ["crates/gs3-core/src", "crates/gs3-sim/src", "crates/gs3-dataplane/src"]
        .iter()
        .any(|p| rel.starts_with(p))
}

/// Everywhere but the simulation clock itself.
fn off_clock(rel: &str) -> bool {
    !rel.ends_with("gs3-sim/src/time.rs")
}

/// The engine's module directory. Path lists name it by prefix, so a stage
/// file added under it is in scope the day it lands.
const ENGINE_DIR: &str = "crates/gs3-sim/src/engine/";

/// Files forming the simulator's per-event hot path; `a1` keeps their
/// storage dense. The data-plane pair runs once per queued batch and
/// per drained frame, which at a 10k-node convergecast funnel is the
/// same per-event cadence as the engine itself. An entry ending in `/`
/// covers every file under that directory.
const HOT_PATHS: [&str; 6] = [
    ENGINE_DIR,
    "crates/gs3-sim/src/queue.rs",
    "crates/gs3-sim/src/spatial.rs",
    "crates/gs3-sim/src/channel.rs",
    "crates/gs3-dataplane/src/queue.rs",
    "crates/gs3-core/src/workload.rs",
];

fn hot_path(rel: &str) -> bool {
    HOT_PATHS.iter().any(|p| if p.ends_with('/') { rel.starts_with(p) } else { rel == *p })
}

/// One row of the banned-token table: `rule` reports every run of tokens
/// matching `pattern` in a file `scope` accepts.
struct Ban {
    rule: &'static str,
    scope: fn(&str) -> bool,
    /// Whether test code (`#[test]` fns, `#[cfg(test)]` modules) is exempt.
    skip_tests: bool,
    /// One entry per token: `|` separates alternatives, and a leading `!`
    /// matches any token except the listed ones.
    pattern: &'static [&'static str],
    why: &'static str,
}

/// The banned-token table: `d1`, `d2`, `d5` and `a1`.
const BANS: [Ban; 9] = [
    Ban {
        rule: "d1",
        scope: protocol_src,
        skip_tests: false,
        pattern: &["HashMap|HashSet|FxHashMap|FxHashSet"],
        why: "is a hash container in a protocol path: its iteration order would leak into \
              traces and digests — use BTreeMap/BTreeSet or a dense column",
    },
    Ban {
        rule: "d1",
        scope: protocol_src,
        skip_tests: false,
        pattern: &["DefaultHasher|RandomState"],
        why: "is std's default hasher: its algorithm is unspecified across Rust releases, so a \
              pinned value can move with the toolchain — fold with gs3_sim::fnv",
    },
    Ban {
        rule: "d2",
        scope: off_clock,
        skip_tests: false,
        pattern: &["SystemTime"],
        why: "reads the wall clock — use the simulation clock (SimTime)",
    },
    Ban {
        rule: "d2",
        scope: off_clock,
        skip_tests: false,
        pattern: &["Instant", "::", "now"],
        why: "reads the wall clock — use the simulation clock (ctx.now())",
    },
    Ban {
        rule: "d2",
        scope: off_clock,
        skip_tests: false,
        pattern: &["std", "::", "time", "::", "!Duration|SystemTime"],
        why: "imports wall-clock types — of std::time only Duration is an inert value",
    },
    Ban {
        rule: "d5",
        scope: protocol_src,
        skip_tests: true,
        pattern: &[".", "for_each_cell", "("],
        why: "visits spatial-grid cells in hash order — prove the consumer \
              order-independent and record why in an allow(d5)",
    },
    Ban {
        rule: "a1",
        scope: hot_path,
        skip_tests: false,
        pattern: &["Box|Rc", "<|::"],
        why: "in the per-event hot path: per-node heap indirection defeats the arena/SoA \
              layout — store the value inline in a dense column",
    },
    Ban {
        rule: "a1",
        scope: hot_path,
        skip_tests: false,
        pattern: &["BTreeMap|BTreeSet"],
        why: "in the per-event hot path: a keyed lookup costs a tree walk per event — index \
              a dense Vec column by NodeId instead",
    },
    Ban {
        rule: "a1",
        scope: hot_path,
        skip_tests: false,
        pattern: &["static|thread_local"],
        why: "in the per-event hot path is ambient global state — engine state is owned \
              fields passed explicitly",
    },
];

fn tok_matches(alternatives: &str, text: &str) -> bool {
    match alternatives.strip_prefix('!') {
        Some(banned) => !banned.split('|').any(|a| a == text),
        None => alternatives.split('|').any(|a| a == text),
    }
}

/// `d1`, `d2`, `d5`, `a1`: one pass over `toks` against every `BANS`
/// row in scope for `rel`.
pub fn check_bans(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    let rows: Vec<&Ban> = BANS.iter().filter(|b| (b.scope)(rel)).collect();
    if rows.is_empty() {
        return;
    }
    let test_bodies: Vec<(usize, usize)> =
        extract_fns(rel, toks).into_iter().filter(|f| f.is_test).filter_map(|f| f.body).collect();
    for i in 0..toks.len() {
        for b in &rows {
            let n = b.pattern.len();
            let hit = toks.len() - i >= n
                && b.pattern.iter().zip(&toks[i..]).all(|(alt, t)| tok_matches(alt, &t.text))
                && !(b.skip_tests && test_bodies.iter().any(|&(a, z)| i > a && i < z));
            if hit {
                let text: String = toks[i..i + n].iter().map(|t| t.text.as_str()).collect();
                push(findings, b.rule, rel, toks[i].line, format!("`{text}` {}", b.why));
            }
        }
    }
}

/// `d3`: NaN-unsafe float comparisons on geometry values.
pub fn check_d3(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    let geometry_crate = rel.starts_with("crates/gs3-geometry");
    for (i, t) in toks.iter().enumerate() {
        // partial_cmp(…).unwrap() — a NaN anywhere poisons the unwrap.
        if t.kind == TokKind::Ident
            && t.text == "partial_cmp"
            && i > 0
            && toks[i - 1].text != "fn"
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            if let Some(close) = matching_close(toks, i + 1) {
                if toks.get(close + 1).is_some_and(|n| n.text == ".")
                    && toks.get(close + 2).is_some_and(|n| n.text == "unwrap")
                {
                    push(
                        findings,
                        "d3",
                        rel,
                        t.line,
                        "partial_cmp(..).unwrap() panics on NaN — use f64::total_cmp"
                            .to_string(),
                    );
                }
            }
        }
        if t.text != "==" && t.text != "!=" {
            continue;
        }
        let lit_right = toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Float)
            || (toks.get(i + 1).is_some_and(|n| n.text == "-")
                && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Float));
        let lit_left = i > 0 && toks[i - 1].kind == TokKind::Float;
        if !lit_right && !lit_left {
            continue;
        }
        let geom_operand = (i > 0 && lhs_is_geometry(toks, i - 1))
            || (lit_left && rhs_is_geometry(toks, i + 1));
        if geometry_crate || geom_operand {
            push(
                findings,
                "d3",
                rel,
                t.line,
                format!(
                    "float-literal `{}` on a geometry value is not NaN-total — compare via \
                     f64::total_cmp (e.g. `x.total_cmp(&0.0).is_eq()`)",
                    t.text
                ),
            );
        }
    }
}

/// Whether the expression ending at `end` is a geometry accessor: a call
/// to one of [`GEOM_FNS`] or an `.x`/`.y` field read.
fn lhs_is_geometry(toks: &[Tok], end: usize) -> bool {
    let t = &toks[end];
    if t.text == ")" {
        if let Some(open) = matching_open(toks, end) {
            return open > 0
                && toks[open - 1].kind == TokKind::Ident
                && GEOM_FNS.contains(&toks[open - 1].text.as_str());
        }
        return false;
    }
    t.kind == TokKind::Ident
        && (t.text == "x" || t.text == "y")
        && end > 0
        && toks[end - 1].text == "."
}

/// Whether the expression starting at `start` is a geometry accessor call
/// chain (e.g. `0.0 == v.length()`).
fn rhs_is_geometry(toks: &[Tok], start: usize) -> bool {
    let mut i = start;
    // Walk a `recv.method().method()`-style chain looking for a GEOM_FN.
    let mut steps = 0;
    while i < toks.len() && steps < 16 {
        let t = &toks[i];
        if t.kind == TokKind::Ident && GEOM_FNS.contains(&t.text.as_str()) {
            return toks.get(i + 1).is_some_and(|n| n.text == "(");
        }
        match t.text.as_str() {
            ";" | "," | "{" | "&&" | "||" => return false,
            _ => {}
        }
        i += 1;
        steps += 1;
    }
    false
}

/// `t1`: no catch-all arm in a `gs3-core` match over `Msg`/`Timer`. With
/// every variant named, rustc's exhaustiveness check (E0004) rejects a new
/// variant until each dispatch handles it.
pub fn check_t1(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    if !rel.starts_with("crates/gs3-core/src") {
        return;
    }
    for m in find_matches(toks) {
        if let (Some(line), false) = (m.catch_all, m.pattern_variants.is_empty()) {
            push(
                findings,
                "t1",
                rel,
                line,
                "catch-all arm (`_` or a bare binding) in a protocol dispatch match — name \
                 every Msg/Timer variant so new variants fail to compile until handled"
                    .to_string(),
            );
        }
    }
}

/// Method names that draw from the seeded RNG. `fill` is deliberately
/// absent (slice `fill` is common in hot paths); turbofish-only forms
/// (`gen::<f64>()`) are not method calls and are not seen — every real
/// draw site in this workspace uses one of these.
const DRAW_FNS: [&str; 9] = [
    "gen", "gen_range", "gen_bool", "gen_ratio", "sample", "fill_bytes", "next_u32", "next_u64",
    "random",
];

/// Config-guard identifiers whose lexical presence before a call site
/// counts as gating that path, across all subsystems.
const GUARD_IDENTS: [&str; 7] =
    ["enabled", "is_off", "is_zero", "unicast_loss", "duplicate", "delay_prob", "broadcast_loss"];

/// Files whose RNG draws sit behind a config switch, with the guard
/// identifiers that switch is read through. A draw in any other file is
/// the protocol's always-on baseline randomness and needs no guard.
fn gate_guards(rel: &str) -> Option<&'static [&'static str]> {
    const ENABLED: &[&str] = &["enabled"];
    const FAULTS: &[&str] = &["is_off", "unicast_loss", "duplicate", "delay_prob"];
    const RADIO: &[&str] = &["is_zero", "broadcast_loss"];
    if rel.ends_with("gs3-core/src/reliable.rs")
        || rel.ends_with("gs3-core/src/congestion.rs")
        || rel.ends_with("gs3-core/src/workload.rs")
        || rel.starts_with(ENGINE_DIR)
        || rel.ends_with("gs3-sim/src/medium.rs")
        || rel.starts_with("crates/gs3-dataplane/src/")
    {
        Some(ENABLED)
    } else if rel.ends_with("gs3-sim/src/faults.rs") {
        Some(FAULTS)
    } else if rel.ends_with("gs3-sim/src/radio.rs") {
        Some(RADIO)
    } else {
        None
    }
}

/// Whether any guard identifier appears in `toks[start..end]`. Lexical
/// dominance is an approximation of control dominance: the workspace
/// guard idiom is an early `if !cfg.….enabled { return; }` or a
/// short-circuit `cfg.p > 0.0 && rng.…`, both of which place the guard
/// identifier strictly before the draw in token order.
fn guard_before(toks: &[Tok], start: usize, end: usize, guards: &[&str]) -> bool {
    toks[start..end.min(toks.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && guards.contains(&t.text.as_str()))
}

/// Graph roots for reachability: every non-test function with no
/// workspace caller is presumed externally reachable (simulation entry
/// points, public API, harness `main`s). Everything else is reached only
/// through its callers.
fn entry_roots(graph: &CallGraph) -> Vec<usize> {
    (0..graph.nodes.len()).filter(|&i| graph.callers[i].is_empty()).collect()
}

/// `d4` (workspace pass): config-gated subsystems must be RNG-inert when
/// disabled. For every draw site in a gated file reachable from entry
/// roots, either the draw's own function reads the subsystem's guard
/// before drawing, or — computed as a least fixpoint over the call graph
/// — every reachable call path into the function passes a guard. Cycles
/// of unguarded callers conservatively stay unguarded.
pub fn check_d4(files: &[SourceFile], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let toks_of: BTreeMap<&str, &[Tok]> =
        files.iter().map(|f| (f.rel.as_str(), f.lexed.toks.as_slice())).collect();
    let reachable = graph.reachable_from(&entry_roots(graph));
    // covered[f]: every reachable call path into f passes some guard.
    // Monotone: a node flips to covered only when all its reachable
    // callers' sites are guarded-or-covered, so iteration to fixpoint
    // terminates and unguarded cycles stay uncovered.
    let mut covered = vec![false; graph.nodes.len()];
    loop {
        let mut changed = false;
        for f in 0..graph.nodes.len() {
            if covered[f] || graph.callers[f].is_empty() {
                continue;
            }
            let all_guarded = graph.callers[f].iter().all(|&(caller, idx)| {
                if !reachable[caller] {
                    return true;
                }
                if covered[caller] {
                    return true;
                }
                let node = &graph.nodes[caller];
                let Some(toks) = toks_of.get(node.rel.as_str()) else { return false };
                node.item
                    .body
                    .is_some_and(|(open, _)| guard_before(toks, open, idx, &GUARD_IDENTS))
            });
            if all_guarded && graph.callers[f].iter().any(|&(c, _)| reachable[c]) {
                covered[f] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (f, node) in graph.nodes.iter().enumerate() {
        if !reachable[f] {
            continue;
        }
        let Some(guards) = gate_guards(&node.rel) else { continue };
        let Some((open, _)) = node.item.body else { continue };
        let Some(toks) = toks_of.get(node.rel.as_str()) else { continue };
        for c in &node.calls {
            if !DRAW_FNS.contains(&c.callee.as_str()) || !c.method {
                continue;
            }
            if guard_before(toks, open, c.idx, guards) || covered[f] {
                continue;
            }
            push(
                findings,
                "d4",
                &node.rel,
                c.line,
                format!(
                    "RNG draw `{}` in `{}` is reachable from protocol entry points without \
                     a dominating config guard ({}) in this fn or on every call path — a \
                     disabled subsystem must be RNG-inert, or the shared seeded stream \
                     shifts and every digest changes",
                    c.callee,
                    node.item.name,
                    guards.join("/"),
                ),
            );
        }
    }
}

/// `t3` (workspace pass): no dead protocol arms. Every `Msg`/`Timer`
/// variant that a reachable `gs3-core` match arm names must be constructed
/// somewhere in reachable non-test code, or the arm can never run.
/// `messages.rs` and `timers.rs` are exempt on the arm side — their
/// introspection matches name every variant without handling any.
pub fn check_t3(files: &[SourceFile], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let reachable = graph.reachable_from(&entry_roots(graph));
    // Reachable body ranges per file.
    let mut live: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (f, node) in graph.nodes.iter().enumerate() {
        if reachable[f] {
            if let Some(range) = node.item.body {
                live.entry(node.rel.as_str()).or_default().push(range);
            }
        }
    }
    let mut constructed: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut arms: BTreeMap<(String, String), (&str, u32)> = BTreeMap::new();
    for SourceFile { rel, lexed } in files {
        let toks = &lexed.toks;
        let Some(ranges) = live.get(rel.as_str()) else { continue };
        let in_live = |i: usize| ranges.iter().any(|&(a, b)| i > a && i < b);
        // Token positions that are patterns, not constructions: match arm
        // patterns (guards included), `let`/`if let`/`while let` bindings,
        // and `matches!(…)` bodies.
        let matches = find_matches(toks);
        let mut pattern = vec![false; toks.len()];
        for m in &matches {
            for &(a, b) in &m.pattern_ranges {
                for slot in pattern.iter_mut().take(b.min(toks.len())).skip(a) {
                    *slot = true;
                }
            }
        }
        mark_let_and_macro_patterns(toks, &mut pattern);
        for k in 0..toks.len().saturating_sub(2) {
            if matches!(toks[k].text.as_str(), "Msg" | "Timer")
                && toks[k + 1].text == "::"
                && toks[k + 2].kind == TokKind::Ident
                && !pattern[k]
                && in_live(k)
            {
                constructed.insert((&toks[k].text, &toks[k + 2].text));
            }
        }
        if rel.starts_with("crates/gs3-core/src")
            && !rel.ends_with("messages.rs")
            && !rel.ends_with("timers.rs")
        {
            for m in matches.into_iter().filter(|m| in_live(m.idx)) {
                for (e, v, line) in m.pattern_variants {
                    arms.entry((e, v)).or_insert((rel, line));
                }
            }
        }
    }
    for ((e, v), (rel, line)) in arms {
        if !constructed.contains(&(e.as_str(), v.as_str())) {
            push(
                findings,
                "t3",
                rel,
                line,
                format!("dead protocol arm: {e}::{v} is matched here but no reachable code constructs it"),
            );
        }
    }
}

/// Marks `let`-binding patterns (`let P = …`, `if let P = …`,
/// `while let P = …`) and `matches!(…)` argument ranges in `pattern`.
fn mark_let_and_macro_patterns(toks: &[Tok], pattern: &mut [bool]) {
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if toks[i].text == "let" {
            let mut depth = 0i32;
            for (j, t) in toks.iter().enumerate().skip(i + 1) {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" | ";" if depth == 0 => break,
                    _ => {}
                }
                if let Some(slot) = pattern.get_mut(j) {
                    *slot = true;
                }
            }
        } else if toks[i].text == "matches"
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
            && toks.get(i + 2).is_some_and(|n| n.text == "(")
        {
            if let Some(close) = matching_close(toks, i + 2) {
                for slot in pattern.iter_mut().take(close).skip(i + 2) {
                    *slot = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_d3(rel: &str, src: &str) -> Vec<Finding> {
        let mut f = Vec::new();
        check_d3(rel, &lex(src).toks, &mut f);
        f
    }

    fn run_bans(rel: &str, src: &str) -> Vec<Finding> {
        let mut f = Vec::new();
        check_bans(rel, &lex(src).toks, &mut f);
        f
    }

    #[test]
    fn d1_flags_std_and_fx_maps_in_protocol_paths_only() {
        let src = "use std::collections::HashMap; let s: FxHashSet<u32> = Default::default();";
        for rel in ["crates/gs3-core/src/x.rs", "crates/gs3-dataplane/src/x.rs"] {
            let f = run_bans(rel, src);
            assert_eq!(f.iter().map(|f| f.rule).collect::<Vec<_>>(), ["d1", "d1"], "{rel}");
        }
        assert!(run_bans("crates/gs3-analysis/src/x.rs", src).is_empty());
    }

    #[test]
    fn d2_duration_is_exempt() {
        let src = "use std::time::Duration; fn f() -> Duration { Duration::ZERO }";
        assert!(run_bans("crates/gs3-bench/src/x.rs", src).is_empty());
        let src = "use std::time::Instant; let t = Instant::now(); std::time::SystemTime::now();";
        assert_eq!(run_bans("crates/gs3-bench/src/x.rs", src).len(), 3, "import, call, SystemTime once");
    }

    #[test]
    fn d2_exempts_the_sim_clock() {
        assert!(run_bans("crates/gs3-sim/src/time.rs", "let t = Instant::now();").is_empty());
    }

    #[test]
    fn a1_flags_only_hot_paths() {
        let src = "struct S { n: Vec<Box<Node>>, m: BTreeMap<u32, u64> } fn f() { Rc::new(3); }";
        assert_eq!(run_bans("crates/gs3-sim/src/engine/mod.rs", src).len(), 3);
        // Cold-path files in the same crate keep their ordered maps.
        assert!(run_bans("crates/gs3-sim/src/trace.rs", src).is_empty());
        // The data-plane per-batch path is held to the same standard...
        assert_eq!(run_bans("crates/gs3-core/src/workload.rs", src).len(), 3);
        // ...but the sink ledger's sparse-keyed replay map is cold-path.
        assert!(run_bans("crates/gs3-dataplane/src/ledger.rs", src).is_empty());
    }

    #[test]
    fn a1_statics_count_once_and_lifetimes_not_at_all() {
        // A hash map in a hot path is d1's alone; `&'static` is invisible
        // (the lexer drops lifetimes), a static item and `thread_local!`
        // are not.
        let src = "let cells: FxHashMap<(i64, i64), Vec<usize>> = FxHashMap::default(); \
                   fn name(&self) -> &'static str { \"grid\" } \
                   static HITS: u64 = 0; thread_local!(static TL: u32 = 0);";
        let f = run_bans("crates/gs3-sim/src/spatial.rs", src);
        let rules: Vec<_> = f.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["d1", "d1", "a1", "a1", "a1"], "{f:?}");
    }

    #[test]
    fn d3_geometry_accessor_anywhere() {
        let f = run_d3("crates/gs3-core/src/x.rs", "if v.length() == 0.0 { }");
        assert_eq!(f.len(), 1);
        let f = run_d3("crates/gs3-core/src/x.rs", "if 0.0 == v.length() { }");
        assert_eq!(f.len(), 1);
        // Config sentinels outside the geometry crate are not geometry.
        let f = run_d3("crates/gs3-core/src/x.rs", "if cfg.energy == 0.0 { }");
        assert!(f.is_empty());
    }

    #[test]
    fn d3_everything_in_geometry_crate() {
        let f = run_d3("crates/gs3-geometry/src/x.rs", "if len == 0.0 { }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn d3_partial_cmp_unwrap() {
        let f = run_d3("crates/gs3-core/src/x.rs", "a.partial_cmp(&b).unwrap()");
        assert_eq!(f.len(), 1);
        // Trait impls (fn partial_cmp) and non-unwrap uses are fine.
        let f = run_d3(
            "crates/gs3-core/src/x.rs",
            "fn partial_cmp(&self, o: &Self) -> Option<Ordering> { a.partial_cmp(&b) }",
        );
        assert!(f.is_empty());
    }

    fn lex_files(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter().map(|(rel, s)| SourceFile::new(rel, s)).collect()
    }

    fn graph_of(files: &[SourceFile]) -> CallGraph {
        CallGraph::build(files.iter().map(|f| (f.rel.as_str(), f.lexed.toks.as_slice())))
    }

    fn run_d4(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files = lex_files(srcs);
        let graph = graph_of(&files);
        let mut f = Vec::new();
        check_d4(&files, &graph, &mut f);
        f
    }

    #[test]
    fn d4_unguarded_draw_in_gated_file() {
        let f = run_d4(&[(
            "crates/gs3-core/src/reliable.rs",
            "impl R { fn on_message(&mut self, ctx: &mut Ctx) { ctx.rng().gen_bool(0.5); } }",
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "d4");
        assert!(f[0].msg.contains("gen_bool"));
    }

    #[test]
    fn d4_direct_guard_is_clean() {
        let f = run_d4(&[(
            "crates/gs3-core/src/reliable.rs",
            "impl R { fn on_message(&mut self, ctx: &mut Ctx) { \
             if !self.cfg.reliability.enabled { return; } ctx.rng().gen_bool(0.5); } }",
        )]);
        assert!(f.is_empty());
    }

    #[test]
    fn d4_guarded_callers_cover_the_draw() {
        // The draw fn itself reads no guard, but every reachable call path
        // passes one — the covered fixpoint must clear it.
        let f = run_d4(&[(
            "crates/gs3-core/src/reliable.rs",
            "impl R { \
             fn draw(&mut self, ctx: &mut Ctx) { ctx.rng().gen_range(0..4); } \
             fn on_message(&mut self, ctx: &mut Ctx) { \
               if self.cfg.reliability.enabled { self.draw(ctx); } } }",
        )]);
        assert!(f.is_empty());
        // One unguarded caller breaks coverage.
        let f = run_d4(&[(
            "crates/gs3-core/src/reliable.rs",
            "impl R { \
             fn draw(&mut self, ctx: &mut Ctx) { ctx.rng().gen_range(0..4); } \
             fn on_message(&mut self, ctx: &mut Ctx) { \
               if self.cfg.reliability.enabled { self.draw(ctx); } } \
             fn on_timer(&mut self, ctx: &mut Ctx) { self.draw(ctx); } }",
        )]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn d4_unguarded_cycle_stays_flagged() {
        let f = run_d4(&[(
            "crates/gs3-core/src/reliable.rs",
            "impl R { \
             fn on_message(&mut self, ctx: &mut Ctx) { self.a(ctx); } \
             fn a(&mut self, ctx: &mut Ctx) { self.b(ctx); } \
             fn b(&mut self, ctx: &mut Ctx) { self.a(ctx); ctx.rng().gen_bool(0.5); } }",
        )]);
        assert_eq!(f.len(), 1, "a mutually-recursive unguarded pair must not self-cover");
    }

    #[test]
    fn d4_ungated_files_and_tests_are_exempt() {
        // join.rs baseline jitter is always-on randomness: no gate, no rule.
        let f = run_d4(&[(
            "crates/gs3-core/src/join.rs",
            "fn jitter(ctx: &mut Ctx) { ctx.rng().gen_range(0..100); }",
        )]);
        assert!(f.is_empty());
        let f = run_d4(&[(
            "crates/gs3-core/src/reliable.rs",
            "#[cfg(test)] mod tests { #[test] fn t() { rng().gen_bool(0.5); } }",
        )]);
        assert!(f.is_empty());
    }

    #[test]
    fn d5_flags_every_for_each_cell_call_outside_tests() {
        let src = "fn scan(g: &Grid) { g.for_each_cell(|c| emit(c)); } \
                   fn for_each_cell<F>(&self, f: F) {} \
                   #[cfg(test)] mod tests { #[test] fn t() { grid().for_each_cell(|_, _| {}); } }";
        let f = run_bans("crates/gs3-core/src/invariants.rs", src);
        assert_eq!(f.len(), 1, "the call, not the definition or the test: {f:?}");
        assert_eq!(f[0].rule, "d5");
        assert!(run_bans("crates/gs3-analysis/src/x.rs", src).is_empty());
    }

    fn run_t3(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files = lex_files(srcs);
        let graph = graph_of(&files);
        let mut f = Vec::new();
        check_t3(&files, &graph, &mut f);
        f
    }

    #[test]
    fn t3_roundtrip_is_clean() {
        let f = run_t3(&[(
            "crates/gs3-core/src/node.rs",
            "fn send(ctx: &mut Ctx) { ctx.emit(Msg::Ping(3)); } \
             fn on_message(m: Msg) { match m { Msg::Ping(x) => on_ping(x), } } \
             fn on_ping(x: u32) {}",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn t3_dead_msg_and_timer_arms() {
        let f = run_t3(&[
            (
                "crates/gs3-core/src/node.rs",
                "fn on_message(m: Msg) { match m { Msg::Ping(x) => {} Msg::Pong => {} } } \
                 fn on_timer(t: Timer) { match t { Timer::Tick => {} Timer::Expire => {} } } \
                 fn send(ctx: &mut Ctx) { ctx.emit(Msg::Ping(3)); ctx.set_timer(1, Timer::Tick); }",
            ),
            // Introspection in the defining files names every variant.
            ("crates/gs3-core/src/timers.rs", "fn name(t: &Timer) { match t { Timer::Gone => {} } }"),
        ]);
        let msgs: Vec<_> = f.iter().map(|f| f.msg.as_str()).collect();
        assert_eq!(f.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("dead protocol arm: Msg::Pong"));
        assert!(msgs[1].contains("dead protocol arm: Timer::Expire"));
    }

    #[test]
    fn t3_patterns_do_not_count_as_constructions() {
        // `if let` and `matches!` mention variants without sending them.
        let f = run_t3(&[(
            "crates/gs3-core/src/node.rs",
            "fn peek(m: &Msg) -> bool { \
               if let Msg::Ping(_) = m { return true; } \
               matches!(m, Msg::Ping(_)) } \
             fn on_message(m: Msg) { match m { Msg::Ping(x) => {} } }",
        )]);
        assert_eq!(f.len(), 1, "Ping is handled but never constructed: {f:?}");
        assert!(f[0].msg.contains("dead protocol arm"));
    }

    #[test]
    fn engine_rules_follow_the_directory() {
        // A stage file nobody has listed by name is in scope for a1 and d4
        // because it sits under the engine directory; a sibling of the
        // directory is not.
        let stage = "crates/gs3-sim/src/engine/some_new_stage.rs";
        let src = "struct S { m: BTreeMap<u32, u64> }";
        assert_eq!(run_bans(stage, src).len(), 1);
        assert!(run_bans("crates/gs3-sim/src/engine_notes.rs", src).is_empty());
        assert_eq!(gate_guards(stage), gate_guards("crates/gs3-sim/src/medium.rs"));
        assert!(gate_guards(stage).is_some());
        assert!(gate_guards("crates/gs3-sim/src/engine_notes.rs").is_none());
    }
}
