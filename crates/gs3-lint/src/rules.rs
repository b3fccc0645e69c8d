//! The contract rules.
//!
//! | rule | contract |
//! |------|----------|
//! | `d1` | no `std::collections::HashMap`/`HashSet` in protocol paths (`gs3-core`, `gs3-sim`) — iteration order would leak into traces and digests; use `FxHashMap` with sorted iteration, or `BTreeMap`/`BTreeSet` |
//! | `d2` | no `rand::thread_rng`, `Instant::now`, `SystemTime`, or `std::time` reads outside `gs3-sim/src/time.rs` — all time and randomness must flow from the seeded simulation clock |
//! | `d3` | no direct `f64 ==`/`!=` against float literals on geometry values, and no `partial_cmp(…).unwrap()` — use the NaN-total `total_cmp` comparators |
//! | `d4` | RNG inertness (cross-procedural): every seeded-RNG draw in a config-gated subsystem file that is reachable from protocol entry points must be dominated by that subsystem's config guard, either in its own function or on every reachable call path — a disabled subsystem must not shift the shared RNG stream |
//! | `d5` | iteration-order audit: no iteration over `FxHashMap`/`FxHashSet` (including `for_each_cell`) in protocol paths unless the consumer sorts or the reduction is order-erasing — hash order must never flow into digests, wire traffic, or scheduling |
//! | `t1` | protocol dispatch matches over `Msg`/`Timer` must be total: no `_ =>` wildcard arms in handler matches, and near-total matches must name every variant |
//! | `t2` | every `Timer` class passed to `set_timer` must have a dispatch (expiry) arm somewhere in `gs3-core` |
//! | `t3` | sender↔handler reachability over the call graph: every `Msg` variant constructed in reachable non-test code must have a reachable `gs3-core` dispatch arm, and every dispatch arm must correspond to a variant some reachable code constructs (no dead protocol arms) |
//! | `w1` | wire-schema pinning (in `schema.rs`): the `Msg`/`Timer`/`FaultKind` layouts must byte-match the committed `protocol.schema.json`; regenerate explicitly with `--write-schema` |
//! | `a1` | no `Box`/`Rc` and no std map/set types in the simulator's per-event hot path (`gs3-sim` engine/queue/spatial) — the million-node target needs dense arena columns indexed by `u32`, not per-node heap indirection or keyed lookups |
//! | `a2` | parallel readiness: no `RefCell`/`Cell`/`Mutex`/`static`/`thread_local!` (interior mutability or ambient globals) in the engine hot-path files — the intra-run parallel DES roadmap item needs these files `Sync`-safe with explicit state passing |

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::diag::Finding;
use crate::lexer::{Tok, TokKind};
use crate::model::{find_matches, ProtocolModel};
use crate::syntax::extract_fns;

/// Method/function names whose `f64` results are geometry values; a
/// float-literal equality against any of these is a `d3` finding in every
/// crate (inside `gs3-geometry`, all float-literal equalities count).
const GEOM_FNS: [&str; 8] =
    ["length", "distance", "radians", "degrees", "dot", "cross", "norm", "length_squared"];

fn is_protocol_path(rel: &str) -> bool {
    rel.starts_with("crates/gs3-core/src") || rel.starts_with("crates/gs3-sim/src")
}

fn push(findings: &mut Vec<Finding>, rule: &'static str, rel: &str, line: u32, msg: String) {
    findings.push(Finding { rule, rel: rel.to_string(), line, msg, allowed: None });
}

/// `d1`: unordered std hash containers in protocol paths.
pub fn check_d1(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    if !is_protocol_path(rel) {
        return;
    }
    for t in toks {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                findings,
                "d1",
                rel,
                t.line,
                format!(
                    "std::collections::{} in a protocol path: hash iteration order would \
                     leak into traces/digests — use FxHashMap with sorted iteration, or \
                     BTreeMap/BTreeSet",
                    t.text
                ),
            );
        }
    }
}

/// `d2`: ambient time or entropy outside the simulation clock.
pub fn check_d2(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    if rel.ends_with("gs3-sim/src/time.rs") {
        return;
    }
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "thread_rng" => push(
                    findings,
                    "d2",
                    rel,
                    t.line,
                    "thread_rng draws ambient entropy — draw from the seeded engine RNG \
                     (ctx.rng()) instead"
                        .to_string(),
                ),
                "SystemTime" => push(
                    findings,
                    "d2",
                    rel,
                    t.line,
                    "SystemTime reads the wall clock — use the simulation clock (SimTime)"
                        .to_string(),
                ),
                "Instant" if toks.get(i + 1).is_some_and(|n| n.text == "::")
                    && toks.get(i + 2).is_some_and(|n| n.text == "now") =>
                {
                    push(
                        findings,
                        "d2",
                        rel,
                        t.line,
                        "Instant::now reads the wall clock — use the simulation clock (ctx.now())"
                            .to_string(),
                    );
                }
                // `std::time::<anything but Duration>` (Duration is an inert
                // value type; Instant/SystemTime are clock reads).
                "std" if toks.get(i + 1).is_some_and(|n| n.text == "::")
                    && toks.get(i + 2).is_some_and(|n| n.text == "time")
                    && toks.get(i + 3).is_some_and(|n| n.text == "::")
                    && toks.get(i + 4).is_some_and(|n| n.text != "Duration") =>
                {
                    push(
                        findings,
                        "d2",
                        rel,
                        t.line,
                        "std::time import beyond Duration — wall-clock types are banned in \
                         deterministic paths"
                            .to_string(),
                    );
                    i += 4;
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// The engine's module directory. Path lists name it by prefix, so a stage
/// file added under it is in scope the day it lands.
const ENGINE_DIR: &str = "crates/gs3-sim/src/engine/";

/// Whether `rel` is one of `paths`: an entry ending in `/` covers every
/// file under that directory, any other names one file.
fn listed(paths: &[&str], rel: &str) -> bool {
    paths.iter().any(|p| if p.ends_with('/') { rel.starts_with(p) } else { rel == *p })
}

/// Files forming the simulator's per-event hot path; `a1` keeps their
/// storage dense. The data-plane pair runs once per queued batch and
/// per drained frame, which at a 10k-node convergecast funnel is the
/// same per-event cadence as the engine itself.
const HOT_PATHS: [&str; 6] = [
    ENGINE_DIR,
    "crates/gs3-sim/src/queue.rs",
    "crates/gs3-sim/src/spatial.rs",
    "crates/gs3-sim/src/channel.rs",
    "crates/gs3-dataplane/src/queue.rs",
    "crates/gs3-core/src/workload.rs",
];

/// `a1`: heap indirection in hot-path storage. The engine's scaling
/// contract is arena/SoA columns indexed by dense `u32` node ids: a
/// per-node `Box`/`Rc` adds a pointer chase per event, and a map/set
/// keyed by id adds a hash or tree walk where `column[id.index()]` is a
/// single load. (`FxHashMap` keyed by *cell coordinates* in the spatial
/// grid is the deliberate exception — cell keys are sparse — and is not
/// a std type, so it does not trip this rule.)
pub fn check_a1(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    if !listed(&HOT_PATHS, rel) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = |s: &str| toks.get(i + 1).is_some_and(|n| n.text == s);
        match t.text.as_str() {
            "Box" | "Rc" if next("<") || next("::") => push(
                findings,
                "a1",
                rel,
                t.line,
                format!(
                    "{} in the per-event hot path: per-node heap indirection defeats the \
                     arena/SoA layout — store the value inline in a dense column",
                    t.text
                ),
            ),
            "HashMap" | "HashSet" | "BTreeMap" | "BTreeSet" => push(
                findings,
                "a1",
                rel,
                t.line,
                format!(
                    "std {} in the per-event hot path: keyed lookups cost a hash/tree walk \
                     per event — index a dense Vec column by NodeId instead",
                    t.text
                ),
            ),
            _ => {}
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

/// Index of the `)` matching the `(` at `open`.
fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the `(` matching the `)` at `close`.
fn matching_open(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    for j in (0..=close).rev() {
        match toks[j].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// `t1`: protocol dispatch totality over `Msg`/`Timer`.
pub fn check_t1(rel: &str, toks: &[Tok], model: &ProtocolModel, findings: &mut Vec<Finding>) {
    if !rel.starts_with("crates/gs3-core/src") {
        return;
    }
    for m in find_matches(toks) {
        let mut by_enum: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (e, v, _) in &m.pattern_variants {
            by_enum.entry(e.as_str()).or_default().insert(v.as_str());
        }
        if by_enum.is_empty() {
            continue;
        }
        // A wildcard arm in a match that dispatches on protocol enums hides
        // newly added variants from the compiler's exhaustiveness check.
        if let Some(line) = m.wildcard {
            push(
                findings,
                "t1",
                rel,
                line,
                "wildcard `_ =>` arm in a protocol dispatch match — name every \
                 Msg/Timer variant so new variants fail to compile until handled"
                    .to_string(),
            );
        }
        for (enum_name, seen) in &by_enum {
            let all = match *enum_name {
                "Msg" => &model.msg_variants,
                _ => &model.timer_variants,
            };
            if all.is_empty() {
                continue;
            }
            // Near-total matches (≥ half the enum) are dispatch matches and
            // must be total; small matches are ordinary conditionals.
            let threshold = (all.len() / 2).max(2);
            if seen.len() >= threshold && seen.len() < all.len() {
                let missing: Vec<&str> = all
                    .iter()
                    .map(String::as_str)
                    .filter(|v| !seen.contains(*v))
                    .collect();
                push(
                    findings,
                    "t1",
                    rel,
                    m.line,
                    format!(
                        "dispatch match covers {}/{} {enum_name} variants — missing: {}",
                        seen.len(),
                        all.len(),
                        missing.join(", ")
                    ),
                );
            }
        }
    }
}

/// `t2` (workspace pass over `gs3-core`): every timer class that is set
/// must have a reachable expiry arm in some dispatch match.
pub fn check_t2(files: &[(String, Vec<Tok>)], model: &ProtocolModel, findings: &mut Vec<Finding>) {
    if model.timer_variants.is_empty() {
        return;
    }
    // (variant, rel, line) of each first set site, and the handled set.
    let mut set_sites: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut handled: BTreeSet<String> = BTreeSet::new();
    for (rel, toks) in files {
        if !rel.starts_with("crates/gs3-core/src") {
            continue;
        }
        for m in find_matches(toks) {
            for (e, v, _) in &m.pattern_variants {
                if e == "Timer" {
                    handled.insert(v.clone());
                }
            }
        }
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && t.text == "set_timer"
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
            {
                let close = matching_close(toks, i + 1).unwrap_or(toks.len() - 1);
                for k in i + 2..close.saturating_sub(2) {
                    if toks[k].text == "Timer"
                        && toks[k + 1].text == "::"
                        && toks[k + 2].kind == TokKind::Ident
                    {
                        set_sites
                            .entry(toks[k + 2].text.clone())
                            .or_insert_with(|| (rel.clone(), toks[k].line));
                    }
                }
            }
        }
    }
    for (variant, (rel, line)) in &set_sites {
        if !handled.contains(variant) {
            findings.push(Finding {
                rule: "t2",
                rel: rel.clone(),
                line: *line,
                msg: format!(
                    "Timer::{variant} is set here but no dispatch match handles its expiry \
                     — the timer would fire into an unhandled arm"
                ),
                allowed: None,
            });
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
pub fn check_d4(files: &[(String, Vec<Tok>)], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let toks_of: BTreeMap<&str, &[Tok]> =
        files.iter().map(|(rel, toks)| (rel.as_str(), toks.as_slice())).collect();
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

/// Iterator adapters whose order leaks to the consumer.
const ITER_FNS: [&str; 7] =
    ["iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter"];

/// Tokens in the consuming expression that erase or restore order: the
/// sort family, re-collection into ordered maps, and order-commutative
/// reductions.
const ORDER_SAFE: [&str; 16] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
    "BTreeMap",
    "BTreeSet",
    "sum",
    "count",
    "min",
    "max",
    "all",
    "any",
    "is_empty",
];

/// Whether an order-restoring/erasing token appears in the window. The
/// scan stops at a `fn` keyword so a lookahead tail never credits the
/// *next* item's tokens to this consumer.
fn order_safe_within(toks: &[Tok], start: usize, end: usize) -> bool {
    for t in &toks[start..end.min(toks.len())] {
        if t.kind == TokKind::Ident {
            if t.text == "fn" {
                return false;
            }
            if ORDER_SAFE.contains(&t.text.as_str()) {
                return true;
            }
        }
    }
    false
}

/// `d5`: iteration over hash-ordered containers in protocol paths.
/// Tracks names declared with `FxHashMap`/`FxHashSet` types and flags
/// iteration over them (plus every `for_each_cell` spatial-grid visit,
/// which forwards hash order to its closure) unless the consuming
/// expression sorts or reduces order away. Test functions are exempt —
/// they assert on sims, they don't feed digests.
pub fn check_d5(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    let scoped = rel.starts_with("crates/gs3-core/src")
        || rel.starts_with("crates/gs3-sim/src")
        || rel.starts_with("crates/gs3-dataplane/src");
    if !scoped || rel.ends_with("fxhash.rs") {
        return;
    }
    let test_bodies: Vec<(usize, usize)> = extract_fns(rel, toks)
        .into_iter()
        .filter(|f| f.is_test)
        .filter_map(|f| f.body)
        .collect();
    let in_test = |i: usize| test_bodies.iter().any(|&(a, b)| i > a && i < b);
    // Names declared with an FxHash* type (`name: FxHashMap<…>`,
    // `name: &FxHashMap<…>`, `name = FxHashMap::default()`).
    let mut tracked: BTreeSet<&str> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "FxHashMap" && t.text != "FxHashSet") {
            continue;
        }
        let name_at = |k: usize| {
            (toks[k].kind == TokKind::Ident).then(|| toks[k].text.as_str())
        };
        if i >= 2 && (toks[i - 1].text == ":" || toks[i - 1].text == "=") {
            tracked.extend(name_at(i - 2));
        } else if i >= 3 && toks[i - 1].text == "&" && toks[i - 2].text == ":" {
            tracked.extend(name_at(i - 3));
        }
    }
    let mut flagged: BTreeSet<u32> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(i) {
            continue;
        }
        // `name.iter()` family on a tracked container: audit to the end
        // of the statement for a sort or order-erasing reduction.
        if tracked.contains(t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.text == ".")
            && toks.get(i + 2).is_some_and(|n| {
                n.kind == TokKind::Ident && ITER_FNS.contains(&n.text.as_str())
            })
            && toks.get(i + 3).is_some_and(|n| n.text == "(")
        {
            // Audit through the statement plus a short tail: the
            // collect-then-sort idiom sorts in the *next* statement.
            let stmt_end = statement_end(toks, i);
            if !order_safe_within(toks, i, stmt_end + 40) && flagged.insert(t.line) {
                push(findings, "d5", rel, t.line, d5_msg(&t.text));
            }
        }
        // `for pat in …tracked…` headers: audit the loop body plus the
        // statements just after it (collect-then-sort idiom).
        if t.text == "for" {
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let header_hit = toks[i..j.min(toks.len())]
                .iter()
                .find(|h| h.kind == TokKind::Ident && tracked.contains(h.text.as_str()));
            if let (Some(hit), Some(close)) = (header_hit, matching_close(toks, j.min(toks.len().saturating_sub(1)))) {
                if !order_safe_within(toks, i, close + 40) && flagged.insert(hit.line) {
                    push(findings, "d5", rel, hit.line, d5_msg(&hit.text));
                }
            }
        }
        // Spatial-grid visits forward hash order into the closure.
        if t.text == "for_each_cell"
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            if let Some(close) = matching_close(toks, i + 1) {
                if !order_safe_within(toks, i, close + 40) && flagged.insert(t.line) {
                    push(
                        findings,
                        "d5",
                        rel,
                        t.line,
                        "for_each_cell visits spatial-grid cells in hash order — sort in \
                         the closure or prove the consumer order-independent"
                            .to_string(),
                    );
                }
            }
        }
    }
}

fn d5_msg(name: &str) -> String {
    format!(
        "iteration over FxHash-ordered `{name}` — hash order must not flow into \
         digests, wire traffic, or scheduling; sort the keys first or reduce \
         order-commutatively"
    )
}

/// End of the statement starting at token `i`: the next `;` at relative
/// bracket depth ≤ 0 (capped lookahead keeps pathological token streams
/// cheap).
fn statement_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i).take(400) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            ";" if depth <= 0 => return j,
            _ => {}
        }
    }
    (i + 400).min(toks.len())
}

/// `t3` (workspace pass): sender↔handler correspondence for `Msg` over
/// the call graph. A variant constructed in reachable non-test code must
/// be named by some reachable dispatch arm in `gs3-core`, and every
/// dispatch arm's variant must be constructed somewhere reachable (a
/// never-sent variant's arm is dead protocol surface). `messages.rs`
/// itself is exempt from the handler side — its `kind()`-style
/// introspection matches name every variant without handling any.
pub fn check_t3(
    files: &[(String, Vec<Tok>)],
    graph: &CallGraph,
    model: &ProtocolModel,
    findings: &mut Vec<Finding>,
) {
    if model.msg_variants.is_empty() {
        return;
    }
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
    let mut constructed: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut handled: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for (rel, toks) in files {
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
            if toks[k].text == "Msg"
                && toks[k + 1].text == "::"
                && toks[k + 2].kind == TokKind::Ident
                && !pattern[k]
                && in_live(k)
                && model.msg_variants.contains(&toks[k + 2].text)
            {
                constructed
                    .entry(toks[k + 2].text.clone())
                    .or_insert_with(|| (rel.clone(), toks[k].line));
            }
        }
        if rel.starts_with("crates/gs3-core/src") && !rel.ends_with("messages.rs") {
            for m in &matches {
                if !in_live(m.idx) {
                    continue;
                }
                for (e, v, line) in &m.pattern_variants {
                    if e == "Msg" {
                        handled.entry(v.clone()).or_insert_with(|| (rel.clone(), *line));
                    }
                }
            }
        }
    }
    for (variant, (rel, line)) in &constructed {
        if !handled.contains_key(variant) {
            push(
                findings,
                "t3",
                rel,
                *line,
                format!(
                    "Msg::{variant} is constructed here but no reachable gs3-core dispatch \
                     arm names it — the message would arrive unhandled"
                ),
            );
        }
    }
    for (variant, (rel, line)) in &handled {
        if !constructed.contains_key(variant) {
            push(
                findings,
                "t3",
                rel,
                *line,
                format!(
                    "dead protocol arm: Msg::{variant} is dispatched here but no reachable \
                     code constructs it"
                ),
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

/// Files the intra-run parallel DES roadmap item will shard across
/// threads; `a2` keeps them free of interior mutability and globals.
const A2_PATHS: [&str; 4] = [
    ENGINE_DIR,
    "crates/gs3-sim/src/queue.rs",
    "crates/gs3-sim/src/spatial.rs",
    "crates/gs3-sim/src/medium.rs",
];

/// Interior-mutability and ambient-global constructs banned by `a2`.
/// (`&'static` lifetimes never appear here: the lexer drops lifetime
/// tokens entirely, so a bare `static` ident is always a static item.)
const A2_BANNED: [&str; 12] = [
    "RefCell",
    "Cell",
    "UnsafeCell",
    "SyncUnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyCell",
    "LazyLock",
    "Mutex",
    "RwLock",
    "thread_local",
    "lazy_static",
];

/// `a2`: parallel readiness of the engine hot path. Interior mutability
/// makes a type `!Sync`; statics and `thread_local!` are ambient state a
/// sharded engine cannot replicate per worker. All engine state must be
/// owned fields passed explicitly.
pub fn check_a2(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    if !listed(&A2_PATHS, rel) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "static" {
            let mutable = toks.get(i + 1).is_some_and(|n| n.text == "mut");
            push(
                findings,
                "a2",
                rel,
                t.line,
                if mutable {
                    "`static mut` in an engine hot-path file is a data race the moment the \
                     parallel DES shards this code — move the state into an owned engine field"
                        .to_string()
                } else {
                    "static item in an engine hot-path file is ambient global state the \
                     parallel DES cannot replicate per worker — pass it explicitly or make \
                     it a `const`"
                        .to_string()
                },
            );
        } else if A2_BANNED.contains(&t.text.as_str()) {
            push(
                findings,
                "a2",
                rel,
                t.line,
                format!(
                    "`{}` in an engine hot-path file defeats `Sync` — the intra-run \
                     parallel DES needs explicit state passing, not interior mutability \
                     or ambient globals",
                    t.text
                ),
            );
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

    #[test]
    fn d1_flags_only_protocol_paths() {
        let src = "use std::collections::HashMap;";
        let mut f = Vec::new();
        check_d1("crates/gs3-core/src/x.rs", &lex(src).toks, &mut f);
        assert_eq!(f.len(), 1);
        let mut f = Vec::new();
        check_d1("crates/gs3-analysis/src/x.rs", &lex(src).toks, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn d2_duration_is_exempt() {
        let src = "use std::time::Duration; fn f() -> Duration { Duration::ZERO }";
        let mut f = Vec::new();
        check_d2("crates/gs3-bench/src/x.rs", &lex(src).toks, &mut f);
        assert!(f.is_empty());
        let src = "use std::time::Instant; let t = Instant::now();";
        let mut f = Vec::new();
        check_d2("crates/gs3-bench/src/x.rs", &lex(src).toks, &mut f);
        assert_eq!(f.len(), 2, "import + call site");
    }

    #[test]
    fn d2_exempts_the_sim_clock() {
        let src = "let t = Instant::now();";
        let mut f = Vec::new();
        check_d2("crates/gs3-sim/src/time.rs", &lex(src).toks, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn a1_flags_only_hot_paths() {
        let src = "struct S { n: Vec<Box<Node>>, m: BTreeMap<u32, u64> } fn f() { Rc::new(3); }";
        let mut f = Vec::new();
        check_a1("crates/gs3-sim/src/engine/mod.rs", &lex(src).toks, &mut f);
        assert_eq!(f.len(), 3);
        // Cold-path files in the same crate keep their ordered maps.
        let mut f = Vec::new();
        check_a1("crates/gs3-sim/src/trace.rs", &lex(src).toks, &mut f);
        assert!(f.is_empty());
        // The data-plane per-batch path is held to the same standard...
        let mut f = Vec::new();
        check_a1("crates/gs3-core/src/workload.rs", &lex(src).toks, &mut f);
        assert_eq!(f.len(), 3);
        // ...but the sink ledger's sparse-keyed replay map is cold-path.
        let mut f = Vec::new();
        check_a1("crates/gs3-dataplane/src/ledger.rs", &lex(src).toks, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn a1_ignores_bare_idents_and_fxhashmap() {
        // A plain ident that merely shadows the name is not heap storage,
        // and the cell-keyed FxHashMap alias is the sanctioned exception.
        let src = "let cells: FxHashMap<(i64, i64), Vec<usize>> = FxHashMap::default();";
        let mut f = Vec::new();
        check_a1("crates/gs3-sim/src/spatial.rs", &lex(src).toks, &mut f);
        assert!(f.is_empty());
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

    #[test]
    fn t2_set_without_handler() {
        let model = ProtocolModel {
            timer_variants: ["Ping", "Pong"].iter().map(|s| s.to_string()).collect(),
            ..ProtocolModel::default()
        };
        let src = "\
fn f(ctx: &mut Ctx) {
    ctx.set_timer(d, Timer::Ping);
    ctx.set_timer(d, Timer::Pong);
    match t {
        Timer::Ping => {}
        Timer::Pong => {}
    }
}\n";
        let files = vec![("crates/gs3-core/src/x.rs".to_string(), lex(src).toks)];
        let mut f = Vec::new();
        check_t2(&files, &model, &mut f);
        assert!(f.is_empty());

        let src2 = "fn f(ctx: &mut Ctx) { ctx.set_timer(d, Timer::Pong); match t { Timer::Ping => {} } }";
        let files = vec![("crates/gs3-core/src/x.rs".to_string(), lex(src2).toks)];
        let mut f = Vec::new();
        check_t2(&files, &model, &mut f);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("Timer::Pong"));
    }

    fn lex_files(srcs: &[(&str, &str)]) -> Vec<(String, Vec<Tok>)> {
        srcs.iter().map(|(rel, s)| (rel.to_string(), lex(s).toks)).collect()
    }

    fn graph_of(files: &[(String, Vec<Tok>)]) -> CallGraph {
        CallGraph::build(files.iter().map(|(rel, toks)| (rel.as_str(), toks.as_slice())))
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

    fn run_d5(rel: &str, src: &str) -> Vec<Finding> {
        let mut f = Vec::new();
        check_d5(rel, &lex(src).toks, &mut f);
        f
    }

    #[test]
    fn d5_unsorted_iteration_is_flagged() {
        let src = "struct S { m: FxHashMap<u32, u64> } \
                   impl S { fn leak(&self, d: &mut Digest) { \
                     for (k, v) in self.m.iter() { d.push(*k); } } }";
        let f = run_d5("crates/gs3-sim/src/metrics.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "d5");
    }

    #[test]
    fn d5_sorted_and_commutative_consumers_are_clean() {
        let src = "struct S { m: FxHashMap<u32, u64> } \
                   impl S { \
                     fn ok(&self) -> Vec<u32> { \
                       let mut ks: Vec<u32> = self.m.keys().copied().collect(); \
                       ks.sort_unstable(); ks } \
                     fn total(&self) -> u64 { self.m.values().sum() } }";
        let f = run_d5("crates/gs3-sim/src/metrics.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d5_for_each_cell_and_scope() {
        let src = "fn scan(g: &Grid) { g.for_each_cell(|c| emit(c)); }";
        assert_eq!(run_d5("crates/gs3-core/src/invariants.rs", src).len(), 1);
        // Out-of-scope crates and test fns are exempt.
        assert!(run_d5("crates/gs3-analysis/src/x.rs", src).is_empty());
        let test_src = "#[cfg(test)] mod tests { use super::*; #[test] fn t() { \
                        let m: FxHashMap<u32, u32> = FxHashMap::default(); \
                        for k in m.keys() { check(k); } } }";
        assert!(run_d5("crates/gs3-sim/src/metrics.rs", test_src).is_empty());
    }

    fn run_t3(srcs: &[(&str, &str)], msg_variants: &[&str]) -> Vec<Finding> {
        let files = lex_files(srcs);
        let graph = graph_of(&files);
        let model = ProtocolModel {
            msg_variants: msg_variants.iter().map(|s| s.to_string()).collect(),
            ..ProtocolModel::default()
        };
        let mut f = Vec::new();
        check_t3(&files, &graph, &model, &mut f);
        f
    }

    #[test]
    fn t3_roundtrip_is_clean() {
        let f = run_t3(
            &[(
                "crates/gs3-core/src/node.rs",
                "fn send(ctx: &mut Ctx) { ctx.emit(Msg::Ping(3)); } \
                 fn on_message(m: Msg) { match m { Msg::Ping(x) => on_ping(x), } } \
                 fn on_ping(x: u32) {}",
            )],
            &["Ping"],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn t3_constructed_but_unhandled() {
        let f = run_t3(
            &[(
                "crates/gs3-core/src/node.rs",
                "fn send(ctx: &mut Ctx) { ctx.emit(Msg::Ping(3)); } \
                 fn on_message(m: Msg) { match m { Msg::Pong => {} } } \
                 fn send2(ctx: &mut Ctx) { ctx.emit(Msg::Pong); }",
            )],
            &["Ping", "Pong"],
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("Msg::Ping"));
        assert!(f[0].msg.contains("unhandled"));
    }

    #[test]
    fn t3_dead_arm() {
        let f = run_t3(
            &[(
                "crates/gs3-core/src/node.rs",
                "fn on_message(m: Msg) { match m { Msg::Ping(x) => {} Msg::Pong => {} } } \
                 fn send(ctx: &mut Ctx) { ctx.emit(Msg::Ping(3)); }",
            )],
            &["Ping", "Pong"],
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("dead protocol arm"));
        assert!(f[0].msg.contains("Msg::Pong"));
    }

    #[test]
    fn t3_patterns_do_not_count_as_constructions() {
        // `if let` and `matches!` mention variants without sending them.
        let f = run_t3(
            &[(
                "crates/gs3-core/src/node.rs",
                "fn peek(m: &Msg) -> bool { \
                   if let Msg::Ping(_) = m { return true; } \
                   matches!(m, Msg::Ping(_)) } \
                 fn on_message(m: Msg) { match m { Msg::Ping(x) => {} } }",
            )],
            &["Ping"],
        );
        assert_eq!(f.len(), 1, "Ping is handled but never constructed: {f:?}");
        assert!(f[0].msg.contains("dead protocol arm"));
    }

    #[test]
    fn a2_bans_interior_mutability_and_statics() {
        let src = "static mut COUNTER: u64 = 0; \
                   struct S { c: RefCell<u32>, q: Mutex<Vec<u8>> } \
                   fn f() { thread_local!(static TL: u32 = 0); }";
        let mut f = Vec::new();
        check_a2("crates/gs3-sim/src/queue.rs", &lex(src).toks, &mut f);
        // static mut, RefCell, Mutex, thread_local, inner static.
        assert_eq!(f.len(), 5, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "a2"));
        assert!(f[0].msg.contains("data race"));
        // Same tokens in a cold-path file are fine.
        let mut f = Vec::new();
        check_a2("crates/gs3-sim/src/trace.rs", &lex(src).toks, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn a2_static_lifetimes_do_not_trip() {
        // The lexer drops lifetime tokens, so `&'static str` is invisible.
        let src = "fn name(&self) -> &'static str { \"engine\" }";
        let mut f = Vec::new();
        check_a2("crates/gs3-sim/src/engine/mod.rs", &lex(src).toks, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn engine_rules_follow_the_directory() {
        // A stage file nobody has listed by name is in scope for a1, a2
        // and d4 because it sits under the engine directory; a sibling of
        // the directory is not.
        let stage = "crates/gs3-sim/src/engine/some_new_stage.rs";
        let src = "struct S { m: BTreeMap<u32, u64>, c: RefCell<u8> }";
        for (rel, hits) in [(stage, 1), ("crates/gs3-sim/src/engine_notes.rs", 0)] {
            let (mut a1, mut a2) = (Vec::new(), Vec::new());
            check_a1(rel, &lex(src).toks, &mut a1);
            check_a2(rel, &lex(src).toks, &mut a2);
            assert_eq!((a1.len(), a2.len()), (hits, hits), "{rel}");
        }
        assert_eq!(gate_guards(stage), gate_guards("crates/gs3-sim/src/medium.rs"));
        assert!(gate_guards(stage).is_some());
        assert!(gate_guards("crates/gs3-sim/src/engine_notes.rs").is_none());
    }
}
