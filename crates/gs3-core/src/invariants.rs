//! The paper's invariant and fixpoint predicates as executable checks.
//!
//! Each function verifies one family of predicates from Sections 3.3 / 4.3
//! against a [`Snapshot`] and reports violations. [`check_all_with`]
//! bundles the full suite. The geometric checks read a [`SnapshotIndex`]
//! of the same snapshot; `Network::view` keeps one up to date per
//! network. The checks implement the *dynamic* relaxations (I₂ with
//! `⟨ICC, ICP⟩`-dependent distances, ≤5 children) when `strictness` is
//! [`Strictness::Dynamic`], and the tight static bounds when
//! [`Strictness::Static`].

use std::collections::{BTreeMap, BTreeSet};

use gs3_geometry::{head_spacing, Point, SQRT_3};
use gs3_sim::spatial::SpatialGrid;
use gs3_sim::NodeId;

use crate::snapshot::{NodeView, RoleView, Snapshot};

/// Which bound set to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strictness {
    /// GS³-S bounds (Theorem 1): ≤3 children per small head, distances in
    /// `[√3R − 2R_t, √3R + 2R_t]`.
    Static,
    /// GS³-D/M relaxations (Theorem 5): ≤5 children, IL-relative distance
    /// bounds, boundary-cell slack.
    Dynamic,
}

/// One violated predicate instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which predicate family failed.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
}

/// The predicate families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// I₁.₂ — the head graph is not a tree rooted at the big node.
    HeadGraphNotTree,
    /// I₁.₁ — heads connected in `G_h` are not connected in `G_p`.
    HeadGraphUnreachable,
    /// I₂.₁/I₂.₂ — neighboring-head distance out of bounds.
    NeighborDistance,
    /// I₂.₃ — too many children.
    ChildrenCount,
    /// I₂.₄ — an associate is too far from its head.
    CellRadius,
    /// I₃/F₃ — an associate is not with its best (closest) head.
    NotBestHead,
    /// F₄ — a node connected to the big node is not in any cell.
    Coverage,
    /// A head strayed more than `R_t` from its IL.
    HeadOffIdeal,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// Numeric slack applied to all geometric comparisons (covers float error
/// and in-flight position updates).
const EPS: f64 = 1e-6;

fn head_fields(n: &NodeView) -> Option<(Point, NodeId, u32, &Vec<NodeId>)> {
    match &n.role {
        RoleView::Head { il, parent, hops, children, .. } => Some((*il, *parent, *hops, children)),
        _ => None,
    }
}

/// The per-node facts the index is derived from. The incremental
/// [`SnapshotIndex::update`] diffs these against a new snapshot to find
/// what changed; anything not captured here cannot affect the index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fact {
    alive: bool,
    pos: Point,
    /// `Some(il)` iff the node is an *alive head* (the only heads the
    /// index tracks); dead or non-head nodes carry `None`.
    il: Option<Point>,
}

impl Fact {
    /// The fact for a node index the snapshot has not reached yet.
    const ABSENT: Fact = Fact { alive: false, pos: Point::ORIGIN, il: None };

    fn of(n: &NodeView) -> Fact {
        let il = if n.alive { head_fields(n).map(|(il, ..)| il) } else { None };
        Fact { alive: n.alive, pos: n.pos, il }
    }
}

/// A per-snapshot spatial index shared by all geometric checks.
///
/// Built once in `O(n)`, it replaces the all-pairs scans inside the
/// distance predicates with hash-grid range queries, making
/// [`check_all_with`] near-linear in network size. Grid handles are
/// indices into `Snapshot::nodes`, so every query resolves to a
/// `NodeView` without a map lookup.
///
/// `Network::view` keeps one index alive per network and
/// [`update`](SnapshotIndex::update)s it against each new snapshot: the
/// cost of a poll is then proportional to the churn since the last one,
/// not the population.
/// [`build`](SnapshotIndex::build) stays the from-scratch path and the
/// equality oracle for the incremental one.
#[derive(Debug, Clone)]
pub struct SnapshotIndex {
    /// Indices of alive heads, ascending (snapshot order).
    heads: Vec<usize>,
    /// Alive-head positions; cell edge = lattice spacing.
    head_pos: SpatialGrid,
    /// Alive-head ILs; cell edge = lattice spacing.
    head_il: SpatialGrid,
    /// All alive nodes; cell edge = `max_range` (physical connectivity).
    alive: SpatialGrid,
    /// The lattice spacing `√3·R` the head grids quantize by.
    spacing: f64,
    /// Heads whose six lattice-neighbor ILs are all occupied (inner cells).
    inner: BTreeSet<NodeId>,
    /// `inner` as a by-node-index mask for O(1) lookups on hot paths.
    inner_mask: Vec<bool>,
    /// The facts the grids currently reflect, for delta detection.
    facts: Vec<Fact>,
}

impl SnapshotIndex {
    /// Indexes `snap`: one pass over the nodes plus the inner-cell
    /// classification.
    #[must_use]
    pub fn build(snap: &Snapshot) -> Self {
        let spacing = head_spacing(snap.r);
        let head_cell = spacing.max(1.0);
        let mut heads = Vec::new();
        let mut head_pos = SpatialGrid::new(head_cell);
        let mut head_il = SpatialGrid::new(head_cell);
        // Cell edge `max_range/√2` makes a cell's diagonal exactly
        // `max_range`: nodes sharing a cell are directly connected, which
        // lets the connectivity pass union whole cells at once.
        let mut alive = SpatialGrid::new((snap.max_range / std::f64::consts::SQRT_2).max(1.0));
        let mut facts = Vec::with_capacity(snap.nodes.len());
        for (i, n) in snap.nodes.iter().enumerate() {
            let fact = Fact::of(n);
            if fact.alive {
                alive.insert(i, fact.pos);
            }
            if let Some(il) = fact.il {
                heads.push(i);
                head_pos.insert(i, fact.pos);
                head_il.insert(i, il);
            }
            facts.push(fact);
        }
        let mut inner = BTreeSet::new();
        let mut inner_mask = vec![false; snap.nodes.len()];
        for &i in &heads {
            let il = facts[i].il.expect("indexed heads are heads");
            if lattice_neighbor_count(i, il, &head_il, &facts, spacing) >= 6 {
                inner.insert(snap.nodes[i].id);
                inner_mask[i] = true;
            }
        }
        SnapshotIndex { heads, head_pos, head_il, alive, spacing, inner, inner_mask, facts }
    }

    /// Brings the index up to date with `snap` by applying the deltas
    /// since the snapshot it currently reflects: spawn/kill flips move
    /// nodes in and out of the alive grid, role changes and head shifts
    /// maintain the head grids, and the inner-cell classification is
    /// redone only for heads within one neighbor radius of a changed IL.
    /// Equivalent to `*self = SnapshotIndex::build(snap)` (the oracle the
    /// churn tests compare against), at a cost proportional to the churn.
    ///
    /// `snap` must be a later snapshot of the *same network*: same `r` and
    /// `max_range` (the grid geometry is fixed at build time) and node
    /// indices never reused — snapshots only grow.
    ///
    /// # Panics
    ///
    /// Panics if `snap` has fewer nodes than the previously-indexed
    /// snapshot.
    pub fn update(&mut self, snap: &Snapshot) {
        debug_assert_eq!(
            self.spacing,
            head_spacing(snap.r),
            "index reuse requires a constant R"
        );
        let n = snap.nodes.len();
        assert!(n >= self.facts.len(), "snapshots only grow: ids are never reused");
        self.facts.resize(n, Fact::ABSENT);
        self.inner_mask.resize(n, false);
        // ILs that appeared, vanished, or moved; only heads within one
        // neighbor radius of one of these can change inner status.
        let mut dirty_ils: Vec<Point> = Vec::new();
        for (i, node) in snap.nodes.iter().enumerate() {
            let new = Fact::of(node);
            let old = self.facts[i];
            if new == old {
                continue;
            }
            match (old.alive, new.alive) {
                (false, true) => self.alive.insert(i, new.pos),
                (true, false) => self.alive.remove(i, old.pos),
                (true, true) => self.alive.relocate(i, old.pos, new.pos),
                (false, false) => {}
            }
            match (old.il, new.il) {
                (None, Some(il)) => {
                    self.head_pos.insert(i, new.pos);
                    self.head_il.insert(i, il);
                    let at = self.heads.binary_search(&i).unwrap_err();
                    self.heads.insert(at, i);
                    dirty_ils.push(il);
                }
                (Some(il), None) => {
                    self.head_pos.remove(i, old.pos);
                    self.head_il.remove(i, il);
                    if let Ok(at) = self.heads.binary_search(&i) {
                        self.heads.remove(at);
                    }
                    if self.inner_mask[i] {
                        self.inner_mask[i] = false;
                        self.inner.remove(&node.id);
                    }
                    dirty_ils.push(il);
                }
                (Some(old_il), Some(new_il)) => {
                    self.head_pos.relocate(i, old.pos, new.pos);
                    if old_il != new_il {
                        self.head_il.relocate(i, old_il, new_il);
                        dirty_ils.push(old_il);
                        dirty_ils.push(new_il);
                    }
                }
                (None, None) => {}
            }
            self.facts[i] = new;
        }
        if dirty_ils.is_empty() {
            return;
        }
        let mut affected: Vec<usize> = Vec::new();
        for &q in &dirty_ils {
            self.head_il.for_each_candidate(q, 1.25 * self.spacing, |j| affected.push(j));
        }
        affected.sort_unstable();
        affected.dedup();
        for &i in &affected {
            let il = self.facts[i].il.expect("IL-grid members are alive heads");
            let is_inner =
                lattice_neighbor_count(i, il, &self.head_il, &self.facts, self.spacing) >= 6;
            if is_inner != self.inner_mask[i] {
                self.inner_mask[i] = is_inner;
                if is_inner {
                    self.inner.insert(snap.nodes[i].id);
                } else {
                    self.inner.remove(&snap.nodes[i].id);
                }
            }
        }
    }

    /// Heads whose six lattice-neighbor ILs are all occupied by other
    /// heads — the paper's *inner* cells. Everything else is a boundary
    /// cell.
    #[must_use]
    pub fn inner_heads(&self) -> &BTreeSet<NodeId> {
        &self.inner
    }

    /// True when `id` is an inner-cell head (O(1)).
    #[must_use]
    pub fn is_inner(&self, id: NodeId) -> bool {
        self.inner_mask.get(id.raw() as usize).copied().unwrap_or(false)
    }
}

/// How many of head `i`'s six lattice-neighbor ILs are occupied by other
/// heads (IL at distance `spacing ± 0.25·spacing`), via an IL-grid range
/// query.
fn lattice_neighbor_count(
    i: usize,
    il: Point,
    head_il: &SpatialGrid,
    facts: &[Fact],
    spacing: f64,
) -> usize {
    let mut count = 0usize;
    head_il.for_each_candidate(il, 1.25 * spacing, |j| {
        if j == i {
            return;
        }
        let o_il = facts[j].il.expect("IL-grid members are alive heads");
        if (il.distance(o_il) - spacing).abs() <= spacing * 0.25 {
            count += 1;
        }
    });
    count
}

/// I₁.₂: the head graph is a tree rooted at the big node (or at its proxy
/// / current root when the big node is away): exactly one root, every head
/// reaches it by parent pointers, and hops are consistent along the way.
#[must_use]
pub fn check_head_graph_tree(snap: &Snapshot) -> Vec<Violation> {
    let mut out = Vec::new();
    let heads: BTreeMap<NodeId, &NodeView> = snap.heads().map(|n| (n.id, n)).collect();
    if heads.is_empty() {
        return vec![Violation {
            kind: ViolationKind::HeadGraphNotTree,
            detail: "no heads at all".into(),
        }];
    }
    let roots: Vec<NodeId> = heads
        .values()
        .filter_map(|n| head_fields(n).filter(|(_, p, ..)| *p == n.id).map(|_| n.id))
        .collect();
    if roots.len() != 1 {
        out.push(Violation {
            kind: ViolationKind::HeadGraphNotTree,
            detail: format!("expected exactly 1 root, found {roots:?}"),
        });
    }
    // Walk parent pointers from every head; must terminate at a root
    // without revisiting (cycle detection).
    for (&id, view) in &heads {
        let mut seen = BTreeSet::new();
        let mut cur = id;
        loop {
            if !seen.insert(cur) {
                out.push(Violation {
                    kind: ViolationKind::HeadGraphNotTree,
                    detail: format!("parent cycle through {cur}"),
                });
                break;
            }
            let Some(h) = heads.get(&cur) else {
                out.push(Violation {
                    kind: ViolationKind::HeadGraphNotTree,
                    detail: format!("{id}'s ancestor {cur} is not an alive head"),
                });
                break;
            };
            let (_, parent, ..) = head_fields(h).expect("heads() yields heads");
            if parent == cur {
                break; // reached the root
            }
            cur = parent;
        }
        let _ = view;
    }
    out
}

/// The root each head reaches by following parent pointers, or `None`
/// when the chain is broken (cycle, or an ancestor that is not an alive
/// head).
#[must_use]
pub fn head_roots(snap: &Snapshot) -> BTreeMap<NodeId, Option<NodeId>> {
    let heads: BTreeMap<NodeId, &NodeView> = snap.heads().map(|n| (n.id, n)).collect();
    let mut out = BTreeMap::new();
    for &id in heads.keys() {
        let mut seen = BTreeSet::new();
        let mut cur = id;
        let root = loop {
            if !seen.insert(cur) {
                break None; // cycle
            }
            let Some(h) = heads.get(&cur) else {
                break None; // dead ancestor
            };
            let (_, parent, ..) = head_fields(h).expect("heads() yields heads");
            if parent == cur {
                break Some(cur);
            }
            cur = parent;
        };
        out.insert(id, root);
    }
    out
}

/// Multi-big-node variant of I₁.₂ (the paper's Section 7 extension): the
/// head graph is a *forest* with exactly `expected_roots` trees, every
/// head's parent chain terminating at some root.
#[must_use]
pub fn check_head_graph_forest(snap: &Snapshot, expected_roots: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    let roots = head_roots(snap);
    let distinct: BTreeSet<NodeId> = roots.values().flatten().copied().collect();
    if distinct.len() != expected_roots {
        out.push(Violation {
            kind: ViolationKind::HeadGraphNotTree,
            detail: format!("expected {expected_roots} roots, found {distinct:?}"),
        });
    }
    for (id, root) in &roots {
        if root.is_none() {
            out.push(Violation {
                kind: ViolationKind::HeadGraphNotTree,
                detail: format!("head {id} has a broken parent chain"),
            });
        }
    }
    out
}

/// I₁.₁: every parent-child edge of the head graph is realizable in the
/// physical network `G_p` (both endpoints within transmission range — the
/// paper's heads communicate directly within `√3R + 2R_t`).
#[must_use]
pub fn check_head_graph_physical(snap: &Snapshot) -> Vec<Violation> {
    let mut out = Vec::new();
    let heads: BTreeMap<NodeId, &NodeView> = snap.heads().map(|n| (n.id, n)).collect();
    for (&id, view) in &heads {
        let (_, parent, ..) = head_fields(view).expect("heads() yields heads");
        if parent == id {
            continue;
        }
        if let Some(p) = heads.get(&parent) {
            let d = view.pos.distance(p.pos);
            if d > snap.max_range + EPS {
                out.push(Violation {
                    kind: ViolationKind::HeadGraphUnreachable,
                    detail: format!("edge {id}→{parent} spans {d:.1} > range {}", snap.max_range),
                });
            }
        }
    }
    out
}

/// I₂.₁/I₂.₂: distances between *neighboring* heads stay within
/// `dist(IL_i, IL_j) ± 2R_t` (which reduces to `√3R ± 2R_t` when both
/// cells are at the same `⟨ICC, ICP⟩`). Two heads are treated as
/// neighbors when their ILs are within 1.25 lattice spacings; each head
/// range-queries the IL grid for them instead of scanning all pairs.
#[must_use]
pub fn check_neighbor_distances_with(snap: &Snapshot, idx: &SnapshotIndex) -> Vec<Violation> {
    let mut out = Vec::new();
    let spacing = idx.spacing;
    let mut cand: Vec<usize> = Vec::new();
    for &i in &idx.heads {
        let a = &snap.nodes[i];
        let (il_a, ..) = head_fields(a).expect("indexed heads are heads");
        cand.clear();
        idx.head_il.for_each_candidate(il_a, 1.25 * spacing, |j| {
            // Each unordered pair is judged once, from its lower index.
            if j > i {
                cand.push(j);
            }
        });
        // Ascending order reproduces the all-pairs enumeration exactly.
        cand.sort_unstable();
        for &j in &cand {
            let b = &snap.nodes[j];
            let (il_b, ..) = head_fields(b).expect("indexed heads are heads");
            let ideal = il_a.distance(il_b);
            if ideal > 1.25 * spacing || ideal < EPS {
                continue;
            }
            let actual = a.pos.distance(b.pos);
            if (actual - ideal).abs() > 2.0 * snap.r_t + EPS {
                out.push(Violation {
                    kind: ViolationKind::NeighborDistance,
                    detail: format!(
                        "heads {} and {}: |{actual:.1} − {ideal:.1}| > 2·R_t = {:.1}",
                        a.id,
                        b.id,
                        2.0 * snap.r_t
                    ),
                });
            }
        }
    }
    out
}

/// I₂.₃: children counts — small heads ≤3 (static) / ≤5 (dynamic); the
/// big node ≤6.
#[must_use]
pub fn check_children_counts(snap: &Snapshot, strictness: Strictness) -> Vec<Violation> {
    let limit = match strictness {
        Strictness::Static => 3,
        Strictness::Dynamic => 5,
    };
    let mut out = Vec::new();
    for n in snap.heads() {
        let (_, parent, _, children) = head_fields(n).expect("head");
        // The big node — and any head acting as the root (the big node's
        // proxy) — sits at the lattice center of its neighborhood and
        // legitimately parents all six surrounding cells.
        let is_root = parent == n.id;
        let cap = if n.is_big || is_root { 6 } else { limit };
        if children.len() > cap {
            out.push(Violation {
                kind: ViolationKind::ChildrenCount,
                detail: format!("head {} has {} children (cap {cap})", n.id, children.len()),
            });
        }
    }
    out
}

/// I₂.₄: every associate is within the cell-radius bound of its head:
/// `R + 2R_t/√3` for inner cells, `√3R + 2R_t` for boundary cells (the
/// dynamic relaxation with `d_p = 0`; gap-adjacent cells can exceed this
/// and are excluded by the caller supplying `boundary_slack`). Inner cells
/// are the index's classification.
#[must_use]
pub fn check_cell_radius_with(
    snap: &Snapshot,
    boundary_slack: f64,
    idx: &SnapshotIndex,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let inner_bound = snap.r + 2.0 * snap.r_t / SQRT_3;
    let boundary_bound = SQRT_3 * snap.r + 2.0 * snap.r_t + boundary_slack;
    for n in snap.associates() {
        let RoleView::Associate { head, surrogate, .. } = &n.role else {
            continue;
        };
        if *surrogate {
            continue; // surrogate distance is bounded by radio range only
        }
        let Some(h) = snap.node(*head).filter(|h| h.alive && h.is_head()) else {
            continue; // dangling pointer is reported by coverage/tree checks
        };
        let d = n.pos.distance(h.pos);
        let bound = if idx.is_inner(*head) { inner_bound } else { boundary_bound };
        if d > bound + EPS {
            out.push(Violation {
                kind: ViolationKind::CellRadius,
                detail: format!(
                    "associate {} is {d:.1} from head {} (bound {bound:.1})",
                    n.id, h.id
                ),
            });
        }
    }
    out
}

/// F₃/I₃: each (inner-cell) associate is with the closest head. A
/// tolerance of `2·R_t` absorbs heads displaced within their candidate
/// areas while the associate's choice was made against an earlier position.
///
/// The associate's own head lies at distance `mine`, so the minimum over
/// heads the grid reports within radius `mine` *is* the global minimum —
/// no full scan needed. Two degenerate inputs are settled up front: a
/// non-finite `mine` (corrupted position) can never satisfy the violation
/// comparison, and `mine ≤ 2R_t` cannot exceed `best + 2R_t` for any
/// `best ≥ 0` — this includes a head sharing the associate's exact
/// position (`best = 0`), which previously relied on float comparison
/// behavior to come out right.
#[must_use]
pub fn check_best_head_with(snap: &Snapshot, inner_only: bool, idx: &SnapshotIndex) -> Vec<Violation> {
    let mut out = Vec::new();
    let tol = 2.0 * snap.r_t + EPS;
    for n in snap.associates() {
        let RoleView::Associate { head, surrogate, .. } = &n.role else {
            continue;
        };
        if *surrogate {
            continue;
        }
        if inner_only && !idx.is_inner(*head) {
            continue;
        }
        let Some(h) = snap.node(*head).filter(|h| h.alive && h.is_head()) else {
            continue;
        };
        let mine = n.pos.distance(h.pos);
        if !mine.is_finite() || mine <= tol {
            continue;
        }
        let own = head.raw() as usize;
        let mut best = mine;
        idx.head_pos.for_each_candidate(n.pos, mine, |j| {
            if j == own {
                return; // `mine` is already the distance to the own head
            }
            let d = n.pos.distance(snap.nodes[j].pos);
            if d < best {
                best = d;
            }
        });
        if mine > best + tol {
            out.push(Violation {
                kind: ViolationKind::NotBestHead,
                detail: format!(
                    "associate {}: its head {} is {mine:.1} away but the closest head is {best:.1}",
                    n.id, h.id
                ),
            });
        }
    }
    out
}

/// F₄: every alive node physically connected to the big node is in a cell
/// (head or associate). Connectivity reuses the index's alive-node grid.
#[must_use]
pub fn check_coverage_with(snap: &Snapshot, idx: &SnapshotIndex) -> Vec<Violation> {
    let reachable = connectivity_mask(snap, idx);
    let mut out = Vec::new();
    for (i, n) in snap.nodes.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        if matches!(n.role, RoleView::Bootup) {
            out.push(Violation {
                kind: ViolationKind::Coverage,
                detail: format!("node {} is connected to the big node but in no cell", n.id),
            });
        }
    }
    out
}

/// Extra structural check: a head must sit within `R_t` of its current IL
/// (by construction of `HEAD_SELECT` / head shift).
#[must_use]
pub fn check_heads_on_ideal(snap: &Snapshot) -> Vec<Violation> {
    let mut out = Vec::new();
    for n in snap.heads() {
        let (il, ..) = head_fields(n).expect("head");
        let d = n.pos.distance(il);
        if d > snap.r_t + EPS {
            out.push(Violation {
                kind: ViolationKind::HeadOffIdeal,
                detail: format!("head {} is {d:.1} from its IL (R_t = {})", n.id, snap.r_t),
            });
        }
    }
    out
}

/// The full predicate suite, every geometric check sharing `idx`.
#[must_use]
pub fn check_all_with(snap: &Snapshot, strictness: Strictness, idx: &SnapshotIndex) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(check_head_graph_tree(snap));
    out.extend(check_head_graph_physical(snap));
    out.extend(check_neighbor_distances_with(snap, idx));
    out.extend(check_children_counts(snap, strictness));
    out.extend(check_cell_radius_with(snap, 0.0, idx));
    out.extend(check_best_head_with(snap, true, idx));
    out.extend(check_coverage_with(snap, idx));
    out.extend(check_heads_on_ideal(snap));
    out
}

/// The set of alive nodes physically connected (multi-hop, links =
/// `max_range`) to the big node.
///
/// Connectivity is computed as union-find over the alive-node grid's
/// cells rather than a per-node BFS: nodes sharing a cell are within
/// `max_range` by construction (cell diagonal = `max_range`), so each
/// cell unions wholesale, and each pair of nearby cells needs at most one
/// witnessing edge before the whole pair is settled. Union order never
/// leaks into the result — components are a property of the edge set.
#[must_use]
pub fn physically_connected_to_big_with(snap: &Snapshot, idx: &SnapshotIndex) -> BTreeSet<NodeId> {
    let mask = connectivity_mask(snap, idx);
    let mut reachable = BTreeSet::new();
    for (i, n) in snap.nodes.iter().enumerate() {
        if mask[i] {
            reachable.insert(n.id);
        }
    }
    reachable
}

/// `mask[i]` = node `i` is alive and physically connected to the big node.
/// All-false when the big node is dead or out of range of the snapshot.
fn connectivity_mask(snap: &Snapshot, idx: &SnapshotIndex) -> Vec<bool> {
    let big_idx = snap.big.raw() as usize;
    if snap.nodes.get(big_idx).is_none_or(|b| !b.alive) {
        return vec![false; snap.nodes.len()];
    }
    let range = snap.max_range + EPS;
    let mut parent: Vec<usize> = (0..snap.nodes.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[rb] = ra;
        }
    }

    // Pass 1 — within-cell edges. The `max_range/√2` edge guarantees
    // same-cell adjacency unless the edge was clamped (degenerate tiny
    // ranges), in which case fall back to checked pairs.
    let wholesale = idx.alive.cell_edge() * std::f64::consts::SQRT_2 <= range;
    // gs3-lint: allow(d5) -- union-find edge insertion is order-independent: unions commute and only the final partition is consumed (see connectivity_mask_is_iteration_order_independent)
    idx.alive.for_each_cell(|_, members| {
        if wholesale {
            for &m in &members[1..] {
                union(&mut parent, members[0], m);
            }
        } else {
            for (k, &a) in members.iter().enumerate() {
                for &b in &members[k + 1..] {
                    if snap.nodes[a].pos.distance(snap.nodes[b].pos) <= range {
                        union(&mut parent, a, b);
                    }
                }
            }
        }
    });

    // Pass 2 — cross-cell edges. Cells at Chebyshev distance ≤ 2 are the
    // only ones whose gap can be ≤ `max_range`; each unordered pair is
    // visited once via the half-plane offsets, and one witnessing edge
    // settles the pair.
    const OFFSETS: [(i64, i64); 12] = [
        (0, 1),
        (0, 2),
        (1, -2),
        (1, -1),
        (1, 0),
        (1, 1),
        (1, 2),
        (2, -2),
        (2, -1),
        (2, 0),
        (2, 1),
        (2, 2),
    ];
    // gs3-lint: allow(d5) -- same union-find argument as pass 1: the early-skip shortcuts only elide redundant unions, so any cell order yields the same partition
    idx.alive.for_each_cell(|key, members| {
        for (dx, dy) in OFFSETS {
            let Some(other) = idx.alive.cell((key.0 + dx, key.1 + dy)) else {
                continue;
            };
            if find(&mut parent, members[0]) == find(&mut parent, other[0])
                && wholesale
            {
                continue; // both cells already fully in one component
            }
            'pair: for &a in members {
                for &b in other {
                    if snap.nodes[a].pos.distance(snap.nodes[b].pos) <= range {
                        union(&mut parent, a, b);
                        if wholesale {
                            break 'pair; // one edge settles the cell pair
                        }
                    }
                }
            }
        }
    });

    let big_root = find(&mut parent, big_idx);
    let mut mask = vec![false; snap.nodes.len()];
    for (i, n) in snap.nodes.iter().enumerate() {
        if n.alive && find(&mut parent, i) == big_root {
            mask[i] = true;
        }
    }
    mask
}

/// Reference `O(n²)` / BTreeMap implementations of the grid-accelerated
/// checks, compiled for tests only: the oracle the differential tests
/// below compare the grid engine against.
#[cfg(test)]
pub mod naive {
    use super::*;
    use std::collections::VecDeque;

    /// All-pairs version of [`check_neighbor_distances_with`](super::check_neighbor_distances_with).
    #[must_use]
    pub fn check_neighbor_distances(snap: &Snapshot) -> Vec<Violation> {
        let mut out = Vec::new();
        let spacing = head_spacing(snap.r);
        let heads: Vec<&NodeView> = snap.heads().collect();
        for (i, a) in heads.iter().enumerate() {
            let (il_a, ..) = head_fields(a).expect("head");
            for b in &heads[i + 1..] {
                let (il_b, ..) = head_fields(b).expect("head");
                let ideal = il_a.distance(il_b);
                if ideal > 1.25 * spacing || ideal < EPS {
                    continue;
                }
                let actual = a.pos.distance(b.pos);
                if (actual - ideal).abs() > 2.0 * snap.r_t + EPS {
                    out.push(Violation {
                        kind: ViolationKind::NeighborDistance,
                        detail: format!(
                            "heads {} and {}: |{actual:.1} − {ideal:.1}| > 2·R_t = {:.1}",
                            a.id,
                            b.id,
                            2.0 * snap.r_t
                        ),
                    });
                }
            }
        }
        out
    }

    /// Full-scan version of [`check_best_head_with`](super::check_best_head_with).
    #[must_use]
    pub fn check_best_head(snap: &Snapshot, inner_only: bool) -> Vec<Violation> {
        let mut out = Vec::new();
        let heads: Vec<&NodeView> = snap.heads().collect();
        let head_map: BTreeMap<NodeId, &NodeView> = heads.iter().map(|n| (n.id, *n)).collect();
        let inner = inner_heads(snap);
        for n in snap.associates() {
            let RoleView::Associate { head, surrogate, .. } = &n.role else {
                continue;
            };
            if *surrogate {
                continue;
            }
            if inner_only && !inner.contains(head) {
                continue;
            }
            let Some(h) = head_map.get(head) else {
                continue;
            };
            let mine = n.pos.distance(h.pos);
            if let Some(best) = heads.iter().map(|c| n.pos.distance(c.pos)).min_by(f64::total_cmp) {
                if mine > best + 2.0 * snap.r_t + EPS {
                    out.push(Violation {
                        kind: ViolationKind::NotBestHead,
                        detail: format!(
                            "associate {}: its head {} is {mine:.1} away but the closest head is {best:.1}",
                            n.id, h.id
                        ),
                    });
                }
            }
        }
        out
    }

    /// All-pairs version of [`SnapshotIndex::inner_heads`].
    #[must_use]
    pub fn inner_heads(snap: &Snapshot) -> BTreeSet<NodeId> {
        let spacing = head_spacing(snap.r);
        let heads: Vec<(NodeId, Point)> = snap
            .heads()
            .filter_map(|n| head_fields(n).map(|(il, ..)| (n.id, il)))
            .collect();
        let mut inner = BTreeSet::new();
        for (id, il) in &heads {
            let neighbor_count = heads
                .iter()
                .filter(|(other, o_il)| {
                    other != id && (il.distance(*o_il) - spacing).abs() <= spacing * 0.25
                })
                .count();
            if neighbor_count >= 6 {
                inner.insert(*id);
            }
        }
        inner
    }

    /// BTreeMap-bucketed version of
    /// [`physically_connected_to_big_with`](super::physically_connected_to_big_with).
    #[must_use]
    pub fn physically_connected_to_big(snap: &Snapshot) -> BTreeSet<NodeId> {
        let alive: Vec<&NodeView> = snap.nodes.iter().filter(|n| n.alive).collect();
        let mut reachable = BTreeSet::new();
        if snap.nodes.get(snap.big.raw() as usize).is_none_or(|b| !b.alive) {
            return reachable;
        }
        let cell = snap.max_range.max(1.0);
        let key = |p: Point| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        let mut grid: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
        for (idx, n) in alive.iter().enumerate() {
            grid.entry(key(n.pos)).or_default().push(idx);
        }
        let mut visited = vec![false; alive.len()];
        let start = alive
            .iter()
            .position(|n| n.id == snap.big)
            .expect("big node is alive by the guard above");
        visited[start] = true;
        reachable.insert(snap.big);
        let mut queue = VecDeque::from([start]);
        while let Some(cur) = queue.pop_front() {
            let p = alive[cur].pos;
            let (cx, cy) = key(p);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    let Some(bucket) = grid.get(&(cx + dx, cy + dy)) else {
                        continue;
                    };
                    for &cand in bucket {
                        if !visited[cand] && p.distance(alive[cand].pos) <= snap.max_range + EPS {
                            visited[cand] = true;
                            reachable.insert(alive[cand].id);
                            queue.push_back(cand);
                        }
                    }
                }
            }
        }
        reachable
    }

    /// [`check_all_with`](super::check_all_with) wired entirely through the naive
    /// geometric checks (the non-geometric checks are shared).
    #[must_use]
    pub fn check_all(snap: &Snapshot, strictness: Strictness) -> Vec<Violation> {
        let mut out = Vec::new();
        out.extend(super::check_head_graph_tree(snap));
        out.extend(super::check_head_graph_physical(snap));
        out.extend(check_neighbor_distances(snap));
        out.extend(super::check_children_counts(snap, strictness));
        out.extend(check_cell_radius(snap, 0.0));
        out.extend(check_best_head(snap, true));
        out.extend(check_coverage(snap));
        out.extend(super::check_heads_on_ideal(snap));
        out
    }

    /// [`check_cell_radius_with`](super::check_cell_radius_with) over the naive
    /// inner-cell classification.
    #[must_use]
    pub fn check_cell_radius(snap: &Snapshot, boundary_slack: f64) -> Vec<Violation> {
        let mut out = Vec::new();
        let heads: BTreeMap<NodeId, &NodeView> = snap.heads().map(|n| (n.id, n)).collect();
        let inner = inner_heads(snap);
        let inner_bound = snap.r + 2.0 * snap.r_t / SQRT_3;
        let boundary_bound = SQRT_3 * snap.r + 2.0 * snap.r_t + boundary_slack;
        for n in snap.associates() {
            let RoleView::Associate { head, surrogate, .. } = &n.role else {
                continue;
            };
            if *surrogate {
                continue;
            }
            let Some(h) = heads.get(head) else {
                continue;
            };
            let d = n.pos.distance(h.pos);
            let bound = if inner.contains(head) { inner_bound } else { boundary_bound };
            if d > bound + EPS {
                out.push(Violation {
                    kind: ViolationKind::CellRadius,
                    detail: format!(
                        "associate {} is {d:.1} from head {} (bound {bound:.1})",
                        n.id, h.id
                    ),
                });
            }
        }
        out
    }

    /// [`check_coverage_with`](super::check_coverage_with) over the naive BFS.
    #[must_use]
    pub fn check_coverage(snap: &Snapshot) -> Vec<Violation> {
        let reachable = physically_connected_to_big(snap);
        let mut out = Vec::new();
        for n in &snap.nodes {
            if !n.alive || !reachable.contains(&n.id) {
                continue;
            }
            if matches!(n.role, RoleView::Bootup) {
                out.push(Violation {
                    kind: ViolationKind::Coverage,
                    detail: format!("node {} is connected to the big node but in no cell", n.id),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs3_geometry::spiral::IccIcp;

    fn head(id: u64, pos: Point, il: Point, parent: u64, hops: u32, children: Vec<u64>) -> NodeView {
        NodeView {
            id: NodeId::new(id),
            pos,
            alive: true,
            is_big: id == 0,
            role: RoleView::Head {
                il,
                oil: il,
                icc_icp: IccIcp::ORIGIN,
                parent: NodeId::new(parent),
                hops,
                children: children.into_iter().map(NodeId::new).collect(),
                associates: vec![],
                is_proxy: false,
            },
            ids_stored: 1,
        }
    }

    fn assoc(id: u64, pos: Point, head: u64) -> NodeView {
        NodeView {
            id: NodeId::new(id),
            pos,
            alive: true,
            is_big: false,
            role: RoleView::Associate {
                head: NodeId::new(head),
                cell_il: Point::ORIGIN,
                surrogate: false,
                is_candidate: false,
            },
            ids_stored: 1,
        }
    }

    fn snap(nodes: Vec<NodeView>) -> Snapshot {
        Snapshot { r: 100.0, r_t: 10.0, big: NodeId::new(0), max_range: 400.0, gr: gs3_geometry::Angle::ZERO, nodes }
    }

    fn idx(s: &Snapshot) -> SnapshotIndex {
        SnapshotIndex::build(s)
    }

    #[test]
    fn healthy_pair_passes() {
        let spacing = head_spacing(100.0);
        let s = snap(vec![
            head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, vec![1]),
            head(1, Point::new(spacing, 0.0), Point::new(spacing, 0.0), 0, 1, vec![]),
            assoc(2, Point::new(40.0, 0.0), 0),
        ]);
        assert!(check_all_with(&s, Strictness::Dynamic, &idx(&s)).is_empty());
    }

    #[test]
    fn detects_two_roots() {
        let s = snap(vec![
            head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, vec![]),
            head(1, Point::new(400.0, 0.0), Point::new(400.0, 0.0), 1, 0, vec![]),
        ]);
        let v = check_head_graph_tree(&s);
        assert!(v.iter().any(|x| x.kind == ViolationKind::HeadGraphNotTree));
    }

    #[test]
    fn detects_parent_cycle() {
        let spacing = head_spacing(100.0);
        let s = snap(vec![
            head(0, Point::ORIGIN, Point::ORIGIN, 1, 0, vec![]),
            head(1, Point::new(spacing, 0.0), Point::new(spacing, 0.0), 0, 1, vec![]),
        ]);
        let v = check_head_graph_tree(&s);
        assert!(v.iter().any(|x| x.detail.contains("cycle") || x.detail.contains("root")));
    }

    #[test]
    fn detects_neighbor_distance_violation() {
        let spacing = head_spacing(100.0);
        // ILs a lattice apart but actual positions far beyond the ±2R_t band.
        let s = snap(vec![
            head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, vec![]),
            head(1, Point::new(spacing + 50.0, 0.0), Point::new(spacing, 0.0), 0, 1, vec![]),
        ]);
        let v = check_neighbor_distances_with(&s, &idx(&s));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::NeighborDistance);
    }

    #[test]
    fn detects_children_overflow() {
        let kids: Vec<u64> = (1..=7).collect();
        let s = snap(vec![head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, kids)]);
        let v = check_children_counts(&s, Strictness::Dynamic);
        assert_eq!(v.len(), 1);
        // Static is stricter for small heads but the big node's cap is 6
        // in both; 7 children violates either way.
        assert_eq!(check_children_counts(&s, Strictness::Static).len(), 1);
    }

    #[test]
    fn detects_cell_radius_violation() {
        let s = snap(vec![
            head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, vec![]),
            assoc(1, Point::new(399.0, 0.0), 0),
        ]);
        let v = check_cell_radius_with(&s, 0.0, &idx(&s));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::CellRadius);
    }

    #[test]
    fn detects_wrong_head_choice() {
        let spacing = head_spacing(100.0);
        let far = Point::new(spacing, 0.0);
        // Associate sits on top of head 1 but belongs to head 0.
        let mut h0 = head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, vec![1]);
        let h1 = head(1, far, far, 0, 1, vec![]);
        let a = assoc(2, Point::new(far.x - 1.0, 0.0), 0);
        // Make both heads inner? They are boundary here; check with
        // inner_only = false.
        if let RoleView::Head { children, .. } = &mut h0.role {
            children.push(NodeId::new(2));
        }
        let s = snap(vec![h0, h1, a]);
        let v = check_best_head_with(&s, false, &idx(&s));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::NotBestHead);
    }

    #[test]
    fn detects_uncovered_connected_node() {
        let mut b = assoc(1, Point::new(50.0, 0.0), 0);
        b.role = RoleView::Bootup;
        let s = snap(vec![head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, vec![]), b]);
        let v = check_coverage_with(&s, &idx(&s));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn disconnected_bootup_is_fine() {
        let mut b = assoc(1, Point::new(5000.0, 0.0), 0);
        b.role = RoleView::Bootup;
        let s = snap(vec![head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, vec![]), b]);
        assert!(check_coverage_with(&s, &idx(&s)).is_empty());
    }

    #[test]
    fn detects_head_off_ideal() {
        let s = snap(vec![head(0, Point::new(20.0, 0.0), Point::ORIGIN, 0, 0, vec![])]);
        let v = check_heads_on_ideal(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::HeadOffIdeal);
    }

    #[test]
    fn inner_head_classification() {
        let spacing = head_spacing(100.0);
        let mut nodes = vec![head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, vec![])];
        for k in 0..6 {
            let ang = gs3_geometry::Angle::from_degrees(f64::from(k) * 60.0);
            let p = Point::ORIGIN.offset(ang, spacing);
            nodes.push(head(k as u64 + 1, p, p, 0, 1, vec![]));
        }
        let s = snap(nodes);
        let inner = idx(&s).inner_heads().clone();
        assert!(inner.contains(&NodeId::new(0)));
        assert_eq!(inner.len(), 1, "ring heads are boundary");
    }

    #[test]
    fn physical_connectivity_bfs() {
        let s = snap(vec![
            head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, vec![]),
            assoc(1, Point::new(300.0, 0.0), 0),
            assoc(2, Point::new(600.0, 0.0), 0),
            assoc(3, Point::new(5000.0, 0.0), 0),
        ]);
        let r = physically_connected_to_big_with(&s, &idx(&s));
        assert!(r.contains(&NodeId::new(1)));
        assert!(r.contains(&NodeId::new(2)), "two-hop reachability");
        assert!(!r.contains(&NodeId::new(3)));
    }

    // Cited by the `gs3-lint: allow(d5)` justifications inside
    // `connectivity_mask`: the union-find passes iterate the spatial
    // grid's FxHashMap cells in insertion order, which tracks node
    // order. Unions commute, so the resulting partition — and hence the
    // reachability mask — must be identical under any node ordering.
    #[test]
    fn connectivity_mask_is_iteration_order_independent() {
        // Logical layout: 0 = big at the origin, 1..=7 a connected
        // component (chain + an off-axis member sharing grid cells),
        // 8..=9 a mutually-connected far island, 10 a lone stray, 11 a
        // dead node adjacent to the chain.
        let pos = [
            Point::ORIGIN,
            Point::new(300.0, 0.0),
            Point::new(600.0, 0.0),
            Point::new(900.0, 0.0),
            Point::new(1200.0, 0.0),
            Point::new(1200.0, 300.0),
            Point::new(900.0, 300.0),
            Point::new(150.0, 100.0),
            Point::new(10_000.0, 0.0),
            Point::new(10_300.0, 0.0),
            Point::new(-8_000.0, 500.0),
            Point::new(300.0, 50.0),
        ];
        let reachable_logical = |order: &[usize]| -> BTreeSet<usize> {
            let mut nodes = Vec::new();
            for (k, &l) in order.iter().enumerate() {
                let mut n = assoc(k as u64, pos[l], 0);
                if l == 11 {
                    n.alive = false;
                }
                nodes.push(n);
            }
            let mut s = snap(nodes);
            s.big = NodeId::new(order.iter().position(|&l| l == 0).unwrap() as u64);
            physically_connected_to_big_with(&s, &idx(&s))
                .into_iter()
                .map(|id| order[id.raw() as usize])
                .collect()
        };

        let n = pos.len();
        let identity: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        // Interleave evens and odds: a third, structurally different
        // insertion order for the grid's hash maps.
        let mut interleaved: Vec<usize> = (0..n).step_by(2).collect();
        interleaved.extend((1..n).step_by(2));

        let want: BTreeSet<usize> = (0..=7).collect();
        for order in [&identity, &reversed, &interleaved] {
            assert_eq!(
                reachable_logical(order),
                want,
                "connectivity differs under node order {order:?}"
            );
        }
    }

    #[test]
    fn head_sharing_associate_position_is_not_a_violation() {
        // Degenerate geometry: a foreign head exactly on top of the
        // associate (best = 0) and the own head within tolerance. The
        // early `mine ≤ 2R_t` guard must settle this without consulting
        // the grid at all.
        let spacing = head_spacing(100.0);
        let p = Point::new(-3.0, 4.0);
        let s = snap(vec![
            head(0, Point::ORIGIN, Point::ORIGIN, 0, 0, vec![1]),
            head(1, p, Point::new(spacing, 0.0), 0, 1, vec![]),
            assoc(2, p, 0), // belongs to head 0, 5.0 away; head 1 is at 0.0
        ]);
        let v = check_best_head_with(&s, false, &idx(&s));
        assert!(v.is_empty());
        assert_eq!(v, naive::check_best_head(&s, false));
    }

    /// A randomized snapshot exercising the index: lattice-ish ILs,
    /// negative coordinates, exact duplicate positions, dead nodes,
    /// dangling head pointers, surrogates, and disconnected components.
    fn random_snapshot(seed: u64) -> Snapshot {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spacing = head_spacing(100.0);
        let n = rng.gen_range(4usize..60);
        let mut nodes: Vec<NodeView> = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let mut pos = Point::new(rng.gen_range(-800.0..800.0), rng.gen_range(-800.0..800.0));
            if i > 0 && rng.gen_bool(0.15) {
                // Exact duplicate of an earlier node's position.
                pos = nodes[rng.gen_range(0..nodes.len())].pos;
            }
            let roll: f64 = rng.gen_range(0.0..1.0);
            let mut view = if i == 0 || roll < 0.4 {
                // Head with an IL on a half-spacing lattice (so IL pairs
                // land on either side of the 1.25-spacing neighbor cut);
                // position usually near the IL, sometimes wildly off.
                let il = Point::new(
                    (f64::from(rng.gen_range(0u32..9)) - 4.0) * spacing * 0.5,
                    (f64::from(rng.gen_range(0u32..9)) - 4.0) * spacing * 0.5,
                );
                if rng.gen_bool(0.6) {
                    pos = Point::new(
                        il.x + rng.gen_range(-15.0..15.0),
                        il.y + rng.gen_range(-15.0..15.0),
                    );
                }
                head(i, pos, il, rng.gen_range(0..n as u64), rng.gen_range(0u32..5), vec![])
            } else if roll < 0.8 {
                assoc(i, pos, rng.gen_range(0..n as u64))
            } else {
                let mut b = assoc(i, pos, 0);
                b.role = RoleView::Bootup;
                b
            };
            if rng.gen_bool(0.1) {
                view.alive = false;
            }
            if let RoleView::Associate { surrogate, .. } = &mut view.role {
                *surrogate = rng.gen_bool(0.1);
            }
            nodes.push(view);
        }
        snap(nodes)
    }

    /// Canonical view of a grid for equality checks: cell → sorted
    /// members. Cell-member order is insertion-history dependent and never
    /// leaks into check results, so it is erased here.
    fn grid_cells(g: &SpatialGrid) -> BTreeMap<(i64, i64), Vec<usize>> {
        let mut out = BTreeMap::new();
        g.for_each_cell(|k, members| {
            let mut m = members.to_vec();
            m.sort_unstable();
            out.insert(k, m);
        });
        out
    }

    /// Asserts the incrementally-updated index is indistinguishable from a
    /// fresh [`SnapshotIndex::build`] of the same snapshot.
    fn assert_index_matches_rebuild(s: &Snapshot, inc: &SnapshotIndex, ctx: &str) {
        let full = SnapshotIndex::build(s);
        assert_eq!(inc.heads, full.heads, "heads diverge {ctx}");
        assert_eq!(inc.inner, full.inner, "inner set diverges {ctx}");
        assert_eq!(inc.inner_mask, full.inner_mask, "inner mask diverges {ctx}");
        assert_eq!(inc.facts, full.facts, "facts diverge {ctx}");
        assert_eq!(grid_cells(&inc.alive), grid_cells(&full.alive), "alive grid diverges {ctx}");
        assert_eq!(
            grid_cells(&inc.head_pos),
            grid_cells(&full.head_pos),
            "head-pos grid diverges {ctx}"
        );
        assert_eq!(
            grid_cells(&inc.head_il),
            grid_cells(&full.head_il),
            "head-IL grid diverges {ctx}"
        );
        assert_eq!(
            check_all_with(s, Strictness::Dynamic, inc),
            check_all_with(s, Strictness::Dynamic, &full),
            "check results diverge {ctx}"
        );
    }

    /// One random structural delta: spawn, kill, revive, move, head
    /// shift (IL change), or role flip (associate ↔ head) — the event
    /// classes [`SnapshotIndex::update`] maintains the index under.
    fn mutate_snapshot(s: &mut Snapshot, rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        let spacing = head_spacing(s.r);
        let lattice = |rng: &mut rand::rngs::StdRng| {
            Point::new(
                (f64::from(rng.gen_range(0u32..9)) - 4.0) * spacing * 0.5,
                (f64::from(rng.gen_range(0u32..9)) - 4.0) * spacing * 0.5,
            )
        };
        let i = rng.gen_range(0..s.nodes.len());
        match rng.gen_range(0u32..10) {
            0 => {
                // Spawn (snapshots only grow; the new id is the new tail).
                let id = s.nodes.len() as u64;
                let pos = Point::new(rng.gen_range(-800.0..800.0), rng.gen_range(-800.0..800.0));
                let view = if rng.gen_bool(0.5) {
                    head(id, pos, lattice(rng), 0, 1, vec![])
                } else {
                    assoc(id, pos, rng.gen_range(0..id))
                };
                s.nodes.push(view);
            }
            1 | 2 => s.nodes[i].alive = false,
            3 => s.nodes[i].alive = true,
            4 | 5 => {
                s.nodes[i].pos =
                    Point::new(rng.gen_range(-800.0..800.0), rng.gen_range(-800.0..800.0));
            }
            6 | 7 => {
                // Head shift: move the IL (and usually the head with it).
                let new_il = lattice(rng);
                if let RoleView::Head { il, .. } = &mut s.nodes[i].role {
                    *il = new_il;
                }
                if rng.gen_bool(0.7) {
                    s.nodes[i].pos = Point::new(
                        new_il.x + rng.gen_range(-15.0..15.0),
                        new_il.y + rng.gen_range(-15.0..15.0),
                    );
                }
            }
            8 => {
                // Role flip: promote to head.
                let il = lattice(rng);
                let promoted = head(s.nodes[i].id.raw(), s.nodes[i].pos, il, 0, 1, vec![]);
                s.nodes[i].role = promoted.role;
            }
            _ => {
                // Role flip: demote to associate.
                s.nodes[i].role = RoleView::Associate {
                    head: NodeId::new(rng.gen_range(0..s.nodes.len()) as u64),
                    cell_il: Point::ORIGIN,
                    surrogate: rng.gen_bool(0.1),
                    is_candidate: false,
                };
            }
        }
    }

    #[test]
    fn incremental_index_matches_rebuild_under_churn() {
        use rand::SeedableRng;
        for seed in 0..20 {
            let mut s = random_snapshot(seed);
            let mut idx = SnapshotIndex::build(&s);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
            for step in 0..50 {
                mutate_snapshot(&mut s, &mut rng);
                idx.update(&s);
                assert_index_matches_rebuild(&s, &idx, &format!("at seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn incremental_update_is_idempotent_on_no_change() {
        let s = random_snapshot(3);
        let mut idx = SnapshotIndex::build(&s);
        idx.update(&s);
        assert_index_matches_rebuild(&s, &idx, "after a no-op update");
    }

    #[test]
    #[should_panic(expected = "never reused")]
    fn incremental_update_rejects_shrinking_snapshots() {
        let mut s = random_snapshot(5);
        let mut idx = SnapshotIndex::build(&s);
        s.nodes.pop();
        idx.update(&s);
    }

    #[test]
    fn grid_checks_match_naive_on_random_snapshots() {
        for seed in 0..60 {
            let s = random_snapshot(seed);
            let idx = SnapshotIndex::build(&s);
            assert_eq!(
                check_neighbor_distances_with(&s, &idx),
                naive::check_neighbor_distances(&s),
                "neighbor distances diverge at seed {seed}"
            );
            for inner_only in [false, true] {
                assert_eq!(
                    check_best_head_with(&s, inner_only, &idx),
                    naive::check_best_head(&s, inner_only),
                    "best-head (inner_only={inner_only}) diverges at seed {seed}"
                );
            }
            assert_eq!(
                idx.inner_heads(),
                &naive::inner_heads(&s),
                "inner classification diverges at seed {seed}"
            );
            assert_eq!(
                physically_connected_to_big_with(&s, &idx),
                naive::physically_connected_to_big(&s),
                "connectivity diverges at seed {seed}"
            );
            assert_eq!(
                check_cell_radius_with(&s, 0.0, &idx),
                naive::check_cell_radius(&s, 0.0),
                "cell radius diverges at seed {seed}"
            );
            assert_eq!(
                check_all_with(&s, Strictness::Dynamic, &idx),
                naive::check_all(&s, Strictness::Dynamic),
                "full suite diverges at seed {seed}"
            );
        }
    }
}
