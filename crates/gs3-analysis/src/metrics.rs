//! Structure-quality metrics over a configured network.
//!
//! Quantifies the properties the paper's Corollaries 1–2 bound — cell
//! radius, neighbor-head spacing, children counts — plus the empirical
//! counterparts of Section 4.3.4: the realized ratio of non-ideal cells
//! and the diameters of `R_t`-gap perturbed regions.

use std::collections::BTreeMap;

use gs3_core::snapshot::{RoleView, Snapshot};
use gs3_core::invariants::SnapshotIndex;
use gs3_geometry::hex::{Axial, HexLayout};
use gs3_geometry::{head_spacing, Point};
use gs3_sim::NodeId;

use crate::stats::Summary;

/// Measured structure quality.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureMetrics {
    /// Alive heads.
    pub heads: usize,
    /// Alive associates.
    pub associates: usize,
    /// Alive nodes still in bootup.
    pub bootup: usize,
    /// Distance from each associate to its head.
    pub cell_radius: Summary,
    /// Per-cell maximum member distance (the paper's cell radius).
    pub max_cell_radius: Summary,
    /// Distance between lattice-neighboring heads (compare `√3R ± 2R_t`).
    pub neighbor_head_distance: Summary,
    /// Children per head.
    pub children_counts: Summary,
    /// Distance from each head to its IL (compare `R_t`).
    pub head_il_deviation: Summary,
    /// Fraction of big-connected alive nodes that are in a cell.
    pub coverage_ratio: f64,
    /// Lattice sites that hold nodes but no head (the *non-ideal* /
    /// gap-perturbed cells of Section 4.3.4).
    pub nonideal_cells: usize,
    /// Lattice sites that hold nodes at all (the denominator).
    pub populated_cells: usize,
    /// Diameters of contiguous gap-perturbed regions (in meters; compare
    /// Figure 8's expectation).
    pub gap_region_diameters: Vec<f64>,
}

impl StructureMetrics {
    /// The realized non-ideal cell ratio (Figure 7's empirical
    /// counterpart). 0 when no cell is populated.
    #[must_use]
    pub fn nonideal_ratio(&self) -> f64 {
        if self.populated_cells == 0 {
            0.0
        } else {
            self.nonideal_cells as f64 / self.populated_cells as f64
        }
    }
}

/// Fraction of big-connected alive nodes that are in a cell. `idx` must
/// index `snap` (`Network::view` hands out the pair); connectivity is its
/// [`connected_to_big`](SnapshotIndex::connected_to_big) mask.
#[must_use]
pub fn coverage_ratio(snap: &Snapshot, idx: &SnapshotIndex) -> f64 {
    let mask = idx.connected_to_big(snap);
    let (mut reachable, mut covered) = (0usize, 0usize);
    for (n, _) in snap.nodes.iter().zip(mask).filter(|(_, &reached)| reached) {
        reachable += 1;
        covered += usize::from(!matches!(n.role, RoleView::Bootup | RoleView::BigAway { .. }));
    }
    if reachable == 0 {
        0.0
    } else {
        // The big node itself is counted covered whatever its role.
        let big_reached = mask.get(snap.big.raw() as usize).copied().unwrap_or(false);
        (covered + usize::from(big_reached)).min(reachable) as f64 / reachable as f64
    }
}

/// Measures a snapshot through its index (`Network::view` hands out the
/// pair).
#[must_use]
pub fn measure(snap: &Snapshot, idx: &SnapshotIndex) -> StructureMetrics {
    let heads: Vec<(NodeId, Point, Point)> = snap
        .heads()
        .filter_map(|n| match &n.role {
            RoleView::Head { il, .. } => Some((n.id, n.pos, *il)),
            _ => None,
        })
        .collect();
    let head_pos: BTreeMap<NodeId, Point> = heads.iter().map(|(id, p, _)| (*id, *p)).collect();

    // Per-associate distance to head; per-cell maximum.
    let mut dists = Vec::new();
    let mut per_cell_max: BTreeMap<NodeId, f64> = BTreeMap::new();
    for n in snap.associates() {
        let RoleView::Associate { head, surrogate, .. } = &n.role else {
            continue;
        };
        if *surrogate {
            continue;
        }
        if let Some(hp) = head_pos.get(head) {
            let d = n.pos.distance(*hp);
            dists.push(d);
            let slot = per_cell_max.entry(*head).or_insert(0.0);
            *slot = slot.max(d);
        }
    }

    // Neighbor-head spacing: pairs whose IL distance is one lattice step.
    let spacing = head_spacing(snap.r);
    let mut neighbor_d = Vec::new();
    for (i, (_, pa, ila)) in heads.iter().enumerate() {
        for (_, pb, ilb) in &heads[i + 1..] {
            if (ila.distance(*ilb) - spacing).abs() <= 0.25 * spacing {
                neighbor_d.push(pa.distance(*pb));
            }
        }
    }

    let children: Vec<f64> = snap
        .heads()
        .filter_map(|n| match &n.role {
            RoleView::Head { children, .. } => Some(children.len() as f64),
            _ => None,
        })
        .collect();

    let il_dev: Vec<f64> = heads.iter().map(|(_, p, il)| p.distance(*il)).collect();

    let occupancy = lattice_occupancy(snap);
    let nonideal: Vec<Axial> = occupancy.iter().filter(|s| !s.has_head).map(|s| s.site).collect();
    // Gap-region diameters in the paper's cell-diameter units (2R per
    // cell ≈ one lattice step).
    let gap_region_diameters =
        gap_region_spans(&nonideal).into_iter().map(|span| f64::from(span) * 2.0 * snap.r).collect();

    StructureMetrics {
        heads: heads.len(),
        associates: snap.associates().count(),
        bootup: snap.bootup_count(),
        cell_radius: Summary::of(&dists),
        max_cell_radius: Summary::of(&per_cell_max.into_values().collect::<Vec<_>>()),
        neighbor_head_distance: Summary::of(&neighbor_d),
        children_counts: Summary::of(&children),
        head_il_deviation: Summary::of(&il_dev),
        coverage_ratio: coverage_ratio(snap, idx),
        nonideal_cells: nonideal.len(),
        populated_cells: occupancy.len(),
        gap_region_diameters,
    }
}

/// Occupancy of one ideal-lattice site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteOccupancy {
    /// The site's axial coordinates (relative to the big node's cell).
    pub site: Axial,
    /// The site's ideal location on the plane.
    pub center: Point,
    /// Number of alive nodes whose position falls in this site's hexagon.
    pub nodes: usize,
    /// Whether some head's IL falls in this site's hexagon.
    pub has_head: bool,
}

/// Per-site occupancy of the ideal lattice anchored at the big node's
/// original cell. The Figure-7/8 empirical bins use this to classify
/// *interior* sites only (edge sites straddle the deployment boundary and
/// would inflate the non-ideal count for reasons unrelated to `R_t`-gaps).
#[must_use]
pub fn lattice_occupancy(snap: &Snapshot) -> Vec<SiteOccupancy> {
    let origin = snap
        .nodes
        .get(snap.big.raw() as usize)
        .and_then(|b| match &b.role {
            RoleView::Head { oil, .. } => Some(*oil),
            _ => None,
        })
        .unwrap_or_else(|| {
            snap.nodes.get(snap.big.raw() as usize).map(|b| b.pos).unwrap_or(Point::ORIGIN)
        });
    let layout = HexLayout::new(origin, snap.r, snap.gr);
    let mut sites: BTreeMap<Axial, (usize, bool)> = BTreeMap::new();
    for n in &snap.nodes {
        if n.alive {
            sites.entry(layout.cell_at(n.pos)).or_insert((0, false)).0 += 1;
        }
    }
    for n in snap.heads() {
        if let RoleView::Head { il, .. } = &n.role {
            if let Some(entry) = sites.get_mut(&layout.cell_at(*il)) {
                entry.1 = true;
            }
        }
    }
    sites
        .into_iter()
        .map(|(site, (nodes, has_head))| SiteOccupancy {
            site,
            center: layout.ideal_location(site),
            nodes,
            has_head,
        })
        .collect()
}

/// The span of each contiguous region (6-neighbor adjacency) of a set of
/// lattice sites: its largest hex distance + 1, in cells. Regions come in
/// the order of their smallest site.
#[must_use]
pub fn gap_region_spans(sites: &[Axial]) -> Vec<u32> {
    use std::collections::BTreeSet;
    let set: BTreeSet<Axial> = sites.iter().copied().collect();
    let mut seen: BTreeSet<Axial> = BTreeSet::new();
    let mut out = Vec::new();
    for &start in &set {
        if seen.contains(&start) {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(cur) = stack.pop() {
            comp.push(cur);
            for n in cur.neighbors() {
                if set.contains(&n) && seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        let span = comp.iter().flat_map(|a| comp.iter().map(move |b| a.distance(*b))).max().unwrap_or(0);
        out.push(span + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs3_core::snapshot::NodeView;
    use gs3_geometry::spiral::IccIcp;
    use gs3_geometry::Angle;

    fn head(id: u64, pos: Point, il: Point, children: Vec<u64>) -> NodeView {
        NodeView {
            id: NodeId::new(id),
            pos,
            alive: true,
            is_big: id == 0,
            role: RoleView::Head {
                il,
                oil: il,
                icc_icp: IccIcp::ORIGIN,
                parent: NodeId::new(0),
                hops: u32::from(id != 0),
                children: children.into_iter().map(NodeId::new).collect(),
                associates: vec![],
                is_proxy: false,
            },
            ids_stored: 1,
        }
    }

    fn assoc(id: u64, pos: Point, h: u64) -> NodeView {
        NodeView {
            id: NodeId::new(id),
            pos,
            alive: true,
            is_big: false,
            role: RoleView::Associate {
                head: NodeId::new(h),
                cell_il: Point::ORIGIN,
                surrogate: false,
                is_candidate: false,
            },
            ids_stored: 1,
        }
    }

    fn snap(nodes: Vec<NodeView>) -> Snapshot {
        Snapshot {
            r: 100.0,
            r_t: 10.0,
            big: NodeId::new(0),
            max_range: 400.0,
            gr: Angle::ZERO,
            nodes,
        }
    }

    #[test]
    fn basic_measurement() {
        let spacing = head_spacing(100.0);
        let s = snap(vec![
            head(0, Point::ORIGIN, Point::ORIGIN, vec![1]),
            head(1, Point::new(spacing, 0.0), Point::new(spacing, 0.0), vec![]),
            assoc(2, Point::new(50.0, 0.0), 0),
            assoc(3, Point::new(-40.0, 0.0), 0),
        ]);
        let m = measure(&s, &SnapshotIndex::build(&s));
        assert_eq!(m.heads, 2);
        assert_eq!(m.associates, 2);
        assert_eq!(m.cell_radius.n, 2);
        assert!((m.max_cell_radius.max - 50.0).abs() < 1e-9);
        assert_eq!(m.neighbor_head_distance.n, 1);
        assert!((m.neighbor_head_distance.mean - spacing).abs() < 1e-9);
        assert!((m.coverage_ratio - 1.0).abs() < 1e-12);
        assert_eq!(m.nonideal_cells, 0);
        assert!(m.populated_cells >= 2);
    }

    #[test]
    fn detects_nonideal_cell() {
        // A populated lattice site two cells east with no head.
        let spacing = head_spacing(100.0);
        let far = Point::new(2.0 * spacing, 0.0);
        let mut lone = assoc(1, far, 0);
        lone.role = RoleView::Bootup;
        let s = snap(vec![head(0, Point::ORIGIN, Point::ORIGIN, vec![]), lone]);
        let m = measure(&s, &SnapshotIndex::build(&s));
        assert_eq!(m.nonideal_cells, 1);
        assert!(m.nonideal_ratio() > 0.0);
        assert_eq!(m.gap_region_diameters.len(), 1);
        assert!((m.gap_region_diameters[0] - 200.0).abs() < 1e-9);
    }

    #[test]
    fn gap_regions_merge_adjacent() {
        let spans = gap_region_spans(&[Axial::new(1, 0), Axial::new(-3, 0), Axial::new(0, 0)]);
        assert_eq!(spans, vec![1, 2]);
    }

    #[test]
    fn empty_snapshot() {
        let s = snap(vec![]);
        let m = measure(&s, &SnapshotIndex::build(&s));
        assert_eq!(m.heads, 0);
        assert_eq!(m.nonideal_ratio(), 0.0);
    }
}
