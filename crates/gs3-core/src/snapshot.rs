//! Point-in-time views of a whole GS³ network.
//!
//! A [`Snapshot`] is extracted from the engine by the harness and is the
//! input to the invariant checker and the structure metrics. It carries
//! only *observable* protocol state — positions, roles, and the
//! relationships each node maintains — mirroring what the paper's
//! predicates quantify over.

use gs3_geometry::spiral::IccIcp;
use gs3_geometry::Point;
use gs3_sim::NodeId;

use crate::state::Role;

/// A node's role as seen from outside.
#[derive(Debug, Clone, PartialEq)]
pub enum RoleView {
    /// Unaffiliated.
    Bootup,
    /// A cell head.
    Head {
        /// The cell's current IL.
        il: Point,
        /// The cell's original IL.
        oil: Point,
        /// Spiral position of the current IL.
        icc_icp: IccIcp,
        /// Parent head (self when root).
        parent: NodeId,
        /// Hops to the root.
        hops: u32,
        /// Children heads.
        children: Vec<NodeId>,
        /// Cell members (associates).
        associates: Vec<NodeId>,
        /// True while serving as the big node's proxy.
        is_proxy: bool,
    },
    /// A cell member.
    Associate {
        /// The cell head.
        head: NodeId,
        /// The cell's current IL.
        cell_il: Point,
        /// Joined through an associate (no head in range).
        surrogate: bool,
        /// Within `R_t` of the cell IL.
        is_candidate: bool,
    },
    /// The big node while away from head duty.
    BigAway {
        /// The designated proxy head, if any.
        proxy: Option<NodeId>,
        /// True for `big_move`, false for `big_slide`.
        mobile: bool,
    },
}

/// One node in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// The node's id.
    pub id: NodeId,
    /// Its position at snapshot time.
    pub pos: Point,
    /// Whether it is alive.
    pub alive: bool,
    /// Whether it is the big node.
    pub is_big: bool,
    /// Its role.
    pub role: RoleView,
    /// How many distinct peer identities this node currently stores
    /// (the paper's per-node information measure, Appendix 1 row 1).
    pub ids_stored: usize,
}

impl NodeView {
    /// True when the node is currently a head.
    #[must_use]
    pub fn is_head(&self) -> bool {
        matches!(self.role, RoleView::Head { .. })
    }

    /// The head this node belongs to: itself for heads, its cell head for
    /// associates, `None` otherwise.
    #[must_use]
    pub fn cell_head(&self) -> Option<NodeId> {
        match &self.role {
            RoleView::Head { .. } => Some(self.id),
            RoleView::Associate { head, .. } => Some(*head),
            _ => None,
        }
    }
}

/// A point-in-time view of the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Ideal cell radius `R`.
    pub r: f64,
    /// Radius tolerance `R_t`.
    pub r_t: f64,
    /// The big node's id.
    pub big: NodeId,
    /// The radio's maximum transmission range (defines physical
    /// connectivity `G_p`).
    pub max_range: f64,
    /// The global reference direction `GR` (orients the ideal lattice).
    pub gr: gs3_geometry::Angle,
    /// All nodes ever spawned (dead ones included, marked `alive: false`).
    pub nodes: Vec<NodeView>,
}

/// Builds the externally visible [`RoleView`] and stored-id count from a
/// node's internal role state.
pub(crate) fn view_role(role: &Role) -> (RoleView, usize) {
    match role {
        Role::Bootup(b) => (RoleView::Bootup, b.head_offers.len() + b.assoc_offers.len()),
        Role::Head(h) => {
            let view = RoleView::Head {
                il: h.il,
                oil: h.oil,
                icc_icp: h.icc_icp,
                parent: h.parent,
                hops: h.hops,
                children: h.children.keys().copied().collect(),
                associates: h.associates.keys().copied().collect(),
                is_proxy: h.is_proxy,
            };
            // Parent + neighbors (children are a subset of neighbors by
            // maintenance, but count the union defensively) + cell members.
            let mut ids: std::collections::BTreeSet<NodeId> = h.neighbors.keys().copied().collect();
            ids.extend(h.children.keys().copied());
            ids.insert(h.parent);
            let count = ids.len() + h.associates.len();
            (view, count)
        }
        Role::Associate(a) => (
            RoleView::Associate {
                head: a.head,
                cell_il: a.cell.il,
                surrogate: a.surrogate,
                // Candidacy is position-dependent; the harness patches this
                // after it knows the node's position.
                is_candidate: false,
            },
            1 + a.cell.candidates.len(),
        ),
        Role::BigAway(b) => (
            RoleView::BigAway { proxy: b.proxy, mobile: b.mobile },
            b.known_heads.len(),
        ),
    }
}

impl Snapshot {
    /// All alive heads.
    pub fn heads(&self) -> impl Iterator<Item = &NodeView> + '_ {
        self.nodes.iter().filter(|n| n.alive && n.is_head())
    }

    /// All alive associates.
    pub fn associates(&self) -> impl Iterator<Item = &NodeView> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.alive && matches!(n.role, RoleView::Associate { .. }))
    }

    /// Number of alive nodes still in bootup.
    #[must_use]
    pub fn bootup_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.alive && matches!(n.role, RoleView::Bootup))
            .count()
    }

    /// The view of one node, if it exists.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&NodeView> {
        self.nodes.get(id.raw() as usize).filter(|n| n.id == id)
    }

    /// Groups alive members by cell head: `(head id, member ids including
    /// the head)`.
    #[must_use]
    pub fn cells(&self) -> Vec<(NodeId, Vec<NodeId>)> {
        use std::collections::BTreeMap;
        let mut cells: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for n in &self.nodes {
            if !n.alive {
                continue;
            }
            if let Some(h) = n.cell_head() {
                cells.entry(h).or_default().push(n.id);
            }
        }
        cells.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head_view(id: u64, il: Point) -> NodeView {
        NodeView {
            id: NodeId::new(id),
            pos: il,
            alive: true,
            is_big: id == 0,
            role: RoleView::Head {
                il,
                oil: il,
                icc_icp: IccIcp::ORIGIN,
                parent: NodeId::new(0),
                hops: u32::from(id != 0),
                children: vec![],
                associates: vec![],
                is_proxy: false,
            },
            ids_stored: 1,
        }
    }

    fn assoc_view(id: u64, head: u64) -> NodeView {
        NodeView {
            id: NodeId::new(id),
            pos: Point::ORIGIN,
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

    #[test]
    fn heads_and_cells() {
        let s = snap(vec![head_view(0, Point::ORIGIN), assoc_view(1, 0), assoc_view(2, 0)]);
        assert_eq!(s.heads().count(), 1);
        assert_eq!(s.associates().count(), 2);
        let cells = s.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].1.len(), 3);
    }

    #[test]
    fn node_lookup() {
        let s = snap(vec![head_view(0, Point::ORIGIN), assoc_view(1, 0)]);
        assert!(s.node(NodeId::new(1)).is_some());
        assert!(s.node(NodeId::new(9)).is_none());
        assert_eq!(s.bootup_count(), 0);
    }

    #[test]
    fn cell_head_of_views() {
        let h = head_view(0, Point::ORIGIN);
        assert_eq!(h.cell_head(), Some(NodeId::new(0)));
        let a = assoc_view(1, 0);
        assert_eq!(a.cell_head(), Some(NodeId::new(0)));
    }
}
