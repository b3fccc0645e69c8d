//! Point-in-time views of a whole GS³ network.
//!
//! A [`Snapshot`] is extracted from the engine by the harness and is the
//! input to the invariant checker and the structure metrics. It carries
//! only *observable* protocol state — positions, roles, and the
//! relationships each node maintains — mirroring what the paper's
//! predicates quantify over.

use std::collections::btree_map;

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

/// Overwrites `*slot` with `value` when the two differ (`!=`); true when
/// they did. The in-place refill is built from this, so a field that did
/// not change is never written and a NaN field always reads as changed.
pub(crate) fn put<T: PartialEq>(slot: &mut T, value: T) -> bool {
    let changed = *slot != value;
    if changed {
        *slot = value;
    }
    changed
}

/// Overwrites `ids` with `keys` in place (allocating only to grow); true
/// when the sequence differed.
fn put_ids<'a, V: 'a>(ids: &mut Vec<NodeId>, keys: btree_map::Keys<'a, NodeId, V>) -> bool {
    if ids.iter().eq(keys.clone()) {
        return false;
    }
    ids.clear();
    ids.extend(keys.copied());
    true
}

/// How many distinct ids two ascending key sequences hold together.
fn union_len<'a>(a: impl Iterator<Item = &'a NodeId>, b: impl Iterator<Item = &'a NodeId>) -> usize {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    let mut count = 0;
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                let (x, y) = (**x, **y);
                if x <= y {
                    a.next();
                }
                if y <= x {
                    b.next();
                }
            }
            (Some(_), None) => {
                a.next();
            }
            (None, Some(_)) => {
                b.next();
            }
            (None, None) => return count,
        }
        count += 1;
    }
}

/// How many distinct peer identities a node's role state stores.
fn ids_stored(role: &Role) -> usize {
    match role {
        Role::Bootup(b) => b.head_offers.len() + b.assoc_offers.len(),
        // Parent + neighbors (children are a subset of neighbors by
        // maintenance, but count the union defensively) + cell members.
        Role::Head(h) => {
            let links = union_len(h.neighbors.keys(), h.children.keys());
            let parent_extra = !h.neighbors.contains_key(&h.parent) && !h.children.contains_key(&h.parent);
            links + usize::from(parent_extra) + h.associates.len()
        }
        Role::Associate(a) => 1 + a.cell.candidates.len(),
        Role::BigAway(b) => b.known_heads.len(),
    }
}

/// The externally visible [`RoleView`] of a node at `pos`.
fn role_view(role: &Role, pos: Point, r_t: f64) -> RoleView {
    match role {
        Role::Bootup(_) => RoleView::Bootup,
        Role::Head(h) => RoleView::Head {
            il: h.il,
            oil: h.oil,
            icc_icp: h.icc_icp,
            parent: h.parent,
            hops: h.hops,
            children: h.children.keys().copied().collect(),
            associates: h.associates.keys().copied().collect(),
            is_proxy: h.is_proxy,
        },
        Role::Associate(a) => RoleView::Associate {
            head: a.head,
            cell_il: a.cell.il,
            surrogate: a.surrogate,
            is_candidate: !a.surrogate && pos.distance(a.cell.il) <= r_t,
        },
        Role::BigAway(b) => RoleView::BigAway { proxy: b.proxy, mobile: b.mobile },
    }
}

impl NodeView {
    /// Rewrites this view in place from one node's engine state; true when
    /// any field changed. A head that stays a head keeps its `children` /
    /// `associates` buffers, so a refill allocates only when one of them
    /// grows or a node becomes a head.
    pub(crate) fn refill(&mut self, id: NodeId, pos: Point, alive: bool, is_big: bool, role: &Role, r_t: f64) -> bool {
        let mut changed = put(&mut self.id, id)
            | put(&mut self.pos, pos)
            | put(&mut self.alive, alive)
            | put(&mut self.is_big, is_big)
            | put(&mut self.ids_stored, ids_stored(role));
        changed |= match (role, &mut self.role) {
            (Role::Head(h), RoleView::Head { il, oil, icc_icp, parent, hops, children, associates, is_proxy }) => {
                put(il, h.il)
                    | put(oil, h.oil)
                    | put(icc_icp, h.icc_icp)
                    | put(parent, h.parent)
                    | put(hops, h.hops)
                    | put_ids(children, h.children.keys())
                    | put_ids(associates, h.associates.keys())
                    | put(is_proxy, h.is_proxy)
            }
            (role, slot) => put(slot, role_view(role, pos, r_t)),
        };
        changed
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
