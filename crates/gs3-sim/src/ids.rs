//! Node identities.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A unique, stable identity for a network node (e.g. a MAC address in the
/// paper's terms).
///
/// Identities are assigned by the [`crate::engine::Engine`] in spawn order
/// and never reused; they double as the final deterministic tiebreak in the
/// `HEAD_SELECT` candidate ranking.
///
/// Internally an id *is* its dense arena index (spawn rank), stored as a
/// `u32` so per-node tables (children lists, neighbor sets, the event
/// queue's receiver field) stay half the width of a pointer at million-node
/// scale. The public API stays `u64`-shaped — `raw()` widens losslessly and
/// every hash/digest that folds `raw()` is unchanged — while
/// [`NodeId::index`]/[`NodeId::from_index`] expose the arena index for
/// column lookups without a cast chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its raw value.
    ///
    /// # Panics
    ///
    /// Panics if `raw` exceeds `u32::MAX` — ids are dense spawn ranks, so
    /// this bounds the population at ~4.3 billion nodes.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        assert!(raw <= u32::MAX as u64, "node id exceeds the u32 arena-index range");
        NodeId(raw as u32)
    }

    /// The raw value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0 as u64
    }

    /// The dense arena index this id names (its spawn rank).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The id owning arena index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    pub const fn from_index(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "arena index exceeds the u32 id range");
        NodeId(index as u32)
    }
}

/// Hashes as the widened `u64` raw value: one `write_u64`, which an
/// [`FxHasher`](crate::fxhash::FxHasher)-keyed map mixes in a single
/// step.
impl Hash for NodeId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.raw());
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> u64 {
        id.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let id = NodeId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(u64::from(id), 42);
        assert_eq!(format!("{id}"), "n42");
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    fn index_roundtrip() {
        let id = NodeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id, NodeId::new(7));
        assert_eq!(NodeId::new(9).index(), 9);
    }

    #[test]
    #[should_panic(expected = "u32")]
    fn rejects_raw_beyond_u32() {
        let _ = NodeId::new(u64::from(u32::MAX) + 1);
    }
}
