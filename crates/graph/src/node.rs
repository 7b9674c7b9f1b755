//! Node identifiers.
//!
//! Every graph in the workspace indexes its nodes densely with `u32` ids.
//! Using a 32-bit newtype (rather than `usize`) halves the memory footprint
//! of adjacency arrays, which matters at the paper's scales (the largest
//! R-MAT instance in Table 1 has 121M nodes and 8.5G edges), and gives the
//! type system a hook to keep "node of copy 1", "node of copy 2" and
//! "underlying node" from being silently mixed up at API boundaries.

use std::fmt;

/// A dense node identifier inside a single graph.
///
/// `NodeId(i)` is the `i`-th node of the graph it belongs to; ids are only
/// meaningful relative to one graph. The reconciliation pipeline carries a
/// ground-truth mapping between the ids of the two copies separately (see
/// `snr-sampling`), so the matcher itself never gets to "peek" at underlying
/// identities.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize`, for indexing into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in `u32`; graphs in this workspace are
    /// bounded by `u32::MAX` nodes by construction.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "node index {i} overflows u32");
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// An undirected edge between two nodes, stored with `src <= dst` when
/// canonicalized.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// First endpoint.
    pub src: NodeId,
    /// Second endpoint.
    pub dst: NodeId,
}

impl Edge {
    /// Creates a new edge without canonicalizing endpoint order.
    #[inline]
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        Edge { src, dst }
    }

    /// Returns the same edge with endpoints ordered so that `src <= dst`.
    #[inline]
    pub fn canonical(self) -> Self {
        if self.src.0 <= self.dst.0 {
            self
        } else {
            Edge { src: self.dst, dst: self.src }
        }
    }

    /// True if both endpoints are the same node.
    #[inline]
    pub fn is_self_loop(self) -> bool {
        self.src == self.dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
    }

    #[test]
    fn node_id_display_and_debug() {
        assert_eq!(format!("{}", NodeId(7)), "7");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
    }

    #[test]
    fn edge_canonicalization_orders_endpoints() {
        let e = Edge::new(NodeId(5), NodeId(2)).canonical();
        assert_eq!(e.src, NodeId(2));
        assert_eq!(e.dst, NodeId(5));
        // Already-ordered edges are unchanged.
        let e2 = Edge::new(NodeId(1), NodeId(3)).canonical();
        assert_eq!((e2.src, e2.dst), (NodeId(1), NodeId(3)));
    }

    #[test]
    fn edge_self_loop_detection() {
        assert!(Edge::new(NodeId(3), NodeId(3)).is_self_loop());
        assert!(!Edge::new(NodeId(3), NodeId(4)).is_self_loop());
    }

    #[test]
    fn node_id_ordering_matches_raw_u32() {
        let mut v = vec![NodeId(9), NodeId(1), NodeId(4)];
        v.sort();
        assert_eq!(v, vec![NodeId(1), NodeId(4), NodeId(9)]);
    }
}
