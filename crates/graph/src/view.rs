//! The [`GraphView`] abstraction over immutable graph representations.
//!
//! The reconciliation pipeline only ever *reads* graphs, and it reads them
//! through a narrow interface: node/edge counts, O(1) degrees, sorted
//! neighbor enumeration, and the maximum degree (which drives the
//! degree-bucketing schedule). `GraphView` captures exactly that surface so
//! the same algorithm code runs unmodified on [`crate::CsrGraph`] (pointer
//! arrays + uncompressed targets, fastest per access) and
//! [`crate::CompactCsr`] (u32 offsets + delta-encoded varint blocks, ~half
//! the memory — the representation that gets RMAT-18/20/22 pipelines in
//! memory on one machine).
//!
//! Every method is read-only; construction stays with
//! [`crate::GraphBuilder`] and the conversion routines
//! ([`crate::CsrGraph::compact`], [`crate::CompactCsr::to_csr`]).

use crate::node::{Edge, NodeId};

/// Read-only view of an immutable graph with sorted, deduplicated neighbor
/// lists.
///
/// Implementations guarantee:
///
/// * node ids are dense in `0..node_count()`;
/// * [`GraphView::neighbors_iter`] yields each neighbor list in strictly
///   increasing id order;
/// * [`GraphView::degree`] is O(1);
/// * for undirected graphs every edge appears in both endpoint lists and
///   [`GraphView::edge_count`] counts it once.
pub trait GraphView {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Number of logical edges (undirected edges counted once).
    fn edge_count(&self) -> usize;

    /// Whether the graph was built as directed.
    fn is_directed(&self) -> bool;

    /// Largest degree over all nodes; `0` for the empty graph.
    fn max_degree(&self) -> usize;

    /// Degree (number of distinct neighbors) of `v`. O(1).
    fn degree(&self, v: NodeId) -> usize;

    /// Sum of all degrees (adjacency entries).
    fn total_degree(&self) -> usize;

    /// Sorted, deduplicated neighbors of `v`.
    fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// Heap bytes used by the adjacency structure (offset/skip arrays plus
    /// target storage; excludes the constant-size header).
    fn memory_bytes(&self) -> usize;

    /// True if `{u, v}` (or `u -> v` for directed graphs) is an edge. The
    /// default scans `u`'s ascending list up to `v`.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors_iter(u).find(|&x| x >= v) == Some(v)
    }

    /// Iterator over all node ids.
    fn nodes_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over logical edges. For undirected graphs each edge is
    /// yielded once with `src <= dst`; self-loops are yielded once.
    fn edges_iter(&self) -> impl Iterator<Item = Edge> + '_ {
        let directed = self.is_directed();
        self.nodes_iter().flat_map(move |u| {
            self.neighbors_iter(u)
                .filter(move |&v| directed || u.0 <= v.0)
                .map(move |v| Edge::new(u, v))
        })
    }

    /// Memory footprint per logical edge — the figure of merit for the
    /// scalability experiments. Returns the total adjacency bytes for
    /// edgeless graphs (denominator clamped to 1).
    fn bytes_per_edge(&self) -> f64 {
        self.memory_bytes() as f64 / self.edge_count().max(1) as f64
    }

    /// Disjoint, ascending node-id ranges whose adjacency lives in
    /// independent storage units (shards), or `None` for monolithic
    /// representations.
    ///
    /// Partition-aware schedulers use this to align work chunks with
    /// storage: the arena scorer hands each worker candidate rows from one
    /// shard, so a worker streams one segment instead of faulting pages
    /// across all of them. Purely an access-locality hint — any consumer
    /// must produce identical results when it is `None`, and must still
    /// process node ids the ranges happen not to cover (the hint shapes
    /// chunk boundaries, never the work set).
    fn storage_partitions(&self) -> Option<Vec<std::ops::Range<u32>>> {
        None
    }

    /// Hints that the caller is about to stream rows in order (e.g. a
    /// per-phase `LinkCache` build decoding the linked rows in link order
    /// or the eligible rows in ascending order). Purely an access-pattern
    /// hint: default no-op; mmap-backed views forward it to
    /// `madvise(MADV_SEQUENTIAL)` so the kernel reads ahead. Never affects
    /// results.
    fn advise_sequential(&self) {}

    /// Hints that point lookups in no particular order come next (the
    /// steady state of the witness kernels). Default no-op; mmap-backed
    /// views forward it to `madvise(MADV_RANDOM)`. Pairs with
    /// [`GraphView::advise_sequential`] to bracket a streaming pass.
    fn advise_random(&self) {}

    /// Hints that the adjacency of the rows in `rows` is about to be read
    /// (e.g. a driver worker about to score its assigned row-range).
    /// Default no-op; mmap-backed views forward the rows' byte span to
    /// `madvise(MADV_WILLNEED)` so the kernel can fault the pages in ahead
    /// of the scoring loop. Never affects results.
    fn advise_rows(&self, _rows: std::ops::Range<u32>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    /// Generic helpers must observe the same graph through any view.
    fn check_view<G: GraphView>(g: &G) {
        assert_eq!(g.nodes_iter().count(), g.node_count());
        let via_edges = g.edges_iter().count();
        assert_eq!(via_edges, g.edge_count());
        let degree_sum: usize = g.nodes_iter().map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, g.total_degree());
        assert!(g.bytes_per_edge() > 0.0);
    }

    #[test]
    fn csr_satisfies_the_view_contract() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (1, 5)]);
        check_view(&g);
        assert!(GraphView::has_edge(&g, NodeId(1), NodeId(5)));
        assert!(!GraphView::has_edge(&g, NodeId(0), NodeId(3)));
        assert_eq!(g.neighbors_iter(NodeId(1)).collect::<Vec<_>>(), g.neighbors(NodeId(1)));
    }
}
