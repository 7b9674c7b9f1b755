//! Immutable compressed-sparse-row graph storage.

use crate::node::{Edge, NodeId};
use crate::view::GraphView;

/// An immutable graph stored in compressed sparse row (CSR) form.
///
/// Neighbor lists are sorted and deduplicated, so
/// * `has_edge` is a binary search over the sorted slice `neighbors(u)`,
///   and
/// * `degree(v)` is an O(1) subtraction of two offsets.
///
/// For undirected graphs each edge `{u, v}` is stored twice (once per
/// endpoint); [`CsrGraph::edge_count`] reports the number of undirected
/// edges, not adjacency entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    node_count: usize,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    directed: bool,
    /// Number of logical edges (undirected edges counted once).
    edge_count: usize,
    max_degree: usize,
}

impl CsrGraph {
    /// Assembles a CSR graph from raw adjacency arrays.
    ///
    /// `offsets` must have length `node_count + 1` with `offsets[0] == 0`
    /// and `offsets[node_count] == targets.len()`. Neighbor ranges need not
    /// be sorted or deduplicated; this constructor normalizes them.
    pub(crate) fn from_raw_parts(
        node_count: usize,
        offsets: Vec<usize>,
        mut targets: Vec<NodeId>,
        directed: bool,
    ) -> Self {
        debug_assert_eq!(offsets.len(), node_count + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), targets.len());

        // Fast path: when the offsets start at 0 and every neighbor range is
        // already strictly increasing (sorted and duplicate-free), reuse the
        // arrays as-is. `CompactCsr::to_csr` and several generator
        // builders emit normalized ranges, and skipping the rebuild avoids a
        // second full-size `targets` allocation on multi-gigabyte graphs.
        // The `offsets[0] == 0` check matters: a nonzero first offset leaves
        // orphan entries before the first range, which the rebuilding path
        // drops and the reuse path would silently count.
        let already_normalized = offsets.first().is_some_and(|&o| o == 0)
            && (0..node_count)
                .all(|v| targets[offsets[v]..offsets[v + 1]].windows(2).all(|w| w[0] < w[1]));
        if already_normalized {
            return Self::from_parts_unchecked(node_count, offsets, targets, directed);
        }

        // Sort + dedup each neighbor range, then compact the target array.
        let mut new_offsets = Vec::with_capacity(node_count + 1);
        let mut new_targets = Vec::with_capacity(targets.len());
        new_offsets.push(0);
        for v in 0..node_count {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            let range = &mut targets[lo..hi];
            range.sort_unstable();
            let mut prev: Option<NodeId> = None;
            for &t in range.iter() {
                if prev != Some(t) {
                    new_targets.push(t);
                    prev = Some(t);
                }
            }
            new_offsets.push(new_targets.len());
        }
        Self::from_parts_unchecked(node_count, new_offsets, new_targets, directed)
    }

    /// Assembles the struct from normalized arrays, computing the cached
    /// statistics (max degree, self-loop-aware edge count).
    fn from_parts_unchecked(
        node_count: usize,
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        directed: bool,
    ) -> Self {
        let adjacency_entries = targets.len();
        let mut self_loops = 0usize;
        let mut max_degree = 0usize;
        for v in 0..node_count {
            let deg = offsets[v + 1] - offsets[v];
            max_degree = max_degree.max(deg);
            let range = &targets[offsets[v]..offsets[v + 1]];
            if range.binary_search(&NodeId::from_index(v)).is_ok() {
                self_loops += 1;
            }
        }
        let edge_count = if directed {
            adjacency_entries
        } else {
            // Undirected: each non-loop edge stored twice, loops stored once.
            (adjacency_entries - self_loops) / 2 + self_loops
        };

        CsrGraph { node_count, offsets, targets, directed, edge_count, max_degree }
    }

    /// Builds a graph directly from an edge list (convenience for tests and
    /// small fixtures). Undirected, self-loops dropped.
    pub fn from_edges(node_count: usize, edges: &[(u32, u32)]) -> Self {
        let mut b = crate::builder::GraphBuilder::undirected(node_count);
        for &(a, bnode) in edges {
            b.add_edge(NodeId(a), NodeId(bnode));
        }
        b.build()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of logical edges (undirected edges counted once).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph was built as directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Largest degree over all nodes; `0` for the empty graph.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Degree (number of distinct neighbors) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Sorted, deduplicated neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// True if `{u, v}` (or `u -> v` for directed graphs) is an edge.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count as u32).map(NodeId)
    }

    /// Iterator over logical edges. For undirected graphs each edge is
    /// yielded once with `src <= dst`; self-loops are yielded once.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| self.directed || u.0 <= v.0)
                .map(move |v| Edge::new(u, v))
        })
    }

    /// Sum of all degrees (adjacency entries).
    pub fn total_degree(&self) -> usize {
        self.targets.len()
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.directed
    }

    #[inline]
    fn max_degree(&self) -> usize {
        self.max_degree
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn total_degree(&self) -> usize {
        self.targets.len()
    }

    #[inline]
    fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(v).iter().copied()
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn neighbors_are_sorted_and_unique() {
        let g = CsrGraph::from_edges(5, &[(0, 3), (0, 1), (0, 4), (0, 1), (0, 2)]);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(g.degree(NodeId(0)), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn has_edge_is_symmetric_for_undirected() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn edges_iterator_yields_each_undirected_edge_once() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for e in &edges {
            assert!(e.src.0 <= e.dst.0);
        }
    }

    #[test]
    fn max_degree_of_star_is_center_degree() {
        let edges: Vec<(u32, u32)> = (1..10).map(|i| (0, i)).collect();
        let g = CsrGraph::from_edges(10, &edges);
        assert_eq!(g.max_degree(), 9);
        assert_eq!(g.degree(NodeId(0)), 9);
        for i in 1..10 {
            assert_eq!(g.degree(NodeId(i)), 1);
        }
    }

    #[test]
    fn path_graph_degrees() {
        let g = path_graph(5);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(2)), 2);
        assert_eq!(g.degree(NodeId(4)), 1);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.total_degree(), 8);
    }

    #[test]
    fn normalized_input_is_reused_without_reallocation() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 3), (1, 2), (2, 3), (4, 5)]);
        let offsets = g.offsets.clone();
        let targets = g.targets.clone();
        let target_ptr = targets.as_ptr();
        let g2 = CsrGraph::from_raw_parts(g.node_count(), offsets, targets, false);
        assert_eq!(g2, g);
        // The fast path must hand back the same allocation, not a copy.
        assert_eq!(g2.targets.as_ptr(), target_ptr);
    }

    #[test]
    fn unsorted_input_still_normalizes() {
        let offsets = vec![0, 4, 4];
        let targets = vec![NodeId(1), NodeId(1), NodeId(0), NodeId(1)];
        let g = CsrGraph::from_raw_parts(2, offsets, targets, true);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(0), NodeId(1)]);
        assert_eq!(g.degree(NodeId(1)), 0);
    }

    #[test]
    fn nonzero_first_offset_does_not_take_the_fast_path() {
        // targets[0] is an orphan entry before the first range; the
        // normalizing path must drop it rather than count it.
        let offsets = vec![1, 1, 2];
        let targets = vec![NodeId(9), NodeId(1)];
        let g = CsrGraph::from_raw_parts(2, offsets, targets, true);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.total_degree(), 1);
        assert_eq!(g.degree(NodeId(0)), 0);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(1)]);
    }

    #[test]
    fn empty_graph_edge_iterator_is_empty() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.max_degree(), 0);
    }
}
