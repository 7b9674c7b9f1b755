//! Mutable graph assembly.
//!
//! [`GraphBuilder`] accumulates edges and produces an immutable [`CsrGraph`].
//! All deduplication and ordering happens at `build()` time so that edge
//! insertion stays O(1) amortized; the generators in `snr-generators` insert
//! tens of millions of edges and rely on this.

use crate::csr::CsrGraph;
use crate::node::{Edge, NodeId};

/// Incremental builder for [`CsrGraph`].
///
/// The builder models an **undirected simple graph** by default: each added
/// edge appears in the adjacency of both endpoints, parallel edges are
/// collapsed at build time, and self-loops are dropped (the reconciliation
/// algorithm never uses them as witnesses). A directed mode is provided for
/// the few places (e.g. the bipartite user–interest structure of the
/// affiliation model) where asymmetric adjacency is convenient.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<Edge>,
    directed: bool,
}

impl GraphBuilder {
    /// Creates a builder for an undirected graph with `node_count` nodes.
    pub fn undirected(node_count: usize) -> Self {
        GraphBuilder { node_count, edges: Vec::new(), directed: false }
    }

    /// Creates a builder for a directed graph with `node_count` nodes.
    pub fn directed(node_count: usize) -> Self {
        GraphBuilder { node_count, edges: Vec::new(), directed: true }
    }

    /// Pre-allocates room for `additional` more edges.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Number of nodes the final graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Whether this builder produces a directed graph.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Grows the node set so that it contains at least `n` nodes.
    pub fn ensure_nodes(&mut self, n: usize) {
        if n > self.node_count {
            self.node_count = n;
        }
    }

    /// Adds an edge between `a` and `b`.
    ///
    /// Node ids outside the current node range grow the node set (this keeps
    /// generators that discover their node count on the fly simple).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        let needed = (a.0.max(b.0) as usize) + 1;
        self.ensure_nodes(needed);
        self.edges.push(Edge::new(a, b));
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    pub fn extend_edges<I>(&mut self, iter: I)
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        for (a, b) in iter {
            self.add_edge(a, b);
        }
    }

    /// Builds the immutable CSR graph, deduplicating parallel edges and
    /// dropping self-loops.
    pub fn build(self) -> CsrGraph {
        let GraphBuilder { node_count, mut edges, directed } = self;
        edges.retain(|e| !e.is_self_loop());

        // Count per-node out-degree (counting both directions for undirected
        // graphs) to lay out the CSR offsets in one pass.
        let mut degree = vec![0usize; node_count];
        for e in &edges {
            degree[e.src.index()] += 1;
            if !directed {
                degree[e.dst.index()] += 1;
            }
        }

        let mut offsets = Vec::with_capacity(node_count + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }

        let mut targets = vec![NodeId(0); acc];
        let mut cursor = offsets[..node_count].to_vec();
        for e in &edges {
            targets[cursor[e.src.index()]] = e.dst;
            cursor[e.src.index()] += 1;
            if !directed {
                targets[cursor[e.dst.index()]] = e.src;
                cursor[e.dst.index()] += 1;
            }
        }

        CsrGraph::from_raw_parts(node_count, offsets, targets, directed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_produces_empty_graph() {
        let g = GraphBuilder::undirected(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn isolated_nodes_are_preserved() {
        let g = GraphBuilder::undirected(5).build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        for i in 0..5 {
            assert_eq!(g.degree(NodeId(i)), 0);
        }
    }

    #[test]
    fn undirected_edges_appear_in_both_adjacencies() {
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(NodeId(0), NodeId(2));
        let g = b.build();
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(2)]);
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0)]);
        assert_eq!(g.neighbors(NodeId(1)), &[] as &[NodeId]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn parallel_edges_are_deduplicated_at_build() {
        let mut b = GraphBuilder::undirected(2);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::undirected(2);
        b.add_edge(NodeId(0), NodeId(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn add_edge_grows_node_set() {
        let mut b = GraphBuilder::undirected(1);
        b.add_edge(NodeId(0), NodeId(9));
        let g = b.build();
        assert_eq!(g.node_count(), 10);
    }

    #[test]
    fn directed_edges_are_one_way() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let g = b.build();
        assert!(g.is_directed());
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(2)]);
        assert_eq!(g.neighbors(NodeId(2)), &[] as &[NodeId]);
    }

    #[test]
    fn extend_edges_matches_individual_adds() {
        let mut b1 = GraphBuilder::undirected(4);
        b1.extend_edges([(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
        let mut b2 = GraphBuilder::undirected(4);
        b2.add_edge(NodeId(0), NodeId(1));
        b2.add_edge(NodeId(2), NodeId(3));
        let g1 = b1.build();
        let g2 = b2.build();
        assert_eq!(g1.edge_count(), g2.edge_count());
        for i in 0..4 {
            assert_eq!(g1.neighbors(NodeId(i)), g2.neighbors(NodeId(i)));
        }
    }
}
