//! Graph statistics.
//!
//! The experiment harness reports Table-1-style statistics for every dataset
//! proxy (node/edge counts, degree distribution summaries), and the
//! reconciliation algorithm's degree-bucketing schedule is driven by the
//! maximum degree. This module collects those read-only summaries.

use crate::node::NodeId;
use crate::view::GraphView;

/// Summary statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of logical edges.
    pub edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree (`2m/n` for undirected graphs; `m/n` for directed).
    pub avg_degree: f64,
    /// Median degree.
    pub median_degree: usize,
    /// Number of isolated nodes (degree zero).
    pub isolated: usize,
    /// Number of nodes with degree at most 5 — the paper repeatedly calls out
    /// this cohort because such nodes are hard to identify after deletion.
    pub low_degree_le5: usize,
}

impl GraphStats {
    /// Computes statistics for any [`GraphView`].
    pub fn compute<G: GraphView>(g: &G) -> Self {
        let n = g.node_count();
        let mut degrees: Vec<usize> = (0..n).map(|i| g.degree(NodeId::from_index(i))).collect();
        degrees.sort_unstable();
        let isolated = degrees.iter().take_while(|&&d| d == 0).count();
        let low_degree_le5 = degrees.iter().take_while(|&&d| d <= 5).count();
        let median_degree = if n == 0 { 0 } else { degrees[n / 2] };
        let avg_degree = if n == 0 {
            0.0
        } else if g.is_directed() {
            g.edge_count() as f64 / n as f64
        } else {
            2.0 * g.edge_count() as f64 / n as f64
        };
        GraphStats {
            nodes: n,
            edges: g.edge_count(),
            max_degree: g.max_degree(),
            avg_degree,
            median_degree,
            isolated,
            low_degree_le5,
        }
    }
}

/// Degree histogram: `histogram[d]` is the number of nodes with degree `d`.
pub fn degree_histogram<G: GraphView>(g: &G) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in g.nodes_iter() {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// Estimates the exponent of a power-law degree distribution via the
/// maximum-likelihood (Hill) estimator over nodes with degree `>= d_min`.
///
/// Returns `None` if fewer than 10 nodes qualify. Used by tests to check
/// that the preferential-attachment generator produces the expected
/// heavy-tailed distribution (exponent ≈ 3 for the Barabási–Albert process).
pub fn power_law_exponent<G: GraphView>(g: &G, d_min: usize) -> Option<f64> {
    let d_min = d_min.max(1);
    let mut count = 0usize;
    let mut log_sum = 0.0f64;
    for v in g.nodes_iter() {
        let d = g.degree(v);
        if d >= d_min {
            count += 1;
            log_sum += (d as f64 / (d_min as f64 - 0.5)).ln();
        }
    }
    if count < 10 {
        None
    } else {
        Some(1.0 + count as f64 / log_sum)
    }
}

/// Global clustering coefficient (transitivity): `3 * triangles / wedges`.
///
/// Exact computation; intended for the modest graph sizes used in tests and
/// the scaled-down experiments, not the full R-MAT instances.
pub fn global_clustering_coefficient<G: GraphView>(g: &G) -> f64 {
    let mut wedges = 0usize;
    let mut closed = 0usize; // counts each triangle 3 times (once per wedge center)
    let mut nbrs: Vec<NodeId> = Vec::new();
    for v in g.nodes_iter() {
        nbrs.clear();
        nbrs.extend(g.neighbors_iter(v));
        let d = nbrs.len();
        if d < 2 {
            continue;
        }
        wedges += d * (d - 1) / 2;
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                if g.has_edge(nbrs[i], nbrs[j]) {
                    closed += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        closed as f64 / wedges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    fn star(n: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (1..n).map(|i| (0, i)).collect();
        CsrGraph::from_edges(n as usize, &edges)
    }

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn stats_of_star_graph() {
        let g = star(6);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 6);
        assert_eq!(s.edges, 5);
        assert_eq!(s.max_degree, 5);
        assert!((s.avg_degree - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.isolated, 0);
        assert_eq!(s.low_degree_le5, 6);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.median_degree, 0);
    }

    #[test]
    fn isolated_nodes_are_counted() {
        let g = CsrGraph::from_edges(5, &[(0, 1)]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.isolated, 3);
    }

    #[test]
    fn degree_histogram_sums_to_node_count() {
        let g = star(8);
        let hist = degree_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), 8);
        assert_eq!(hist[1], 7);
        assert_eq!(hist[7], 1);
    }

    #[test]
    fn clustering_of_triangle_is_one_and_star_is_zero() {
        assert!((global_clustering_coefficient(&triangle()) - 1.0).abs() < 1e-12);
        assert_eq!(global_clustering_coefficient(&star(10)), 0.0);
    }

    #[test]
    fn power_law_exponent_requires_enough_nodes() {
        assert!(power_law_exponent(&triangle(), 1).is_none());
    }

    #[test]
    fn power_law_exponent_on_synthetic_tail() {
        // Build a graph whose degree sequence is a rough power law by wiring
        // hubs: node i in 0..50 gets degree ~ proportional to 1/(i+1).
        let mut edges = Vec::new();
        let mut next = 50u32;
        for hub in 0..50u32 {
            let deg = (200 / (hub + 1)).max(1);
            for _ in 0..deg {
                edges.push((hub, next));
                next += 1;
            }
        }
        let g = CsrGraph::from_edges(next as usize, &edges);
        let alpha = power_law_exponent(&g, 2).unwrap();
        assert!(alpha > 1.0 && alpha < 5.0, "alpha = {alpha}");
    }
}
