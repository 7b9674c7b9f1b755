//! Independent-cascade realization (Figure 3 of the paper).
//!
//! Instead of deleting edges independently, each copy is the subgraph
//! "adopted" by a word-of-mouth cascade (Goldenberg, Libai & Muller): start
//! from a seed node, add each neighbor of a newly added node independently
//! with probability `p` (a node can be targeted multiple times, once per
//! adopting neighbor), and keep every underlying edge whose two endpoints
//! both adopted. The paper reports that User-Matching performs even better
//! under this model than under independent deletion — cascades preserve
//! whole neighborhoods, so surviving nodes keep many common neighbors.

use crate::realization::{pair_from_edge_subsets, RealizationPair};
use rand::Rng;
use snr_graph::{GraphError, GraphView, NodeId};
use std::collections::VecDeque;

/// Runs one independent cascade on `g` starting from `seed` with adoption
/// probability `p`; returns the adopted node set as a boolean mask.
fn run_cascade<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    seed: NodeId,
    p: f64,
    rng: &mut R,
) -> Vec<bool> {
    let mut adopted = vec![false; g.node_count()];
    if seed.index() >= g.node_count() {
        return adopted;
    }
    let mut queue = VecDeque::new();
    adopted[seed.index()] = true;
    queue.push_back(seed);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors_iter(u) {
            if !adopted[v.index()] && rng.gen::<f64>() < p {
                adopted[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    adopted
}

/// Produces two copies of `g`, each grown by an independent cascade with
/// adoption probability `p` from a random seed node. Each copy keeps the
/// underlying edges whose endpoints both adopted in that copy's cascade.
pub fn cascade_realization<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    p: f64,
    rng: &mut R,
) -> Result<RealizationPair, GraphError> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphError::InvalidParameter(format!("p = {p} must be in [0, 1]")));
    }
    if g.node_count() == 0 {
        return Ok(pair_from_edge_subsets(0, &[], &[], rng));
    }

    // Seed each cascade at a high-degree node so the cascade reaches a
    // substantial fraction of the network (the paper seeds "from one seed
    // node" of the Facebook graph; any isolated-seed cascade would be
    // degenerate). Picking the max-degree node keeps the process
    // deterministic given the RNG.
    let seed =
        g.nodes_iter().max_by_key(|&v| g.degree(v)).expect("non-empty graph has a max-degree node");

    let adopted1 = run_cascade(g, seed, p, rng);
    let adopted2 = run_cascade(g, seed, p, rng);

    let mut edges1 = Vec::new();
    let mut edges2 = Vec::new();
    for e in g.edges_iter() {
        if adopted1[e.src.index()] && adopted1[e.dst.index()] {
            edges1.push((e.src, e.dst));
        }
        if adopted2[e.src.index()] && adopted2[e.dst.index()] {
            edges2.push((e.src, e.dst));
        }
    }
    Ok(pair_from_edge_subsets(g.node_count(), &edges1, &edges2, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_generators::preferential_attachment;
    use snr_graph::CsrGraph;

    #[test]
    fn rejects_invalid_probability() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(cascade_realization(&g, 1.5, &mut rng).is_err());
        assert!(cascade_realization(&g, -0.5, &mut rng).is_err());
    }

    #[test]
    fn probability_one_adopts_entire_component() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut rng = StdRng::seed_from_u64(1);
        let adopted = run_cascade(&g, NodeId(0), 1.0, &mut rng);
        assert!(adopted.iter().all(|&a| a));
    }

    #[test]
    fn probability_zero_adopts_only_the_seed() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut rng = StdRng::seed_from_u64(2);
        let adopted = run_cascade(&g, NodeId(2), 0.0, &mut rng);
        assert_eq!(adopted.iter().filter(|&&a| a).count(), 1);
        assert!(adopted[2]);
    }

    #[test]
    fn cascade_copies_are_subgraphs_and_nontrivial() {
        let mut rng = StdRng::seed_from_u64(3);
        // Average degree 2*20 = 40 so a 5% cascade has branching factor ~2
        // and reaches a large fraction of the graph, as in the paper's
        // Facebook experiment.
        let g = preferential_attachment(3_000, 20, &mut rng).unwrap();
        let pair = cascade_realization(&g, 0.05, &mut rng).unwrap();
        assert!(pair.g1.edge_count() > 0);
        assert!(pair.g2.edge_count() > 0);
        assert!(pair.g1.edge_count() < g.edge_count());
        for e in pair.g1.edges() {
            assert!(g.has_edge(e.src, e.dst));
        }
        // A meaningful number of nodes survive in both copies.
        assert!(pair.matchable_nodes() > 100, "matchable = {}", pair.matchable_nodes());
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = CsrGraph::from_edges(0, &[]);
        let mut rng = StdRng::seed_from_u64(4);
        let pair = cascade_realization(&g, 0.5, &mut rng).unwrap();
        assert_eq!(pair.g1.node_count(), 0);
    }

    #[test]
    fn out_of_range_seed_adopts_nothing() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(5);
        let adopted = run_cascade(&g, NodeId(17), 1.0, &mut rng);
        assert!(adopted.iter().all(|&a| !a));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = preferential_attachment(500, 8, &mut StdRng::seed_from_u64(6)).unwrap();
        let p1 = cascade_realization(&g, 0.1, &mut StdRng::seed_from_u64(7)).unwrap();
        let p2 = cascade_realization(&g, 0.1, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(p1.g1, p2.g1);
        assert_eq!(p1.g2, p2.g2);
    }
}
