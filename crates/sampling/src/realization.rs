//! The [`RealizationPair`] wrapper and shared construction helpers.

use crate::ground_truth::GroundTruth;
use rand::seq::SliceRandom;
use rand::Rng;
use snr_graph::{CsrGraph, GraphBuilder, NodeId};

/// Two observed copies of an underlying network plus their ground-truth
/// correspondence.
///
/// Copy 1 keeps the underlying node ids; copy 2's ids are a uniformly random
/// permutation of them (plus any injected fake nodes appended at the end),
/// so nothing about the true correspondence leaks through the id space.
#[derive(Clone, Debug)]
pub struct RealizationPair {
    /// First observed copy.
    pub g1: CsrGraph,
    /// Second observed copy (node ids scrambled relative to `g1`).
    pub g2: CsrGraph,
    /// The true correspondence, used for seeding and scoring only.
    pub truth: GroundTruth,
}

impl RealizationPair {
    /// Number of underlying users that can possibly be identified: nodes
    /// with degree ≥ 1 in *both* copies (the paper's footnote 4: "we can
    /// only detect nodes which have at least degree 1 in both networks").
    pub fn matchable_nodes(&self) -> usize {
        self.truth
            .correct_pairs()
            .filter(|&(u1, u2)| self.g1.degree(u1) >= 1 && self.g2.degree(u2) >= 1)
            .count()
    }
}

/// Builds a [`RealizationPair`] from two edge subsets expressed in
/// *underlying* node ids.
///
/// * Copy 1 uses the underlying ids directly.
/// * Copy 2 applies a random permutation to the underlying ids.
///
/// Both copies keep the full node set (nodes that lost all their edges stay
/// as isolated nodes), matching the paper's model where `V` is shared and
/// only edges differ.
pub fn pair_from_edge_subsets<R: Rng + ?Sized>(
    underlying_nodes: usize,
    edges1: &[(NodeId, NodeId)],
    edges2: &[(NodeId, NodeId)],
    rng: &mut R,
) -> RealizationPair {
    let mut b1 = GraphBuilder::undirected(underlying_nodes);
    b1.reserve_edges(edges1.len());
    for &(u, v) in edges1 {
        b1.add_edge(u, v);
    }
    b1.ensure_nodes(underlying_nodes);

    // Random permutation for copy 2.
    let mut perm: Vec<NodeId> = (0..underlying_nodes as u32).map(NodeId).collect();
    perm.shuffle(rng);

    let mut b2 = GraphBuilder::undirected(underlying_nodes);
    b2.reserve_edges(edges2.len());
    for &(u, v) in edges2 {
        b2.add_edge(perm[u.index()], perm[v.index()]);
    }
    b2.ensure_nodes(underlying_nodes);

    let forward: Vec<Option<NodeId>> = perm.iter().map(|&p| Some(p)).collect();
    RealizationPair {
        g1: b1.build(),
        g2: b2.build(),
        truth: GroundTruth::from_forward(forward, underlying_nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn edges(list: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
        list.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect()
    }

    #[test]
    fn pair_preserves_structure_under_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = edges(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let pair = pair_from_edge_subsets(5, &e, &e, &mut rng);
        assert_eq!(pair.g1.edge_count(), 4);
        assert_eq!(pair.g2.edge_count(), 4);
        // Structure is isomorphic via the ground truth: every g1 edge maps to
        // a g2 edge.
        for edge in pair.g1.edges() {
            let a = pair.truth.counterpart_in_g2(edge.src).unwrap();
            let b = pair.truth.counterpart_in_g2(edge.dst).unwrap();
            assert!(pair.g2.has_edge(a, b));
        }
    }

    #[test]
    fn different_edge_subsets_produce_different_copies() {
        let mut rng = StdRng::seed_from_u64(2);
        let e1 = edges(&[(0, 1), (1, 2)]);
        let e2 = edges(&[(2, 3), (3, 4)]);
        let pair = pair_from_edge_subsets(5, &e1, &e2, &mut rng);
        assert_eq!(pair.g1.edge_count(), 2);
        assert_eq!(pair.g2.edge_count(), 2);
        // Node 0 has an edge in copy 1 but none in copy 2.
        let n0_in_g2 = pair.truth.counterpart_in_g2(NodeId(0)).unwrap();
        assert_eq!(pair.g1.degree(NodeId(0)), 1);
        assert_eq!(pair.g2.degree(n0_in_g2), 0);
    }

    #[test]
    fn matchable_nodes_requires_degree_in_both_copies() {
        let mut rng = StdRng::seed_from_u64(3);
        let e1 = edges(&[(0, 1), (2, 3)]);
        let e2 = edges(&[(0, 1)]);
        let pair = pair_from_edge_subsets(4, &e1, &e2, &mut rng);
        assert_eq!(pair.matchable_nodes(), 2); // only nodes 0 and 1
    }

    #[test]
    fn empty_edge_sets_are_fine() {
        let mut rng = StdRng::seed_from_u64(4);
        let pair = pair_from_edge_subsets(3, &[], &[], &mut rng);
        assert_eq!(pair.g1.node_count(), 3);
        assert_eq!(pair.g2.node_count(), 3);
        assert_eq!(pair.matchable_nodes(), 0);
    }
}
