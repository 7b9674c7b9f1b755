//! Ground-truth correspondence between the two copies.

use snr_graph::NodeId;

/// The true correspondence between nodes of copy 1 and nodes of copy 2.
///
/// Most nodes have a counterpart in the other copy (they are two accounts of
/// the same underlying user); attack-model nodes and other injected fakes do
/// not, which is why both directions are `Option`al.
///
/// The matcher never sees this table — it is used only to sample seed links
/// and to score results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroundTruth {
    g1_to_g2: Vec<Option<NodeId>>,
    g2_to_g1: Vec<Option<NodeId>>,
}

impl GroundTruth {
    /// Builds a ground truth from the forward map `g1 -> g2`.
    ///
    /// `g2_count` is the number of nodes in copy 2 (needed because some of
    /// them may have no preimage).
    pub fn from_forward(g1_to_g2: Vec<Option<NodeId>>, g2_count: usize) -> Self {
        let mut g2_to_g1 = vec![None; g2_count];
        for (u1, target) in g1_to_g2.iter().enumerate() {
            if let Some(u2) = target {
                debug_assert!(u2.index() < g2_count, "g2 id out of bounds");
                debug_assert!(
                    g2_to_g1[u2.index()].is_none(),
                    "two g1 nodes map to the same g2 node"
                );
                g2_to_g1[u2.index()] = Some(NodeId::from_index(u1));
            }
        }
        GroundTruth { g1_to_g2, g2_to_g1 }
    }

    /// The identity correspondence over `n` nodes (copy ids coincide).
    pub fn identity(n: usize) -> Self {
        let fwd: Vec<Option<NodeId>> = (0..n as u32).map(|i| Some(NodeId(i))).collect();
        GroundTruth::from_forward(fwd, n)
    }

    /// Number of nodes in copy 1.
    pub fn g1_len(&self) -> usize {
        self.g1_to_g2.len()
    }

    /// Number of nodes in copy 2.
    pub fn g2_len(&self) -> usize {
        self.g2_to_g1.len()
    }

    /// The true counterpart in copy 2 of a copy-1 node, if any.
    #[inline]
    pub fn counterpart_in_g2(&self, u1: NodeId) -> Option<NodeId> {
        self.g1_to_g2.get(u1.index()).copied().flatten()
    }

    /// The true counterpart in copy 1 of a copy-2 node, if any.
    #[inline]
    pub fn counterpart_in_g1(&self, u2: NodeId) -> Option<NodeId> {
        self.g2_to_g1.get(u2.index()).copied().flatten()
    }

    /// True if `(u1, u2)` is a correct identification.
    #[inline]
    pub fn is_correct(&self, u1: NodeId, u2: NodeId) -> bool {
        self.counterpart_in_g2(u1) == Some(u2)
    }

    /// Iterator over all correct pairs `(u1, u2)`.
    pub fn correct_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.g1_to_g2
            .iter()
            .enumerate()
            .filter_map(|(u1, t)| t.map(|u2| (NodeId::from_index(u1), u2)))
    }

    /// Number of copy-1 nodes that have a counterpart.
    pub fn matchable_count(&self) -> usize {
        self.g1_to_g2.iter().filter(|t| t.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GroundTruth {
        // g1 has 4 nodes; node 3 has no counterpart. g2 has 3 nodes.
        GroundTruth::from_forward(vec![Some(NodeId(2)), Some(NodeId(0)), Some(NodeId(1)), None], 3)
    }

    #[test]
    fn forward_and_backward_maps_agree() {
        let t = sample();
        assert_eq!(t.counterpart_in_g2(NodeId(0)), Some(NodeId(2)));
        assert_eq!(t.counterpart_in_g1(NodeId(2)), Some(NodeId(0)));
        assert_eq!(t.counterpart_in_g2(NodeId(3)), None);
        assert_eq!(t.g1_len(), 4);
        assert_eq!(t.g2_len(), 3);
    }

    #[test]
    fn is_correct_checks_exact_pairs() {
        let t = sample();
        assert!(t.is_correct(NodeId(0), NodeId(2)));
        assert!(!t.is_correct(NodeId(0), NodeId(1)));
        assert!(!t.is_correct(NodeId(3), NodeId(0)));
    }

    #[test]
    fn correct_pairs_enumerates_all_matchable_nodes() {
        let t = sample();
        let pairs: Vec<_> = t.correct_pairs().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(t.matchable_count(), 3);
        assert!(pairs.contains(&(NodeId(1), NodeId(0))));
    }

    #[test]
    fn identity_maps_every_node_to_itself() {
        let t = GroundTruth::identity(5);
        for i in 0..5u32 {
            assert!(t.is_correct(NodeId(i), NodeId(i)));
        }
        assert_eq!(t.matchable_count(), 5);
    }

    #[test]
    fn out_of_range_lookups_return_none() {
        let t = sample();
        assert_eq!(t.counterpart_in_g2(NodeId(99)), None);
        assert_eq!(t.counterpart_in_g1(NodeId(99)), None);
    }
}
