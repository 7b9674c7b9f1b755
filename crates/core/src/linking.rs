//! The growing set of identification links.

use snr_graph::NodeId;

/// A bidirectional, one-to-one set of identification links between nodes of
/// copy 1 and nodes of copy 2.
///
/// This is the `L` of the paper's pseudo-code: it starts as the seed set and
/// grows as the algorithm identifies new pairs. The structure enforces that
/// each node appears in at most one link — the algorithm's mutual-best rule
/// guarantees it never tries to violate this, and [`Linking::insert`]
/// defends against it anyway.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Linking {
    g1_to_g2: Vec<Option<NodeId>>,
    g2_to_g1: Vec<Option<NodeId>>,
    /// Number of links that came from the initial seed set.
    seed_count: usize,
    len: usize,
}

impl Linking {
    /// Creates an empty linking over graphs with `n1` and `n2` nodes.
    pub fn new(n1: usize, n2: usize) -> Self {
        Linking { g1_to_g2: vec![None; n1], g2_to_g1: vec![None; n2], seed_count: 0, len: 0 }
    }

    /// Creates a linking pre-populated with seed links.
    ///
    /// Seeds that collide with already-inserted seeds are ignored.
    pub fn with_seeds(n1: usize, n2: usize, seeds: &[(NodeId, NodeId)]) -> Self {
        let mut l = Linking::new(n1, n2);
        for &(u1, u2) in seeds {
            l.insert(u1, u2);
        }
        l.seed_count = l.len;
        l
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no links.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of links that came from the seed set.
    pub fn seed_count(&self) -> usize {
        self.seed_count
    }

    /// Number of links discovered by the algorithm (non-seed links).
    pub fn discovered_count(&self) -> usize {
        self.len - self.seed_count
    }

    /// The copy-2 node linked to `u1`, if any.
    #[inline]
    pub fn linked_in_g2(&self, u1: NodeId) -> Option<NodeId> {
        self.g1_to_g2.get(u1.index()).copied().flatten()
    }

    /// The copy-1 node linked to `u2`, if any.
    #[inline]
    pub fn linked_in_g1(&self, u2: NodeId) -> Option<NodeId> {
        self.g2_to_g1.get(u2.index()).copied().flatten()
    }

    /// True if `u1` already appears in some link.
    #[inline]
    pub fn is_linked_g1(&self, u1: NodeId) -> bool {
        self.linked_in_g2(u1).is_some()
    }

    /// True if `u2` already appears in some link.
    #[inline]
    pub fn is_linked_g2(&self, u2: NodeId) -> bool {
        self.linked_in_g1(u2).is_some()
    }

    /// Inserts the link `(u1, u2)`. Returns `true` if it was added, `false`
    /// if either endpoint was already linked (the link set is left
    /// unchanged in that case).
    pub fn insert(&mut self, u1: NodeId, u2: NodeId) -> bool {
        if u1.index() >= self.g1_to_g2.len() || u2.index() >= self.g2_to_g1.len() {
            return false;
        }
        if self.is_linked_g1(u1) || self.is_linked_g2(u2) {
            return false;
        }
        self.g1_to_g2[u1.index()] = Some(u2);
        self.g2_to_g1[u2.index()] = Some(u1);
        self.len += 1;
        true
    }

    /// Inserts a whole phase's selected pairs, returning how many links were
    /// added: exactly repeated [`Linking::insert`] calls.
    pub fn insert_batch(&mut self, pairs: &[(NodeId, NodeId)]) -> usize {
        let mut added = 0usize;
        for &(u1, u2) in pairs {
            if self.insert(u1, u2) {
                added += 1;
            }
        }
        added
    }

    /// Number of copy-1 node slots (the `n1` the linking was created with).
    pub fn g1_capacity(&self) -> usize {
        self.g1_to_g2.len()
    }

    /// Number of copy-2 node slots (the `n2` the linking was created with).
    pub fn g2_capacity(&self) -> usize {
        self.g2_to_g1.len()
    }

    /// Iterator over all links as `(g1_node, g2_node)` pairs, in g1-id order.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.g1_to_g2
            .iter()
            .enumerate()
            .filter_map(|(u1, t)| t.map(|u2| (NodeId::from_index(u1), u2)))
    }

    /// Materializes the links as a vector (g1-id order).
    pub fn to_vec(&self) -> Vec<(NodeId, NodeId)> {
        self.pairs().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut l = Linking::new(4, 4);
        assert!(l.insert(NodeId(0), NodeId(3)));
        assert_eq!(l.linked_in_g2(NodeId(0)), Some(NodeId(3)));
        assert_eq!(l.linked_in_g1(NodeId(3)), Some(NodeId(0)));
        assert!(l.is_linked_g1(NodeId(0)));
        assert!(l.is_linked_g2(NodeId(3)));
        assert!(!l.is_linked_g1(NodeId(1)));
        assert_eq!(l.len(), 1);
        assert!(!l.is_empty());
    }

    #[test]
    fn duplicate_endpoints_are_rejected() {
        let mut l = Linking::new(4, 4);
        assert!(l.insert(NodeId(0), NodeId(0)));
        assert!(!l.insert(NodeId(0), NodeId(1)), "g1 endpoint reused");
        assert!(!l.insert(NodeId(1), NodeId(0)), "g2 endpoint reused");
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn out_of_range_inserts_are_rejected() {
        let mut l = Linking::new(2, 2);
        assert!(!l.insert(NodeId(5), NodeId(0)));
        assert!(!l.insert(NodeId(0), NodeId(5)));
        assert!(l.is_empty());
    }

    #[test]
    fn seeds_are_counted_separately_from_discoveries() {
        let seeds = vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))];
        let mut l = Linking::with_seeds(4, 4, &seeds);
        assert_eq!(l.seed_count(), 2);
        assert_eq!(l.discovered_count(), 0);
        l.insert(NodeId(2), NodeId(2));
        assert_eq!(l.seed_count(), 2);
        assert_eq!(l.discovered_count(), 1);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn conflicting_seeds_are_dropped() {
        let seeds = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2)), (NodeId(3), NodeId(1))];
        let l = Linking::with_seeds(4, 4, &seeds);
        assert_eq!(l.len(), 1);
        assert_eq!(l.seed_count(), 1);
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        // With in-batch conflicts and out-of-range pairs sprinkled in, the
        // batch must behave exactly like repeated insert() calls.
        let n = 10_000u32;
        let pairs: Vec<(NodeId, NodeId)> = (0..n + 10)
            .map(|i| (NodeId(i % n), NodeId((i * 7 + 3) % n)))
            .chain([(NodeId(n + 5), NodeId(0)), (NodeId(0), NodeId(n + 5))])
            .collect();
        let mut sequential = Linking::new(n as usize, n as usize);
        let mut expected = 0;
        for &(u1, u2) in &pairs {
            if sequential.insert(u1, u2) {
                expected += 1;
            }
        }
        let mut batched = Linking::new(n as usize, n as usize);
        assert_eq!(batched.insert_batch(&pairs), expected);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn insert_batch_small_batches_take_the_sequential_path() {
        let mut l = Linking::new(4, 4);
        let added = l.insert_batch(&[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))]);
        assert_eq!(added, 1, "second pair reuses the g1 endpoint");
        assert_eq!(l.linked_in_g2(NodeId(0)), Some(NodeId(1)));
    }

    #[test]
    fn capacities_report_construction_sizes() {
        let l = Linking::new(3, 7);
        assert_eq!(l.g1_capacity(), 3);
        assert_eq!(l.g2_capacity(), 7);
    }

    #[test]
    fn pairs_iterates_in_g1_order() {
        let mut l = Linking::new(5, 5);
        l.insert(NodeId(3), NodeId(0));
        l.insert(NodeId(1), NodeId(4));
        assert_eq!(l.to_vec(), vec![(NodeId(1), NodeId(4)), (NodeId(3), NodeId(0))]);
    }
}
