//! Mutual-best pair selection.
//!
//! The paper's rule: *"If (u, v) is the pair with highest score in which
//! either u or v appear and the score is above T, add (u, v) to L."* In
//! other words, `v` must be `u`'s best-scoring partner **and** `u` must be
//! `v`'s best-scoring partner, and the score must reach the threshold.
//!
//! Ties need care: two partners with equal score would make "the" best pair
//! ambiguous, and a nondeterministic choice would make the experiments
//! unreproducible and the backends inequivalent. We order candidates by
//! `(score, then smaller partner id)` and additionally require the best
//! score to be *strictly* unique — when a node's two best partners tie, the
//! node abstains this phase (it usually gets resolved in a later, lower
//! bucket once more witnesses exist). Abstaining on ties also improves
//! precision, in the same spirit as the paper's threshold.

use crate::witness::ScoreTable;
use snr_graph::NodeId;
use std::collections::HashMap;

/// The best partner found for one node: the partner id, the score, and
/// whether that score was strictly better than every other partner's.
///
/// Shared with [`crate::scoring`], whose fused selection sink accumulates
/// the same per-node state during row finalization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Best {
    pub(crate) partner: u32,
    pub(crate) score: u32,
    pub(crate) unique: bool,
}

impl Best {
    pub(crate) fn consider(&mut self, partner: u32, score: u32) {
        match score.cmp(&self.score) {
            std::cmp::Ordering::Greater => {
                *self = Best { partner, score, unique: true };
            }
            std::cmp::Ordering::Equal => {
                // Tie for the best score: keep the smaller partner id for
                // determinism but remember that the best is not unique.
                if partner < self.partner {
                    self.partner = partner;
                }
                self.unique = false;
            }
            std::cmp::Ordering::Less => {}
        }
    }

    /// Combines the best partners found over two disjoint sets of candidate
    /// entries. Because the sets are disjoint, an equal best score across
    /// the two halves means two distinct partners tie, so the merged best is
    /// not unique. This makes the parallel reduction produce exactly the
    /// state `consider` would reach sequentially, in any partition order.
    pub(crate) fn merge(self, other: Best) -> Best {
        match self.score.cmp(&other.score) {
            std::cmp::Ordering::Greater => self,
            std::cmp::Ordering::Less => other,
            std::cmp::Ordering::Equal => {
                Best { partner: self.partner.min(other.partner), score: self.score, unique: false }
            }
        }
    }
}

/// Selects all mutual-best pairs with score at least `threshold` from a
/// score table. Returns pairs in ascending `(g1, g2)` id order.
///
/// This is the oracle selection the fused kernel in [`crate::scoring`] is
/// pinned against.
pub fn mutual_best_pairs(scores: &ScoreTable, threshold: u32) -> Vec<(NodeId, NodeId)> {
    // A threshold of 0 would link every scored pair; clamp it to 1 to keep
    // the "at least one witness" invariant.
    let threshold = threshold.max(1);

    let _span = snr_telemetry::span!("select", entries = scores.len(), threshold = threshold);
    let mut best_for_u: HashMap<u32, Best> = HashMap::new();
    let mut best_for_v: HashMap<u32, Best> = HashMap::new();
    for (&(u, v), &score) in scores {
        best_for_u.entry(u).and_modify(|b| b.consider(v, score)).or_insert(Best {
            partner: v,
            score,
            unique: true,
        });
        best_for_v.entry(v).and_modify(|b| b.consider(u, score)).or_insert(Best {
            partner: u,
            score,
            unique: true,
        });
    }
    let mut out = Vec::new();
    for (&u, bu) in &best_for_u {
        if bu.score < threshold || !bu.unique {
            continue;
        }
        let v = bu.partner;
        if let Some(bv) = best_for_v.get(&v) {
            if bv.unique && bv.partner == u && bv.score >= threshold {
                out.push((NodeId(u), NodeId(v)));
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: &[((u32, u32), u32)]) -> ScoreTable {
        entries.iter().copied().collect()
    }

    #[test]
    fn simple_mutual_best_is_selected() {
        let scores = table(&[((0, 0), 5), ((0, 1), 2), ((1, 1), 4), ((1, 0), 1)]);
        let pairs = mutual_best_pairs(&scores, 2);
        assert_eq!(pairs, vec![(NodeId(0), NodeId(0)), (NodeId(1), NodeId(1))]);
    }

    #[test]
    fn threshold_filters_low_scores() {
        let scores = table(&[((0, 0), 5), ((1, 1), 2)]);
        assert_eq!(mutual_best_pairs(&scores, 3), vec![(NodeId(0), NodeId(0))]);
        assert_eq!(mutual_best_pairs(&scores, 6), vec![]);
    }

    #[test]
    fn threshold_zero_behaves_like_one() {
        let scores = table(&[((0, 0), 1)]);
        assert_eq!(mutual_best_pairs(&scores, 0), vec![(NodeId(0), NodeId(0))]);
    }

    #[test]
    fn one_sided_best_is_not_enough() {
        // v=0's best is u=1 (score 6), but u=1's best is v=1 (score 7).
        let scores = table(&[((1, 0), 6), ((1, 1), 7), ((0, 0), 3)]);
        let pairs = mutual_best_pairs(&scores, 1);
        assert_eq!(pairs, vec![(NodeId(1), NodeId(1))]);
    }

    #[test]
    fn ties_cause_abstention() {
        // u=0 has two partners with the same top score: abstain.
        let scores = table(&[((0, 0), 4), ((0, 1), 4), ((1, 1), 3)]);
        let pairs = mutual_best_pairs(&scores, 1);
        assert!(!pairs.iter().any(|&(u, _)| u == NodeId(0)), "tied node must abstain: {pairs:?}");
    }

    #[test]
    fn tie_on_the_other_side_also_blocks() {
        // v=0 is wanted equally by u=0 and u=1.
        let scores = table(&[((0, 0), 4), ((1, 0), 4)]);
        assert!(mutual_best_pairs(&scores, 1).is_empty());
    }

    #[test]
    fn empty_table_gives_no_pairs() {
        assert!(mutual_best_pairs(&ScoreTable::new(), 2).is_empty());
    }

    #[test]
    fn output_is_a_matching() {
        // Dense random-ish table; verify no node is used twice.
        let mut entries = Vec::new();
        for u in 0..20u32 {
            for v in 0..20u32 {
                entries.push(((u, v), ((u * 7 + v * 13) % 9) + 1));
            }
        }
        let pairs = mutual_best_pairs(&table(&entries), 1);
        let mut us: Vec<u32> = pairs.iter().map(|p| p.0 .0).collect();
        let mut vs: Vec<u32> = pairs.iter().map(|p| p.1 .0).collect();
        us.sort_unstable();
        vs.sort_unstable();
        let ulen = us.len();
        let vlen = vs.len();
        us.dedup();
        vs.dedup();
        assert_eq!(us.len(), ulen);
        assert_eq!(vs.len(), vlen);
    }

    #[test]
    fn best_merge_abstains_on_ties_across_partitions() {
        // Two disjoint halves whose bests tie: the merged best keeps the
        // smaller partner but is no longer unique, in either merge order.
        let a = Best { partner: 7, score: 5, unique: true };
        let b = Best { partner: 3, score: 5, unique: true };
        let tied = Best { partner: 3, score: 5, unique: false };
        assert_eq!(a.merge(b), tied);
        assert_eq!(b.merge(a), tied);
        // A strictly higher score wins outright and keeps its uniqueness.
        let c = Best { partner: 9, score: 6, unique: true };
        assert_eq!(a.merge(c), c);
        assert_eq!(c.merge(a), c);
    }

    proptest::proptest! {
        #[test]
        fn selected_pairs_always_meet_threshold(
            entries in proptest::collection::vec(((0u32..10, 0u32..10), 1u32..9), 0..60),
            threshold in 1u32..6,
        ) {
            let scores: ScoreTable = entries.into_iter().collect();
            for (u, v) in mutual_best_pairs(&scores, threshold) {
                proptest::prop_assert!(scores[&(u.0, v.0)] >= threshold);
            }
        }
    }
}
