//! Scoring a link set against the ground truth.

use snr_core::Linking;
use snr_sampling::{GroundTruth, RealizationPair};

/// The outcome of comparing a set of identification links against ground
/// truth.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Total number of links (seeds included).
    pub total_links: usize,
    /// Links that are correct identifications (seeds included).
    pub good: usize,
    /// Links that are incorrect identifications (seeds included).
    pub bad: usize,
    /// Number of seed links the run started from.
    pub seeds: usize,
    /// Correct links among the newly discovered ones (seeds excluded).
    pub new_good: usize,
    /// Incorrect links among the newly discovered ones (seeds excluded).
    pub new_bad: usize,
    /// Number of underlying users that could possibly be identified (degree
    /// ≥ 1 in both copies).
    pub matchable: usize,
}

impl Evaluation {
    /// Scores `links` against the pair's ground truth. `seed_count` is the
    /// number of links that were given as seeds (they are assumed correct —
    /// the samplers only produce correct seeds — and are excluded from the
    /// "new" counts).
    pub fn score(pair: &RealizationPair, links: &Linking, seed_count: usize) -> Self {
        Self::score_against(&pair.truth, pair.matchable_nodes(), links, seed_count)
    }

    /// Scores `links` against an explicit ground truth and matchable count.
    pub fn score_against(
        truth: &GroundTruth,
        matchable: usize,
        links: &Linking,
        seed_count: usize,
    ) -> Self {
        let mut good = 0usize;
        let mut bad = 0usize;
        for (u1, u2) in links.pairs() {
            if truth.is_correct(u1, u2) {
                good += 1;
            } else {
                bad += 1;
            }
        }
        let new_good = good.saturating_sub(seed_count);
        Evaluation {
            total_links: links.len(),
            good,
            bad,
            seeds: seed_count,
            new_good,
            new_bad: bad,
            matchable,
        }
    }

    /// Precision over newly identified links: `new_good / (new_good + new_bad)`;
    /// `1.0` when nothing new was identified.
    pub fn precision(&self) -> f64 {
        let denom = self.new_good + self.new_bad;
        if denom == 0 {
            1.0
        } else {
            self.new_good as f64 / denom as f64
        }
    }

    /// Error rate over newly identified links (`1 - precision`).
    pub fn error_rate(&self) -> f64 {
        1.0 - self.precision()
    }

    /// Recall over the matchable nodes: `good / matchable`; `0.0` when there
    /// is nothing to match.
    pub fn recall(&self) -> f64 {
        if self.matchable == 0 {
            0.0
        } else {
            self.good as f64 / self.matchable as f64
        }
    }

    /// F1 score of precision (over new links) and recall (over matchable).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_graph::NodeId;

    fn truth() -> GroundTruth {
        // 5 nodes, identity correspondence.
        GroundTruth::identity(5)
    }

    fn links_with(pairs: &[(u32, u32)]) -> Linking {
        let mut l = Linking::new(5, 5);
        for &(a, b) in pairs {
            l.insert(NodeId(a), NodeId(b));
        }
        l
    }

    #[test]
    fn counts_good_and_bad_links() {
        let links = links_with(&[(0, 0), (1, 1), (2, 3)]);
        let eval = Evaluation::score_against(&truth(), 5, &links, 1);
        assert_eq!(eval.total_links, 3);
        assert_eq!(eval.good, 2);
        assert_eq!(eval.bad, 1);
        assert_eq!(eval.new_good, 1);
        assert_eq!(eval.new_bad, 1);
        assert!((eval.precision() - 0.5).abs() < 1e-12);
        assert!((eval.error_rate() - 0.5).abs() < 1e-12);
        assert!((eval.recall() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn perfect_run_has_precision_one() {
        let links = links_with(&[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        let eval = Evaluation::score_against(&truth(), 5, &links, 2);
        assert_eq!(eval.good, 5);
        assert_eq!(eval.bad, 0);
        assert_eq!(eval.precision(), 1.0);
        assert_eq!(eval.recall(), 1.0);
        assert!((eval.f1() - 1.0).abs() < 1e-12);
        assert_eq!(eval.new_good, 3);
    }

    #[test]
    fn empty_links_are_harmless() {
        let eval = Evaluation::score_against(&truth(), 5, &Linking::new(5, 5), 0);
        assert_eq!(eval.total_links, 0);
        assert_eq!(eval.precision(), 1.0);
        assert_eq!(eval.recall(), 0.0);
        assert_eq!(eval.f1(), 0.0);
    }

    #[test]
    fn zero_matchable_gives_zero_recall() {
        let eval = Evaluation::score_against(&truth(), 0, &links_with(&[(0, 0)]), 0);
        assert_eq!(eval.recall(), 0.0);
    }

    proptest::proptest! {
        #[test]
        fn precision_and_recall_stay_in_unit_interval(
            pairs in proptest::collection::vec((0u32..5, 0u32..5), 0..5),
            seeds in 0usize..3,
        ) {
            let mut l = Linking::new(5, 5);
            for (a, b) in pairs {
                l.insert(NodeId(a), NodeId(b));
            }
            let eval = Evaluation::score_against(&truth(), 5, &l, seeds.min(l.len()));
            proptest::prop_assert!((0.0..=1.0).contains(&eval.precision()));
            proptest::prop_assert!((0.0..=1.0).contains(&eval.recall()));
            proptest::prop_assert!((0.0..=1.0).contains(&eval.f1()));
            proptest::prop_assert_eq!(eval.good + eval.bad, eval.total_links);
        }
    }
}
