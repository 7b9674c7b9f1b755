//! Per-degree precision / recall curves (Figure 4 of the paper).
//!
//! The paper plots, for DBLP and Gowalla, how precision and recall vary with
//! the node degree: low-degree nodes are hard to recall (they may have no
//! common neighbor across the copies at all), while precision stays high
//! across the board. The degree used for bucketing is the node's degree in
//! the *intersection-like* sense — we use the smaller of its two copy
//! degrees, which is the paper's "degree in the intersection of the two
//! graphs" up to sampling noise.

use snr_core::Linking;
use snr_sampling::RealizationPair;

/// Precision / recall within one degree bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeBucketMetrics {
    /// Inclusive lower bound of the bucket (min copy degree).
    pub degree_lo: usize,
    /// Inclusive upper bound of the bucket.
    pub degree_hi: usize,
    /// Matchable nodes whose min copy degree falls in the bucket.
    pub matchable: usize,
    /// Correctly identified nodes in the bucket.
    pub good: usize,
    /// Copy-1 nodes in this bucket that were linked incorrectly.
    pub bad: usize,
}

impl DegreeBucketMetrics {
    /// Recall within the bucket (`good / matchable`).
    pub fn recall(&self) -> f64 {
        if self.matchable == 0 {
            0.0
        } else {
            self.good as f64 / self.matchable as f64
        }
    }

    /// Precision within the bucket (`good / (good + bad)`); 1.0 if the
    /// bucket produced no links.
    pub fn precision(&self) -> f64 {
        let total = self.good + self.bad;
        if total == 0 {
            1.0
        } else {
            self.good as f64 / total as f64
        }
    }
}

/// Computes the per-degree curve for a link set, using the supplied bucket
/// boundaries (e.g. `&[1, 2, 3, 5, 8, 13, 21, 34]`). Each bucket spans
/// `[bound[i], bound[i+1] - 1]`; the last bucket is open-ended.
pub fn degree_curve(
    pair: &RealizationPair,
    links: &Linking,
    bounds: &[usize],
) -> Vec<DegreeBucketMetrics> {
    assert!(!bounds.is_empty(), "need at least one bucket bound");
    let mut buckets: Vec<DegreeBucketMetrics> = bounds
        .iter()
        .enumerate()
        .map(|(i, &lo)| DegreeBucketMetrics {
            degree_lo: lo,
            degree_hi: if i + 1 < bounds.len() { bounds[i + 1] - 1 } else { usize::MAX },
            matchable: 0,
            good: 0,
            bad: 0,
        })
        .collect();

    let bucket_of = |d: usize| -> Option<usize> {
        if d < bounds[0] {
            return None;
        }
        let mut idx = 0;
        for (i, &lo) in bounds.iter().enumerate() {
            if d >= lo {
                idx = i;
            } else {
                break;
            }
        }
        Some(idx)
    };

    // Recall denominator: matchable nodes by their min copy degree.
    for (u1, u2) in pair.truth.correct_pairs() {
        let d1 = pair.g1.degree(u1);
        let d2 = pair.g2.degree(u2);
        if d1 == 0 || d2 == 0 {
            continue;
        }
        if let Some(b) = bucket_of(d1.min(d2)) {
            buckets[b].matchable += 1;
        }
    }

    // Numerators: walk the links.
    for (u1, u2) in links.pairs() {
        let d1 = pair.g1.degree(u1);
        let d2 = pair.g2.degree(u2);
        let d = d1.min(d2);
        if let Some(b) = bucket_of(d) {
            if pair.truth.is_correct(u1, u2) {
                buckets[b].good += 1;
            } else {
                buckets[b].bad += 1;
            }
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_generators::preferential_attachment;
    use snr_sampling::independent::independent_deletion_symmetric;

    fn pair() -> RealizationPair {
        let mut rng = StdRng::seed_from_u64(1);
        let g = preferential_attachment(1_000, 8, &mut rng).unwrap();
        independent_deletion_symmetric(&g, 0.7, &mut rng).unwrap()
    }

    #[test]
    fn bucket_metrics_precision_recall_edges() {
        let m = DegreeBucketMetrics { degree_lo: 1, degree_hi: 5, matchable: 10, good: 5, bad: 5 };
        assert!((m.recall() - 0.5).abs() < 1e-12);
        assert!((m.precision() - 0.5).abs() < 1e-12);
        let empty =
            DegreeBucketMetrics { degree_lo: 1, degree_hi: 5, matchable: 0, good: 0, bad: 0 };
        assert_eq!(empty.recall(), 0.0);
        assert_eq!(empty.precision(), 1.0);
    }

    #[test]
    fn matchable_nodes_are_distributed_over_buckets() {
        let p = pair();
        let links = Linking::new(p.g1.node_count(), p.g2.node_count());
        let curve = degree_curve(&p, &links, &[1, 3, 6, 11, 21]);
        let total: usize = curve.iter().map(|b| b.matchable).sum();
        assert_eq!(total, p.matchable_nodes());
        assert_eq!(curve.len(), 5);
        // Bucket bounds are contiguous.
        for w in curve.windows(2) {
            assert_eq!(w[0].degree_hi + 1, w[1].degree_lo);
        }
        assert_eq!(curve.last().unwrap().degree_hi, usize::MAX);
    }

    #[test]
    fn perfect_links_give_full_recall_in_every_bucket() {
        let p = pair();
        let mut links = Linking::new(p.g1.node_count(), p.g2.node_count());
        for (u1, u2) in p.truth.correct_pairs() {
            if p.g1.degree(u1) >= 1 && p.g2.degree(u2) >= 1 {
                links.insert(u1, u2);
            }
        }
        let curve = degree_curve(&p, &links, &[1, 3, 6, 11, 21]);
        for b in &curve {
            if b.matchable > 0 {
                assert_eq!(b.good, b.matchable);
                assert_eq!(b.bad, 0);
                assert_eq!(b.recall(), 1.0);
            }
        }
    }

    #[test]
    fn wrong_links_show_up_as_bad_in_their_bucket() {
        let p = pair();
        let mut links = Linking::new(p.g1.node_count(), p.g2.node_count());
        // Build deliberately wrong links: shift every correct pair's target.
        let correct: Vec<_> = p.truth.correct_pairs().take(50).collect();
        for w in correct.windows(2) {
            let (u1, _) = w[0];
            let (_, v2) = w[1];
            links.insert(u1, v2);
        }
        let curve = degree_curve(&p, &links, &[1]);
        let bad: usize = curve.iter().map(|b| b.bad).sum();
        assert!(bad > 0);
        let good: usize = curve.iter().map(|b| b.good).sum();
        assert_eq!(good, 0);
    }

    #[test]
    #[should_panic(expected = "at least one bucket bound")]
    fn empty_bounds_panic() {
        let p = pair();
        let links = Linking::new(p.g1.node_count(), p.g2.node_count());
        let _ = degree_curve(&p, &links, &[]);
    }
}
