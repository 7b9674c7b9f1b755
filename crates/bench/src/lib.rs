//! Shared fixtures for the `bench_witnesses` Criterion benchmark.
//!
//! The benchmark times one witness-scoring phase through every executor's
//! entry point; CI gates its labels against `BENCH_BASELINE.json`. Whole
//! runs are timed by `perfbench/` and the Table 2 scaling shape by the
//! `table2_scalability` record. All fixtures are deterministic.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::Linking;
use snr_generators::{preferential_attachment, rmat, RmatConfig};
use snr_graph::{CompactCsr, NodeId};
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::{sample_seeds, RealizationPair};

/// A reconciliation workload: a pair of copies plus sampled seed links.
pub struct Workload {
    /// The two observed copies plus ground truth.
    pub pair: RealizationPair,
    /// Sampled seed links.
    pub seeds: Vec<(NodeId, NodeId)>,
}

impl Workload {
    /// Builds a PA-based workload with `n` nodes, `m` edges per node, edge
    /// survival `s` and seed-link probability `l`.
    pub fn pa(n: usize, m: usize, s: f64, l: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = preferential_attachment(n, m, &mut rng).expect("valid PA parameters");
        let pair = independent_deletion_symmetric(&g, s, &mut rng).expect("valid probability");
        let seeds = sample_seeds(&pair, l, &mut rng).expect("valid probability");
        Workload { pair, seeds }
    }

    /// Builds an R-MAT (graph500 parameters, edge factor 16) workload of
    /// `2^scale` nodes with edge survival `s` and seed-link probability `l`.
    /// This is the Table 2 shape at benchmark size — the workload the
    /// arena-scorer throughput numbers are recorded on.
    pub fn rmat(scale: u32, s: f64, l: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = rmat(&RmatConfig::graph500(scale, 16), &mut rng).expect("valid R-MAT parameters");
        let pair = independent_deletion_symmetric(&g, s, &mut rng).expect("valid probability");
        let seeds = sample_seeds(&pair, l, &mut rng).expect("valid probability");
        Workload { pair, seeds }
    }

    /// The seed links as a [`Linking`] over the two copies.
    pub fn linking(&self) -> Linking {
        Linking::with_seeds(self.pair.g1.node_count(), self.pair.g2.node_count(), &self.seeds)
    }

    /// Both copies re-encoded as [`CompactCsr`], for benchmarking the
    /// block-compressed representation on the same workload.
    pub fn compact_pair(&self) -> (CompactCsr, CompactCsr) {
        (self.pair.g1.compact(), self.pair.g2.compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_nonempty() {
        let a = Workload::pa(500, 5, 0.6, 0.1, 3);
        let b = Workload::pa(500, 5, 0.6, 0.1, 3);
        assert_eq!(a.pair.g1, b.pair.g1);
        assert_eq!(a.seeds, b.seeds);
        assert!(!a.seeds.is_empty());
        assert_eq!(a.linking().len(), a.seeds.len());
    }
}
