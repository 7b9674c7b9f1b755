//! Shared pieces of the `smoke` binary: the R-MAT fixture every scenario
//! runs on, the bit-identity check against the sequential matcher, and the
//! driver configuration the distributed scenarios share.
//!
//! ```text
//! cargo run --release -p snr-experiments --bin smoke -- all
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::{Linking, MatchingConfig, MatchingOutcome, UserMatching};
use snr_driver::{DriverConfig, DriverStore};
use snr_graph::{CsrGraph, NodeId};
use snr_metrics::Evaluation;
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::{sample_seeds, RealizationPair};

/// A graph500 R-MAT graph at `scale` (edge factor 16), drawn from `rng`.
pub fn rmat_graph(scale: u32, rng: &mut StdRng) -> CsrGraph {
    snr_generators::rmat(&snr_generators::RmatConfig::graph500(scale, 16), rng)
        .expect("valid R-MAT parameters")
}

/// Two noisy copies of one R-MAT graph plus a seed sample: the workload
/// every matching scenario runs on.
pub struct Fixture {
    /// R-MAT scale exponent (2^scale nodes).
    pub scale: u32,
    /// The two copies and their ground truth.
    pub pair: RealizationPair,
    /// Seed links sampled from the ground truth.
    pub seeds: Vec<(NodeId, NodeId)>,
    /// Nodes with degree at least 1 in both copies.
    pub matchable: usize,
}

impl Fixture {
    /// Keeps each edge with probability `survival` in each copy and samples
    /// each true pair as a seed with probability `seed_fraction`. One
    /// `StdRng` seeded with `seed ^ scale` draws the graph, the deletion
    /// and the seeds, in that order.
    pub fn rmat(scale: u32, seed: u64, survival: f64, seed_fraction: f64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed ^ scale as u64);
        let g = rmat_graph(scale, &mut rng);
        let pair =
            independent_deletion_symmetric(&g, survival, &mut rng).expect("valid probability");
        let seeds = sample_seeds(&pair, seed_fraction, &mut rng).expect("valid probability");
        Fixture::new(scale, pair, seeds)
    }

    /// The Table 2 workload shape: edge survival 0.5, 10% seeds.
    pub fn table2(scale: u32, seed: u64) -> Fixture {
        Fixture::rmat(scale, seed, 0.5, 0.10)
    }

    /// The Table 2 shape as the blocking experiments draw it: the graph
    /// from [`crate::datasets::rmat_like`], the deletion from
    /// `StdRng(seed ^ scale)`, and the seeds from their own
    /// `StdRng(seed ^ 0x5EED_5EED)`.
    pub fn blocking(scale: u32, seed: u64) -> Fixture {
        let g = crate::datasets::rmat_like(scale, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ scale as u64);
        let pair = independent_deletion_symmetric(&g, 0.5, &mut rng).expect("valid probability");
        let mut seed_rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
        let seeds = sample_seeds(&pair, 0.10, &mut seed_rng).expect("valid link probability");
        Fixture::new(scale, pair, seeds)
    }

    fn new(scale: u32, pair: RealizationPair, seeds: Vec<(NodeId, NodeId)>) -> Fixture {
        let matchable = pair.matchable_nodes();
        Fixture { scale, pair, seeds, matchable }
    }

    /// The seed links as a `Linking`.
    pub fn links(&self) -> Linking {
        Linking::with_seeds(self.pair.g1.node_count(), self.pair.g2.node_count(), &self.seeds)
    }

    /// One line naming the workload: scale, nodes, edges per copy, seeds.
    pub fn summary(&self) -> String {
        format!(
            "RMAT-{}: {} nodes, {}/{} edges, {} seed links",
            self.scale,
            self.pair.g1.node_count(),
            self.pair.g1.edge_count(),
            self.pair.g2.edge_count(),
            self.seeds.len()
        )
    }

    /// The sequential matcher's outcome under `matching`: the reference
    /// every other path must reproduce. Prints its wall time.
    pub fn reference(&self, matching: &MatchingConfig) -> MatchingOutcome {
        let start = std::time::Instant::now();
        let outcome =
            UserMatching::new(matching.clone()).run(&self.pair.g1, &self.pair.g2, &self.seeds);
        let secs = start.elapsed().as_secs_f64();
        println!("sequential reference: {secs:.3}s, {} links", outcome.links.len());
        outcome
    }

    /// Scores `outcome` against the ground truth.
    pub fn evaluate(&self, outcome: &MatchingOutcome) -> Evaluation {
        Evaluation::score_against(
            &self.pair.truth,
            self.matchable,
            &outcome.links,
            outcome.links.seed_count(),
        )
    }
}

/// Asserts that `outcome` is bit-identical to `reference`: the same links,
/// the same good/bad counts, and the same per-phase
/// `(scored_pairs, new_links, total_links)`. Returns the outcome's
/// evaluation.
pub fn assert_identical(
    label: &str,
    outcome: &MatchingOutcome,
    reference: &MatchingOutcome,
    fixture: &Fixture,
) -> Evaluation {
    let run = fixture.evaluate(outcome);
    let ref_run = fixture.evaluate(reference);
    assert_eq!(outcome.links, reference.links, "{label}: links diverged from sequential");
    assert_eq!(
        (run.new_good, run.new_bad),
        (ref_run.new_good, ref_run.new_bad),
        "{label}: good/bad counts diverged from sequential"
    );
    assert_eq!(
        outcome.phases.len(),
        reference.phases.len(),
        "{label}: phase count diverged from sequential"
    );
    for (d, r) in outcome.phases.iter().zip(&reference.phases) {
        assert_eq!(
            (d.scored_pairs, d.new_links, d.total_links),
            (r.scored_pairs, r.new_links, r.total_links),
            "{label}: phase counters diverged from sequential"
        );
    }
    run
}

/// A driver config over `workers` worker subprocesses on mmap stores, with
/// a generous task deadline (smoke hosts are slow and shared) and an
/// optional `SNR_FAULT`-grammar fault spec.
pub fn driver_config(
    workers: usize,
    matching: MatchingConfig,
    fault: Option<&str>,
) -> DriverConfig {
    let mut config = DriverConfig::new(workers);
    config.matching = matching;
    config.store = DriverStore::Mmap;
    config.task_timeout = std::time::Duration::from_secs(300);
    config.fault = fault.map(str::to_owned);
    config
}
