//! Empirical check of the paper's round-complexity claim: User-Matching runs
//! in `O(k log D)` MapReduce rounds. The paper sketches four rounds per
//! (iteration, degree-bucket) phase; this engine's whole-row mappers +
//! range-partitioned packed shuffle + select-fused reduce collapse each
//! phase to exactly one round — same bound, 4x smaller constant — and the
//! per-round statistics let us verify the data-movement claim too: the
//! shuffle carries one record per *scored pair*, never one per *witness
//! contribution*.

use rand::rngs::StdRng;
use rand::SeedableRng;
use social_reconcile::core::{Backend, MatchingConfig, MatchingOutcome, UserMatching};
use social_reconcile::mapreduce::EngineStats;
use social_reconcile::prelude::*;

fn build(seed: u64) -> (RealizationPair, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = preferential_attachment(1_500, 8, &mut rng).unwrap();
    let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.10, &mut rng).unwrap();
    (pair, seeds)
}

/// Runs `config` (a MapReduce backend with `workers` workers) on a fresh
/// engine and returns the outcome with the engine's round statistics.
fn run_on_engine(
    config: MatchingConfig,
    workers: usize,
    pair: &RealizationPair,
    seeds: &[(NodeId, NodeId)],
) -> (MatchingOutcome, EngineStats) {
    let engine = Engine::new(workers);
    let outcome = UserMatching::new(config)
        .try_run_on_engine(&pair.g1, &pair.g2, seeds, &engine)
        .expect("an engine without a spill budget cannot fail");
    (outcome, engine.stats())
}

#[test]
fn phase_count_is_k_times_log_d() {
    let (pair, seeds) = build(21);
    for k in [1u32, 2, 3] {
        let config = MatchingConfig::default().with_iterations(k);
        let outcome = UserMatching::new(config).run(&pair.g1, &pair.g2, &seeds);
        let max_degree = pair.g1.max_degree().max(pair.g2.max_degree());
        let log_d = (usize::BITS - 1 - max_degree.leading_zeros()) as usize; // floor(log2 D)
        assert_eq!(outcome.phases.len(), k as usize * log_d, "k={k}, max degree {max_degree}");
    }
}

#[test]
fn mapreduce_rounds_are_one_fused_round_per_phase() {
    let (pair, seeds) = build(22);
    let config = MatchingConfig::default()
        .with_iterations(2)
        .with_backend(Backend::MapReduce { workers: 2 });
    let (outcome, stats) = run_on_engine(config, 2, &pair, &seeds);
    assert_eq!(stats.rounds, outcome.phases.len());
    assert_eq!(stats.per_round.len(), stats.rounds);
    assert!(stats.per_round.iter().all(|r| r.label == "witness-score"));
    // The shuffle carries one packed-row record per non-empty candidate
    // row — never one record per scored pair, let alone one per witness
    // contribution — and its bytes are exactly one u32 key per row plus 8
    // packed bytes per scored pair.
    assert!(stats.total_shuffled_records > 0);
    for (round, phase) in stats.per_round.iter().zip(&outcome.phases) {
        assert!(
            round.shuffled_records <= phase.scored_pairs,
            "round {:?}: rows ({}) cannot exceed scored pairs ({})",
            round.label,
            round.shuffled_records,
            phase.scored_pairs
        );
        assert_eq!(
            round.shuffled_bytes,
            4 * round.shuffled_records + 8 * phase.scored_pairs,
            "round {:?} byte accounting",
            round.label
        );
        assert!(
            round.map_output_records >= round.shuffled_records,
            "mappers emit every shuffled record"
        );
    }
}

#[test]
fn disabling_bucketing_collapses_to_k_phases() {
    let (pair, seeds) = build(23);
    let config = MatchingConfig::default()
        .with_iterations(2)
        .with_degree_bucketing(false)
        .with_backend(Backend::MapReduce { workers: 2 });
    let (outcome, stats) = run_on_engine(config, 2, &pair, &seeds);
    assert_eq!(outcome.phases.len(), 2);
    assert_eq!(stats.rounds, 2);
}

#[test]
fn engine_round_statistics_are_internally_consistent() {
    let (pair, seeds) = build(24);
    let config = MatchingConfig::default()
        .with_iterations(1)
        .with_backend(Backend::MapReduce { workers: 3 });
    let (_, stats) = run_on_engine(config, 3, &pair, &seeds);
    assert_eq!(stats.per_round.len(), stats.rounds);
    let sum_inputs: usize = stats.per_round.iter().map(|r| r.input_records).sum();
    let sum_outputs: usize = stats.per_round.iter().map(|r| r.output_records).sum();
    let sum_bytes: usize = stats.per_round.iter().map(|r| r.shuffled_bytes).sum();
    assert_eq!(sum_inputs, stats.total_input_records);
    assert_eq!(sum_outputs, stats.total_output_records);
    assert_eq!(sum_bytes, stats.total_shuffled_bytes);
    for round in &stats.per_round {
        assert!(round.key_groups <= round.shuffled_records.max(1));
        assert!(round.shuffled_records <= round.map_output_records.max(1));
    }
    let summary = stats.stats_summary();
    assert!(summary.contains("shuffled"), "{summary}");
}
