//! Smoke check for the row-aggregated MapReduce witness round.
//!
//! ```text
//! cargo run --release -p snr-experiments --bin mr_shuffle_smoke [--full]
//! ```
//!
//! Runs one fused MapReduce witness phase on an R-MAT workload (scale 13 by
//! default, the Table 2 benchmark shape at scale 16 with `--full`) and
//! compares the engine's *reported* shuffle volume against the
//! per-contribution formula `Σ_{(w1,w2)∈L} |N1*(w1)| · |N2*(w2)|` — the
//! number of `((u, v), 1)` records the pre-arena round used to shuffle for
//! the same phase. The run fails (non-zero exit) unless:
//!
//! * the round's selected pairs and scored-pair count are bit-identical to
//!   the sequential in-process phase (`fused_phase_on`), and its shuffle
//!   bytes are one `u32` key per row plus 8 bytes per scored pair;
//! * the reported shuffle records are at least 5× below the
//!   per-contribution formula — the row-aggregation guarantee CI pins.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::scoring::{collect_candidates, fused_phase_on, mapreduce_fused_phase_on};
use snr_core::Linking;
use snr_experiments::ExperimentArgs;
use snr_graph::GraphView;
use snr_mapreduce::Engine;
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::sample_seeds;
use std::time::Instant;

fn main() {
    let args = ExperimentArgs::from_env();
    let scale: u32 = if args.full { 16 } else { 13 };
    let (min_deg, threshold) = (2usize, 2u32);

    // The bench_witnesses rmat16 workload shape: graph500 R-MAT, edge
    // survival 0.7, 2% seed links (deterministic in --seed).
    let mut rng = StdRng::seed_from_u64(args.seed ^ scale as u64);
    let g = snr_generators::rmat(&snr_generators::RmatConfig::graph500(scale, 16), &mut rng)
        .expect("valid R-MAT parameters");
    let pair = independent_deletion_symmetric(&g, 0.7, &mut rng).expect("valid probability");
    drop(g);
    let seeds = sample_seeds(&pair, 0.02, &mut rng).expect("valid probability");
    let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
    let (g1, g2) = (&pair.g1, &pair.g2);
    println!(
        "RMAT-{scale}: {} nodes, {}/{} edges, {} seed links",
        g1.node_count(),
        g1.edge_count(),
        g2.edge_count(),
        links.len()
    );

    // The pre-arena shuffle volume: one record per witness contribution.
    let mut contributions = 0usize;
    for (w1, w2) in links.pairs() {
        let eligible1 = g1
            .neighbors_iter(w1)
            .filter(|&u| g1.degree(u) >= min_deg && !links.is_linked_g1(u))
            .count();
        let eligible2 = g2
            .neighbors_iter(w2)
            .filter(|&v| g2.degree(v) >= min_deg && !links.is_linked_g2(v))
            .count();
        contributions += eligible1 * eligible2;
    }

    let candidates = collect_candidates(g1, &links, min_deg);
    let engine = Engine::new(4);
    let start = Instant::now();
    let (scored, pairs) =
        mapreduce_fused_phase_on(&engine, g1, g2, &links, candidates.clone(), min_deg, threshold)
            .expect("in-memory round cannot spill");
    let mr_secs = start.elapsed().as_secs_f64();
    let stats = engine.stats();
    let round = &stats.per_round[0];
    println!("fused MapReduce witness round: {mr_secs:.3}s, {}", stats.stats_summary());

    // Correctness: same bits as the sequential in-process phase.
    let expected = fused_phase_on(g1, g2, &links, &candidates, min_deg, threshold, false);
    assert_eq!((scored, pairs), expected, "fused MR phase must match the sequential arena path");
    assert!(
        round.shuffled_records <= scored,
        "packed-row records ({}) cannot exceed scored pairs ({scored})",
        round.shuffled_records
    );
    assert_eq!(
        round.shuffled_bytes,
        4 * round.shuffled_records + 8 * scored,
        "shuffle bytes must be one u32 key per row + 8 packed bytes per scored pair"
    );

    // Data movement: the row-aggregation guarantee.
    let record_ratio = contributions as f64 / round.shuffled_records.max(1) as f64;
    // The pre-arena round shuffled ((u32, u32), u32) records: 12 bytes each.
    let old_bytes = contributions * 12;
    let byte_ratio = old_bytes as f64 / round.shuffled_bytes.max(1) as f64;
    println!(
        "shuffle records: {} packed rows ({scored} scored pairs) vs {} per-contribution \
         ({record_ratio:.1}x fewer)",
        round.shuffled_records, contributions
    );
    println!(
        "shuffle bytes:   {} aggregated vs {} per-contribution ({byte_ratio:.1}x fewer)",
        round.shuffled_bytes, old_bytes
    );
    assert!(
        (round.shuffled_records as u128) * 5 <= contributions as u128,
        "whole-row mappers must shrink the witness shuffle at least 5x \
         (got {record_ratio:.2}x: {} vs {contributions})",
        round.shuffled_records
    );
    println!("OK: shuffle shrank {record_ratio:.1}x (>= 5x required), selection bit-identical");
}
