//! Property tests for the row-aggregated MapReduce scoring path: on random
//! PA/ER graph pairs, across thresholds and graph representations (CSR,
//! compact, and mmap-backed segments), the engine round built from
//! whole-row mappers + packed shuffle must reproduce the brute-force oracle
//! bit-for-bit — the select-fused round `mapreduce_fused_phase_on` equals
//! `count_brute_force` → `mutual_best_pairs`, scored-pair count included —
//! while the engine's shuffle statistics confirm the round really did move
//! one record per candidate row. Through the whole matcher, a spill fault
//! fails exactly the rounds that spill.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::matching::mutual_best_pairs;
use snr_core::scoring::{collect_candidates, mapreduce_fused_phase_on};
use snr_core::witness::count_brute_force;
use snr_core::{Backend, Linking, MatchingConfig, UserMatching};
use snr_faults::FaultRegistry;
use snr_generators::{gnp, preferential_attachment, rmat, RmatConfig};
use snr_graph::{CsrGraph, GraphView};
use snr_mapreduce::{Engine, EngineError};
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::sample_seeds;
use snr_store::{write_segment_file, MmapGraph};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One random reconciliation workload: two partial copies and seed links.
fn workload(use_pa: bool, n: usize, density: u32, seed: u64) -> (CsrGraph, CsrGraph, Linking) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = if use_pa {
        preferential_attachment(n.max(10), 2 + density as usize, &mut rng).unwrap()
    } else {
        let p = (2.0 + density as f64) * 2.0 / n as f64;
        gnp(n, p.min(0.9), &mut rng).unwrap()
    };
    let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.15, &mut rng).unwrap();
    let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
    (pair.g1, pair.g2, links)
}

/// Writes `g` to a unique temp segment and reopens it mmap-backed.
fn mmap_view(g: &CsrGraph, tag: &str) -> (MmapGraph, PathBuf) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "snr-mr-combiner-{}-{tag}-{}.snrs",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    write_segment_file(g, &path).expect("write segment");
    (MmapGraph::open(&path).expect("open segment"), path)
}

/// One MapReduce phase over every candidate row of degree at least
/// `min_deg`.
fn mr_phase<G1, G2>(
    engine: &Engine,
    g1: &G1,
    g2: &G2,
    links: &Linking,
    min_deg: usize,
    threshold: u32,
) -> (usize, Vec<(snr_graph::NodeId, snr_graph::NodeId)>)
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let candidates = collect_candidates(g1, links, min_deg);
    mapreduce_fused_phase_on(engine, g1, g2, links, candidates, min_deg, threshold)
        .expect("round failed")
}

/// Asserts the MapReduce round agrees with the brute-force oracle on one
/// (G1, G2) representation combination.
fn assert_matches_oracle<G1, G2>(
    engine: &Engine,
    g1: &G1,
    g2: &G2,
    links: &Linking,
    min_deg: usize,
    threshold: u32,
    label: &str,
) where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let oracle = count_brute_force(g1, g2, links, min_deg, min_deg);
    let expected_pairs = mutual_best_pairs(&oracle, threshold);
    let (scored, pairs) = mr_phase(engine, g1, g2, links, min_deg, threshold);
    assert_eq!(scored, oracle.len(), "fused scored_pairs vs oracle table size ({label})");
    assert_eq!(pairs, expected_pairs, "fused MR selection ({label})");
}

#[test]
fn mapreduce_rounds_match_oracle_across_workloads_thresholds_and_representations() {
    let mut case = 0u64;
    for use_pa in [true, false] {
        for (n, density) in [(60usize, 1u32), (140, 2), (260, 3)] {
            case += 1;
            let (g1, g2, links) = workload(use_pa, n, density, 0xC0_FFEE ^ (case * 7919));
            let (c1, c2) = (g1.compact(), g2.compact());
            let ((m1, p1), (m2, p2)) = (mmap_view(&g1, "g1"), mmap_view(&g2, "g2"));
            let engine = Engine::new(1 + (case as usize % 4)).with_chunk_size(16);
            for min_deg in [1usize, 2, 3] {
                for threshold in [1u32, 2] {
                    let label = format!("pa={use_pa} n={n} d={min_deg} t={threshold}");
                    assert_matches_oracle(
                        &engine,
                        &g1,
                        &g2,
                        &links,
                        min_deg,
                        threshold,
                        &format!("csr {label}"),
                    );
                    assert_matches_oracle(
                        &engine,
                        &c1,
                        &c2,
                        &links,
                        min_deg,
                        threshold,
                        &format!("compact {label}"),
                    );
                    assert_matches_oracle(
                        &engine,
                        &m1,
                        &m2,
                        &links,
                        min_deg,
                        threshold,
                        &format!("mmap {label}"),
                    );
                    assert_matches_oracle(
                        &engine,
                        &g1,
                        &c2,
                        &links,
                        min_deg,
                        threshold,
                        &format!("mixed csr x compact {label}"),
                    );
                    assert_matches_oracle(
                        &engine,
                        &c1,
                        &m2,
                        &links,
                        min_deg,
                        threshold,
                        &format!("mixed compact x mmap {label}"),
                    );
                }
            }
            drop((m1, m2));
            let _ = std::fs::remove_file(p1);
            let _ = std::fs::remove_file(p2);
        }
    }
}

#[test]
fn witness_round_shuffles_one_packed_record_per_candidate_row() {
    let (g1, g2, links) = workload(true, 300, 3, 42);
    let engine = Engine::new(3).with_chunk_size(32);
    let (scored, _) = mr_phase(&engine, &g1, &g2, &links, 1, 2);
    let table = count_brute_force(&g1, &g2, &links, 1, 1);
    assert_eq!(scored, table.len());
    let round = engine.stats().per_round[0].clone();
    assert_eq!(round.label, "witness-score");
    let rows: std::collections::HashSet<u32> = table.keys().map(|&(u, _)| u).collect();
    assert_eq!(
        round.shuffled_records,
        rows.len(),
        "the packed shuffle must carry exactly one record per non-empty candidate row"
    );
    assert_eq!(
        round.map_output_records, round.shuffled_records,
        "arena mappers emit whole rows, so there is nothing to combine"
    );
    assert_eq!(
        round.shuffled_bytes,
        4 * rows.len() + 8 * table.len(),
        "u32 key per row + 8 packed bytes per scored pair"
    );
    // A per-contribution shuffle would move one 12-byte ((u, v), 1) record
    // per witness contribution; that volume is the witness-weighted table
    // sum.
    let contributions: usize = table.values().map(|&c| c as usize).sum();
    assert!(
        round.shuffled_records * 5 < contributions,
        "row-aggregated shuffle {} must be far below the per-contribution formula {}",
        round.shuffled_records,
        contributions
    );
    assert!(round.shuffled_bytes < contributions * 12, "bytes must shrink too");
}

#[test]
fn spilling_witness_round_links_are_bit_identical_to_in_memory() {
    // Force the out-of-core path: budget 0 spills every map task's
    // buckets to checksummed run files, and the reduce k-way
    // merges them back. Links, scored-pair count, and the non-spill shuffle
    // statistics must be exactly what the in-memory round produces.
    let (g1, g2, links) = workload(true, 260, 3, 0xD15C);
    let in_memory = Engine::new(1).with_chunk_size(16);
    let expected = mr_phase(&in_memory, &g1, &g2, &links, 2, 2);
    let scratch = std::env::temp_dir().join(format!("snr-core-spill-{}", std::process::id()));
    for (workers, budget) in [(1usize, 0u64), (1, 512), (3, 0), (3, 2048)] {
        let engine = Engine::new(workers)
            .with_chunk_size(16)
            .with_spill_budget(Some(budget))
            .with_scratch_dir(&scratch);
        let got = mr_phase(&engine, &g1, &g2, &links, 2, 2);
        assert_eq!(got, expected, "workers={workers} budget={budget}");
        let round = engine.stats().per_round[0].clone();
        assert!(round.spilled_runs > 0, "budget {budget} must actually spill");
        assert!(round.spilled_bytes > 0 && round.spilled_bytes <= round.shuffled_bytes);
        let mem_round = in_memory.stats().per_round[0].clone();
        assert_eq!(round.shuffled_records, mem_round.shuffled_records);
        assert_eq!(round.shuffled_bytes, mem_round.shuffled_bytes);
        assert!(!scratch.exists(), "scratch dir removed after the round");
    }
}

#[test]
fn chunking_and_worker_count_never_change_results() {
    let (g1, g2, links) = workload(false, 200, 2, 7);
    let reference = mr_phase(&Engine::new(1), &g1, &g2, &links, 2, 2);
    for workers in [1usize, 2, 5] {
        for chunk in [1usize, 3, 64, 10_000] {
            let engine = Engine::new(workers).with_chunk_size(chunk);
            assert_eq!(
                mr_phase(&engine, &g1, &g2, &links, 2, 2),
                reference,
                "fused workers={workers} chunk={chunk}"
            );
        }
    }
}

#[test]
fn spill_faults_fail_exactly_the_rounds_that_spill() {
    // RMAT-10 on 2 workers with a spill budget of 0, so every map task with
    // shuffle bytes spills. A fault-free reference run records which
    // rounds spilled; then `spill_io` and `spill_corrupt` are injected at
    // every round, plus one round past the last phase.
    let mut rng = StdRng::seed_from_u64(10);
    let g = rmat(&RmatConfig::graph500(10, 16), &mut rng).unwrap();
    let pair = independent_deletion_symmetric(&g, 0.5, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.10, &mut rng).unwrap();
    let config = MatchingConfig::default();
    let expected = UserMatching::new(config.clone().with_backend(Backend::Sequential))
        .run(&pair.g1, &pair.g2, &seeds)
        .links;
    let matcher = UserMatching::new(config.with_backend(Backend::MapReduce { workers: 2 }));
    let scratch = std::env::temp_dir().join(format!("snr-mr-fault-slice-{}", std::process::id()));
    let engine = |faults: FaultRegistry| {
        Engine::new(2)
            .with_spill_budget(Some(0))
            .with_scratch_dir(&scratch)
            .with_fault_registry(faults)
    };

    let reference = engine(FaultRegistry::empty());
    let outcome = matcher.try_run_on_engine(&pair.g1, &pair.g2, &seeds, &reference).unwrap();
    assert_eq!(outcome.links, expected, "fault-free spilling run");
    let spilled: Vec<usize> = reference.stats().per_round.iter().map(|r| r.spilled_runs).collect();
    assert_eq!(spilled.len(), outcome.phases.len(), "one round per phase");
    assert!(spilled.iter().any(|&runs| runs > 0), "the reference run must spill");

    for round in 1..=spilled.len() + 1 {
        for site in ["spill_io", "spill_corrupt"] {
            let spec = format!("{site}@round{round}");
            let faulted = engine(FaultRegistry::parse(&spec).unwrap());
            let result = matcher.try_run_on_engine(&pair.g1, &pair.g2, &seeds, &faulted);
            if spilled.get(round - 1).is_some_and(|&runs| runs > 0) {
                let Err(EngineError::Spill(why)) = result else {
                    panic!("{spec}: a round that spills must fail");
                };
                let named = match site {
                    "spill_io" => why.contains("spill_io"),
                    _ => why.contains("checksum") || why.contains("magic"),
                };
                assert!(named, "{spec}: unexpected error {why:?}");
                assert_eq!(faulted.stats().rounds, round - 1, "{spec}: the run stops there");
            } else {
                let outcome = result.unwrap_or_else(|e| panic!("{spec}: {e}"));
                assert_eq!(outcome.links, expected, "{spec}: links");
            }
            assert!(!scratch.exists(), "{spec}: scratch dir removed");
        }
    }
}
