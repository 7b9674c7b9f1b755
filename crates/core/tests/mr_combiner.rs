//! Property tests for the row-aggregated MapReduce scoring path: on random
//! PA/ER graph pairs, across thresholds and graph representations (CSR,
//! compact, and mmap-backed segments), the engine round built from
//! whole-row mappers + packed shuffle must reproduce the brute-force oracle
//! bit-for-bit — the select-fused round `mapreduce_fused_phase_on` equals
//! `count_brute_force` → `mutual_best_pairs`, scored-pair count included —
//! while the engine's shuffle statistics confirm the round really did move
//! one record per candidate row, whatever share of its entries reaches the
//! threshold. Through the whole matcher, a spill fault fails exactly the
//! rounds that spill.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::matching::mutual_best_pairs;
use snr_core::scoring::{collect_candidates, fused_phase_on, mapreduce_fused_phase_on};
use snr_core::witness::count_brute_force;
use snr_core::{Backend, Linking, MatchingConfig, MatchingOutcome, UserMatching};
use snr_faults::FaultRegistry;
use snr_generators::{gnp, preferential_attachment, rmat, RmatConfig};
use snr_graph::{CsrGraph, GraphView, NodeId};
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
/// (G1, G2) representation combination, and that it shipped one record per
/// non-empty candidate row charged `4 + 8·scored`.
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
    let rows = oracle.keys().map(|&(u, _)| u).collect::<std::collections::HashSet<u32>>().len();
    let round = engine.stats().per_round.last().cloned().expect("one round ran");
    assert_eq!(round.shuffled_records, rows, "one record per non-empty row ({label})");
    assert_eq!(round.shuffled_bytes, 4 * rows + 8 * scored, "the charge ({label})");
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
                // A threshold above every score ships every row's count and
                // no entry.
                let top = count_brute_force(&g1, &g2, &links, min_deg, min_deg)
                    .values()
                    .max()
                    .map_or(1, |&score| score + 1);
                for threshold in [1u32, 2, 3, top] {
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
        "charged a u32 key per row + 8 bytes per scored pair"
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
fn splitting_map_tasks_across_workers_changes_no_record() {
    // Map tasks split their rows across the engine's workers. On PA, R-MAT,
    // a star and a hub, at 1, 2 and 4 workers, in memory and spilling every
    // task, with one task per round (the default chunking here) or many:
    // the selection equals the in-process phase's, and the shuffle carries
    // one record per non-empty candidate row and 4 + 8 bytes per row and
    // pair, whether a row holds its entries in 4 bytes or in 8.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let g = rmat(&RmatConfig::graph500(10, 16), &mut rng).unwrap();
    let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.15, &mut rng).unwrap();
    let rmat_links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
    // A 400-node star whose center and first 20 leaves are seeds: every
    // other leaf's row scores every other leaf through the center.
    let star = CsrGraph::from_edges(400, &(1..400).map(|v| (0, v)).collect::<Vec<_>>());
    let star_seeds: Vec<_> = (0..=20).map(|v| (NodeId(v), NodeId(v))).collect();
    let star_links = Linking::with_seeds(400, 400, &star_seeds);
    // A hub whose 300 seeded leaves score its row at 300 on the hub itself,
    // too many for a 4-byte entry, so that row alone is held in 8. Ten
    // nodes `300 + i` share the first `4 + i` seeded leaves, a rival 311
    // shares 100 (a count cut to 8 bits, 44, would hand it the hub), and
    // 260 unseeded leaves make the candidate rows many.
    let mut hub_edges: Vec<(u32, u32)> = (1..=300).chain(312..572).map(|v| (0, v)).collect();
    for i in 1..=10 {
        hub_edges.extend((1..=4 + i).map(|leaf| (300 + i, leaf)));
    }
    hub_edges.extend((1..=100).map(|leaf| (311, leaf)));
    let hub = CsrGraph::from_edges(572, &hub_edges);
    let hub_seeds: Vec<_> = (1..=300).map(|v| (NodeId(v), NodeId(v))).collect();
    let hub_links = Linking::with_seeds(572, 572, &hub_seeds);
    let hub_table = count_brute_force(&hub, &hub, &hub_links, 1, 1);
    assert_eq!(hub_table.get(&(0, 0)), Some(&300), "the hub row scores 300 on the hub");
    let hub_selection = fused_phase_on(&hub, &hub, &hub_links, &[0, 311], 1, 2, false).1;
    assert!(hub_selection.contains(&(NodeId(0), NodeId(0))), "the hub links to itself");
    let (pa1, pa2, pa_links) = workload(true, 600, 3, 11);
    let cases = [
        ("pa", &pa1, &pa2, &pa_links),
        ("rmat", &pair.g1, &pair.g2, &rmat_links),
        ("star", &star, &star, &star_links),
        ("hub", &hub, &hub, &hub_links),
    ];
    let scratch = std::env::temp_dir().join(format!("snr-mr-split-{}", std::process::id()));
    for (name, g1, g2, links) in cases {
        let (min_deg, threshold) = (1, 2);
        let candidates = collect_candidates(g1, links, min_deg);
        assert!(candidates.len() >= 256, "{name}: only {} candidate rows", candidates.len());
        let expected = fused_phase_on(g1, g2, links, &candidates, min_deg, threshold, false);
        let table = count_brute_force(g1, g2, links, min_deg, min_deg);
        let rows: std::collections::HashSet<u32> = table.keys().map(|&(u, _)| u).collect();
        assert_eq!(expected.0, table.len(), "{name}: scored pairs");
        for workers in [1usize, 2, 4] {
            for chunk in [None, Some(100)] {
                for budget in [None, Some(0)] {
                    let mut engine =
                        Engine::new(workers).with_spill_budget(budget).with_scratch_dir(&scratch);
                    if let Some(chunk) = chunk {
                        engine = engine.with_chunk_size(chunk);
                    }
                    let what =
                        format!("{name} workers={workers} chunk={chunk:?} budget={budget:?}");
                    let got = mapreduce_fused_phase_on(
                        &engine,
                        g1,
                        g2,
                        links,
                        candidates.clone(),
                        min_deg,
                        threshold,
                    )
                    .expect("round failed");
                    assert_eq!(got, expected, "{what}");
                    let round = engine.stats().per_round[0].clone();
                    assert_eq!(round.shuffled_records, rows.len(), "{what}: records");
                    assert_eq!(
                        round.shuffled_bytes,
                        4 * rows.len() + 8 * table.len(),
                        "{what}: bytes"
                    );
                    if chunk.is_none() {
                        assert_eq!(round.map_tasks, 1, "{what}: one task per round");
                    }
                    if budget.is_some() {
                        assert!(round.spilled_runs > 0, "{what}: must spill");
                    }
                    assert!(!scratch.exists(), "{what}: scratch dir removed");
                }
            }
        }
    }
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
    // shuffle bytes spills, under User-Matching and under the two-pass
    // common-neighbour baseline. A fault-free reference run records which
    // rounds spilled and must score and link what the sequential run does;
    // then `spill_io` and `spill_corrupt` are injected at every round, plus
    // one round past the last phase.
    let mut rng = StdRng::seed_from_u64(10);
    let g = rmat(&RmatConfig::graph500(10, 16), &mut rng).unwrap();
    let pair = independent_deletion_symmetric(&g, 0.5, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.10, &mut rng).unwrap();
    let scratch = std::env::temp_dir().join(format!("snr-mr-fault-slice-{}", std::process::id()));
    let engine = |faults: FaultRegistry| {
        Engine::new(2)
            .with_spill_budget(Some(0))
            .with_scratch_dir(&scratch)
            .with_fault_registry(faults)
    };
    let counts = |o: &MatchingOutcome| -> Vec<(usize, usize)> {
        o.phases.iter().map(|p| (p.scored_pairs, p.new_links)).collect()
    };
    for config in [MatchingConfig::default(), MatchingConfig::baseline().with_iterations(2)] {
        let sequential = UserMatching::new(config.clone().with_backend(Backend::Sequential))
            .run(&pair.g1, &pair.g2, &seeds);
        let expected = sequential.links.clone();
        let matcher = UserMatching::new(config.with_backend(Backend::MapReduce { workers: 2 }));

        let reference = engine(FaultRegistry::empty());
        let outcome = matcher.try_run_on_engine(&pair.g1, &pair.g2, &seeds, &reference).unwrap();
        assert_eq!(outcome.links, expected, "fault-free spilling run");
        assert_eq!(counts(&outcome), counts(&sequential), "fault-free spilling phases");
        let spilled: Vec<usize> =
            reference.stats().per_round.iter().map(|r| r.spilled_runs).collect();
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
}
