//! The distributed driver is the sequential algorithm, only scheduled
//! across processes: for every worker count, the
//! multi-process run must produce a link set **bit-identical** to
//! `UserMatching` on the same workload — same pairs, same per-phase
//! `scored_pairs` and `new_links` counters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::{MatchingConfig, UserMatching};
use snr_driver::{run_distributed, DriverConfig};
use snr_generators::{gnp, preferential_attachment, rmat, RmatConfig};
use snr_graph::{CsrGraph, NodeId};
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::{sample_seeds, RealizationPair};
use std::path::PathBuf;
use std::time::Duration;

fn workload(seed: u64, g: CsrGraph, s: f64, l: f64) -> (RealizationPair, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pair = independent_deletion_symmetric(&g, s, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, l, &mut rng).unwrap();
    (pair, seeds)
}

fn pa_workload(seed: u64, n: usize, m: usize) -> (RealizationPair, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = preferential_attachment(n, m, &mut rng).unwrap();
    workload(seed ^ 0xA5, g, 0.6, 0.10)
}

/// Cargo builds the worker bin before this test crate runs and exposes its
/// path at compile time — the tests never rely on directory guessing.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_snr-driver-worker"))
}

fn driver_config(workers: usize, matching: MatchingConfig) -> DriverConfig {
    let mut config = DriverConfig::new(workers);
    config.matching = matching;
    config.task_timeout = Duration::from_secs(120);
    config.worker_bin = Some(worker_bin());
    // Never inherit a fault spec from the ambient environment.
    config.fault = None;
    config
}

/// Runs the sequential reference and the distributed driver on one
/// workload and asserts full-outcome equality.
fn assert_driver_matches(
    pair: &RealizationPair,
    seeds: &[(NodeId, NodeId)],
    matching: MatchingConfig,
    workers: usize,
    label: &str,
) {
    let reference = UserMatching::new(matching.clone()).run(&pair.g1, &pair.g2, seeds);
    let config = driver_config(workers, matching);
    let distributed = run_distributed(&pair.g1, &pair.g2, seeds, config)
        .unwrap_or_else(|e| panic!("driver run failed on {label}: {e}"));
    assert_eq!(distributed.links, reference.links, "links differ on {label}");
    assert_eq!(distributed.phases.len(), reference.phases.len(), "phase count differs on {label}");
    for (d, r) in distributed.phases.iter().zip(&reference.phases) {
        assert_eq!(
            (d.iteration, d.bucket, d.scored_pairs, d.new_links, d.total_links),
            (r.iteration, r.bucket, r.scored_pairs, r.new_links, r.total_links),
            "phase counters differ on {label}"
        );
    }
}

#[test]
fn driver_matches_sequential_across_worker_counts() {
    let (pair, seeds) = pa_workload(61, 1_200, 6);
    let matching = MatchingConfig::default().with_threshold(2).with_iterations(2);
    for workers in [1, 2, 4] {
        let label = format!("driver:{workers}");
        assert_driver_matches(&pair, &seeds, matching.clone(), workers, &label);
    }
}

#[test]
fn driver_matches_sequential_on_er_and_rmat_families() {
    let mut rng = StdRng::seed_from_u64(62);
    let er = gnp(1_500, 0.008, &mut rng).unwrap();
    let (pair, seeds) = workload(62, er, 0.55, 0.12);
    let matching = MatchingConfig::default().with_threshold(1).with_iterations(2);
    assert_driver_matches(&pair, &seeds, matching, 2, "driver:2 on ER");

    let mut rng = StdRng::seed_from_u64(63);
    let rm = rmat(&RmatConfig::graph500(10, 8), &mut rng).unwrap();
    let (pair, seeds) = workload(63, rm, 0.6, 0.10);
    let matching = MatchingConfig::default().with_threshold(3).with_iterations(2);
    assert_driver_matches(&pair, &seeds, matching, 2, "driver:2 on RMAT");
}

#[test]
fn driver_matches_sequential_across_thresholds() {
    let (pair, seeds) = pa_workload(64, 900, 8);
    for threshold in [1, 3] {
        let matching = MatchingConfig::default().with_threshold(threshold).with_iterations(2);
        let label = format!("driver:2 at T={threshold}");
        assert_driver_matches(&pair, &seeds, matching, 2, &label);
    }
}

#[test]
fn driver_runs_are_deterministic_across_repetitions() {
    let (pair, seeds) = pa_workload(65, 800, 6);
    let matching = MatchingConfig::default().with_threshold(2).with_iterations(2);
    let a =
        run_distributed(&pair.g1, &pair.g2, &seeds, driver_config(2, matching.clone())).unwrap();
    let b = run_distributed(&pair.g1, &pair.g2, &seeds, driver_config(2, matching)).unwrap();
    assert_eq!(a.links, b.links, "distributed runs are not deterministic");
}

/// Relabelling copy 1 (and the seeds with it) by a permutation moves every
/// distributed link by that permutation and leaves every per-phase count
/// unchanged.
#[test]
fn driver_is_invariant_under_relabelling_copy_1() {
    use rand::seq::SliceRandom;
    let (pair, seeds) = pa_workload(66, 700, 6);
    let n1 = pair.g1.node_count();
    let mut perm: Vec<u32> = (0..n1 as u32).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(66));
    let edges: Vec<(u32, u32)> = (0..n1 as u32)
        .flat_map(|u| pair.g1.neighbors(NodeId(u)).iter().map(move |v| (u, v.0)))
        .filter(|&(u, v)| u < v)
        .map(|(u, v)| (perm[u as usize], perm[v as usize]))
        .collect();
    let g1p = CsrGraph::from_edges(n1, &edges);
    let seeds_p: Vec<(NodeId, NodeId)> =
        seeds.iter().map(|&(u, v)| (NodeId(perm[u.index()]), v)).collect();

    let matching = MatchingConfig::default().with_threshold(2).with_iterations(2);
    let run = |g1: &CsrGraph, seeds: &[(NodeId, NodeId)]| {
        run_distributed(g1, &pair.g2, seeds, driver_config(2, matching.clone())).unwrap()
    };
    let (plain, relabelled) = (run(&pair.g1, &seeds), run(&g1p, &seeds_p));
    let mut moved: Vec<(u32, u32)> =
        plain.links.pairs().map(|(u, v)| (perm[u.index()], v.0)).collect();
    moved.sort_unstable();
    let mut got: Vec<(u32, u32)> = relabelled.links.pairs().map(|(u, v)| (u.0, v.0)).collect();
    got.sort_unstable();
    assert!(moved.len() > seeds.len() / 2, "the workload must link");
    assert_eq!(got, moved, "links did not move with copy 1");
    let counts = |o: &snr_core::MatchingOutcome| -> Vec<(usize, usize, usize)> {
        o.phases.iter().map(|p| (p.scored_pairs, p.new_links, p.total_links)).collect()
    };
    assert_eq!(counts(&relabelled), counts(&plain), "per-phase counts changed");
    assert!(counts(&plain).iter().any(|&(_, new_links, _)| new_links > 0));
}
