//! Cross-backend and cross-representation equivalence: the sequential,
//! rayon, and MapReduce backends must produce bit-for-bit identical link
//! sets on identical inputs — and so must every `GraphView` implementation
//! (`CsrGraph`, the delta-encoded `CompactCsr`, and the mmap-backed
//! `MmapGraph` over an on-disk segment), alone or mixed across the two
//! copies. This is what makes the parallel and MapReduce claims of the
//! paper meaningful (they are *the same algorithm*, only scheduled
//! differently) and what makes the compressed and on-disk representations
//! safe to substitute in any experiment.

use rand::rngs::StdRng;
use rand::SeedableRng;
use social_reconcile::core::witness::count_sequential;
use social_reconcile::core::{Backend, MatchingConfig, UserMatching};
use social_reconcile::prelude::*;
use social_reconcile::store::write_segment_file;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Writes `g` to a unique temp segment and reopens it mmap-backed. The
/// file must outlive the returned view, so the path is handed back too.
fn mmap_view(g: &CsrGraph, tag: &str) -> (MmapGraph, PathBuf) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "snr-backend-eq-{}-{tag}-{}.snrs",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    write_segment_file(g, &path).expect("write segment");
    (MmapGraph::open(&path).expect("open segment"), path)
}

fn workload(
    seed: u64,
    n: usize,
    m: usize,
    s: f64,
    l: f64,
) -> (RealizationPair, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = preferential_attachment(n, m, &mut rng).unwrap();
    let pair = independent_deletion_symmetric(&g, s, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, l, &mut rng).unwrap();
    (pair, seeds)
}

fn run_on<G1, G2>(g1: &G1, g2: &G2, seeds: &[(NodeId, NodeId)], backend: Backend, t: u32) -> Linking
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let config =
        MatchingConfig::default().with_threshold(t).with_iterations(2).with_backend(backend);
    UserMatching::new(config).run(g1, g2, seeds).links
}

/// Runs every backend on every representation combination (both copies CSR,
/// both compact, both mmap-backed segments, and mixed) and asserts a single
/// identical link set.
fn assert_all_agree(pair: &RealizationPair, seeds: &[(NodeId, NodeId)], t: u32, workers: usize) {
    let (c1, c2) = (pair.g1.compact(), pair.g2.compact());
    let ((m1, p1), (m2, p2)) = (mmap_view(&pair.g1, "g1"), mmap_view(&pair.g2, "g2"));
    // Sequential-on-CSR is the reference itself, so it is not re-run.
    let reference = run_on(&pair.g1, &pair.g2, seeds, Backend::Sequential, t);
    for backend in [Backend::Sequential, Backend::Rayon, Backend::MapReduce { workers }] {
        if !matches!(backend, Backend::Sequential) {
            let on_csr = run_on(&pair.g1, &pair.g2, seeds, backend, t);
            assert_eq!(on_csr, reference, "{backend:?} differs on CsrGraph at T={t}");
        }
        let on_compact = run_on(&c1, &c2, seeds, backend, t);
        assert_eq!(on_compact, reference, "{backend:?} differs on CompactCsr at T={t}");
        let on_mmap = run_on(&m1, &m2, seeds, backend, t);
        assert_eq!(on_mmap, reference, "{backend:?} differs on MmapGraph at T={t}");
        let mapped_rows = run_on(&m1, &c2, seeds, backend, t);
        assert_eq!(mapped_rows, reference, "{backend:?} differs on mmap x compact at T={t}");
        let mixed = run_on(&pair.g1, &c2, seeds, backend, t);
        assert_eq!(mixed, reference, "{backend:?} differs on mixed representations at T={t}");
        // In-memory copy 1 while copy 2 serves from a mapped segment.
        let mixed_store = run_on(&c1, &m2, seeds, backend, t);
        assert_eq!(mixed_store, reference, "{backend:?} differs on compact x mmap at T={t}");
    }
    drop((m1, m2));
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p2);
}

#[test]
fn all_backends_agree_on_a_pa_workload() {
    let (pair, seeds) = workload(11, 1_500, 8, 0.6, 0.08);
    for threshold in [1, 2, 3] {
        assert_all_agree(&pair, &seeds, threshold, 3);
    }
}

#[test]
fn all_backends_agree_on_a_sparse_workload() {
    let (pair, seeds) = workload(12, 2_000, 4, 0.5, 0.15);
    assert_all_agree(&pair, &seeds, 2, 2);
}

#[test]
fn all_backends_agree_under_attack() {
    let mut rng = StdRng::seed_from_u64(13);
    let g = preferential_attachment(1_000, 8, &mut rng).unwrap();
    let clean = independent_deletion_symmetric(&g, 0.75, &mut rng).unwrap();
    let attacked = inject_attack(&clean, 0.5, &mut rng).unwrap();
    let seeds = sample_seeds(&attacked, 0.10, &mut rng).unwrap();
    assert_all_agree(&attacked, &seeds, 2, 4);
}

#[test]
fn backend_runs_are_deterministic_across_repetitions() {
    let (pair, seeds) = workload(14, 1_200, 6, 0.6, 0.10);
    let (c1, c2) = (pair.g1.compact(), pair.g2.compact());
    for backend in [Backend::Sequential, Backend::Rayon, Backend::MapReduce { workers: 3 }] {
        let a = run_on(&pair.g1, &pair.g2, &seeds, backend, 2);
        let b = run_on(&pair.g1, &pair.g2, &seeds, backend, 2);
        assert_eq!(a, b, "{backend:?} is not deterministic on CsrGraph");
        let ca = run_on(&c1, &c2, &seeds, backend, 2);
        assert_eq!(a, ca, "{backend:?} differs between representations");
    }
}

/// Per-phase work counters of one run: `(iteration, bucket, scored_pairs,
/// new_links)` for every phase.
fn phase_counts<G1, G2>(
    g1: &G1,
    g2: &G2,
    seeds: &[(NodeId, NodeId)],
    backend: Backend,
) -> Vec<(u32, u32, usize, usize)>
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let config =
        MatchingConfig::default().with_threshold(2).with_iterations(2).with_backend(backend);
    let outcome = UserMatching::new(config).run(g1, g2, seeds);
    outcome.phases.iter().map(|p| (p.iteration, p.bucket, p.scored_pairs, p.new_links)).collect()
}

#[test]
fn witness_score_tables_are_identical_across_backends_and_representations() {
    let (pair, seeds) = workload(15, 1_000, 6, 0.6, 0.10);
    let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
    let (c1, c2) = (pair.g1.compact(), pair.g2.compact());
    let ((m1, p1), (m2, p2)) = (mmap_view(&pair.g1, "t1"), mmap_view(&pair.g2, "t2"));
    // The oracle table is representation-independent.
    for min_deg in [1, 2, 4] {
        let reference = count_sequential(&pair.g1, &pair.g2, &links, min_deg, min_deg);
        assert!(!reference.is_empty(), "the workload must score pairs at d={min_deg}");
        let on_compact = count_sequential(&c1, &c2, &links, min_deg, min_deg);
        let on_mmap = count_sequential(&m1, &m2, &links, min_deg, min_deg);
        let on_mixed = count_sequential(&c1, &m2, &links, min_deg, min_deg);
        assert_eq!(on_compact, reference, "table differs on CompactCsr d={min_deg}");
        assert_eq!(on_mmap, reference, "table differs on MmapGraph d={min_deg}");
        assert_eq!(on_mixed, reference, "table differs on compact x mmap d={min_deg}");
    }
    // Every executor scores the same pairs and links the same count in
    // every phase, on every representation.
    let reference = phase_counts(&pair.g1, &pair.g2, &seeds, Backend::Sequential);
    assert!(reference.iter().any(|&(_, _, scored, new)| scored > 0 && new > 0));
    for backend in [Backend::Sequential, Backend::Rayon, Backend::MapReduce { workers: 3 }] {
        let on_csr = phase_counts(&pair.g1, &pair.g2, &seeds, backend);
        let on_compact = phase_counts(&c1, &c2, &seeds, backend);
        let on_mmap = phase_counts(&m1, &m2, &seeds, backend);
        let on_mixed = phase_counts(&c1, &m2, &seeds, backend);
        assert_eq!(on_csr, reference, "{backend:?} phases differ on CsrGraph");
        assert_eq!(on_compact, reference, "{backend:?} phases differ on CompactCsr");
        assert_eq!(on_mmap, reference, "{backend:?} phases differ on MmapGraph");
        assert_eq!(on_mixed, reference, "{backend:?} phases differ on compact x mmap");
    }
    drop((m1, m2));
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p2);
}
