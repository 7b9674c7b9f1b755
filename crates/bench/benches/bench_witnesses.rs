//! Microbenchmark: one witness-scoring phase.
//!
//! The inner kernel of every phase, through each executor's entry point:
//! in-process sequential and rayon (`fused_phase_on`), LSH-blocked
//! (`adaptive_lsh_phase`), one MapReduce round (`mapreduce_fused_phase_on`,
//! in memory and spilling) and one distributed driver round. The R-MAT-16
//! phase runs on all three graph representations (CSR, compact, mmap-backed
//! segment) with their memory footprints printed for the record;
//! the degree-threshold group shows the oracle table's cost falling with
//! the bucket (higher buckets touch far fewer candidate pairs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snr_bench::Workload;
use snr_core::blocking::{adaptive_lsh_phase, Banding, DEFAULT_SKETCH_SEED};
use snr_core::scoring::{
    collect_candidates, fused_phase_on, mapreduce_fused_phase_on, CandidateCache,
};
use snr_core::witness::count_sequential;
use snr_core::{Linking, MatchingConfig};
use snr_driver::{DriverConfig, ShardDriver};
use snr_graph::{GraphView, NodeId};
use snr_mapreduce::Engine;
use snr_store::{write_segment_file, MmapGraph};
use std::hint::black_box;
use std::path::PathBuf;

/// The phase's degree-eligible unlinked nodes of one copy, as the matcher
/// would assemble them for the blocked path.
fn eligible<G: GraphView>(g: &G, links: &Linking, copy1: bool, min_degree: usize) -> Vec<u32> {
    CandidateCache::build(g).eligible(
        min_degree,
        |u| if copy1 { links.is_linked_g1(NodeId(u)) } else { links.is_linked_g2(NodeId(u)) },
        |u| g.degree(NodeId(u)),
    )
}

/// Writes `g` as a segment under the temp dir (overwriting any previous
/// bench run's file) and reopens it mmap-backed.
fn mmap_of<G: GraphView>(g: &G, name: &str) -> (MmapGraph, PathBuf) {
    let dir = std::env::temp_dir().join(format!("snr-bench-segments-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench segment dir");
    let path = dir.join(format!("{name}.snrs"));
    write_segment_file(g, &path).expect("write bench segment");
    (MmapGraph::open(&path).expect("open bench segment"), path)
}

/// One exact in-process phase at `min_degree` 2 and threshold 2, candidate
/// enumeration included.
fn phase<G1, G2>(g1: &G1, g2: &G2, links: &Linking, parallel: bool) -> usize
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    fused_phase_on(g1, g2, links, &collect_candidates(g1, links, 2), 2, 2, parallel).0
}

/// One MapReduce round of the same phase.
fn mapreduce_phase<G1, G2>(engine: &Engine, g1: &G1, g2: &G2, links: &Linking) -> usize
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    mapreduce_fused_phase_on(engine, g1, g2, links, collect_candidates(g1, links, 2), 2, 2)
        .expect("round failed")
        .0
}

/// The same phase LSH-blocked (mass floor 0: every phase blocks): sketch
/// both copies' eligible nodes over their witness-link sets, propose pairs
/// via 16×2 banding, verify proposals exactly.
fn lsh_phase<G1, G2>(g1: &G1, g2: &G2, links: &Linking, c1: &[u32], c2: &[u32]) -> usize
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let banding = Banding::new(16, 2);
    adaptive_lsh_phase(
        g1,
        g2,
        links,
        c1,
        || c2.to_vec(),
        2,
        2,
        &banding,
        DEFAULT_SKETCH_SEED,
        0,
        true,
    )
    .0
}

/// Witness scoring with mutual-best selection fused into row finalization
/// (no score table) — what one matcher phase runs on the sequential and
/// rayon backends.
fn bench_fused(c: &mut Criterion) {
    let workload = Workload::pa(4_000, 10, 0.6, 0.10, 42);
    let links = workload.linking();
    let (g1, g2) = (&workload.pair.g1, &workload.pair.g2);

    let mut group = c.benchmark_group("witness_counting/fused");
    group.sample_size(15);
    group.bench_function("sequential", |b| b.iter(|| black_box(phase(g1, g2, &links, false))));
    group.bench_function("rayon", |b| b.iter(|| black_box(phase(g1, g2, &links, true))));
    group.finish();
}

/// Table 2 shape at benchmark size: every executor's phase at R-MAT scale
/// 16, on every graph representation.
fn bench_rmat16(c: &mut Criterion) {
    let workload = Workload::rmat(16, 0.7, 0.02, 46);
    let links = workload.linking();
    let (g1, g2) = (&workload.pair.g1, &workload.pair.g2);
    let (c1, c2) = workload.compact_pair();

    let mut group = c.benchmark_group("witness_counting/rmat16");
    group.sample_size(5);
    group.bench_function("csr/fused", |b| b.iter(|| black_box(phase(g1, g2, &links, true))));
    // Exactly csr/fused with telemetry explicitly disabled: the baseline
    // pins this label at parity with csr/fused, so any cost the disabled
    // telemetry hooks leak into the scoring hot loop fails the bench gate.
    group.bench_function("csr/telemetry_off", |b| {
        snr_telemetry::disable();
        b.iter(|| black_box(phase(g1, g2, &links, true)))
    });
    group.bench_function("compact/fused", |b| b.iter(|| black_box(phase(&c1, &c2, &links, true))));
    // The LSH-blocked phase (CandidateSource::Lsh) on the same (min_degree
    // 2, threshold 2) phase as the fused labels above.
    let (csr_c1, csr_c2) = (eligible(g1, &links, true, 2), eligible(g2, &links, false, 2));
    group.bench_function("csr/lsh_fused", |b| {
        b.iter(|| black_box(lsh_phase(g1, g2, &links, &csr_c1, &csr_c2)))
    });
    let (cc_c1, cc_c2) = (eligible(&c1, &links, true, 2), eligible(&c2, &links, false, 2));
    group.bench_function("compact/lsh_fused", |b| {
        b.iter(|| black_box(lsh_phase(&c1, &c2, &links, &cc_c1, &cc_c2)))
    });

    // The MapReduce backend's phase (whole-row mappers + packed row
    // shuffle + select-fused reduce) — what one matcher phase runs on
    // Backend::MapReduce.
    group.bench_function("csr/mapreduce_fused", |b| {
        let engine = Engine::new(4);
        b.iter(|| black_box(mapreduce_phase(&engine, g1, g2, &links)))
    });
    group.bench_function("compact/mapreduce_fused", |b| {
        let engine = Engine::new(4);
        b.iter(|| black_box(mapreduce_phase(&engine, &c1, &c2, &links)))
    });
    // The same fused round forced out-of-core: a 1 MiB budget makes every
    // map task spill its buckets to run files that the reduce
    // k-way merges back. The baseline pins the cost of the spill write +
    // checksum + merge path relative to the in-memory round above.
    group.bench_function("csr/mapreduce_spill", |b| {
        let scratch = std::env::temp_dir().join(format!("snr-bench-spill-{}", std::process::id()));
        let engine = Engine::new(4).with_spill_budget(Some(1 << 20)).with_scratch_dir(scratch);
        b.iter(|| black_box(mapreduce_phase(&engine, g1, g2, &links)))
    });

    // The storage subsystem on the same workload: witness pass over
    // mmap-backed segments.
    let ((m1, p1), (m2, p2)) = (mmap_of(g1, "rmat16-g1"), mmap_of(g2, "rmat16-g2"));
    println!("witness_counting/rmat16 graph memory (copy 1):");
    for (name, bytes, bpe) in [
        ("csr", GraphView::memory_bytes(g1), g1.bytes_per_edge()),
        ("compact", c1.memory_bytes(), c1.bytes_per_edge()),
        ("mmap", m1.memory_bytes(), m1.bytes_per_edge()),
    ] {
        println!("  {name:8} memory_bytes = {bytes:>12}  bytes_per_edge = {bpe:.2}");
    }
    group.bench_function("mmap/fused", |b| b.iter(|| black_box(phase(&m1, &m2, &links, true))));

    // The same phase as one distributed round of the multi-process shard
    // driver (snr-driver): 2 worker subprocesses over mmap segments,
    // min_degree 2, threshold 2. Segment writing stays outside the timer;
    // each iteration pays the honest distributed cost — spawn + init
    // handshake, phase broadcast, range scoring in the workers, and the
    // claims merge. The worker binary must be in target/<profile>
    // (`cargo build --release -p snr-driver`; CI's workspace build covers
    // it).
    let seeds: Vec<_> = links.pairs().collect();
    let mut driver_config = DriverConfig::new(2);
    driver_config.matching = MatchingConfig::default()
        .with_threshold(2)
        .with_iterations(1)
        .with_degree_bucketing(false)
        .with_min_bucket(1);
    driver_config.fault = None;
    // No respawn budget here. Like every driver run, the round writes one
    // checkpoint after its phase.
    driver_config.respawn_budget = 0;
    let driver =
        ShardDriver::new(g1, g2, driver_config.clone()).expect("snapshot graphs for driver bench");
    group.bench_function("driver/fused", |b| {
        b.iter(|| black_box(driver.run(&seeds).expect("distributed round")))
    });
    drop(driver);
    // The same round with the respawn budget armed at its default. A
    // healthy run spends none of it, so the delta against driver/fused is
    // the price of keeping it armed.
    driver_config.respawn_budget = 2;
    let driver = ShardDriver::new(g1, g2, driver_config).expect("snapshot graphs for driver bench");
    group.bench_function("driver/respawn_overhead", |b| {
        b.iter(|| black_box(driver.run(&seeds).expect("distributed round")))
    });
    drop(driver);
    drop((m1, m2));
    let dir = p1.parent().map(std::path::Path::to_path_buf);
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p2);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir(dir);
    }
    group.finish();
}

fn bench_degree_thresholds(c: &mut Criterion) {
    let workload = Workload::pa(4_000, 10, 0.6, 0.10, 43);
    let links = workload.linking();
    let (g1, g2) = (&workload.pair.g1, &workload.pair.g2);

    let mut group = c.benchmark_group("witness_counting/degree_threshold");
    group.sample_size(15);
    for min_degree in [2usize, 8, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(min_degree), &min_degree, |b, &d| {
            b.iter(|| black_box(count_sequential(g1, g2, &links, d, d)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fused, bench_rmat16, bench_degree_thresholds);
criterion_main!(benches);
