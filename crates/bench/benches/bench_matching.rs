//! Benchmark: one full User-Matching run and the mutual-best selection step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snr_bench::Workload;
use snr_core::matching::mutual_best_pairs;
use snr_core::witness::ScoreTable;
use snr_core::{Backend, MatchingConfig, UserMatching};
use std::hint::black_box;

fn bench_full_algorithm(c: &mut Criterion) {
    let mut group = c.benchmark_group("user_matching/full_run");
    group.sample_size(10);
    for &n in &[1_000usize, 2_000, 4_000] {
        let workload = Workload::pa(n, 10, 0.5, 0.10, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &workload, |b, w| {
            let config = MatchingConfig::default().with_threshold(2).with_iterations(1);
            b.iter(|| {
                black_box(UserMatching::new(config.clone()).run(&w.pair.g1, &w.pair.g2, &w.seeds))
            })
        });
    }
    group.finish();
}

/// Synthetic score table approximating one dense phase.
fn synthetic_table(n: u32) -> ScoreTable {
    let mut scores = ScoreTable::new();
    for u in 0..n {
        for k in 0..8u32 {
            let v = (u * 7 + k * 131) % n;
            scores.insert((u, v), (u + k) % 9 + 1);
        }
    }
    scores
}

fn bench_mutual_best(c: &mut Criterion) {
    let scores = synthetic_table(2_000);
    let mut group = c.benchmark_group("user_matching/mutual_best");
    group.sample_size(20);
    for threshold in [1u32, 3, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(threshold), &threshold, |b, &t| {
            b.iter(|| black_box(mutual_best_pairs(&scores, t)))
        });
    }
    group.finish();
}

/// The oracle selection alone on a larger table.
fn bench_selection(c: &mut Criterion) {
    let scores = synthetic_table(20_000);
    let mut group = c.benchmark_group("user_matching/selection");
    group.sample_size(15);
    group.bench_function("sequential", |b| b.iter(|| black_box(mutual_best_pairs(&scores, 3))));
    group.finish();
}

/// The full matcher on the rayon backend — the end-to-end number the
/// arena-scorer speedup target is recorded against.
fn bench_full_algorithm_rayon(c: &mut Criterion) {
    let mut group = c.benchmark_group("user_matching/full_run_rayon");
    group.sample_size(10);
    let workload = Workload::pa(4_000, 10, 0.5, 0.10, 7);
    group.bench_with_input(BenchmarkId::from_parameter(4_000), &workload, |b, w| {
        let config = MatchingConfig::default()
            .with_threshold(2)
            .with_iterations(1)
            .with_backend(Backend::Rayon);
        b.iter(|| {
            black_box(UserMatching::new(config.clone()).run(&w.pair.g1, &w.pair.g2, &w.seeds))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_full_algorithm,
    bench_full_algorithm_rayon,
    bench_mutual_best,
    bench_selection
);
criterion_main!(benches);
