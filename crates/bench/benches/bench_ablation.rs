//! Benchmark: ablations called out in DESIGN.md.
//!
//! * Degree bucketing on vs off — the bucketed sweep does strictly more
//!   phases but each phase touches far fewer candidates; this quantifies the
//!   cost side of the precision benefit measured by the
//!   `ablation_bucketing_baseline` experiment.
//! * User-Matching vs the common-neighbor baseline — the baseline is one
//!   unbucketed pass, so it is the lower bound on matcher cost.
//! * Outer-iteration count k = 1 vs 2.

use criterion::{criterion_group, criterion_main, Criterion};
use snr_bench::Workload;
use snr_core::{MatchingConfig, UserMatching};
use std::hint::black_box;

fn bench_bucketing_ablation(c: &mut Criterion) {
    let workload = Workload::pa(3_000, 10, 0.5, 0.10, 11);
    let mut group = c.benchmark_group("ablation/degree_bucketing");
    group.sample_size(10);
    group.bench_function("with_bucketing", |b| {
        let cfg = MatchingConfig::default().with_threshold(2).with_iterations(1);
        b.iter(|| {
            black_box(UserMatching::new(cfg.clone()).run(
                &workload.pair.g1,
                &workload.pair.g2,
                &workload.seeds,
            ))
        })
    });
    group.bench_function("without_bucketing", |b| {
        let cfg = MatchingConfig::default()
            .with_threshold(2)
            .with_iterations(1)
            .with_degree_bucketing(false);
        b.iter(|| {
            black_box(UserMatching::new(cfg.clone()).run(
                &workload.pair.g1,
                &workload.pair.g2,
                &workload.seeds,
            ))
        })
    });
    group.bench_function("baseline_common_neighbors", |b| {
        b.iter(|| {
            black_box(UserMatching::new(MatchingConfig::baseline()).run(
                &workload.pair.g1,
                &workload.pair.g2,
                &workload.seeds,
            ))
        })
    });
    group.finish();
}

fn bench_iteration_count(c: &mut Criterion) {
    let workload = Workload::pa(3_000, 10, 0.5, 0.10, 12);
    let mut group = c.benchmark_group("ablation/iterations");
    group.sample_size(10);
    for k in [1u32, 2] {
        group.bench_function(format!("k={k}"), |b| {
            let cfg = MatchingConfig::default().with_threshold(2).with_iterations(k);
            b.iter(|| {
                black_box(UserMatching::new(cfg.clone()).run(
                    &workload.pair.g1,
                    &workload.pair.g2,
                    &workload.seeds,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bucketing_ablation, bench_iteration_count);
criterion_main!(benches);
