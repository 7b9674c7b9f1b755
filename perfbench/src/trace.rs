//! The traced run: the matcher's phase schedule re-driven from the
//! benchmark's own code, with a timer around every public call.
//!
//! Per phase the in-process workloads call, in the order `UserMatching`
//! does: `CandidateCache::eligible` → `LinkCache::build{,_parallel}` →
//! `score_phase_cached` with a `SelectSink` → `SelectSink::finish` →
//! `Linking::insert_batch` (exact), or `adaptive_lsh_phase` /
//! `mapreduce_fused_phase_on` in place of the middle three. Layers that
//! only exist inside one public call — sketch, band and verify inside
//! `adaptive_lsh_phase`; broadcast, merge, checkpoint and worker tasks
//! inside `ShardDriver::run` — are read from the spans and counters
//! `snr-telemetry` already records. The bump count (`phase_mass`) is taken
//! outside the timed calls and its time is left out of the traced matcher
//! time.

use snr_core::blocking::{adaptive_lsh_phase, phase_mass, Banding, DEFAULT_SKETCH_SEED};
use snr_core::scoring::{
    mapreduce_fused_phase_on, score_phase_cached, CandidateCache, LinkCache, SelectSink,
};
use snr_core::{Backend, CandidateSource, Linking, MatchingConfig};
use snr_driver::ShardDriver;
use snr_graph::{GraphView, NodeId};
use snr_mapreduce::Engine;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// What a traced run produced.
pub struct Traced {
    /// The links, which must equal the untraced run's.
    pub links: Linking,
    /// Traced matcher wall time, bookkeeping excluded.
    pub match_s: f64,
    /// Per-layer metrics this run measured, by name.
    pub layers: BTreeMap<&'static str, f64>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Starts telemetry collection from an empty registry.
fn telemetry_on() {
    snr_telemetry::reset();
    snr_telemetry::enable();
}

/// Stops telemetry collection and clears what was recorded.
fn telemetry_off() {
    snr_telemetry::disable();
    snr_telemetry::reset();
}

/// Highest degree bucket of the schedule, exactly as `UserMatching` and
/// `ShardDriver` derive it.
fn top_bucket<G1: GraphView, G2: GraphView>(g1: &G1, g2: &G2, cfg: &MatchingConfig) -> u32 {
    if !cfg.degree_bucketing {
        return cfg.min_bucket;
    }
    let max_degree = g1.max_degree().max(g2.max_degree());
    (usize::BITS - 1).saturating_sub(max_degree.max(1).leading_zeros()).max(cfg.min_bucket)
}

/// Running per-layer sums of an in-process traced run.
#[derive(Default)]
struct Sums {
    candidates_s: f64,
    candidate_rows: u64,
    link_cache_s: f64,
    link_cache_targets: u64,
    score_s: f64,
    bumps: u64,
    scored_pairs: u64,
    phase_max_s: f64,
    finish_s: f64,
    insert_s: f64,
    new_links: u64,
    sketch_s: f64,
    band_s: f64,
    verify_s: f64,
    proposals: u64,
    round_s: f64,
}

/// Re-drives an in-process matcher (`Backend::Rayon` or
/// `Backend::Sequential`, exact or LSH; or `Backend::MapReduce` when
/// `engine` is given) on `g1`/`g2` from `seeds` with telemetry on.
pub fn in_process<G1, G2>(
    cfg: &MatchingConfig,
    g1: &G1,
    g2: &G2,
    seeds: &[(NodeId, NodeId)],
    engine: Option<&Engine>,
) -> Result<Traced, String>
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    telemetry_on();
    let result = drive(cfg, g1, g2, seeds, engine);
    telemetry_off();
    result
}

fn drive<G1, G2>(
    cfg: &MatchingConfig,
    g1: &G1,
    g2: &G2,
    seeds: &[(NodeId, NodeId)],
    engine: Option<&Engine>,
) -> Result<Traced, String>
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let parallel = matches!(cfg.backend, Backend::Rayon);
    let lsh = match cfg.candidates {
        CandidateSource::Lsh { bands, rows } => Some(Banding::new(bands, rows)),
        CandidateSource::Exact => None,
    };
    let n2 = g2.node_count();
    let mut s = Sums::default();
    let mut bookkeeping_s = 0.0;
    let start = Instant::now();

    let mut links = Linking::with_seeds(g1.node_count(), n2, seeds);
    let t = Instant::now();
    let cache1 = CandidateCache::build(g1);
    let cache2 = lsh.is_some().then(|| CandidateCache::build(g2));
    s.candidates_s += secs(t);

    let top = top_bucket(g1, g2, cfg);
    let mut phases = 0u64;
    for iteration in 1..=cfg.iterations {
        for bucket in (cfg.min_bucket..=top).rev() {
            phases += 1;
            let phase_start = Instant::now();
            let mut phase_bookkeeping_s = 0.0;
            let min_degree = 1usize << bucket;

            let t = Instant::now();
            let candidates = cache1.eligible(
                min_degree,
                |u| links.is_linked_g1(NodeId(u)),
                |u| g1.degree(NodeId(u)),
            );
            s.candidates_s += secs(t);
            s.candidate_rows += candidates.len() as u64;

            let (scored, pairs) = match (engine, &lsh) {
                (Some(engine), _) => {
                    let input = candidates.clone();
                    let t = Instant::now();
                    let out = mapreduce_fused_phase_on(
                        engine,
                        g1,
                        g2,
                        &links,
                        input,
                        min_degree,
                        cfg.threshold,
                    )
                    .map_err(|e| format!("traced MapReduce round failed: {e}"))?;
                    s.round_s += secs(t);
                    out
                }
                (None, None) => {
                    let t = Instant::now();
                    let cache = if parallel {
                        LinkCache::build_parallel(g2, &links, min_degree)
                    } else {
                        LinkCache::build(g2, &links, min_degree)
                    };
                    s.link_cache_s += secs(t);

                    let t = Instant::now();
                    let sink = score_phase_cached(g1, &cache, n2, &candidates, parallel, || {
                        SelectSink::new(n2, cfg.threshold)
                    });
                    s.score_s += secs(t);
                    let t = Instant::now();
                    let out = sink.finish();
                    s.finish_s += secs(t);

                    // Counted after scoring, so the count's pass over the
                    // rows does not warm caches for the timed kernel.
                    let t = Instant::now();
                    s.link_cache_targets += cache.cached_targets() as u64;
                    s.bumps += phase_mass(g1, &cache, &candidates);
                    phase_bookkeeping_s += secs(t);
                    out
                }
                (None, Some(banding)) => {
                    let cache2 = cache2.as_ref().expect("copy-2 cache is built for LSH runs");
                    let candidates2_s = Cell::new(0.0);
                    let _ = snr_telemetry::drain_delta();
                    let seed =
                        DEFAULT_SKETCH_SEED ^ (u64::from(iteration) << 32) ^ u64::from(bucket);
                    let out = adaptive_lsh_phase(
                        g1,
                        g2,
                        &links,
                        &candidates,
                        || {
                            let t = Instant::now();
                            let c = cache2.eligible(
                                min_degree,
                                |v| links.is_linked_g2(NodeId(v)),
                                |v| g2.degree(NodeId(v)),
                            );
                            candidates2_s.set(secs(t));
                            c
                        },
                        min_degree,
                        cfg.threshold,
                        banding,
                        seed,
                        cfg.lsh_mass_floor,
                        parallel,
                    );
                    s.candidates_s += candidates2_s.get();
                    let delta = snr_telemetry::drain_delta();
                    for (name, _, _, dur_us) in &delta.spans {
                        let dur = *dur_us as f64 / 1e6;
                        match name.as_str() {
                            "link_cache" => s.link_cache_s += dur,
                            "sketch" => s.sketch_s += dur,
                            "band" => s.band_s += dur,
                            "verify" => s.verify_s += dur,
                            _ => {}
                        }
                    }
                    for (name, value) in &delta.counters {
                        if name == "lsh_proposals" {
                            s.proposals += value;
                        }
                    }
                    out
                }
            };

            if engine.is_some() || lsh.is_some() {
                // These paths build their LinkCache inside one call; count
                // on a cache of our own, after the call, before the links
                // change.
                let t = Instant::now();
                let cache = LinkCache::build(g2, &links, min_degree);
                s.link_cache_targets += cache.cached_targets() as u64;
                s.bumps += phase_mass(g1, &cache, &candidates);
                phase_bookkeeping_s += secs(t);
            }

            let t = Instant::now();
            s.new_links += links.insert_batch(&pairs) as u64;
            s.insert_s += secs(t);
            s.scored_pairs += scored as u64;
            bookkeeping_s += phase_bookkeeping_s;
            s.phase_max_s = s.phase_max_s.max(secs(phase_start) - phase_bookkeeping_s);
        }
    }
    let match_s = secs(start) - bookkeeping_s;

    let covered = s.candidates_s
        + s.link_cache_s
        + s.score_s
        + s.finish_s
        + s.sketch_s
        + s.band_s
        + s.verify_s
        + s.round_s
        + s.insert_s;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut layers = BTreeMap::new();
    layers.insert("core.phases", phases as f64);
    layers.insert("core.candidates_s", s.candidates_s);
    layers.insert("core.candidate_rows", s.candidate_rows as f64);
    layers.insert("core.bumps", s.bumps as f64);
    layers.insert("core.scored_pairs", s.scored_pairs as f64);
    layers.insert("core.phase_max_s", s.phase_max_s);
    layers.insert("core.insert_s", s.insert_s);
    layers.insert("core.new_links", s.new_links as f64);
    layers.insert("core.yield", ratio(s.new_links as f64, s.candidate_rows as f64));
    layers.insert("core.link_cache_s", s.link_cache_s);
    layers.insert("core.link_cache_targets", s.link_cache_targets as f64);
    layers.insert("core.score_s", s.score_s);
    layers.insert("core.finish_s", s.finish_s);
    if lsh.is_some() {
        layers.insert("sketch.sketch_s", s.sketch_s);
        layers.insert("sketch.band_s", s.band_s);
        layers.insert("core.verify_s", s.verify_s);
        layers.insert("sketch.proposals", s.proposals as f64);
        layers.insert("sketch.useful", ratio(s.scored_pairs as f64, s.proposals as f64));
    }
    if let Some(engine) = engine {
        let stats = engine.stats();
        let sum = |f: fn(&snr_mapreduce::RoundStats) -> usize| {
            stats.per_round.iter().map(f).sum::<usize>() as f64
        };
        let map_out = sum(|r| r.map_output_records);
        let shuffled = sum(|r| r.shuffled_records);
        layers.insert("mapreduce.round_s", s.round_s);
        layers.insert("mapreduce.map_output_records", map_out);
        layers.insert("mapreduce.shuffled_records", shuffled);
        layers.insert("mapreduce.shuffled_bytes", sum(|r| r.shuffled_bytes));
        layers.insert("mapreduce.combine_ratio", ratio(map_out, shuffled));
        layers.insert("mapreduce.spilled_bytes", sum(|r| r.spilled_bytes));
        layers.insert("mapreduce.spilled_runs", sum(|r| r.spilled_runs));
        layers.insert(
            "mapreduce.spill_merge_s",
            stats.per_round.iter().map(|r| r.spill_merge_micros).sum::<u64>() as f64 / 1e6,
        );
    }
    layers.insert("telemetry.traced_match_s", match_s);
    layers.insert("telemetry.coverage", ratio(covered, match_s));
    Ok(Traced { links, match_s, layers })
}

/// Runs `ShardDriver::run` once with telemetry on and reads the driver's
/// own spans: `phase`, `broadcast`, `merge` and `checkpoint` on the
/// coordinator, `task` shipped home by the workers. A worker ships a
/// task's spans right after its answer, so the last phase's may arrive
/// after the run has ended and go uncounted.
pub fn driver(driver: &ShardDriver, seeds: &[(NodeId, NodeId)]) -> Result<Traced, String> {
    telemetry_on();
    let t = Instant::now();
    let outcome = driver.run(seeds);
    let match_s = secs(t);
    let delta = snr_telemetry::drain_delta();
    telemetry_off();
    let outcome = outcome.map_err(|e| format!("traced driver run failed: {e}"))?;

    let mut span_s: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, _, _, dur_us) in &delta.spans {
        *span_s.entry(name.as_str()).or_default() += *dur_us as f64 / 1e6;
    }
    let span = |name: &str| span_s.get(name).copied().unwrap_or(0.0);
    let stats = driver.last_run_stats();
    let phases = outcome.phases.len();
    let mut layers = BTreeMap::new();
    layers.insert("core.phases", phases as f64);
    layers.insert("core.scored_pairs", outcome.total_scored_pairs() as f64);
    layers
        .insert("core.new_links", outcome.phases.iter().map(|p| p.new_links).sum::<usize>() as f64);
    layers.insert("driver.tasks", (driver.task_count() * phases) as f64);
    layers.insert("driver.broadcast_s", span("broadcast"));
    layers.insert("driver.merge_s", span("merge"));
    layers.insert("driver.checkpoint_s", span("checkpoint"));
    layers.insert("driver.worker_task_s", span("task"));
    layers.insert(
        "driver.coordinator_wait_s",
        (span("phase") - span("broadcast") - span("merge") - span("checkpoint")).max(0.0),
    );
    layers.insert("driver.respawns", f64::from(stats.respawns));
    layers.insert("driver.checkpoints", f64::from(stats.checkpoints));
    layers.insert("driver.checkpoint_failures", f64::from(stats.checkpoint_failures));
    layers.insert("telemetry.traced_match_s", match_s);
    layers.insert("telemetry.coverage", if match_s > 0.0 { span("phase") / match_s } else { 0.0 });
    Ok(Traced { links: outcome.links, match_s, layers })
}
