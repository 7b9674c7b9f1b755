//! The User-Matching algorithm (Section 3.2 of the paper).

use crate::backend::Backend;
use crate::blocking::{adaptive_lsh_phase, DEFAULT_SKETCH_SEED};
use crate::config::{CandidateSource, MatchingConfig};
use crate::linking::Linking;
use crate::scoring::{fused_phase_on, mapreduce_fused_phase_on, CandidateCache};
use crate::stats::{MatchingOutcome, PhaseStats};
use snr_graph::{GraphView, NodeId};
use snr_mapreduce::{Engine, EngineError, EngineStats};
use snr_sketch::Banding;
use std::time::Instant;

/// The User-Matching reconciliation algorithm.
///
/// ```text
/// Input:  G1(V, E1), G2(V, E2), seed links L, max degree D,
///         minimum matching score T, iteration count k.
/// Output: a larger set of identification links L.
///
/// For i = 1, …, k
///   For j = log D, …, 1
///     For all pairs (u, v), u ∈ G1, v ∈ G2,
///         with d_{G1}(u) ≥ 2^j and d_{G2}(v) ≥ 2^j:
///       score(u, v) := number of similarity witnesses of (u, v)
///     If (u, v) is the highest-scoring pair in which either u or v
///         appears and score(u, v) ≥ T: add (u, v) to L.
/// Output L.
/// ```
///
/// The struct owns the configuration; [`UserMatching::run`] executes the
/// algorithm on a pair of graphs and a seed set and returns a
/// [`MatchingOutcome`] with the final links and per-phase statistics.
#[derive(Clone, Debug)]
pub struct UserMatching {
    config: MatchingConfig,
}

impl UserMatching {
    /// Creates an instance with the given configuration.
    pub fn new(config: MatchingConfig) -> Self {
        UserMatching { config }
    }

    /// Creates an instance with the paper's default configuration.
    pub fn with_defaults() -> Self {
        UserMatching::new(MatchingConfig::default())
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &MatchingConfig {
        &self.config
    }

    /// Runs the algorithm and returns the enlarged link set with statistics.
    ///
    /// Generic over [`GraphView`]: the two copies may be
    /// [`snr_graph::CsrGraph`]s, [`snr_graph::CompactCsr`]s, or one of each —
    /// the algorithm (and its output) is identical for every combination.
    ///
    /// Infallible: the engine this entry point builds carries whatever spill
    /// budget `SNR_MR_SPILL_BUDGET` requests, so a spill failure (I/O error
    /// or corrupt run file) panics here — use [`UserMatching::try_run`] to
    /// handle it instead.
    pub fn run<G1, G2>(&self, g1: &G1, g2: &G2, seeds: &[(NodeId, NodeId)]) -> MatchingOutcome
    where
        G1: GraphView + Sync,
        G2: GraphView + Sync,
    {
        self.try_run(g1, g2, seeds).expect("spill round failed")
    }

    /// Fallible sibling of [`UserMatching::run`]: surfaces a spill I/O or
    /// corruption failure in the MapReduce backend's out-of-core shuffle as
    /// a clean [`EngineError`] instead of panicking. A run without a spill
    /// budget never returns `Err`.
    pub fn try_run<G1, G2>(
        &self,
        g1: &G1,
        g2: &G2,
        seeds: &[(NodeId, NodeId)],
    ) -> Result<MatchingOutcome, EngineError>
    where
        G1: GraphView + Sync,
        G2: GraphView + Sync,
    {
        self.run_internal(g1, g2, seeds, None)
    }

    /// Runs the algorithm on the MapReduce backend using a caller-supplied
    /// engine, so that the caller can inspect round statistics afterwards —
    /// and give the engine a spill budget ([`Engine::with_spill_budget`]):
    /// a failed spill surfaces as a clean [`EngineError`] with the engine's
    /// scratch space already removed. Panics if the configured backend is
    /// not [`Backend::MapReduce`] (that is a programming error, not a
    /// runtime fault).
    pub fn try_run_on_engine<G1, G2>(
        &self,
        g1: &G1,
        g2: &G2,
        seeds: &[(NodeId, NodeId)],
        engine: &Engine,
    ) -> Result<MatchingOutcome, EngineError>
    where
        G1: GraphView + Sync,
        G2: GraphView + Sync,
    {
        assert!(
            matches!(self.config.backend, Backend::MapReduce { .. }),
            "try_run_on_engine requires the MapReduce backend"
        );
        self.run_internal(g1, g2, seeds, Some(engine))
    }

    /// Runs on the MapReduce backend with a fresh engine (spill budget from
    /// `SNR_MR_SPILL_BUDGET`) and also returns the engine's round
    /// statistics (used to verify the `O(k log D)` round claim). Panics if
    /// the configured backend is not [`Backend::MapReduce`] or a spill
    /// fails.
    pub fn run_with_round_stats<G1, G2>(
        &self,
        g1: &G1,
        g2: &G2,
        seeds: &[(NodeId, NodeId)],
    ) -> (MatchingOutcome, EngineStats)
    where
        G1: GraphView + Sync,
        G2: GraphView + Sync,
    {
        let workers = match self.config.backend {
            Backend::MapReduce { workers } => workers,
            _ => 1,
        };
        let engine = Engine::new(workers);
        let outcome = self.try_run_on_engine(g1, g2, seeds, &engine).expect("spill round failed");
        (outcome, engine.stats())
    }

    fn run_internal<G1, G2>(
        &self,
        g1: &G1,
        g2: &G2,
        seeds: &[(NodeId, NodeId)],
        engine: Option<&Engine>,
    ) -> Result<MatchingOutcome, EngineError>
    where
        G1: GraphView + Sync,
        G2: GraphView + Sync,
    {
        let start = Instant::now();
        let cfg = &self.config;
        let mut links = Linking::with_seeds(g1.node_count(), g2.node_count(), seeds);
        let mut phases = Vec::new();

        let schedule = cfg.schedule(g1.max_degree().max(g2.max_degree()));

        let owned_engine;
        let engine_ref: Option<&Engine> = match (cfg.backend, engine) {
            (Backend::MapReduce { workers }, None) => {
                owned_engine = Engine::new(workers);
                Some(&owned_engine)
            }
            (_, provided) => provided,
        };

        if matches!(cfg.candidates, CandidateSource::Lsh { .. }) {
            assert!(
                !matches!(cfg.backend, Backend::MapReduce { .. }),
                "LSH candidate blocking is not supported on the MapReduce backend; \
                 use Backend::Sequential or Backend::Rayon"
            );
        }

        // Degrees never change during a run: read them once per side and
        // assemble each phase's eligible set from the cached log₂-degree
        // groups instead of rescanning all n nodes every phase. The copy-2
        // cache only exists for LSH blocking (the exact path filters copy-2
        // eligibility inside the LinkCache build).
        let cand_cache1 = {
            let _span = snr_telemetry::span!("candidate_cache", side = 1);
            CandidateCache::build(g1)
        };
        let cand_cache2 = matches!(cfg.candidates, CandidateSource::Lsh { .. }).then(|| {
            let _span = snr_telemetry::span!("candidate_cache", side = 2);
            CandidateCache::build(g2)
        });

        for (iteration, bucket) in schedule {
            let phase_start = Instant::now();
            let _phase_span = snr_telemetry::span!("phase", iter = iteration, bucket = bucket);
            let min_degree = 1usize << bucket;
            let candidates = cand_cache1.eligible(
                min_degree,
                |u| links.is_linked_g1(NodeId(u)),
                |u| g1.degree(NodeId(u)),
            );

            let (scored_pairs, new_pairs) = match (cfg.backend, engine_ref) {
                (Backend::MapReduce { .. }, Some(engine)) => {
                    // One engine round per phase: combiner mappers score
                    // candidate rows on task-local arenas, the packed
                    // shuffle is range-partitioned by row, and the
                    // reduce folds rows into per-partition SelectSinks —
                    // no global score table, same bits as fused_phase_on.
                    mapreduce_fused_phase_on(
                        engine,
                        g1,
                        g2,
                        &links,
                        candidates,
                        min_degree,
                        cfg.threshold,
                    )?
                }
                _ => {
                    let parallel = matches!(cfg.backend, Backend::Rayon);
                    match cfg.candidates {
                        // Arena fast path: witness scoring and mutual-
                        // best selection fused into one pass over per-
                        // candidate rows — no score table is
                        // materialized. Selection follows the same
                        // backend as scoring, so Backend::Rayon is
                        // parallel through the whole phase.
                        CandidateSource::Exact => fused_phase_on(
                            g1,
                            g2,
                            &links,
                            &candidates,
                            min_degree,
                            cfg.threshold,
                            parallel,
                        ),
                        // Blocked path: MinHash/LSH proposes candidate
                        // pairs, which are then scored exactly. The
                        // sketch seed mixes in the phase coordinates so
                        // each phase re-draws its hash family. Phases
                        // whose exact scan is light fall back to it
                        // (lossless and faster there); only mass-heavy
                        // phases pay the sketch — see the adaptive gate
                        // in `crate::blocking`.
                        CandidateSource::Lsh { bands, rows } => {
                            let candidates2 = || {
                                cand_cache2
                                    .as_ref()
                                    .expect("copy-2 cache is built for LSH runs")
                                    .eligible(
                                        min_degree,
                                        |v| links.is_linked_g2(NodeId(v)),
                                        |v| g2.degree(NodeId(v)),
                                    )
                            };
                            let seed = DEFAULT_SKETCH_SEED
                                ^ (u64::from(iteration) << 32)
                                ^ u64::from(bucket);
                            adaptive_lsh_phase(
                                g1,
                                g2,
                                &links,
                                &candidates,
                                candidates2,
                                min_degree,
                                cfg.threshold,
                                &Banding::new(bands, rows),
                                seed,
                                cfg.lsh_mass_floor,
                                parallel,
                            )
                        }
                    }
                }
            };

            let new_links = links.insert_batch(&new_pairs);
            let duration = phase_start.elapsed();

            snr_telemetry::Counter::ScoredPairs.add(scored_pairs as u64);
            snr_telemetry::Counter::LinksInserted.add(new_links as u64);
            snr_telemetry::Gauge::LinksTotal.set(links.len() as u64);
            snr_telemetry::Histogram::PhaseMicros.record(duration.as_micros() as u64);

            phases.push(PhaseStats {
                iteration,
                bucket: if cfg.degree_bucketing { bucket } else { 0 },
                scored_pairs,
                new_links,
                total_links: links.len(),
                duration,
            });
        }

        Ok(MatchingOutcome { links, phases, total_duration: start.elapsed() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_generators::preferential_attachment;
    use snr_graph::CsrGraph;
    use snr_sampling::independent::independent_deletion_symmetric;
    use snr_sampling::{sample_seeds, RealizationPair};

    fn pa_pair(n: usize, m: usize, s: f64, seed: u64) -> (RealizationPair, Vec<(NodeId, NodeId)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = preferential_attachment(n, m, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, s, &mut rng).unwrap();
        let seeds = sample_seeds(&pair, 0.05, &mut rng).unwrap();
        (pair, seeds)
    }

    fn score(pair: &RealizationPair, outcome: &MatchingOutcome) -> (usize, usize) {
        let mut good = 0;
        let mut bad = 0;
        for (u1, u2) in outcome.links.pairs() {
            if pair.truth.is_correct(u1, u2) {
                good += 1;
            } else {
                bad += 1;
            }
        }
        (good, bad)
    }

    #[test]
    fn identical_copies_with_identity_seed_identify_neighbors() {
        // Two identical stars plus a triangle at the center; seeding the
        // center's two neighbors identifies the center.
        let edges = &[(0, 1), (0, 2), (0, 3), (1, 2)];
        let g1 = CsrGraph::from_edges(4, edges);
        let g2 = g1.clone();
        let seeds = vec![(NodeId(1), NodeId(1)), (NodeId(2), NodeId(2))];
        let outcome =
            UserMatching::new(MatchingConfig::default().with_threshold(2).with_iterations(1))
                .run(&g1, &g2, &seeds);
        assert!(outcome.links.linked_in_g2(NodeId(0)) == Some(NodeId(0)));
        assert_eq!(outcome.links.seed_count(), 2);
        assert!(outcome.discovered() >= 1);
    }

    #[test]
    fn no_seeds_means_no_discoveries() {
        let g1 = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let outcome = UserMatching::with_defaults().run(&g1, &g1.clone(), &[]);
        assert_eq!(outcome.links.len(), 0);
        assert_eq!(outcome.discovered(), 0);
    }

    #[test]
    fn empty_graphs_are_handled() {
        let g = CsrGraph::from_edges(0, &[]);
        let outcome = UserMatching::with_defaults().run(&g, &g.clone(), &[]);
        assert_eq!(outcome.links.len(), 0);
        assert!(!outcome.phases.is_empty());
    }

    #[test]
    fn pa_graph_high_precision_and_recall() {
        // Scaled-down version of the paper's Figure 2 setting: PA graph,
        // random deletion s = 0.5, seed 5%, threshold 2 — precision should
        // be ~100% and most matchable nodes recovered. The paper uses
        // m = 20 (expected intersection degree 2·m·s² = 10); we keep the
        // same density at a smaller node count.
        let (pair, seeds) = pa_pair(3_000, 20, 0.5, 42);
        let outcome =
            UserMatching::new(MatchingConfig::default().with_threshold(2).with_iterations(2))
                .run(&pair.g1, &pair.g2, &seeds);
        let (good, bad) = score(&pair, &outcome);
        let matchable = pair.matchable_nodes();
        assert!(good * 2 > matchable, "good={good} matchable={matchable}");
        // The paper reports zero errors at this setting on a 1M-node graph;
        // at 3k nodes hubs are shared much more heavily, so we only require
        // the error rate to stay below 2.5%.
        assert!(
            (bad as f64) < 0.025 * (good as f64).max(1.0),
            "bad={bad} good={good}: precision too low"
        );
        assert!(outcome.discovered() > seeds.len(), "should discover more than the seed count");
    }

    #[test]
    fn identical_copies_are_almost_fully_recovered() {
        // With s = 1 the two copies are isomorphic; starting from 5% seeds
        // the algorithm should identify essentially every node of degree ≥ 2.
        let (pair, seeds) = pa_pair(2_000, 6, 1.0, 43);
        let outcome =
            UserMatching::new(MatchingConfig::default().with_threshold(2).with_iterations(2))
                .run(&pair.g1, &pair.g2, &seeds);
        let (good, bad) = score(&pair, &outcome);
        assert_eq!(bad, 0, "identical copies must not produce wrong matches");
        assert!(
            good as f64 > 0.9 * pair.matchable_nodes() as f64,
            "good={good} matchable={}",
            pair.matchable_nodes()
        );
    }

    #[test]
    fn higher_threshold_never_lowers_precision() {
        let (pair, seeds) = pa_pair(2_000, 8, 0.6, 7);
        let run = |t: u32| {
            let outcome =
                UserMatching::new(MatchingConfig::default().with_threshold(t).with_iterations(1))
                    .run(&pair.g1, &pair.g2, &seeds);
            let (good, bad) = score(&pair, &outcome);
            (good, bad, outcome.links.len())
        };
        let (good2, bad2, total2) = run(2);
        let (good4, bad4, total4) = run(4);
        // Recall can only drop with a higher threshold…
        assert!(total4 <= total2);
        assert!(good4 <= good2);
        // …and the error *rate* must not get worse.
        let rate2 = bad2 as f64 / (good2 + bad2).max(1) as f64;
        let rate4 = bad4 as f64 / (good4 + bad4).max(1) as f64;
        assert!(rate4 <= rate2 + 1e-9, "rate4={rate4} rate2={rate2}");
    }

    #[test]
    fn more_iterations_monotonically_grow_the_link_set() {
        let (pair, seeds) = pa_pair(1_500, 6, 0.6, 9);
        let run = |k: u32| {
            UserMatching::new(MatchingConfig::default().with_threshold(2).with_iterations(k))
                .run(&pair.g1, &pair.g2, &seeds)
                .links
                .len()
        };
        let one = run(1);
        let two = run(2);
        let three = run(3);
        assert!(two >= one);
        assert!(three >= two);
    }

    #[test]
    fn seeds_are_preserved_in_the_output() {
        let (pair, seeds) = pa_pair(800, 6, 0.7, 21);
        let outcome = UserMatching::with_defaults().run(&pair.g1, &pair.g2, &seeds);
        for &(u1, u2) in &seeds {
            assert_eq!(outcome.links.linked_in_g2(u1), Some(u2));
        }
        assert_eq!(outcome.links.seed_count(), seeds.len());
    }

    #[test]
    fn phase_stats_are_consistent() {
        let (pair, seeds) = pa_pair(1_000, 6, 0.6, 33);
        let cfg = MatchingConfig::default().with_threshold(2).with_iterations(2);
        let outcome = UserMatching::new(cfg.clone()).run(&pair.g1, &pair.g2, &seeds);
        // Bucket indices descend within an iteration, and totals are
        // monotone non-decreasing across phases.
        let mut prev_total = seeds.len();
        let mut per_iteration: Vec<Vec<u32>> = vec![Vec::new(); cfg.iterations as usize];
        for p in &outcome.phases {
            assert!(p.total_links >= prev_total);
            prev_total = p.total_links;
            per_iteration[(p.iteration - 1) as usize].push(p.bucket);
        }
        for buckets in per_iteration {
            let mut sorted = buckets.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(buckets, sorted, "buckets must descend within an iteration");
        }
        assert_eq!(prev_total, outcome.links.len());
    }

    #[test]
    fn disabling_degree_bucketing_still_runs_and_uses_single_bucket() {
        let (pair, seeds) = pa_pair(800, 6, 0.6, 55);
        let cfg = MatchingConfig::default()
            .with_threshold(1)
            .with_iterations(1)
            .with_degree_bucketing(false);
        let outcome = UserMatching::new(cfg).run(&pair.g1, &pair.g2, &seeds);
        assert_eq!(outcome.phases.len(), 1);
        assert!(outcome.links.len() >= seeds.len());
    }

    #[test]
    fn rayon_backend_matches_sequential() {
        let (pair, seeds) = pa_pair(1_200, 6, 0.6, 77);
        let seq = UserMatching::new(MatchingConfig::default().with_backend(Backend::Sequential))
            .run(&pair.g1, &pair.g2, &seeds);
        let par = UserMatching::new(MatchingConfig::default().with_backend(Backend::Rayon))
            .run(&pair.g1, &pair.g2, &seeds);
        assert_eq!(seq.links, par.links);
    }

    #[test]
    fn mapreduce_backend_matches_sequential_and_counts_rounds() {
        let (pair, seeds) = pa_pair(600, 5, 0.7, 88);
        let seq = UserMatching::new(MatchingConfig::default().with_iterations(1))
            .run(&pair.g1, &pair.g2, &seeds);
        let mr_cfg = MatchingConfig::default()
            .with_iterations(1)
            .with_backend(Backend::MapReduce { workers: 2 });
        let (mr, engine_stats) =
            UserMatching::new(mr_cfg).run_with_round_stats(&pair.g1, &pair.g2, &seeds);
        assert_eq!(seq.links, mr.links);
        // One fused MapReduce round per phase: combiner mappers + packed
        // shuffle + select-fused reduce (the paper sketches the same phase
        // as 4 rounds; the combiner collapses it to 1).
        assert_eq!(engine_stats.rounds, mr.phases.len());
        assert!(engine_stats.per_round.iter().all(|r| r.label == "witness-score"));
    }
}
