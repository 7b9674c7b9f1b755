//! Algorithm configuration.

use crate::backend::Backend;
use crate::blocking::{DEFAULT_LSH_MASS_FLOOR, DEFAULT_SKETCH_SEED};
use serde::{Deserialize, Serialize};

/// How each phase generates the candidate `(u, v)` pairs it scores.
///
/// The exact source considers every degree-eligible pair that shares at
/// least one witness — complete, but its cost is the full witness-
/// contribution sum and at R-MAT-20+ candidate *generation* becomes the
/// wall. LSH blocking sketches both sides' witness-link sets as MinHash
/// signatures and only scores pairs that collide in at least one of `bands`
/// bands of `rows` rows; the surviving pairs are re-scored *exactly*, so
/// blocking trades bounded recall for a much smaller scored set without
/// ever corrupting the scores of pairs it keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateSource {
    /// Every degree-eligible pair with at least one shared witness.
    #[default]
    Exact,
    /// MinHash/LSH candidate blocking with `bands` bands of `rows` rows
    /// (signature length `k = bands · rows`). Only supported by the
    /// in-process sequential and rayon backends.
    Lsh {
        /// Number of LSH bands `b`. More bands raise recall.
        bands: usize,
        /// Rows per band `r`. More rows sharpen the filter.
        rows: usize,
    },
}

/// Configuration of the [`crate::UserMatching`] algorithm.
///
/// The defaults correspond to the settings the paper uses most often in §5:
/// minimum matching score `T = 2`, `k = 2` outer iterations, degree
/// bucketing enabled, sequential execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MatchingConfig {
    /// Minimum matching score `T`: a pair is only linked if it has at least
    /// this many similarity witnesses. Higher values trade recall for
    /// precision (Figure 2 / Table 3 sweep this).
    pub threshold: u32,
    /// Number of outer iterations `k` (full sweeps over all degree buckets).
    /// The paper notes that 1–2 iterations already give good results.
    pub iterations: u32,
    /// Whether to sweep degree buckets from high to low (`j = log D .. 1`).
    /// Disabling this (the §5 ablation) scores all pairs in every phase and
    /// increases the error rate by ~50% on the Facebook experiment.
    pub degree_bucketing: bool,
    /// Lowest degree bucket to process; `1` (the paper's setting) means every
    /// node with degree ≥ 2 is eventually considered. Buckets below this are
    /// skipped, which can be used to restrict matching to higher-degree
    /// nodes.
    pub min_bucket: u32,
    /// Execution backend.
    pub backend: Backend,
    /// Candidate-pair source: exact enumeration or MinHash/LSH blocking.
    pub candidates: CandidateSource,
    /// Adaptive gate for [`CandidateSource::Lsh`]: a phase is blocked only
    /// if its estimated exact scored-pair count (bump-mass bound, then a
    /// sampled estimate — see [`crate::blocking::estimate_scored_pairs`])
    /// reaches this floor *and* the per-candidate count is high enough that
    /// sketching pays for itself. Cheap tail phases fall back to exact
    /// scoring, which is both faster and lossless there. `0` disables the
    /// gate: every phase is blocked (pure LSH — what the recall sweeps
    /// measure).
    pub lsh_mass_floor: u64,
}

impl Default for MatchingConfig {
    fn default() -> Self {
        MatchingConfig {
            threshold: 2,
            iterations: 2,
            degree_bucketing: true,
            min_bucket: 1,
            backend: Backend::Sequential,
            candidates: CandidateSource::Exact,
            lsh_mass_floor: DEFAULT_LSH_MASS_FLOOR,
        }
    }
}

impl MatchingConfig {
    /// Sets the minimum matching score `T`.
    pub fn with_threshold(mut self, t: u32) -> Self {
        self.threshold = t;
        self
    }

    /// Sets the number of outer iterations `k`.
    pub fn with_iterations(mut self, k: u32) -> Self {
        self.iterations = k.max(1);
        self
    }

    /// Enables or disables degree bucketing.
    pub fn with_degree_bucketing(mut self, enabled: bool) -> Self {
        self.degree_bucketing = enabled;
        self
    }

    /// Sets the lowest degree bucket processed.
    pub fn with_min_bucket(mut self, b: u32) -> Self {
        self.min_bucket = b.max(1);
        self
    }

    /// Sets the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the candidate-pair source.
    pub fn with_candidates(mut self, candidates: CandidateSource) -> Self {
        self.candidates = candidates;
        self
    }

    /// Sets the adaptive-blocking mass floor (`0` = block every phase).
    pub fn with_lsh_mass_floor(mut self, floor: u64) -> Self {
        self.lsh_mass_floor = floor;
        self
    }

    /// The run's phase schedule, in execution order: for each of the `k`
    /// iterations, buckets `j` from the top bucket down to
    /// [`MatchingConfig::min_bucket`]; a phase at bucket `j` considers nodes
    /// of degree at least `2^j`.
    ///
    /// `max_degree` is the paper's `D`, "a parameter related to the largest
    /// node degree" — callers pass the larger of the two copies' maximum
    /// degrees, so the first bucket is never empty on either side. With
    /// degree bucketing the top bucket is `⌊log₂ D⌋` (at least
    /// `min_bucket`); without it every iteration is the single bucket
    /// `min_bucket`. A `min_bucket` of 0 (set directly; the builder clamps
    /// to 1) is a supported input: its phases take every node of degree at
    /// least 1, which is how [`crate::BaselineMatching`] gets its passes.
    pub fn schedule(&self, max_degree: usize) -> Vec<Phase> {
        let top_bucket = if self.degree_bucketing {
            (usize::BITS - 1).saturating_sub(max_degree.max(1).leading_zeros()).max(self.min_bucket)
        } else {
            self.min_bucket
        };
        (1..=self.iterations)
            .flat_map(|iteration| {
                (self.min_bucket..=top_bucket).rev().map(move |bucket| (iteration, bucket))
            })
            .zip(1..)
            .map(|((iteration, bucket), number)| Phase {
                number,
                iteration,
                bucket: if self.degree_bucketing { bucket } else { 0 },
                min_degree: 1 << bucket,
                sketch_seed: DEFAULT_SKETCH_SEED ^ (u64::from(iteration) << 32) ^ u64::from(bucket),
            })
            .collect()
    }
}

/// One phase of a [`MatchingConfig::schedule`]: everything a matcher needs
/// to run it and to report it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Position in the schedule, starting at 1.
    pub number: u32,
    /// Outer iteration index, starting at 1.
    pub iteration: u32,
    /// Degree-bucket exponent `j` as [`crate::PhaseStats`] reports it; `0`
    /// when degree bucketing is disabled.
    pub bucket: u32,
    /// Minimum degree of a candidate on either side: `2^j` of the bucket
    /// the phase actually runs (`min_bucket` without bucketing).
    pub min_degree: usize,
    /// Seed of the phase's MinHash family: [`DEFAULT_SKETCH_SEED`] with the
    /// iteration and the bucket the phase actually runs mixed in, so every
    /// phase re-draws its hash functions.
    pub sketch_seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_common_settings() {
        let c = MatchingConfig::default();
        assert_eq!(c.threshold, 2);
        assert_eq!(c.iterations, 2);
        assert!(c.degree_bucketing);
        assert_eq!(c.min_bucket, 1);
        assert_eq!(c.backend, Backend::Sequential);
        assert_eq!(c.candidates, CandidateSource::Exact);
        assert_eq!(c.lsh_mass_floor, DEFAULT_LSH_MASS_FLOOR);
    }

    #[test]
    fn builder_methods_override_fields() {
        let c = MatchingConfig::default()
            .with_threshold(5)
            .with_iterations(3)
            .with_degree_bucketing(false)
            .with_min_bucket(4)
            .with_backend(Backend::Rayon)
            .with_candidates(CandidateSource::Lsh { bands: 8, rows: 2 })
            .with_lsh_mass_floor(0);
        assert_eq!(c.threshold, 5);
        assert_eq!(c.iterations, 3);
        assert!(!c.degree_bucketing);
        assert_eq!(c.min_bucket, 4);
        assert_eq!(c.backend, Backend::Rayon);
        assert_eq!(c.candidates, CandidateSource::Lsh { bands: 8, rows: 2 });
        assert_eq!(c.lsh_mass_floor, 0);
    }

    #[test]
    fn candidate_source_serde_roundtrip() {
        for c in [CandidateSource::Exact, CandidateSource::Lsh { bands: 16, rows: 3 }] {
            let json = serde_json::to_string(&c).unwrap();
            let c2: CandidateSource = serde_json::from_str(&json).unwrap();
            assert_eq!(c, c2);
        }
    }

    #[test]
    fn schedule_sweeps_buckets_from_log_d_down_each_iteration() {
        let pairs = |s: Vec<Phase>| s.iter().map(|p| (p.iteration, p.bucket)).collect::<Vec<_>>();
        let seed = |iteration: u32, bucket: u32| {
            DEFAULT_SKETCH_SEED ^ (u64::from(iteration) << 32) ^ u64::from(bucket)
        };
        let c = MatchingConfig::default().with_iterations(2);
        // D = 11: floor(log2 11) = 3.
        let s = c.schedule(11);
        assert_eq!(pairs(s.clone()), vec![(1, 3), (1, 2), (1, 1), (2, 3), (2, 2), (2, 1)]);
        for (i, p) in s.iter().enumerate() {
            assert_eq!(p.number, i as u32 + 1);
            assert_eq!(p.min_degree, 1 << p.bucket);
            assert_eq!(p.sketch_seed, seed(p.iteration, p.bucket));
        }
        // Exact powers of two start their own bucket.
        assert_eq!(pairs(c.schedule(8))[0], (1, 3));
        assert_eq!(pairs(c.schedule(7))[0], (1, 2));
        // Tiny or empty graphs still run the min_bucket phase.
        assert_eq!(pairs(c.schedule(0)), vec![(1, 1), (2, 1)]);
        assert_eq!(pairs(c.clone().with_min_bucket(4).schedule(11)), vec![(1, 4), (2, 4)]);
        // Without bucketing every iteration is one min_bucket phase, reported
        // as bucket 0; its degree floor and sketch seed still come from the
        // bucket it runs.
        let flat = c.clone().with_degree_bucketing(false).schedule(1 << 20);
        assert_eq!(pairs(flat.clone()), vec![(1, 0), (2, 0)]);
        assert_eq!(flat.iter().map(|p| p.number).collect::<Vec<_>>(), vec![1, 2]);
        assert!(flat.iter().all(|p| p.min_degree == 2));
        assert_eq!(flat[1].sketch_seed, seed(2, 1));
        // min_bucket 0 (the baseline's passes) runs down to degree 1.
        let zero = MatchingConfig { min_bucket: 0, ..c };
        assert_eq!(pairs(zero.schedule(4)), vec![(1, 2), (1, 1), (1, 0), (2, 2), (2, 1), (2, 0)]);
        let passes = MatchingConfig { degree_bucketing: false, ..zero }.schedule(1 << 20);
        assert_eq!(pairs(passes.clone()), vec![(1, 0), (2, 0)]);
        assert!(passes.iter().all(|p| p.min_degree == 1));
        assert_eq!(passes[1].sketch_seed, seed(2, 0));
    }

    #[test]
    fn degenerate_values_are_clamped() {
        let c = MatchingConfig::default().with_iterations(0).with_min_bucket(0);
        assert_eq!(c.iterations, 1);
        assert_eq!(c.min_bucket, 1);
    }
}
