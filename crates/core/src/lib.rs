//! # snr-core
//!
//! The primary contribution of Korula & Lattanzi, *"An efficient
//! reconciliation algorithm for social networks"* (VLDB 2014): the
//! **User-Matching** algorithm, which expands a small set of seed
//! identification links between two partial copies of a social network into
//! an identification of (almost) the whole network.
//!
//! One phase of the algorithm works on a degree bucket `j`:
//!
//! 1. every pair `(u, v)` with `deg_{G1}(u) ≥ 2^j` and `deg_{G2}(v) ≥ 2^j`
//!    is scored by its number of **similarity witnesses** — already-linked
//!    pairs `(w1, w2)` with `w1 ∈ N1(u)` and `w2 ∈ N2(v)`;
//! 2. `(u, v)` is added to the link set if it is the highest-scoring pair in
//!    which either `u` or `v` appears (mutual best) and its score is at
//!    least the threshold `T`.
//!
//! The outer loops sweep the degree buckets from `log D` down to `1`
//! (matching celebrities first — this is what makes the algorithm precise)
//! and repeat the sweep `k` times.
//!
//! This crate provides:
//!
//! * [`UserMatching`] — the full algorithm, configurable via
//!   [`MatchingConfig`], over three execution backends (sequential,
//!   rayon data-parallel, and the `snr-mapreduce` engine that mirrors the
//!   paper's `O(k log D)` MapReduce-round structure);
//! * [`MatchingConfig::baseline`] — the "straightforward algorithm that
//!   just counts the number of common neighbors" the paper compares against
//!   in §5, run by [`UserMatching`] as one unbucketed phase per pass over
//!   every node of degree at least 1;
//! * [`Linking`] — the growing set of identification links;
//! * the phase kernel in [`scoring`]: one row kernel
//!   (`ScoreArena::score_row`) with mutual-best selection fused
//!   into row finalization, and one entry point per executor — in-process
//!   sequential or rayon, the MapReduce engine, the distributed driver's
//!   row ranges, and LSH blocking ([`blocking`]);
//! * the oracles the kernel is pinned against: [`witness::count_sequential`]
//!   and [`witness::count_brute_force`] build the sparse
//!   [`witness::ScoreTable`], and [`matching::mutual_best_pairs`] selects
//!   from it.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//! use snr_core::{MatchingConfig, UserMatching};
//! use snr_generators::preferential_attachment;
//! use snr_sampling::{independent::independent_deletion_symmetric, sample_seeds};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // Underlying network and two partial copies.
//! let g = preferential_attachment(2_000, 10, &mut rng).unwrap();
//! let pair = independent_deletion_symmetric(&g, 0.7, &mut rng).unwrap();
//! let seeds = sample_seeds(&pair, 0.05, &mut rng).unwrap();
//!
//! // Reconcile.
//! let config = MatchingConfig::default().with_threshold(2).with_iterations(2);
//! let outcome = UserMatching::new(config).run(&pair.g1, &pair.g2, &seeds);
//!
//! // Score against the ground truth.
//! let correct = outcome
//!     .links
//!     .pairs()
//!     .filter(|&(u1, u2)| pair.truth.is_correct(u1, u2))
//!     .count();
//! assert!(correct > seeds.len());           // we identified new users…
//! let errors = outcome.links.len() - correct;
//! assert!(errors * 100 < outcome.links.len()); // …with < 1% error.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod backend;
pub mod blocking;
pub mod config;
pub mod linking;
pub mod matching;
pub mod scoring;
pub mod stats;
pub mod theory;
pub mod witness;

pub use algorithm::UserMatching;
pub use backend::Backend;
pub use config::{CandidateSource, MatchingConfig, Phase};
pub use linking::Linking;
pub use stats::{MatchingOutcome, PhaseStats};
