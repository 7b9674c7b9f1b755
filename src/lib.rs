//! # social-reconcile
//!
//! A from-scratch Rust reproduction of **Korula & Lattanzi, "An efficient
//! reconciliation algorithm for social networks" (PVLDB 7(5), 2014)**: the
//! User-Matching algorithm for identifying the accounts of the same user
//! across two social networks, together with every substrate it needs —
//! graph storage, network generators, realization/sampling models, an
//! in-memory MapReduce engine, evaluation metrics, and the experiment
//! harness that regenerates every table and figure of the paper's
//! evaluation section.
//!
//! This facade crate simply re-exports the workspace crates under stable
//! module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `snr-graph` | CSR graphs, builders, statistics, I/O |
//! | [`store`] | `snr-store` | on-disk graph segments and the mmap-backed view |
//! | [`generators`] | `snr-generators` | Erdős–Rényi, preferential attachment, affiliation, R-MAT, temporal, … |
//! | [`sampling`] | `snr-sampling` | realization models, ground truth, seed links |
//! | [`mapreduce`] | `snr-mapreduce` | the in-memory MapReduce engine |
//! | [`core`] | `snr-core` | the User-Matching algorithm (and its §5 baseline preset) |
//! | [`metrics`] | `snr-metrics` | evaluation, per-degree curves, experiment records |
//! | [`experiments`] | `snr-experiments` | dataset proxies and experiment runners |
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//! use social_reconcile::prelude::*;
//!
//! // 1. An underlying "true" social network.
//! let mut rng = StdRng::seed_from_u64(1);
//! let network = preferential_attachment(1_000, 10, &mut rng).unwrap();
//!
//! // 2. Two partial copies (each edge survives with probability 0.7) and a
//! //    5% seed set of accounts already linked across the copies.
//! let pair = independent_deletion_symmetric(&network, 0.7, &mut rng).unwrap();
//! let seeds = sample_seeds(&pair, 0.05, &mut rng).unwrap();
//!
//! // 3. Reconcile the two copies.
//! let outcome = UserMatching::new(MatchingConfig::default())
//!     .run(&pair.g1, &pair.g2, &seeds);
//!
//! // 4. Evaluate against the ground truth.
//! let eval = Evaluation::score(&pair, &outcome.links, outcome.links.seed_count());
//! assert!(eval.precision() > 0.95);
//! assert!(eval.good > seeds.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use snr_core as core;
pub use snr_experiments as experiments;
pub use snr_generators as generators;
pub use snr_graph as graph;
pub use snr_mapreduce as mapreduce;
pub use snr_metrics as metrics;
pub use snr_sampling as sampling;
pub use snr_store as store;

/// Commonly used items, re-exported for `use social_reconcile::prelude::*`.
pub mod prelude {
    pub use snr_core::{Backend, Linking, MatchingConfig, MatchingOutcome, UserMatching};
    pub use snr_generators::{
        gnm, gnp, preferential_attachment, rmat, AffiliationConfig, AffiliationNetwork, RmatConfig,
        TemporalGraph,
    };
    pub use snr_graph::{CompactCsr, CsrGraph, GraphBuilder, GraphStats, GraphView, NodeId};
    pub use snr_mapreduce::Engine;
    pub use snr_metrics::{degree_curve, Evaluation};
    pub use snr_sampling::attack::inject_attack;
    pub use snr_sampling::cascade::cascade_realization;
    pub use snr_sampling::community::community_deletion;
    pub use snr_sampling::independent::{independent_deletion, independent_deletion_symmetric};
    pub use snr_sampling::time_slice::{odd_even_split, time_slice_pair};
    pub use snr_sampling::{
        sample_seeds, sample_seeds_degree_biased, GroundTruth, RealizationPair,
    };
    pub use snr_store::MmapGraph;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_reachable() {
        // Compile-time check that the re-exported paths exist and line up.
        let _ = crate::prelude::MatchingConfig::default();
        let _ = crate::core::MatchingConfig::default();
        let _ = crate::graph::NodeId(0);
    }
}
