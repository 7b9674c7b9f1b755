//! Execution backends.
//!
//! The paper stresses that User-Matching is "simple, parallelizable": it
//! sketches each phase as four MapReduce rounds, making the whole algorithm
//! `O(k log D)` rounds. We provide three interchangeable backends so the
//! claim can be tested rather than taken on faith:
//!
//! * [`Backend::Sequential`] — single-threaded reference implementation;
//! * [`Backend::Rayon`] — shared-memory data parallelism over candidate
//!   rows (the practical choice on one machine);
//! * [`Backend::MapReduce`] — runs each phase as one fused round on the
//!   `snr-mapreduce` engine (whole-row mappers over the scoring arena, a
//!   packed row-partitioned shuffle, mutual-best selection fused into the
//!   reduce), letting the experiments count rounds and measure shuffle
//!   volume in records and bytes.
//!
//! All three backends produce identical link sets for identical inputs (see
//! the cross-backend equivalence tests in `tests/backend_equivalence.rs`).

/// Which execution strategy [`crate::UserMatching`] uses for the
/// witness-counting and matching phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded reference implementation.
    #[default]
    Sequential,
    /// Data-parallel witness counting using rayon's global thread pool.
    Rayon,
    /// Phases expressed as rounds on the in-memory MapReduce engine with the
    /// given number of workers.
    MapReduce {
        /// Number of worker threads for the engine.
        workers: usize,
    },
}

impl Backend {
    /// A MapReduce backend with one worker per available CPU (at least one).
    pub fn mapreduce_default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Backend::MapReduce { workers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        assert_eq!(Backend::default(), Backend::Sequential);
    }

    #[test]
    fn mapreduce_default_has_at_least_one_worker() {
        match Backend::mapreduce_default() {
            Backend::MapReduce { workers } => assert!(workers >= 1),
            other => panic!("unexpected backend {other:?}"),
        }
    }
}
