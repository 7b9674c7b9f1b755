//! # snr-sketch
//!
//! Probabilistic candidate blocking: MinHash signatures over `u64` item
//! sets and LSH banding that turns signature collisions into candidate
//! pairs.
//!
//! The matcher's exact candidate stage considers every degree-eligible
//! `(u, v)` pair with at least one shared witness; at R-MAT-20+ the
//! *generation* of those pairs — not their scoring — becomes the wall.
//! This crate provides the approximate-filter half of the
//! filter-then-exact-verify shape: nodes are sketched as small MinHash
//! signatures of their (abstract, caller-defined) item sets, signatures are
//! split into `b` bands of `r` rows, and any two nodes agreeing on a whole
//! band land in the same bucket and get proposed as a candidate pair. The
//! caller then verifies proposals with its exact scorer, so blocking can
//! only *miss* pairs (bounded recall), never corrupt the scores of pairs it
//! keeps.
//!
//! The crate is deliberately ignorant of graphs and links: item sets are
//! plain `u64` streams (`snr-core` feeds it link indices), so the same
//! machinery blocks any Jaccard-flavored similarity join.
//!
//! Everything is deterministic: the `k = b·r` hash functions derive from
//! one base seed via SplitMix64, parallel signature building splices
//! per-chunk results in input order, and proposal generation merges every
//! band's collisions into one sorted, deduplicated list — results are
//! bit-identical across runs and worker counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lsh;
pub mod minhash;

pub use lsh::{propose_pairs, Banding, Proposals};
pub use minhash::{estimate_jaccard, MinHasher, SignatureSet};
