//! Multi-process shard driver for distributed User-Matching.
//!
//! `snr-core` runs the Korula–Lattanzi matching on one address space;
//! `snr-mapreduce` simulates the distributed formulation in-process. This
//! crate is the real thing at small scale: a single coordinator spawns
//! worker *subprocesses* (plain `std::process::Command`, no service
//! registry), ships them segment files written by `snr-store`, and runs
//! every phase of the schedule as one distributed round:
//!
//! 1. the coordinator broadcasts the phase parameters and the link delta,
//! 2. workers score their assigned contiguous row-ranges through the
//!    task-local `LinkCache` + `ScoreArena` fast path into a local
//!    `SelectSink`,
//! 3. serialized per-range sink claims travel back over stdout and merge
//!    on the coordinator via `Best::merge`,
//!
//! yielding links bit-identical to the sequential arena backend (the
//! argument is spelled out in [`driver`]).
//!
//! Every task — in a worker or, after total worker loss, in the coordinator
//! itself — is scored by the one [`ShardScorer`]: it opens the segment
//! views, builds each phase's `LinkCache` once, and scores a row range into
//! a `SelectSink`.
//!
//! The driver is *self-healing*: dead workers and stragglers have their
//! row-ranges re-assigned and their slots respawned with exponential
//! backoff (within [`DriverConfig::respawn_budget`]); every phase boundary
//! persists a checksummed checkpoint ([`checkpoint`]) that
//! [`ShardDriver::resume`] restarts from; and a pool with no live or
//! respawning worker left falls back to scoring the remaining ranges
//! in-process ([`DegradePolicy::InProcess`]). All recovery paths produce
//! bit-identical results. Unrecoverable failures surface as
//! [`DriverError`], never a hang.
//!
//! Fault injection for tests rides on the `SNR_FAULT` environment variable
//! (or `DriverConfig::fault`), a comma-separated spec of named sites such
//! as `kill:w1@round2,corrupt_frame:w0@round1` — see `snr_faults` for the
//! grammar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod driver;
pub mod error;
pub mod protocol;
pub mod shard;

pub use driver::{
    run_distributed, DegradePolicy, DriverConfig, DriverStore, RunStats, ShardDriver,
};
pub use error::DriverError;
pub use shard::ShardScorer;
