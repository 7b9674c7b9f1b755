//! # snr-mapreduce
//!
//! A small, in-memory MapReduce engine used to express the User-Matching
//! algorithm of Korula & Lattanzi in the shape the paper claims for it:
//! *"the internal for loop can be implemented efficiently with 4
//! consecutive rounds of MapReduce, so the total running time would consist
//! of `O(k log D)` MapReductions."* (`snr-core` actually does each internal
//! loop in **one** round — same `O(k log D)` bound, 4× fewer rounds than
//! the paper's sketch.)
//!
//! The engine is deliberately faithful to the programming model rather than
//! to any particular distributed runtime. It has one round shape,
//! [`Engine::run`]:
//!
//! * mappers see a whole input *chunk*, so they can amortize setup and emit
//!   pre-aggregated records;
//! * a caller-supplied partitioner (e.g. [`partition::range_partition`])
//!   routes keys to one reduce partition per worker;
//! * the shuffle is held in memory, or spilled to checksummed run files once
//!   it crosses the engine's spill budget, with bit-identical output;
//! * the reduce side folds each partition's key groups into one output
//!   value as they stream off one k-way merge of the partition's buckets
//!   and spill runs ([`Groups`]) — per-partition state, and one group per
//!   bucket in memory, without a global materialization.
//!
//! A [`SpillCodec`] owns the record format: the shuffle-byte charge of a
//! record and the encoding of a key group in a run file. This is what lets
//! the witness rounds of `snr-core` shuffle one packed record per candidate
//! *row* instead of one per *witness contribution*.
//!
//! Rounds run on a pool of OS threads (`std::thread::scope`); the
//! [`Engine`] records per-round statistics (records mapped, key groups
//! reduced, shuffle volume in records and bytes, spill volume) so that the
//! round-complexity *and* data-movement claims can be checked empirically —
//! see the round-counting integration tests.
//!
//! ## Example
//!
//! ```
//! use snr_mapreduce::partition::range_partition;
//! use snr_mapreduce::{Engine, Groups, SpillCodec};
//!
//! /// Groups of `u32` keys and `u64` values: the key, then each value.
//! struct KeyValues;
//!
//! impl SpillCodec<u32, u64> for KeyValues {
//!     fn bytes_of(&self, _key: &u32, _value: &u64) -> usize {
//!         12
//!     }
//!
//!     fn encode_group(&self, key: &u32, values: &[u64], out: &mut Vec<u8>) -> Result<(), String> {
//!         out.extend_from_slice(&key.to_le_bytes());
//!         for v in values {
//!             out.extend_from_slice(&v.to_le_bytes());
//!         }
//!         Ok(())
//!     }
//!
//!     fn decode_group(&self, bytes: &[u8]) -> Result<(u32, Vec<u64>), String> {
//!         if bytes.len() < 4 || (bytes.len() - 4) % 8 != 0 {
//!             return Err(format!("bad group of {} bytes", bytes.len()));
//!         }
//!         let key = u32::from_le_bytes(bytes[..4].try_into().unwrap());
//!         let values =
//!             bytes[4..].chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap()));
//!         Ok((key, values.collect()))
//!     }
//! }
//!
//! // Sum 0..100 by last digit on 2 workers, spilling every map task.
//! let engine = Engine::new(2).with_spill_budget(Some(0));
//! let per_partition = engine.run(
//!     "sum-by-digit",
//!     (0..100u64).collect(),
//!     |chunk: &[u64]| chunk.iter().map(|&x| ((x % 10) as u32, x)).collect(),
//!     |&digit: &u32| range_partition(digit, 10, engine.workers()),
//!     // The groups stream in: the fold never holds the partition at once.
//!     |_, groups: &mut Groups<'_, u32, u64>| {
//!         groups.map(|(d, xs)| (d, xs.iter().sum())).collect::<Vec<(u32, u64)>>()
//!     },
//!     &KeyValues,
//! )?;
//! let sums: Vec<(u32, u64)> = per_partition.into_iter().flatten().collect();
//! assert_eq!(sums.len(), 10);
//! assert_eq!(sums[3], (3, 480));
//! let round = &engine.stats().per_round[0];
//! assert_eq!(round.shuffled_bytes, 100 * 12);
//! assert_eq!(round.spilled_bytes, round.shuffled_bytes);
//! # Ok::<(), snr_mapreduce::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod partition;
pub mod spill;
pub mod stats;

pub use engine::{Engine, Groups};
pub use spill::{EngineError, SpillCodec};
pub use stats::{EngineStats, RoundStats};
