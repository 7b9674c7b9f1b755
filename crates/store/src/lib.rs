//! # snr-store
//!
//! On-disk graph storage for the `social-reconcile` workspace: a versioned,
//! checksummed **segment format** that serializes the delta-block layout of
//! [`snr_graph::CompactCsr`], plus two [`GraphView`] implementations that
//! read it back without rehydrating the whole graph:
//!
//! * [`MmapGraph`] — a zero-copy view over one memory-mapped segment file.
//!   The kernel pages adjacency in on demand, so resident memory is bounded
//!   by the mapped file and graphs bigger than RAM stay runnable.
//! * [`ShardedGraph`] — one graph partitioned into contiguous,
//!   entry-balanced node ranges, each an independent storage unit
//!   (in-memory `CompactCsr` via [`ShardedGraph::partition`], or mapped
//!   segments via [`write_shard_segments`] + [`ShardedGraph::open`]).
//!   Exposes its shard ranges through
//!   [`snr_graph::GraphView::storage_partitions`] so partition-aware schedulers (the
//!   arena scorer in `snr-core`) can align worker row ranges with storage.
//!
//! Both views decode neighbor lists through the exact
//! [`snr_graph::blocks::BlockCursor`] path the in-memory representation
//! uses, so every consumer of [`GraphView`] — witness counting on any
//! backend, matching, sampling, experiments — produces bit-for-bit
//! identical results on them (`tests/backend_equivalence.rs` at the
//! workspace root pins this).
//!
//! Writing goes through [`write_segment`] / [`write_segment_range`] /
//! [`write_shard_segments`]: streaming two-pass encoders that work from any
//! [`GraphView`] and never hold the encoded gap stream in memory.
//!
//! The file format (layout, versioning, checksum) is documented in
//! [`segment`]. The footer checksum, [`Checksum64`], and the [`wire`] codec
//! (bounds-checked reader, checked writer, magic/version/footer framing)
//! are shared by every frame and file in the workspace: segments, driver
//! protocol frames and checkpoints, and MapReduce spill runs.
//!
//! `unsafe` appears in exactly two places in this stack: the raw
//! `mmap`/`munmap`/`madvise` calls inside the `memmap2` shim, and the
//! alignment-checked `&[u8] → &[u32]` reinterpretation in [`mmap`].
//!
//! [`GraphView`]: snr_graph::GraphView

#![deny(unsafe_code)] // granted back per-function where the cast lives
#![warn(missing_docs)]

pub mod checksum;
pub mod mmap;
pub mod segment;
pub mod sharded;
pub mod wire;

pub use checksum::{checksum64, Checksum64};
pub use mmap::MmapGraph;
pub use segment::{
    read_segment, read_segment_rows, read_segment_rows_file, write_segment, write_segment_file,
    write_segment_range, SegmentMeta,
};
pub use sharded::{shard_boundaries, write_shard_segments, ShardedGraph};
