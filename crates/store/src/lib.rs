//! # snr-store
//!
//! On-disk graph storage for the `social-reconcile` workspace: a versioned,
//! checksummed **segment format** that serializes the delta-block layout of
//! [`snr_graph::CompactCsr`], plus [`MmapGraph`], a zero-copy
//! [`GraphView`] over one memory-mapped segment file. The kernel pages
//! adjacency in on demand, so resident memory is bounded by the mapped file
//! and graphs bigger than RAM stay runnable.
//!
//! A graph is either in memory (`CsrGraph`, `CompactCsr`) or one mapped
//! segment; there is no third storage form.
//!
//! [`MmapGraph`] decodes neighbor lists through the exact
//! [`snr_graph::blocks::BlockNeighbors`] iterator the in-memory
//! representation uses, so every consumer of [`GraphView`] — witness
//! counting on any backend, matching, sampling, experiments — produces
//! bit-for-bit identical results on it (`tests/backend_equivalence.rs` at the
//! workspace root pins this).
//!
//! Writing goes through [`write_segment`] / [`write_segment_file`]: a
//! streaming two-pass encoder that works from any [`GraphView`] and never
//! holds the encoded gap stream in memory.
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
pub mod wire;

pub use checksum::{checksum64, Checksum64};
pub use mmap::MmapGraph;
pub use segment::{read_segment, write_segment, write_segment_file, SegmentMeta};
