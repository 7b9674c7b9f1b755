//! Zero-copy [`GraphView`] over a memory-mapped segment file.
//!
//! [`MmapGraph::open`] maps a segment written by
//! [`crate::segment::write_segment`], validates the header, section lengths
//! and checksum once (a single sequential scan of the file), and then serves
//! every read straight from the mapped pages: degrees are two `u32` loads
//! from the mapped entry-offset array, and neighbor lists decode through the
//! same [`snr_graph::blocks::BlockNeighbors`] the in-memory [`CompactCsr`]
//! uses — identical lists in identical order, no per-open copy of the
//! adjacency. Resident memory is whatever subset of
//! the file the kernel keeps cached, so graphs bigger than RAM stay
//! runnable.
//!
//! [`CompactCsr`]: snr_graph::CompactCsr

use crate::checksum::Checksum64;
use crate::segment::{
    invalid, parse_segment_structure, Layout, SegmentMeta, FOOTER_LEN, HEADER_LEN,
};
use memmap2::{Advice, Mmap};
use snr_graph::blocks::BlockNeighbors;
use snr_graph::compact::validate_parts_with;
use snr_graph::{GraphError, GraphView, NodeId};
use std::fs::File;
use std::path::Path;

/// Reinterprets a 4-byte-aligned little-endian byte range as `&[u32]`.
///
/// Alignment and length are validated at open time ([`MmapGraph::open`]
/// rejects misaligned mappings), so the cast itself cannot observe
/// out-of-bounds or misaligned memory; on a big-endian target open fails
/// before any cast.
#[allow(unsafe_code)]
fn u32_slice(bytes: &[u8]) -> &[u32] {
    debug_assert!(bytes.len().is_multiple_of(4));
    debug_assert_eq!(bytes.as_ptr().align_offset(std::mem::align_of::<u32>()), 0);
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
}

/// A read-only graph served directly from a mapped segment file.
///
/// Implements [`GraphView`]; a whole-graph segment behaves exactly like the
/// `CompactCsr` it was written from. A segment holding only a range of rows
/// is rejected on open: its targets are global ids outside the local row
/// range.
#[derive(Debug)]
pub struct MmapGraph {
    map: Mmap,
    meta: SegmentMeta,
    layout: Layout,
}

impl MmapGraph {
    /// Maps and validates the whole-graph segment at `path`.
    #[allow(unsafe_code)]
    pub fn open<P: AsRef<Path>>(path: P) -> Result<MmapGraph, GraphError> {
        let path = path.as_ref();
        if cfg!(target_endian = "big") {
            return Err(GraphError::InvalidBinary(
                "mmap-backed segments require a little-endian host".into(),
            ));
        }
        let file = File::open(path)?;
        // Safety: segments are written once and then treated as immutable;
        // mutating one while mapped is outside the supported contract (and
        // would be caught by the checksum on the next open).
        let map = unsafe { Mmap::map(&file) }?;
        if !(map.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u32>()) {
            return Err(GraphError::InvalidBinary(
                "mapped segment is not 4-byte aligned on this platform".into(),
            ));
        }
        // Validation scans the file front to back exactly once: the header
        // and index arrays are hashed as they are checked, and the gap
        // stream walk feeds the same checksum as it validates
        // (`validate_parts_with`'s data visitor) — one sequential pass
        // instead of a checksum-then-walk double scan, which halves
        // cold-cache open I/O. The visitor sees one small slice per row, in
        // stream order and covering the stream exactly once, so it only
        // tracks how far the walk has got and hashes the walked bytes in
        // `HASH_SPAN` pieces that are still cache-hot. Let the kernel read
        // ahead for that phase, then switch to random advice for the
        // witness kernels, which fault pages in candidate order, not file
        // order. Corruption still always surfaces as an error, never a
        // panic: the walk is fully bounds-checked on its own, and a flip
        // that survives it structurally is caught by the checksum compare
        // right after.
        const HASH_SPAN: usize = 64 * 1024;
        let _ = map.advise(Advice::Sequential);
        let meta = parse_segment_structure(&map)?;
        if meta.is_partial() {
            return Err(GraphError::InvalidBinary(format!(
                "{} holds rows {}..{} of {}, not a whole graph",
                path.display(),
                meta.first_node,
                meta.first_node + meta.node_count,
                meta.total_nodes
            )));
        }
        let layout = meta.layout();
        let mut hash = Checksum64::new();
        hash.update(&map[..layout.data.start]);
        let data = &map[layout.data.clone()];
        let (mut hashed, mut walked) = (0usize, 0usize);
        validate_parts_with(
            meta.node_count,
            meta.total_nodes,
            meta.max_degree,
            u32_slice(&map[layout.entry_offsets.clone()]),
            u32_slice(&map[layout.block_starts.clone()]),
            u32_slice(&map[layout.skip_firsts.clone()]),
            u32_slice(&map[layout.skip_bytes.clone()]),
            data,
            &format!("segment {}", path.display()),
            |chunk| {
                walked += chunk.len();
                if walked - hashed >= HASH_SPAN {
                    hash.update(&data[hashed..walked]);
                    hashed = walked;
                }
            },
        )?;
        hash.update(&data[hashed..]);
        crate::wire::verify_footer(&map, hash.finish()).map_err(invalid)?;
        let _ = map.advise(Advice::Random);
        Ok(MmapGraph { map, meta, layout })
    }

    /// The parsed segment header.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// Size of the backing file in bytes.
    pub fn file_len(&self) -> usize {
        self.map.len()
    }

    fn entry_offsets(&self) -> &[u32] {
        u32_slice(&self.map[self.layout.entry_offsets.clone()])
    }

    fn block_starts(&self) -> &[u32] {
        u32_slice(&self.map[self.layout.block_starts.clone()])
    }
}

impl GraphView for MmapGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.meta.node_count
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.meta.edge_count
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.meta.directed
    }

    #[inline]
    fn max_degree(&self) -> usize {
        self.meta.max_degree
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        let eo = self.entry_offsets();
        (eo[v.index() + 1] - eo[v.index()]) as usize
    }

    #[inline]
    fn total_degree(&self) -> usize {
        self.meta.entry_count
    }

    fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        BlockNeighbors::new(
            u32_slice(&self.map[self.layout.skip_firsts.clone()]),
            u32_slice(&self.map[self.layout.skip_bytes.clone()]),
            &self.map[self.layout.data.clone()],
            self.block_starts()[v.index()] as usize,
            self.degree(v),
        )
    }

    /// Mapped bytes of the adjacency payload (index arrays + gap stream) —
    /// the upper bound on what this view can keep resident; the kernel
    /// pages it in and out on demand.
    fn memory_bytes(&self) -> usize {
        self.map.len().saturating_sub(HEADER_LEN + FOOTER_LEN)
    }

    /// `madvise(MADV_SEQUENTIAL)` over the whole mapping: the kernel reads
    /// ahead while a streaming pass (the `LinkCache` build, which decodes
    /// the linked rows in link order or the eligible rows in ascending id
    /// order) walks the file.
    fn advise_sequential(&self) {
        let _ = self.map.advise(Advice::Sequential);
    }

    /// `madvise(MADV_RANDOM)` over the whole mapping — the steady state for
    /// the witness kernels, which fault pages in candidate order, not file
    /// order. Restores the hint [`MmapGraph::open`] leaves in place.
    fn advise_random(&self) {
        let _ = self.map.advise(Advice::Random);
    }

    /// `madvise(MADV_WILLNEED)` over exactly the byte spans that back
    /// `rows`: their slices of the two row-indexed offset arrays, the skip
    /// arrays of their delta blocks, and the blocks' gap-stream span. A
    /// driver worker calls this (via `score_assigned_rows`) right before
    /// scoring its assigned row-range, so the kernel faults the pages in
    /// ahead of the scoring loop instead of one miss at a time.
    fn advise_rows(&self, rows: std::ops::Range<u32>) {
        let lo = (rows.start as usize).min(self.meta.node_count);
        let hi = (rows.end as usize).min(self.meta.node_count);
        if lo >= hi {
            return;
        }
        let advise = |start: usize, end: usize| {
            let _ = self.map.advise_range(Advice::WillNeed, start, end.saturating_sub(start));
        };
        // Row-indexed arrays, including the hi fence entry each read uses.
        let eo = self.layout.entry_offsets.start;
        advise(eo + 4 * lo, eo + 4 * (hi + 1));
        let bs = self.layout.block_starts.start;
        advise(bs + 4 * lo, bs + 4 * (hi + 1));
        // The rows' delta blocks: skip arrays plus the gap-stream span.
        let block_starts = self.block_starts();
        let (block_lo, block_hi) = (block_starts[lo] as usize, block_starts[hi] as usize);
        if block_lo >= block_hi {
            return;
        }
        let sf = self.layout.skip_firsts.start;
        advise(sf + 4 * block_lo, sf + 4 * block_hi);
        let sb = self.layout.skip_bytes.start;
        advise(sb + 4 * block_lo, sb + 4 * block_hi);
        let skip_bytes = u32_slice(&self.map[self.layout.skip_bytes.clone()]);
        let data_lo = skip_bytes[block_lo] as usize;
        let data_hi = if block_hi == self.meta.block_count {
            self.meta.data_len
        } else {
            skip_bytes[block_hi] as usize
        };
        advise(self.layout.data.start + data_lo, self.layout.data.start + data_hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{write_segment, write_segment_range};
    use snr_graph::CsrGraph;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn temp_segment(name: &str, bytes: &[u8]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("snr-store-mmap-{}-{name}", std::process::id()));
        std::fs::File::create(&path).unwrap().write_all(bytes).unwrap();
        path
    }

    fn sample() -> CsrGraph {
        let edges: Vec<(u32, u32)> =
            (0..400u32).map(|i| (i % 97, (i * 7 + 3) % 200)).chain([(0, 199), (1, 198)]).collect();
        CsrGraph::from_edges(200, &edges)
    }

    #[test]
    fn mmap_view_matches_the_source_graph() {
        let g = sample();
        let mut buf = Vec::new();
        write_segment(&g, &mut buf).unwrap();
        let path = temp_segment("match", &buf);
        let m = MmapGraph::open(&path).unwrap();
        assert_eq!(m.node_count(), g.node_count());
        assert_eq!(m.edge_count(), g.edge_count());
        assert_eq!(m.max_degree(), GraphView::max_degree(&g));
        assert_eq!(m.total_degree(), g.total_degree());
        for v in GraphView::nodes_iter(&g) {
            assert_eq!(m.degree(v), g.degree(v), "degree of {v:?}");
            assert_eq!(
                m.neighbors_iter(v).collect::<Vec<_>>(),
                g.neighbors(v).to_vec(),
                "neighbors of {v:?}"
            );
        }
        // Edge probes agree with the uncompressed form on every pair.
        for u in GraphView::nodes_iter(&g) {
            for v in GraphView::nodes_iter(&g) {
                assert_eq!(m.has_edge(u, v), g.has_edge(u, v), "edge {u:?}-{v:?}");
            }
        }
        assert!(m.memory_bytes() <= m.file_len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_corruption_and_partial_segments() {
        let g = sample();
        let mut buf = Vec::new();
        write_segment(&g, &mut buf).unwrap();
        // Corrupt one payload byte.
        let mut bad = buf.clone();
        let idx = bad.len() - 20;
        bad[idx] ^= 0xff;
        let path = temp_segment("corrupt", &bad);
        assert!(MmapGraph::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
        // A segment of a row range is refused.
        let mut partial = Vec::new();
        write_segment_range(&g, &mut partial, 0..100).unwrap();
        let path = temp_segment("partial", &partial);
        let err = MmapGraph::open(&path).unwrap_err();
        assert!(err.to_string().contains("rows 0..100 of 200, not a whole graph"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_hashes_a_gap_stream_longer_than_one_hash_span() {
        // Enough rows that the coalesced visitor flushes several times and
        // ends on a partial span: open must agree with the writer's sum.
        let edges: Vec<(u32, u32)> = (0..200_000u32)
            .map(|i| (i % 20_000, (i.wrapping_mul(2_654_435_761)) % 20_000))
            .collect();
        let g = CsrGraph::from_edges(20_000, &edges);
        let mut buf = Vec::new();
        let meta = write_segment(&g, &mut buf).unwrap();
        assert!(meta.data_len > 3 * 64 * 1024, "gap stream is only {} bytes", meta.data_len);
        let path = temp_segment("long", &buf);
        let m = MmapGraph::open(&path).unwrap();
        assert_eq!(m.edge_count(), g.edge_count());
        let mut bad = buf.clone();
        let idx = HEADER_LEN + meta.payload_len() - 1;
        bad[idx] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(MmapGraph::open(&path).is_err(), "flip in the last gap byte was accepted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_1_segments_are_clean_errors() {
        let g = sample();
        let mut buf = Vec::new();
        write_segment(&g, &mut buf).unwrap();
        let mut old = buf.clone();
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        // Whether the footer is left alone or re-sealed, the header's
        // version check fires before the checksum is compared.
        let body = old.len() - FOOTER_LEN;
        let mut resealed = old.clone();
        let sum = crate::checksum64(&resealed[..body]);
        resealed[body..].copy_from_slice(&sum.to_le_bytes());
        for (name, bytes) in [("v1", &old), ("v1-sealed", &resealed)] {
            let path = temp_segment(name, bytes);
            for err in [
                MmapGraph::open(&path).unwrap_err(),
                crate::read_segment(bytes.as_slice()).unwrap_err(),
            ] {
                assert!(err.to_string().contains("unsupported segment version 1"), "{name}: {err}");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn open_rejects_missing_and_empty_files() {
        assert!(MmapGraph::open("/nonexistent/segment.snrs").is_err());
        let path = temp_segment("empty", &[]);
        assert!(MmapGraph::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
