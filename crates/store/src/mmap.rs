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
use crate::segment::{invalid, structure_of, Layout, SegmentMeta, FOOTER_LEN, HEADER_LEN};
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
/// Implements [`GraphView`]; it behaves exactly like the `CompactCsr` the
/// segment was written from. A header whose range words describe anything
/// but a whole graph is rejected on open.
#[derive(Debug)]
pub struct MmapGraph {
    map: Mmap,
    meta: SegmentMeta,
    layout: Layout,
}

impl MmapGraph {
    /// Maps and validates the whole-graph segment at `path`: the only way
    /// to read a segment back.
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
        let meta = structure_of(&map)?;
        let layout = meta.layout();
        let mut hash = Checksum64::new();
        hash.update(&map[..layout.data.start]);
        let data = &map[layout.data.clone()];
        let (mut hashed, mut walked) = (0usize, 0usize);
        validate_parts_with(
            meta.node_count,
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
    /// driver worker's scorer calls this right before scoring its assigned
    /// row-range, so the kernel faults the pages in ahead of the scoring
    /// loop instead of one miss at a time.
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
    use crate::segment::tests::{open_bytes, reseal, with_range_words};
    use crate::segment::write_segment;
    use snr_graph::CsrGraph;

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
        let m = open_bytes(&buf).unwrap();
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
    }

    #[test]
    fn open_rejects_a_corrupted_payload_byte() {
        let mut buf = Vec::new();
        write_segment(&sample(), &mut buf).unwrap();
        let idx = buf.len() - 20;
        buf[idx] ^= 0xff;
        assert!(open_bytes(&buf).is_err());
    }

    #[test]
    fn row_range_headers_are_refused() {
        // Sound bytes (resealed), yet a header claiming rows 2..6 of 8, or a
        // node space other than its own rows, must not open.
        let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4), (6, 7)]);
        let mut buf = Vec::new();
        write_segment(&g, &mut buf).unwrap();
        for ([total, first, count], want) in [
            ([8, 2, 4], "segment holds rows 2..6 of 8, not a whole graph"),
            ([9, 0, 8], "segment holds rows 0..8 of 9, not a whole graph"),
        ] {
            let bad = with_range_words(&buf, total, first, count);
            assert!(crate::wire::open_sealed(&bad).is_ok(), "{want}: footer not resealed");
            let err = open_bytes(&bad).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
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
        assert_eq!(open_bytes(&buf).unwrap().edge_count(), g.edge_count());
        let idx = HEADER_LEN + meta.payload_len() - 1;
        buf[idx] ^= 0x01;
        assert!(open_bytes(&buf).is_err(), "flip in the last gap byte was accepted");
    }

    #[test]
    fn version_1_segments_are_clean_errors() {
        let mut old = Vec::new();
        write_segment(&sample(), &mut old).unwrap();
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        // Whether the footer is left alone or re-sealed, the header's
        // version check fires before the checksum is compared.
        let mut resealed = old.clone();
        reseal(&mut resealed);
        for (name, bytes) in [("v1", &old), ("v1-sealed", &resealed)] {
            let err = open_bytes(bytes).unwrap_err();
            assert!(err.to_string().contains("unsupported segment version 1"), "{name}: {err}");
        }
    }

    #[test]
    fn open_rejects_missing_and_empty_files() {
        assert!(MmapGraph::open("/nonexistent/segment.snrs").is_err());
        assert!(open_bytes(&[]).is_err());
    }
}
