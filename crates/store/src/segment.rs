//! The on-disk segment format: one checksummed file holding the
//! delta-block layout of [`CompactCsr`] for a contiguous range of rows.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic "SNRS"
//!      4     2  format version (currently 2)
//!      6     1  flags (bit 0: directed)
//!      7     1  reserved (0)
//!      8     8  total_nodes   — size of the global node-id space
//!     16     8  first_node    — global id of this segment's row 0
//!     24     8  node_count    — rows stored in this segment
//!     32     8  edge_count    — global logical edge count
//!     40     8  max_degree    — largest degree among this segment's rows
//!     48     8  entry_count   — adjacency entries in this segment
//!     56     8  block_count   — delta blocks in this segment
//!     64     8  data_len      — gap-stream bytes
//!     72     …  entry_offsets — (node_count + 1) × u32
//!            …  block_starts  — (node_count + 1) × u32
//!            …  skip_firsts   — block_count × u32
//!            …  skip_bytes    — block_count × u32
//!            …  data          — data_len gap-stream bytes
//!   last     8  Checksum64 of every preceding byte (crate::checksum)
//! ```
//!
//! The header is 72 bytes and every array holds `u32`s, so all four index
//! arrays are 4-byte aligned relative to the file start — a memory map
//! (page-aligned) can reinterpret them in place without copying.
//!
//! Files of any other version, including version 1 (same layout, an older
//! footer checksum), are rejected by the header's version check.
//!
//! A segment with `first_node == 0 && node_count == total_nodes` is a whole
//! graph, the only kind the public writers produce and the readers
//! ([`read_segment`], [`crate::MmapGraph::open`]) accept. The header keeps the two fields so
//! the format can describe a row range whose neighbor lists carry *global*
//! target ids; the crate's own tests write such a segment to check that
//! it is refused.
//!
//! [`write_segment`] streams from any [`GraphView`] in two passes:
//! pass 1 sizes the gap stream and materializes only the index arrays
//! (~8 bytes/node + 8 bytes/block), pass 2 re-encodes the neighbor lists
//! straight into the writer — the O(edges) gap stream itself is never held
//! in memory, so a `CsrGraph` can be spilled without first building its
//! `CompactCsr`.

use crate::wire::{self, Format, HashWriter, Reader, WireError, Writer};
use snr_graph::blocks::{varint_len, write_varint, BLOCK_SIZE};
use snr_graph::{CompactCsr, GraphError, GraphView, NodeId};
use std::io::{Read, Write};
use std::ops::Range;

/// Magic bytes identifying a graph segment file.
pub const MAGIC: [u8; 4] = *b"SNRS";
/// Current segment format version.
pub const VERSION: u16 = 2;
/// Size of the fixed header in bytes (a multiple of 4, so the u32 arrays
/// that follow stay aligned within the file).
pub const HEADER_LEN: usize = 72;
/// Size of the trailing checksum in bytes.
pub const FOOTER_LEN: usize = wire::FOOTER_LEN;
const FORMAT: Format = Format { magic: MAGIC, version: VERSION, name: "segment" };

/// A wire-level defect as this crate's error.
pub(crate) fn invalid(e: WireError) -> GraphError {
    GraphError::InvalidBinary(format!("segment: {e}"))
}

/// Parsed segment header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Size of the global node-id space the segment's targets refer to.
    pub total_nodes: usize,
    /// Global id of the segment's local row 0.
    pub first_node: usize,
    /// Number of rows stored in the segment.
    pub node_count: usize,
    /// Global logical edge count of the graph the segment was cut from.
    pub edge_count: usize,
    /// Largest degree among the segment's rows.
    pub max_degree: usize,
    /// Adjacency entries stored in the segment.
    pub entry_count: usize,
    /// Delta blocks stored in the segment.
    pub block_count: usize,
    /// Gap-stream bytes stored in the segment.
    pub data_len: usize,
    /// Whether the source graph was directed.
    pub directed: bool,
}

/// Byte ranges of the variable-length sections within a segment file.
#[derive(Clone, Debug)]
pub(crate) struct Layout {
    pub entry_offsets: Range<usize>,
    pub block_starts: Range<usize>,
    pub skip_firsts: Range<usize>,
    pub skip_bytes: Range<usize>,
    pub data: Range<usize>,
}

impl SegmentMeta {
    /// True when the segment holds a strict subrange of the node-id space.
    pub(crate) fn is_partial(&self) -> bool {
        self.first_node != 0 || self.node_count != self.total_nodes
    }

    /// Total file size implied by the header.
    pub fn file_len(&self) -> usize {
        HEADER_LEN + self.payload_len() + FOOTER_LEN
    }

    /// Bytes of the variable-length sections (arrays + gap stream) — the
    /// adjacency footprint a mapped segment keeps resident at most.
    pub fn payload_len(&self) -> usize {
        (self.node_count + 1) * 8 + self.block_count * 8 + self.data_len
    }

    /// Fails unless the file is exactly as long as the header implies.
    /// Widened arithmetic: corrupted headers can claim counts whose implied
    /// size overflows usize, and that must be an error, not a panic.
    fn check_file_len(&self, len: u64) -> Result<(), GraphError> {
        let expected = HEADER_LEN as u128
            + (self.node_count as u128 + 1) * 8
            + self.block_count as u128 * 8
            + self.data_len as u128
            + FOOTER_LEN as u128;
        if len as u128 != expected {
            return Err(GraphError::InvalidBinary(format!(
                "segment is {len} bytes, header implies {expected}"
            )));
        }
        Ok(())
    }

    pub(crate) fn layout(&self) -> Layout {
        let eo = HEADER_LEN..HEADER_LEN + (self.node_count + 1) * 4;
        let bs = eo.end..eo.end + (self.node_count + 1) * 4;
        let sf = bs.end..bs.end + self.block_count * 4;
        let sb = sf.end..sf.end + self.block_count * 4;
        let data = sb.end..sb.end + self.data_len;
        Layout { entry_offsets: eo, block_starts: bs, skip_firsts: sf, skip_bytes: sb, data }
    }

    fn to_header_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        let mut w = Writer::new(&mut out);
        FORMAT.put_header(&mut w);
        w.u8(self.directed as u8);
        w.u8(0);
        for v in [
            self.total_nodes,
            self.first_node,
            self.node_count,
            self.edge_count,
            self.max_degree,
            self.entry_count,
            self.block_count,
            self.data_len,
        ] {
            w.u64(v as u64);
        }
        out
    }

    /// Parses and sanity-checks the fixed header (not the payload).
    pub fn from_header_bytes(bytes: &[u8]) -> Result<SegmentMeta, GraphError> {
        let read = |r: &mut Reader<'_>| -> Result<([u8; 2], [u64; 8]), WireError> {
            FORMAT.check_header(r)?;
            let flags = [r.u8()?, r.u8()?];
            let mut words = [0u64; 8];
            for word in &mut words {
                *word = r.u64()?;
            }
            Ok((flags, words))
        };
        let (flags, words) = read(&mut Reader::new(bytes)).map_err(invalid)?;
        if flags[0] > 1 || flags[1] != 0 {
            return Err(GraphError::InvalidBinary("invalid segment flags".into()));
        }
        let word = |i: usize| -> Result<usize, GraphError> {
            usize::try_from(words[i]).map_err(|_| {
                GraphError::InvalidBinary(format!(
                    "segment header field {i} overflows usize: {}",
                    words[i]
                ))
            })
        };
        let meta = SegmentMeta {
            total_nodes: word(0)?,
            first_node: word(1)?,
            node_count: word(2)?,
            edge_count: word(3)?,
            max_degree: word(4)?,
            entry_count: word(5)?,
            block_count: word(6)?,
            data_len: word(7)?,
            directed: flags[0] == 1,
        };
        // Widened: corrupted headers can hold values whose sum overflows
        // usize, and that must be an error, not an overflow panic.
        if meta.first_node as u128 + meta.node_count as u128 > meta.total_nodes as u128 {
            return Err(GraphError::InvalidBinary(format!(
                "segment rows {}..{} exceed the declared {} total nodes",
                meta.first_node,
                meta.first_node + meta.node_count,
                meta.total_nodes
            )));
        }
        Ok(meta)
    }
}

fn write_u32s<W: Write>(w: &mut W, values: &[u32]) -> std::io::Result<()> {
    // Chunked conversion keeps the write call count low without an
    // O(array) staging buffer.
    let mut buf = [0u8; 4 * 1024];
    for chunk in values.chunks(1024) {
        for (i, &v) in chunk.iter().enumerate() {
            buf[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 4])?;
    }
    Ok(())
}

/// Writes the whole of `g` as one segment, streaming in two passes: a
/// sizing pass that builds only the index arrays, then an encoding pass
/// straight into `w`. Returns the header that was written.
pub fn write_segment<G: GraphView, W: Write>(g: &G, w: W) -> Result<SegmentMeta, GraphError> {
    write_segment_range(g, w, 0..g.node_count() as u32)
}

/// Creates (or truncates) the file at `path` and streams the whole of `g`
/// into it as one buffered segment, returning the written header. The
/// file-based convenience over [`write_segment`]; reopen with
/// [`crate::MmapGraph::open`].
pub fn write_segment_file<G: GraphView>(
    g: &G,
    path: &std::path::Path,
) -> Result<SegmentMeta, GraphError> {
    let file = std::fs::File::create(path)?;
    write_segment(g, std::io::BufWriter::new(file))
}

/// Writes rows `rows` of `g` as one segment, target ids left global. See
/// [`write_segment`].
pub(crate) fn write_segment_range<G: GraphView, W: Write>(
    g: &G,
    w: W,
    rows: Range<u32>,
) -> Result<SegmentMeta, GraphError> {
    let n = g.node_count();
    if rows.start > rows.end || rows.end as usize > n {
        return Err(GraphError::InvalidParameter(format!(
            "segment rows {rows:?} out of range for a graph with {n} nodes"
        )));
    }

    // Pass 1: per-row entry/block offsets, skip entries, and the gap-stream
    // size — everything except the gaps themselves.
    let local_n = (rows.end - rows.start) as usize;
    let mut entry_offsets = Vec::with_capacity(local_n + 1);
    let mut block_starts = Vec::with_capacity(local_n + 1);
    let mut skip_firsts = Vec::new();
    let mut skip_bytes = Vec::new();
    let mut data_len = 0usize;
    let mut max_degree = 0usize;
    entry_offsets.push(0u32);
    block_starts.push(0u32);
    for (local, v) in rows.clone().enumerate() {
        let mut prev = 0u32;
        let mut count = 0usize;
        for x in g.neighbors_iter(NodeId(v)) {
            if count.is_multiple_of(BLOCK_SIZE) {
                skip_firsts.push(x.0);
                skip_bytes.push(u32::try_from(data_len).map_err(|_| {
                    GraphError::InvalidParameter("segment gap stream overflows u32 offsets".into())
                })?);
            } else {
                data_len += varint_len(x.0 - prev);
            }
            prev = x.0;
            count += 1;
        }
        max_degree = max_degree.max(count);
        let entries = entry_offsets[local] as usize + count;
        entry_offsets.push(u32::try_from(entries).map_err(|_| {
            GraphError::InvalidParameter("segment adjacency overflows u32 offsets".into())
        })?);
        block_starts.push(skip_firsts.len() as u32);
    }

    let meta = SegmentMeta {
        total_nodes: n,
        first_node: rows.start as usize,
        node_count: local_n,
        edge_count: g.edge_count(),
        max_degree,
        entry_count: *entry_offsets.last().expect("non-empty") as usize,
        block_count: skip_firsts.len(),
        data_len,
        directed: g.is_directed(),
    };

    // Pass 2: stream everything through the hashing writer.
    let mut hw = HashWriter::new(w);
    hw.write_all(&meta.to_header_bytes())?;
    write_u32s(&mut hw, &entry_offsets)?;
    write_u32s(&mut hw, &block_starts)?;
    write_u32s(&mut hw, &skip_firsts)?;
    write_u32s(&mut hw, &skip_bytes)?;
    let mut gap_buf: Vec<u8> = Vec::with_capacity(4 * BLOCK_SIZE);
    let mut written = 0usize;
    for v in rows {
        gap_buf.clear();
        let mut prev = 0u32;
        for (count, x) in g.neighbors_iter(NodeId(v)).enumerate() {
            if !count.is_multiple_of(BLOCK_SIZE) {
                write_varint(&mut gap_buf, x.0 - prev);
            }
            prev = x.0;
        }
        written += gap_buf.len();
        hw.write_all(&gap_buf)?;
    }
    debug_assert_eq!(written, data_len, "sizing and encoding passes disagree");
    hw.finish()?;
    Ok(meta)
}

/// Validates a segment image's header and section lengths — everything
/// *except* the checksum scan — and returns the parsed header. A segment
/// of a row range (see the module docs) is refused here, so every reader
/// rejects it with the same error. Callers that
/// read the whole payload anyway (the mmap-backed open's fused
/// validate-and-checksum pass) use this plus [`wire::verify_footer`] so the
/// file is scanned once, not twice.
pub(crate) fn parse_segment_structure(bytes: &[u8]) -> Result<SegmentMeta, GraphError> {
    let meta = SegmentMeta::from_header_bytes(bytes)?;
    meta.check_file_len(bytes.len() as u64)?;
    let layout = meta.layout();
    let last_entry = u32::from_le_bytes(
        bytes[layout.entry_offsets.end - 4..layout.entry_offsets.end].try_into().expect("4 bytes"),
    );
    if last_entry as usize != meta.entry_count {
        return Err(GraphError::InvalidBinary(format!(
            "segment entry count mismatch: offsets end at {last_entry}, header claims {}",
            meta.entry_count
        )));
    }
    if meta.is_partial() {
        return Err(GraphError::InvalidBinary(format!(
            "segment holds rows {}..{} of {}, not a whole graph",
            meta.first_node,
            meta.first_node + meta.node_count,
            meta.total_nodes
        )));
    }
    Ok(meta)
}

/// Validates a complete in-memory segment image (header, section lengths,
/// checksum) and returns its parsed header.
pub(crate) fn parse_segment(bytes: &[u8]) -> Result<SegmentMeta, GraphError> {
    let meta = parse_segment_structure(bytes)?;
    wire::open_sealed(bytes).map_err(invalid)?;
    Ok(meta)
}

fn decode_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect()
}

/// Reads a segment into memory as a [`CompactCsr`] (plus its header),
/// verifying its checksum.
pub fn read_segment<R: Read>(mut r: R) -> Result<(SegmentMeta, CompactCsr), GraphError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let meta = parse_segment(&bytes)?;
    let layout = meta.layout();
    let compact = CompactCsr::from_raw_parts(
        meta.node_count,
        meta.total_nodes,
        meta.directed,
        meta.edge_count,
        meta.max_degree,
        decode_u32s(&bytes[layout.entry_offsets]),
        decode_u32s(&bytes[layout.block_starts]),
        decode_u32s(&bytes[layout.skip_firsts]),
        decode_u32s(&bytes[layout.skip_bytes]),
        bytes[layout.data].to_vec(),
    )?;
    Ok((meta, compact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_graph::CsrGraph;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4), (6, 7)])
    }

    fn segment_bytes(g: &CsrGraph) -> (SegmentMeta, Vec<u8>) {
        let mut buf = Vec::new();
        let meta = write_segment(g, &mut buf).unwrap();
        (meta, buf)
    }

    #[test]
    fn roundtrips_through_memory() {
        let g = sample();
        let (meta, buf) = segment_bytes(&g);
        assert_eq!(buf.len(), meta.file_len());
        assert!(!meta.is_partial());
        let (meta2, compact) = read_segment(buf.as_slice()).unwrap();
        assert_eq!(meta, meta2);
        assert_eq!(compact, g.compact());
    }

    #[test]
    fn row_range_segments_are_refused() {
        let g = sample();
        let mut buf = Vec::new();
        let meta = write_segment_range(&g, &mut buf, 2..6).unwrap();
        assert!(meta.is_partial());
        assert_eq!((meta.first_node, meta.node_count, meta.total_nodes), (2, 4, 8));
        // The bytes are sound (checksum and structure), yet neither reader
        // may hand out a graph whose targets exceed its own node count.
        assert!(wire::open_sealed(&buf).is_ok());
        let err = read_segment(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("segment holds rows 2..6 of 8, not a whole graph"),
            "{err}"
        );
    }

    #[test]
    fn every_corrupted_byte_is_rejected_without_panicking() {
        let (_, buf) = segment_bytes(&sample());
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            assert!(
                read_segment(bad.as_slice()).is_err(),
                "flip at byte {pos} of {} was accepted",
                buf.len()
            );
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let (_, buf) = segment_bytes(&sample());
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN, buf.len() - 1] {
            assert!(read_segment(&buf[..cut]).is_err(), "cut at {cut}");
        }
        assert!(read_segment(&b"not a segment at all"[..]).is_err());
    }

    #[test]
    fn out_of_range_rows_are_rejected() {
        let g = sample();
        let mut buf = Vec::new();
        assert!(write_segment_range(&g, &mut buf, 4..20).is_err());
    }

    #[test]
    fn empty_graph_segment_roundtrips() {
        let g = CsrGraph::from_edges(0, &[]);
        let (meta, buf) = segment_bytes(&g);
        assert_eq!(meta.node_count, 0);
        let (_, compact) = read_segment(buf.as_slice()).unwrap();
        assert_eq!(compact.node_count(), 0);
        assert_eq!(compact.edge_count(), 0);
    }

    #[test]
    fn directed_flag_survives() {
        let mut b = snr_graph::GraphBuilder::directed(4);
        b.add_edge(NodeId(0), NodeId(3));
        b.add_edge(NodeId(3), NodeId(1));
        let g = b.build();
        let (meta, buf) = segment_bytes(&g);
        assert!(meta.directed);
        let (_, compact) = read_segment(buf.as_slice()).unwrap();
        assert!(compact.is_directed());
        assert_eq!(compact.to_csr(), g);
    }

    /// The exact bytes of one small segment: header, the four index arrays,
    /// the gap stream and the footer.
    #[test]
    fn segment_bytes_are_pinned() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let (_, buf) = segment_bytes(&g);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "534e52530200000004000000000000000000000000000000040000000000000004000000000000000300000000000000080000000000000004000000000000000400000000000000000000000200000004000000070000000800000000000000010000000200000003000000040000000100000000000000000000000200000000000000010000000200000004000000010201021d83fa5b978f618d");
        assert_eq!(read_segment(buf.as_slice()).unwrap().1, g.compact());
    }
}
