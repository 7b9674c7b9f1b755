//! The on-disk segment format: one checksummed file holding the
//! delta-block layout of one whole [`CompactCsr`].
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic "SNRS"
//!      4     2  format version (currently 2)
//!      6     1  flags (bit 0: directed)
//!      7     1  reserved (0)
//!      8     8  total_nodes   — always node_count
//!     16     8  first_node    — always 0
//!     24     8  node_count    — rows stored in this segment
//!     32     8  edge_count    — logical edge count
//!     40     8  max_degree    — largest row degree
//!     48     8  entry_count   — adjacency entries
//!     56     8  block_count   — delta blocks
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
//! A segment always holds a whole graph. The two range words,
//! `total_nodes` and `first_node`, are written as `node_count` and 0, and
//! [`SegmentMeta::from_header_bytes`] refuses a header with any other value
//! ("not a whole graph"), so no reader sees a row range whose targets lie
//! outside its own rows.
//!
//! There is one encoder and one reader. [`write_segment`] compacts the
//! graph with [`CompactCsr::from_view`] and writes the header, the four
//! index arrays of [`CompactCsr::raw_parts`] and the gap stream, so it holds
//! one compact copy of the graph while it writes. [`crate::MmapGraph::open`]
//! maps the file back and validates it.

use crate::wire::{self, Format, HashWriter, Reader, WireError, Writer};
use snr_graph::{CompactCsr, GraphError, GraphView};
use std::io::Write;
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
    /// Number of rows (nodes) stored in the segment.
    pub node_count: usize,
    /// Logical edge count of the graph.
    pub edge_count: usize,
    /// Largest row degree.
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
        // The range words: a whole graph is rows 0..node_count of node_count.
        for v in [
            self.node_count,
            0,
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

    /// Parses and sanity-checks the fixed header (not the payload). A
    /// header whose range words do not describe a whole graph (see the
    /// module docs) is refused.
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
        let [total_nodes, first_node, node_count, ..] = words;
        if first_node != 0 || node_count != total_nodes {
            // Widened: a corrupted header's sum can overflow u64.
            return Err(GraphError::InvalidBinary(format!(
                "segment holds rows {first_node}..{} of {total_nodes}, not a whole graph",
                first_node as u128 + node_count as u128
            )));
        }
        let word = |i: usize| -> Result<usize, GraphError> {
            usize::try_from(words[i]).map_err(|_| {
                GraphError::InvalidBinary(format!(
                    "segment header field {i} overflows usize: {}",
                    words[i]
                ))
            })
        };
        Ok(SegmentMeta {
            node_count: word(2)?,
            edge_count: word(3)?,
            max_degree: word(4)?,
            entry_count: word(5)?,
            block_count: word(6)?,
            data_len: word(7)?,
            directed: flags[0] == 1,
        })
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

/// Writes the whole of `g` as one segment: compacts it with
/// [`CompactCsr::from_view`], then writes the header, the four index arrays
/// and the gap stream. Returns the header that was written.
///
/// # Errors
/// [`GraphError::InvalidParameter`] if the adjacency or the encoded gap
/// stream does not fit `u32` offsets; [`GraphError::Io`] if writing fails.
pub fn write_segment<G: GraphView, W: Write>(g: &G, w: W) -> Result<SegmentMeta, GraphError> {
    let compact = CompactCsr::from_view(g)?;
    let (entry_offsets, block_starts, skip_firsts, skip_bytes, data) = compact.raw_parts();
    let meta = SegmentMeta {
        node_count: compact.node_count(),
        edge_count: compact.edge_count(),
        max_degree: compact.max_degree(),
        entry_count: compact.total_degree(),
        block_count: compact.block_count(),
        data_len: data.len(),
        directed: compact.is_directed(),
    };
    let mut hw = HashWriter::new(w);
    hw.write_all(&meta.to_header_bytes())?;
    for array in [entry_offsets, block_starts, skip_firsts, skip_bytes] {
        write_u32s(&mut hw, array)?;
    }
    hw.write_all(data)?;
    hw.finish()?;
    Ok(meta)
}

/// Creates (or truncates) the file at `path` and writes the whole of `g`
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

/// Validates a segment image's header and section lengths — everything
/// *except* the payload walk and the checksum — and returns the parsed
/// header. [`crate::MmapGraph::open`] follows it with one fused
/// validate-and-checksum pass over the payload, so the file is scanned
/// once, not twice.
pub(crate) fn structure_of(bytes: &[u8]) -> Result<SegmentMeta, GraphError> {
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
    Ok(meta)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::MmapGraph;
    use snr_graph::{CsrGraph, NodeId};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4), (6, 7)])
    }

    fn segment_bytes(g: &CsrGraph) -> (SegmentMeta, Vec<u8>) {
        let mut buf = Vec::new();
        let meta = write_segment(g, &mut buf).unwrap();
        (meta, buf)
    }

    /// Writes `bytes` to a fresh temp file and opens it with
    /// [`MmapGraph::open`]; the file is unlinked before returning (a live
    /// mapping outlives it).
    pub(crate) fn open_bytes(bytes: &[u8]) -> Result<MmapGraph, GraphError> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("snr-store-seg-{}-{n}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let opened = MmapGraph::open(&path);
        std::fs::remove_file(&path).unwrap();
        opened
    }

    /// Recomputes the footer checksum of a patched segment image.
    pub(crate) fn reseal(buf: &mut [u8]) {
        let body = buf.len() - FOOTER_LEN;
        let sum = crate::checksum64(&buf[..body]);
        buf[body..].copy_from_slice(&sum.to_le_bytes());
    }

    /// A resealed copy of `buf` with the header words `total_nodes`,
    /// `first_node` and `node_count` replaced.
    pub(crate) fn with_range_words(buf: &[u8], total: u64, first: u64, count: u64) -> Vec<u8> {
        let mut out = buf.to_vec();
        for (at, v) in [(8, total), (16, first), (24, count)] {
            out[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        reseal(&mut out);
        out
    }

    #[test]
    fn roundtrips_through_a_file() {
        let g = sample();
        let (meta, buf) = segment_bytes(&g);
        assert_eq!(buf.len(), meta.file_len());
        let m = open_bytes(&buf).unwrap();
        assert_eq!(*m.meta(), meta);
        assert_eq!(CompactCsr::from_view(&m).unwrap(), g.compact());
    }

    #[test]
    fn every_corrupted_byte_is_rejected_without_panicking() {
        let (_, buf) = segment_bytes(&sample());
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            assert!(open_bytes(&bad).is_err(), "flip at byte {pos} of {} was accepted", buf.len());
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let (_, buf) = segment_bytes(&sample());
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN, buf.len() - 1] {
            assert!(open_bytes(&buf[..cut]).is_err(), "cut at {cut}");
        }
        assert!(open_bytes(b"not a segment at all").is_err());
    }

    #[test]
    fn empty_graph_segment_roundtrips() {
        let g = CsrGraph::from_edges(0, &[]);
        let (meta, buf) = segment_bytes(&g);
        assert_eq!(meta.node_count, 0);
        let m = open_bytes(&buf).unwrap();
        assert_eq!(m.node_count(), 0);
        assert_eq!(m.edge_count(), 0);
    }

    #[test]
    fn directed_flag_survives() {
        let mut b = snr_graph::GraphBuilder::directed(4);
        b.add_edge(NodeId(0), NodeId(3));
        b.add_edge(NodeId(3), NodeId(1));
        let g = b.build();
        let (meta, buf) = segment_bytes(&g);
        assert!(meta.directed);
        let m = open_bytes(&buf).unwrap();
        assert!(m.is_directed());
        assert_eq!(CompactCsr::from_view(&m).unwrap().to_csr(), g);
    }

    /// A view claiming more adjacency entries than `u32` offsets address.
    struct Oversized;

    impl GraphView for Oversized {
        fn node_count(&self) -> usize {
            1
        }
        fn edge_count(&self) -> usize {
            0
        }
        fn is_directed(&self) -> bool {
            true
        }
        fn max_degree(&self) -> usize {
            0
        }
        fn degree(&self, _: NodeId) -> usize {
            0
        }
        fn total_degree(&self) -> usize {
            u32::MAX as usize + 1
        }
        fn neighbors_iter(&self, _: NodeId) -> impl Iterator<Item = NodeId> + '_ {
            std::iter::empty()
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn adjacency_past_u32_is_a_clean_error() {
        let err = write_segment(&Oversized, Vec::new()).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter(_)), "{err}");
        assert!(err.to_string().contains("overflow u32 offsets"), "{err}");
    }

    /// The exact bytes of one small segment: header, the four index arrays,
    /// the gap stream and the footer.
    #[test]
    fn segment_bytes_are_pinned() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let (_, buf) = segment_bytes(&g);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "534e52530200000004000000000000000000000000000000040000000000000004000000000000000300000000000000080000000000000004000000000000000400000000000000000000000200000004000000070000000800000000000000010000000200000003000000040000000100000000000000000000000200000000000000010000000200000004000000010201021d83fa5b978f618d");
        assert_eq!(CompactCsr::from_view(&open_bytes(&buf).unwrap()).unwrap(), g.compact());
    }
}
