//! Delta-encoded compressed sparse row storage.
//!
//! [`CompactCsr`] stores the same immutable graph as [`CsrGraph`] in roughly
//! half the memory, which is what lets the Table 2 scalability proxy run
//! RMAT-18/20/22 pipelines (three graphs resident at once) on one machine:
//!
//! * offsets are `u32` instead of `usize` (the paper's largest instance has
//!   8.5G adjacency entries, but one in-memory graph is bounded by `u32`
//!   here — construction asserts it);
//! * each sorted neighbor list is split into blocks of
//!   [`BLOCK_SIZE`] entries; the first element of
//!   every block is stored verbatim in a skip array and the rest as
//!   varint-encoded gaps from their predecessor (see [`crate::blocks`]).
//!
//! [`GraphView::degree`] stays O(1) from the entry offsets, and
//! [`GraphView::neighbors_iter`] decodes a list front to back: each block's
//! first element from the skip array, the rest from its gaps.
//!
//! The same block layout is what the `snr-store` segment format serializes;
//! [`CompactCsr::from_raw_parts`] / [`CompactCsr::raw_parts`] expose the
//! arrays for that serialization, and [`validate_parts`] is the shared
//! structural check both the in-memory loader and the mmap-backed view run
//! before trusting a deserialized layout.

pub use crate::blocks::BLOCK_SIZE;
use crate::blocks::{write_varint, BlockNeighbors};
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::node::NodeId;
use crate::view::GraphView;

/// The borrowed delta-block arrays of a [`CompactCsr`]:
/// `(entry_offsets, block_starts, skip_firsts, skip_bytes, data)`.
pub type RawParts<'a> = (&'a [u32], &'a [u32], &'a [u32], &'a [u32], &'a [u8]);

/// An immutable graph in delta-encoded CSR form. See the module docs.
///
/// Construct one with [`CsrGraph::compact`] or [`CompactCsr::from_view`];
/// convert back with [`CompactCsr::to_csr`]. All read access goes through
/// [`GraphView`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactCsr {
    node_count: usize,
    directed: bool,
    edge_count: usize,
    max_degree: usize,
    /// `entry_offsets[v]..entry_offsets[v + 1]` is node `v`'s index range in
    /// entry space (not byte space); length `node_count + 1`.
    entry_offsets: Vec<u32>,
    /// `block_starts[v]..block_starts[v + 1]` is node `v`'s range in the
    /// per-block skip arrays; length `node_count + 1`.
    block_starts: Vec<u32>,
    /// First element of each block, stored verbatim.
    skip_firsts: Vec<u32>,
    /// Byte offset of each block's gap stream inside `data`.
    skip_bytes: Vec<u32>,
    /// LEB128 varint gaps for the non-first elements of every block.
    data: Vec<u8>,
}

/// Validates a delta-block layout (the invariants [`CompactCsr`]'s own
/// constructor guarantees), including a full bounds-checked walk of the gap
/// stream. Shared by [`CompactCsr::from_raw_parts`] and the mmap-backed
/// segment view in `snr-store`, so a corrupted, truncated, or hand-rolled
/// layout is rejected with an error up front and later decoding can never
/// run out of bounds or yield unsorted neighbor lists.
///
/// Checks: array lengths, zero-based monotone offsets, per-node block
/// counts (`ceil(degree / BLOCK_SIZE)`), `max_degree` against the offsets,
/// and — by decoding every block once, O(entries) — that each block's gap
/// stream starts exactly where the previous one ended, stays in bounds,
/// contains no zero gaps or `u32` overflows (lists stay strictly sorted),
/// keeps skip first-elements increasing, keeps every decoded neighbor id
/// below `id_bound` (the global node space — equal to `node_count` for a
/// whole graph, larger for a row range holding global target ids; downstream
/// consumers index degree arrays and score arenas by these ids, so an
/// out-of-range target must fail here, not panic there), and consumes the
/// data exactly.
#[allow(clippy::too_many_arguments)]
pub fn validate_parts(
    node_count: usize,
    id_bound: usize,
    max_degree: usize,
    entry_offsets: &[u32],
    block_starts: &[u32],
    skip_firsts: &[u32],
    skip_bytes: &[u32],
    data: &[u8],
    what: &str,
) -> Result<(), GraphError> {
    validate_parts_with(
        node_count,
        id_bound,
        max_degree,
        entry_offsets,
        block_starts,
        skip_firsts,
        skip_bytes,
        data,
        what,
        |_| {},
    )
}

/// [`validate_parts`] with a data-stream visitor: `visit_data` is called
/// with each contiguous, just-validated chunk of `data` (one call per node,
/// in stream order), and on success the calls cover `data` exactly once
/// front to back. This lets a caller that also needs a whole-file scan of
/// the same bytes — the mmap-backed segment open feeds its checksum
/// over them — fuse both walks into one pass instead of reading the file
/// twice. If validation fails, the visitor may have seen only a prefix;
/// callers must treat any error as fatal before trusting their fold.
#[allow(clippy::too_many_arguments)]
pub fn validate_parts_with(
    node_count: usize,
    id_bound: usize,
    max_degree: usize,
    entry_offsets: &[u32],
    block_starts: &[u32],
    skip_firsts: &[u32],
    skip_bytes: &[u32],
    data: &[u8],
    what: &str,
    mut visit_data: impl FnMut(&[u8]),
) -> Result<(), GraphError> {
    let fail = |msg: String| Err(GraphError::InvalidBinary(format!("{what}: {msg}")));
    if entry_offsets.len() != node_count + 1 || block_starts.len() != node_count + 1 {
        return fail(format!(
            "offset arrays have lengths {}/{} for {node_count} nodes",
            entry_offsets.len(),
            block_starts.len()
        ));
    }
    if entry_offsets[0] != 0 || block_starts[0] != 0 {
        return fail("offset arrays do not start at 0".into());
    }
    let block_count = *block_starts.last().expect("length checked above") as usize;
    if skip_firsts.len() != block_count || skip_bytes.len() != block_count {
        return fail(format!(
            "skip arrays have lengths {}/{} for {block_count} blocks",
            skip_firsts.len(),
            skip_bytes.len()
        ));
    }
    let mut actual_max = 0usize;
    let mut stream_pos = 0usize;
    for v in 0..node_count {
        let node_stream_start = stream_pos;
        if entry_offsets[v + 1] < entry_offsets[v] || block_starts[v + 1] < block_starts[v] {
            return fail(format!("offsets decrease at node {v}"));
        }
        let degree = (entry_offsets[v + 1] - entry_offsets[v]) as usize;
        actual_max = actual_max.max(degree);
        let (block_lo, block_hi) = (block_starts[v] as usize, block_starts[v + 1] as usize);
        if block_hi - block_lo != degree.div_ceil(BLOCK_SIZE) {
            return fail(format!(
                "node {v} has degree {degree} but {} blocks",
                block_hi - block_lo
            ));
        }
        // Walk the node's gap stream block by block. The stream is
        // contiguous across blocks and nodes, so every block must start
        // exactly at the running position.
        let mut prev_in_list: Option<u32> = None;
        for (bi, b) in (block_lo..block_hi).enumerate() {
            if skip_bytes[b] as usize != stream_pos {
                return fail(format!(
                    "block {b} starts its gaps at byte {}, stream is at {stream_pos}",
                    skip_bytes[b]
                ));
            }
            let first = skip_firsts[b];
            if prev_in_list.is_some_and(|p| first <= p) {
                return fail(format!("node {v}: block first-elements are not increasing"));
            }
            let in_block = (degree - bi * BLOCK_SIZE).min(BLOCK_SIZE);
            let mut cur = first;
            for _ in 1..in_block {
                let Some((gap, next_pos)) = crate::blocks::try_read_varint(data, stream_pos) else {
                    return fail(format!("node {v}: gap stream is truncated"));
                };
                let Some(next) = (gap != 0).then(|| cur.checked_add(gap)).flatten() else {
                    return fail(format!("node {v}: neighbor list is not strictly sorted"));
                };
                cur = next;
                stream_pos = next_pos;
            }
            // Lists are strictly increasing, so the block's last element
            // bounds every id in it.
            if in_block > 0 && cur as usize >= id_bound {
                return fail(format!("node {v}: neighbor id {cur} outside node space {id_bound}"));
            }
            prev_in_list = Some(cur);
        }
        visit_data(&data[node_stream_start..stream_pos]);
    }
    if actual_max != max_degree {
        return fail(format!("max degree is {actual_max}, header claims {max_degree}"));
    }
    if stream_pos != data.len() {
        return fail(format!("gap stream has {} trailing bytes", data.len() - stream_pos));
    }
    Ok(())
}

impl CompactCsr {
    /// Compacts any [`GraphView`] into delta-encoded form.
    ///
    /// # Panics
    /// Panics if the adjacency has more than `u32::MAX` entries or the
    /// encoded gap stream exceeds `u32::MAX` bytes (one in-memory graph is
    /// `u32`-bounded by design).
    pub fn from_view<G: GraphView>(g: &G) -> Self {
        let n = g.node_count();
        let entries = g.total_degree();
        assert!(entries <= u32::MAX as usize, "adjacency entries ({entries}) overflow u32 offsets");

        let mut entry_offsets = Vec::with_capacity(n + 1);
        let mut block_starts = Vec::with_capacity(n + 1);
        let mut skip_firsts = Vec::with_capacity(entries / BLOCK_SIZE + n);
        let mut skip_bytes = Vec::with_capacity(entries / BLOCK_SIZE + n);
        // Gaps in a sorted id space average well under 4 bytes of varint;
        // reserve the common case and let pathological inputs reallocate.
        let mut data = Vec::with_capacity(entries * 2);

        entry_offsets.push(0u32);
        block_starts.push(0u32);
        for v in 0..n {
            let mut prev = 0u32;
            let mut count = 0usize;
            for x in g.neighbors_iter(NodeId::from_index(v)) {
                if count.is_multiple_of(BLOCK_SIZE) {
                    skip_firsts.push(x.0);
                    skip_bytes
                        .push(u32::try_from(data.len()).expect("encoded gap stream overflows u32"));
                } else {
                    debug_assert!(x.0 > prev, "neighbor list of node {v} is not strictly sorted");
                    write_varint(&mut data, x.0 - prev);
                }
                prev = x.0;
                count += 1;
            }
            entry_offsets.push(entry_offsets[v] + count as u32);
            block_starts.push(skip_firsts.len() as u32);
        }
        assert!(data.len() <= u32::MAX as usize, "encoded gap stream overflows u32");
        // Drop the construction-time reservation slack: `memory_bytes()`
        // reports lengths, so retained capacity would be invisible in the
        // bytes-per-edge metric while still being resident.
        data.shrink_to_fit();
        skip_firsts.shrink_to_fit();
        skip_bytes.shrink_to_fit();

        CompactCsr {
            node_count: n,
            directed: g.is_directed(),
            edge_count: g.edge_count(),
            max_degree: g.max_degree(),
            entry_offsets,
            block_starts,
            skip_firsts,
            skip_bytes,
            data,
        }
    }

    /// Reassembles a `CompactCsr` from its raw delta-block arrays (the
    /// inverse of [`CompactCsr::raw_parts`]), validating the structural
    /// invariants with [`validate_parts`] first.
    ///
    /// `id_bound` is the exclusive upper bound for target ids: `node_count`
    /// for a whole graph, the *global* node space for a row range (local
    /// rows, global target ids). `edge_count` is likewise stored as given: a
    /// deserialized row range carries the global logical edge count of the
    /// graph it was cut from, which only the serializer knows.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        node_count: usize,
        id_bound: usize,
        directed: bool,
        edge_count: usize,
        max_degree: usize,
        entry_offsets: Vec<u32>,
        block_starts: Vec<u32>,
        skip_firsts: Vec<u32>,
        skip_bytes: Vec<u32>,
        data: Vec<u8>,
    ) -> Result<Self, GraphError> {
        validate_parts(
            node_count,
            id_bound,
            max_degree,
            &entry_offsets,
            &block_starts,
            &skip_firsts,
            &skip_bytes,
            &data,
            "compact CSR parts",
        )?;
        Ok(CompactCsr {
            node_count,
            directed,
            edge_count,
            max_degree,
            entry_offsets,
            block_starts,
            skip_firsts,
            skip_bytes,
            data,
        })
    }

    /// Borrows the raw delta-block arrays
    /// `(entry_offsets, block_starts, skip_firsts, skip_bytes, data)`;
    /// exposed for the segment serializer in `snr-store`.
    pub fn raw_parts(&self) -> RawParts<'_> {
        (&self.entry_offsets, &self.block_starts, &self.skip_firsts, &self.skip_bytes, &self.data)
    }

    /// Decodes back into the uncompressed CSR representation.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.node_count;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.total_degree());
        offsets.push(0usize);
        for v in 0..n {
            targets.extend(self.neighbors_iter(NodeId::from_index(v)));
            offsets.push(targets.len());
        }
        CsrGraph::from_raw_parts(n, offsets, targets, self.directed)
    }

    /// Number of delta-encoded blocks (one skip entry each).
    pub fn block_count(&self) -> usize {
        self.skip_firsts.len()
    }
}

impl GraphView for CompactCsr {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.directed
    }

    #[inline]
    fn max_degree(&self) -> usize {
        self.max_degree
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.entry_offsets[i + 1] - self.entry_offsets[i]) as usize
    }

    #[inline]
    fn total_degree(&self) -> usize {
        *self.entry_offsets.last().unwrap_or(&0) as usize
    }

    fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        BlockNeighbors::new(
            &self.skip_firsts,
            &self.skip_bytes,
            &self.data,
            self.block_starts[v.index()] as usize,
            self.degree(v),
        )
    }

    fn memory_bytes(&self) -> usize {
        (self.entry_offsets.len()
            + self.block_starts.len()
            + self.skip_firsts.len()
            + self.skip_bytes.len())
            * std::mem::size_of::<u32>()
            + self.data.len()
    }
}

impl CsrGraph {
    /// Converts to the delta-encoded representation; see [`CompactCsr`].
    pub fn compact(&self) -> CompactCsr {
        CompactCsr::from_view(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_same_graph(csr: &CsrGraph, compact: &CompactCsr) {
        assert_eq!(GraphView::node_count(csr), compact.node_count());
        assert_eq!(GraphView::edge_count(csr), compact.edge_count());
        assert_eq!(GraphView::max_degree(csr), compact.max_degree());
        assert_eq!(GraphView::total_degree(csr), compact.total_degree());
        assert_eq!(GraphView::is_directed(csr), compact.is_directed());
        for v in GraphView::nodes_iter(csr) {
            assert_eq!(GraphView::degree(csr, v), compact.degree(v), "degree of {v:?}");
            assert_eq!(
                csr.neighbors(v),
                compact.neighbors_iter(v).collect::<Vec<_>>(),
                "neighbors of {v:?}"
            );
        }
    }

    #[test]
    fn roundtrips_small_graphs() {
        for edges in [
            &[][..],
            &[(0u32, 1u32)][..],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)][..],
            &[(0, 5), (5, 9), (2, 7), (2, 9), (0, 9)][..],
        ] {
            let csr = CsrGraph::from_edges(10, edges);
            let compact = csr.compact();
            assert_same_graph(&csr, &compact);
            assert_eq!(&compact.to_csr(), &csr);
        }
    }

    #[test]
    fn handles_lists_longer_than_one_block() {
        // Hub with degree spanning several blocks, with irregular gaps.
        let edges: Vec<(u32, u32)> =
            (1..=(3 * BLOCK_SIZE as u32 + 17)).map(|i| (0, i * 3 + (i % 5))).collect();
        let n = edges.iter().map(|&(_, b)| b as usize + 1).max().unwrap();
        let csr = CsrGraph::from_edges(n, &edges);
        let compact = csr.compact();
        assert_same_graph(&csr, &compact);
        assert!(compact.block_count() >= 4);
    }

    #[test]
    fn has_edge_finds_entries_past_the_first_block() {
        let edges: Vec<(u32, u32)> = (1..=1000u32).map(|i| (0, i * 7)).collect();
        let csr = CsrGraph::from_edges(7_001, &edges);
        let compact = csr.compact();
        assert!(compact.has_edge(NodeId(0), NodeId(700)));
        assert!(compact.has_edge(NodeId(0), NodeId(7_000)));
        assert!(!compact.has_edge(NodeId(0), NodeId(701)));
        assert!(!compact.has_edge(NodeId(0), NodeId(7_001)));
        assert!(compact.has_edge(NodeId(3_500), NodeId(0)));
    }

    #[test]
    fn compact_is_smaller_on_a_dense_graph() {
        // A graph dense enough for delta gaps to be short: circulant graph,
        // every node connected to its 40 nearest ids.
        let n = 2_000u32;
        let mut edges = Vec::new();
        for v in 0..n {
            for d in 1..=20u32 {
                edges.push((v, (v + d) % n));
            }
        }
        let csr = CsrGraph::from_edges(n as usize, &edges);
        let compact = csr.compact();
        assert_same_graph(&csr, &compact);
        assert!(
            compact.memory_bytes() * 2 < GraphView::memory_bytes(&csr),
            "compact {} vs csr {}",
            compact.memory_bytes(),
            GraphView::memory_bytes(&csr)
        );
        assert!(compact.bytes_per_edge() < csr.bytes_per_edge());
    }

    #[test]
    fn raw_parts_roundtrip_reconstructs_the_graph() {
        let csr = CsrGraph::from_edges(50, &[(0, 1), (1, 2), (2, 49), (3, 7), (7, 11)]);
        let compact = csr.compact();
        let (eo, bs, sf, sb, data) = compact.raw_parts();
        let rebuilt = CompactCsr::from_raw_parts(
            compact.node_count(),
            compact.node_count(),
            compact.is_directed(),
            compact.edge_count(),
            compact.max_degree(),
            eo.to_vec(),
            bs.to_vec(),
            sf.to_vec(),
            sb.to_vec(),
            data.to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, compact);
    }

    #[test]
    fn from_raw_parts_rejects_inconsistent_layouts() {
        let csr = CsrGraph::from_edges(10, &[(0, 1), (1, 2), (2, 3)]);
        let compact = csr.compact();
        let (eo, bs, sf, sb, data) = compact.raw_parts();
        let build = |eo: Vec<u32>, bs: Vec<u32>, sf: Vec<u32>, sb: Vec<u32>, max: usize| {
            CompactCsr::from_raw_parts(10, 10, false, 3, max, eo, bs, sf, sb, data.to_vec())
        };
        // Baseline is accepted.
        assert!(build(eo.to_vec(), bs.to_vec(), sf.to_vec(), sb.to_vec(), 2).is_ok());
        // Wrong array length.
        assert!(
            build(eo[..eo.len() - 1].to_vec(), bs.to_vec(), sf.to_vec(), sb.to_vec(), 2).is_err()
        );
        // Inconsistent offsets (node 0's claimed degree has no blocks).
        let mut bad = eo.to_vec();
        bad[1] = *bad.last().unwrap() + 1;
        assert!(build(bad, bs.to_vec(), sf.to_vec(), sb.to_vec(), 2).is_err());
        // Claimed max degree off by one.
        assert!(build(eo.to_vec(), bs.to_vec(), sf.to_vec(), sb.to_vec(), 3).is_err());
        // Missing skip entry.
        assert!(
            build(eo.to_vec(), bs.to_vec(), sf[..sf.len() - 1].to_vec(), sb.to_vec(), 2).is_err()
        );
    }

    #[test]
    fn from_raw_parts_rejects_gap_streams_that_would_decode_out_of_bounds() {
        // One node claiming degree 2 in one block, but an empty gap stream:
        // plausible offsets, in-bounds stream start, yet decoding the second
        // element would read past the end. Must be an error, not a panic.
        let r = CompactCsr::from_raw_parts(
            1,
            10,
            false,
            1,
            2,
            vec![0, 2],
            vec![0, 1],
            vec![5],
            vec![0],
            vec![],
        );
        assert!(matches!(r, Err(GraphError::InvalidBinary(_))), "{r:?}");
        // A zero gap (duplicate neighbor) is rejected too.
        let r = CompactCsr::from_raw_parts(
            1,
            10,
            false,
            1,
            2,
            vec![0, 2],
            vec![0, 1],
            vec![5],
            vec![0],
            vec![0u8],
        );
        assert!(r.is_err(), "zero gap accepted: {r:?}");
        // Trailing bytes after the last block's gaps are rejected.
        let mut data = Vec::new();
        crate::blocks::write_varint(&mut data, 3);
        data.push(0x01);
        let r = CompactCsr::from_raw_parts(
            1,
            10,
            false,
            1,
            2,
            vec![0, 2],
            vec![0, 1],
            vec![5],
            vec![0],
            data,
        );
        assert!(r.is_err(), "trailing bytes accepted: {r:?}");
    }

    #[test]
    fn from_raw_parts_rejects_targets_outside_the_node_space() {
        // A structurally perfect layout whose single list is [5, 8] — legal
        // for a row range with id_bound 10, out of range for a whole graph of 6
        // nodes. Consumers index degree arrays and score arenas by these
        // ids, so the bound must be enforced at construction.
        let mut data = Vec::new();
        crate::blocks::write_varint(&mut data, 3);
        let parts = |id_bound: usize| {
            CompactCsr::from_raw_parts(
                1,
                id_bound,
                false,
                2,
                2,
                vec![0, 2],
                vec![0, 1],
                vec![5],
                vec![0],
                data.clone(),
            )
        };
        assert!(parts(10).is_ok());
        let r = parts(6);
        assert!(matches!(r, Err(GraphError::InvalidBinary(_))), "{r:?}");
    }

    proptest::proptest! {
        #[test]
        fn compact_roundtrips_arbitrary_builder_graphs(
            edges in proptest::collection::vec((0u32..200, 0u32..200), 0..600),
            directed_raw in 0u32..2,
        ) {
            let csr = if directed_raw == 1 {
                let mut b = crate::GraphBuilder::directed(200);
                for &(a, bnode) in &edges {
                    b.add_edge(NodeId(a), NodeId(bnode));
                }
                b.build()
            } else {
                CsrGraph::from_edges(200, &edges)
            };
            let compact = csr.compact();
            proptest::prop_assert_eq!(compact.node_count(), GraphView::node_count(&csr));
            proptest::prop_assert_eq!(compact.edge_count(), GraphView::edge_count(&csr));
            proptest::prop_assert_eq!(compact.max_degree(), GraphView::max_degree(&csr));
            for v in GraphView::nodes_iter(&csr) {
                proptest::prop_assert_eq!(compact.degree(v), GraphView::degree(&csr, v));
                let decoded: Vec<NodeId> = compact.neighbors_iter(v).collect();
                proptest::prop_assert_eq!(decoded, csr.neighbors(v).to_vec());
            }
            proptest::prop_assert_eq!(&compact.to_csr(), &csr);
        }
    }
}
