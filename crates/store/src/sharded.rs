//! A [`GraphView`] that partitions the node-id space across N shards.
//!
//! Each shard stores a contiguous row range (local rows, **global** target
//! ids) in its own storage unit — an in-memory [`CompactCsr`] or a mapped
//! [`MmapGraph`] segment — so reads route to the owning shard with one
//! subtraction and no id translation of the neighbor lists. Because every
//! shard is independently serializable and mappable, this is the Table 2
//! path past one machine's RAM: shard boundaries are balanced by adjacency
//! entries, segments are written per shard, and workers stream disjoint
//! row ranges ([`GraphView::storage_partitions`] exposes them to the arena
//! scorer, whose candidate rows map one-to-one onto shard rows).

use crate::mmap::MmapGraph;
use crate::segment::{write_segment_range, SegmentMeta};
use rayon::prelude::*;
use snr_graph::{CompactCsr, GraphError, GraphView, NodeId};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Balanced shard boundaries: contiguous node ranges with roughly equal
/// adjacency-entry counts (node counts can be wildly skewed on power-law
/// graphs, entry counts are what scoring and paging actually pay for).
/// Returns `shards + 1` ascending cut points starting at 0 and ending at
/// `node_count`.
pub fn shard_boundaries<G: GraphView>(g: &G, shards: usize) -> Vec<u32> {
    let shards = shards.max(1);
    let n = g.node_count();
    let total = g.total_degree();
    let mut cuts = Vec::with_capacity(shards + 1);
    cuts.push(0u32);
    let mut acc = 0usize;
    let mut v = 0usize;
    for k in 1..shards {
        // Cut when the running entry count reaches k/shards of the total.
        let target = total * k / shards;
        while v < n && acc < target {
            acc += g.degree(NodeId(v as u32));
            v += 1;
        }
        cuts.push(v as u32);
    }
    cuts.push(n as u32);
    cuts
}

/// One graph partitioned into contiguous node-range shards, each an
/// independent [`GraphView`] storage unit (`CompactCsr` in memory,
/// [`MmapGraph`] on disk, or anything else implementing the trait).
#[derive(Debug)]
pub struct ShardedGraph<S> {
    /// `starts[k]..starts[k + 1]` is shard `k`'s global node range;
    /// length `shards + 1`.
    starts: Vec<u32>,
    shards: Vec<S>,
    node_count: usize,
    edge_count: usize,
    max_degree: usize,
    total_degree: usize,
    directed: bool,
}

impl<S: GraphView> ShardedGraph<S> {
    /// Assembles a sharded view from shard storage units and their global
    /// cut points. `starts` must be ascending, start at 0, end at the
    /// global node count, and have one more element than `shards`; shard
    /// `k` must hold exactly `starts[k + 1] - starts[k]` local rows whose
    /// targets are global ids. Global edge count and directedness are
    /// passed through (shards cannot derive them: an edge may span shards).
    pub fn from_parts(
        starts: Vec<u32>,
        shards: Vec<S>,
        edge_count: usize,
        directed: bool,
    ) -> Result<Self, GraphError> {
        if starts.len() != shards.len() + 1 || starts.first() != Some(&0) {
            return Err(GraphError::InvalidParameter(format!(
                "{} cut points for {} shards",
                starts.len(),
                shards.len()
            )));
        }
        for (k, shard) in shards.iter().enumerate() {
            if starts[k] > starts[k + 1] {
                return Err(GraphError::InvalidParameter(format!(
                    "shard cut points decrease at shard {k}"
                )));
            }
            let rows = (starts[k + 1] - starts[k]) as usize;
            if shard.node_count() != rows {
                return Err(GraphError::InvalidParameter(format!(
                    "shard {k} holds {} rows, cut points imply {rows}",
                    shard.node_count()
                )));
            }
        }
        let node_count = *starts.last().expect("validated non-empty") as usize;
        let max_degree = shards.iter().map(|s| s.max_degree()).max().unwrap_or(0);
        let total_degree = shards.iter().map(|s| s.total_degree()).sum();
        Ok(ShardedGraph {
            starts,
            shards,
            node_count,
            edge_count,
            max_degree,
            total_degree,
            directed,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard storage units, in node order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Global node range owned by each shard (empty ranges omitted).
    pub fn shard_ranges(&self) -> Vec<Range<u32>> {
        self.starts.windows(2).map(|w| w[0]..w[1]).filter(|r| !r.is_empty()).collect()
    }

    /// Owning shard index and local row of global node `v`.
    #[inline]
    fn locate(&self, v: NodeId) -> (usize, NodeId) {
        // partition_point over the interior cut points: the first shard
        // whose end is > v owns it.
        let k = self.starts[1..self.starts.len() - 1].partition_point(|&s| s <= v.0);
        (k, NodeId(v.0 - self.starts[k]))
    }
}

impl ShardedGraph<CompactCsr> {
    /// Partitions `g` into `shards` in-memory delta-encoded shards with
    /// entry-balanced boundaries. Shards compact in parallel on the worker
    /// pool — this is the sharded sibling of [`snr_graph::CsrGraph::compact`].
    pub fn partition<G: GraphView + Sync>(g: &G, shards: usize) -> Self {
        let starts = shard_boundaries(g, shards);
        let ranges: Vec<Range<u32>> = starts.windows(2).map(|w| w[0]..w[1]).collect();
        let shards: Vec<CompactCsr> = ranges
            .par_iter()
            .map(|r| CompactCsr::from_view(&RowRange::new(g, r.clone())))
            .collect();
        ShardedGraph::from_parts(starts, shards, g.edge_count(), g.is_directed())
            .expect("partition produces consistent parts")
    }
}

impl ShardedGraph<MmapGraph> {
    /// Opens shard segment files written by [`write_shard_segments`] as one
    /// mmap-backed sharded view. The segments must tile the node-id space:
    /// ascending contiguous ranges from 0 to the shared `total_nodes`, all
    /// agreeing on the global metadata.
    pub fn open<P: AsRef<Path>>(paths: &[P]) -> Result<Self, GraphError> {
        if paths.is_empty() {
            return Err(GraphError::InvalidParameter("no shard segments given".into()));
        }
        let mut opened: Vec<MmapGraph> =
            paths.iter().map(|p| MmapGraph::open_any(p.as_ref())).collect::<Result<_, _>>()?;
        opened.sort_by_key(|m| m.meta().first_node);
        let reference: SegmentMeta = *opened[0].meta();
        let mut starts = Vec::with_capacity(opened.len() + 1);
        let mut next = 0usize;
        for m in &opened {
            let meta = m.meta();
            if meta.total_nodes != reference.total_nodes
                || meta.edge_count != reference.edge_count
                || meta.directed != reference.directed
            {
                return Err(GraphError::InvalidBinary(
                    "shard segments disagree on global graph metadata".into(),
                ));
            }
            if meta.first_node != next {
                return Err(GraphError::InvalidBinary(format!(
                    "shard segments do not tile the node space: expected a shard starting at \
                     {next}, found one at {}",
                    meta.first_node
                )));
            }
            starts.push(meta.first_node as u32);
            next = meta.first_node + meta.node_count;
        }
        if next != reference.total_nodes {
            return Err(GraphError::InvalidBinary(format!(
                "shard segments cover {next} of {} nodes",
                reference.total_nodes
            )));
        }
        starts.push(reference.total_nodes as u32);
        ShardedGraph::from_parts(starts, opened, reference.edge_count, reference.directed)
    }
}

/// Writes `g` as `shards` entry-balanced shard segment files
/// `shard-<k>.snrs` under `dir` (created if missing) and returns their
/// paths in shard order. Reopen with [`ShardedGraph::open`].
pub fn write_shard_segments<G: GraphView>(
    g: &G,
    shards: usize,
    dir: &Path,
) -> Result<Vec<PathBuf>, GraphError> {
    std::fs::create_dir_all(dir)?;
    let starts = shard_boundaries(g, shards);
    let mut paths = Vec::with_capacity(starts.len() - 1);
    for (k, w) in starts.windows(2).enumerate() {
        let path = dir.join(format!("shard-{k}.snrs"));
        let file = std::fs::File::create(&path)?;
        write_segment_range(g, std::io::BufWriter::new(file), w[0]..w[1])?;
        paths.push(path);
    }
    Ok(paths)
}

impl<S: GraphView> GraphView for ShardedGraph<S> {
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
        let (k, local) = self.locate(v);
        self.shards[k].degree(local)
    }

    #[inline]
    fn total_degree(&self) -> usize {
        self.total_degree
    }

    fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let (k, local) = self.locate(v);
        self.shards[k].neighbors_iter(local)
    }

    fn memory_bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<u32>()
            + self.shards.iter().map(|s| s.memory_bytes()).sum::<usize>()
    }

    fn storage_partitions(&self) -> Option<Vec<Range<u32>>> {
        Some(self.shard_ranges())
    }
}

/// Borrowed view of a contiguous row range of another graph, with row ids
/// rebased to `0..len` but target ids left **global**. The building block
/// shards compact from; it deliberately bends the [`GraphView`] id-density
/// contract (targets may exceed `node_count`), so it stays crate-private
/// and is only fed to representation converters that copy lists verbatim.
struct RowRange<'a, G> {
    g: &'a G,
    rows: Range<u32>,
    max_degree: usize,
    total_degree: usize,
}

impl<'a, G: GraphView> RowRange<'a, G> {
    fn new(g: &'a G, rows: Range<u32>) -> Self {
        let mut max_degree = 0usize;
        let mut total_degree = 0usize;
        for v in rows.clone() {
            let d = g.degree(NodeId(v));
            max_degree = max_degree.max(d);
            total_degree += d;
        }
        RowRange { g, rows, max_degree, total_degree }
    }

    #[inline]
    fn global(&self, local: NodeId) -> NodeId {
        NodeId(self.rows.start + local.0)
    }
}

impl<G: GraphView> GraphView for RowRange<'_, G> {
    fn node_count(&self) -> usize {
        (self.rows.end - self.rows.start) as usize
    }

    fn edge_count(&self) -> usize {
        // Global count passed through: this is segment metadata (an edge
        // may span shards, so a shard-local count is not well-defined).
        self.g.edge_count()
    }

    fn is_directed(&self) -> bool {
        self.g.is_directed()
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }

    fn degree(&self, v: NodeId) -> usize {
        self.g.degree(self.global(v))
    }

    fn total_degree(&self) -> usize {
        self.total_degree
    }

    fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.g.neighbors_iter(self.global(v))
    }

    fn memory_bytes(&self) -> usize {
        0 // a borrow owns nothing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_graph::CsrGraph;

    fn skewed_graph() -> CsrGraph {
        // A hub plus a sparse tail: entry-balanced cuts differ visibly from
        // node-balanced ones.
        let mut edges: Vec<(u32, u32)> = (1..200u32).map(|i| (0, i)).collect();
        edges.extend((200..400u32).map(|i| (i, (i + 1) % 400)));
        CsrGraph::from_edges(400, &edges)
    }

    fn assert_matches<G: GraphView>(sharded: &G, g: &CsrGraph) {
        assert_eq!(sharded.node_count(), g.node_count());
        assert_eq!(sharded.edge_count(), g.edge_count());
        assert_eq!(sharded.max_degree(), GraphView::max_degree(g));
        assert_eq!(sharded.total_degree(), g.total_degree());
        for v in GraphView::nodes_iter(g) {
            assert_eq!(sharded.degree(v), g.degree(v), "degree of {v:?}");
            assert_eq!(
                sharded.neighbors_iter(v).collect::<Vec<_>>(),
                g.neighbors(v).to_vec(),
                "neighbors of {v:?}"
            );
            for w in GraphView::nodes_iter(g) {
                assert_eq!(sharded.has_edge(v, w), g.has_edge(v, w), "edge {v:?}-{w:?}");
            }
        }
    }

    #[test]
    fn boundaries_are_entry_balanced_and_tile_the_space() {
        let g = skewed_graph();
        for shards in [1usize, 2, 3, 4, 7] {
            let cuts = shard_boundaries(&g, shards);
            assert_eq!(cuts.len(), shards + 1);
            assert_eq!(cuts[0], 0);
            assert_eq!(*cuts.last().unwrap(), g.node_count() as u32);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        }
        // The hub (node 0, degree 199 of 798 entries) forces the 4-shard
        // first cut well before the node-count midpoint.
        let cuts = shard_boundaries(&g, 4);
        assert!(cuts[1] < 200, "first cut at {} ignores entry balance", cuts[1]);
    }

    #[test]
    fn partitioned_view_is_identical_to_the_source() {
        let g = skewed_graph();
        for shards in [1usize, 2, 4, 9] {
            let s = ShardedGraph::partition(&g, shards);
            assert_eq!(s.shard_count(), shards);
            assert_matches(&s, &g);
            let ranges = s.shard_ranges();
            assert!(s.storage_partitions().is_some());
            assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), g.node_count());
        }
    }

    #[test]
    fn shard_segments_roundtrip_through_mmap() {
        let g = skewed_graph();
        let dir = std::env::temp_dir().join(format!("snr-store-sharded-{}", std::process::id()));
        let paths = write_shard_segments(&g, 3, &dir).unwrap();
        assert_eq!(paths.len(), 3);
        let s = ShardedGraph::open(&paths).unwrap();
        assert_eq!(s.shard_count(), 3);
        assert_matches(&s, &g);
        // A missing shard is rejected.
        assert!(ShardedGraph::open(&paths[..2]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_parts_rejects_inconsistent_cuts() {
        let g = skewed_graph();
        let full = g.compact();
        // Cut points claim 2 shards but only one unit is given.
        assert!(ShardedGraph::from_parts(vec![0, 100, 400], vec![full.clone()], 1, false).is_err());
        // Row count mismatch.
        assert!(ShardedGraph::from_parts(vec![0, 100], vec![full], 1, false).is_err());
    }

    #[test]
    fn empty_graph_partitions_cleanly() {
        let g = CsrGraph::from_edges(0, &[]);
        let s = ShardedGraph::partition(&g, 4);
        assert_eq!(s.node_count(), 0);
        assert_eq!(s.edge_count(), 0);
        assert!(s.shard_ranges().is_empty());
    }
}
