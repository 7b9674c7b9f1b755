//! # snr-graph
//!
//! Compact graph substrate for the `social-reconcile` workspace, the
//! reproduction of Korula & Lattanzi, *"An efficient reconciliation algorithm
//! for social networks"* (VLDB 2014).
//!
//! The reconciliation algorithm only ever needs a handful of graph
//! operations, all of which are read-only once the graph is constructed:
//!
//! * degree of a node,
//! * iteration over the (sorted) neighbor list of a node,
//! * counting common neighbors of two nodes (one per copy),
//! * global statistics (maximum degree drives the degree-bucketing schedule).
//!
//! That read-only surface is captured by the [`GraphView`] trait, with two
//! interchangeable implementations:
//!
//! * [`CsrGraph`] — the workhorse: an immutable compressed sparse row
//!   structure with sorted, deduplicated neighbor *slices* (fastest per
//!   access). Graphs are assembled through [`GraphBuilder`], which owns all
//!   the mutable bookkeeping (deduplication, self-loop policy, undirected
//!   mirroring).
//! * [`CompactCsr`] — the same graph in roughly half the memory: `u32`
//!   offsets and delta-encoded varint neighbor blocks with per-block skip
//!   entries, so degrees stay O(1) and seeks stay sublinear. Convert with
//!   [`CsrGraph::compact`] / [`CompactCsr::to_csr`]; pick it when the
//!   working set (two copies plus ground truth) is what stops an experiment
//!   from fitting in memory.
//!
//! Further implementations live outside this crate: the `snr-store` crate
//! serializes the same delta-block layout (see [`blocks`]) into checksummed
//! on-disk segments and reads them back through mmap-backed and sharded
//! views, for graphs bigger than RAM.
//!
//! The crate also ships the supporting pieces a downstream user of the
//! library needs: degree statistics ([`stats`]), induced subgraphs
//! ([`subgraph`]), text and binary serialization ([`io`])
//! and the sorted-slice intersection kernels ([`intersect`]) that make
//! similarity-witness counting cheap — all generic over [`GraphView`].
//!
//! ## Example
//!
//! ```
//! use snr_graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::undirected(4);
//! b.add_edge(NodeId(0), NodeId(1));
//! b.add_edge(NodeId(1), NodeId(2));
//! b.add_edge(NodeId(2), NodeId(3));
//! b.add_edge(NodeId(0), NodeId(2));
//! let g = b.build();
//!
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 4);
//! assert_eq!(g.degree(NodeId(2)), 3);
//! assert_eq!(
//!     snr_graph::intersect::count_common(g.neighbors(NodeId(0)), g.neighbors(NodeId(1))),
//!     1 // node 2 is the only common neighbor of 0 and 1
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod builder;
pub mod compact;
pub mod csr;
pub mod error;
pub mod intersect;
pub mod io;
pub mod node;
pub mod stats;
pub mod subgraph;
pub mod view;

pub use builder::GraphBuilder;
pub use compact::CompactCsr;
pub use csr::CsrGraph;
pub use error::GraphError;
pub use node::NodeId;
pub use stats::GraphStats;
pub use view::GraphView;
