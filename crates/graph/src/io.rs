//! Graph serialization as whitespace-separated edge lists, the format every
//! public social-network dataset in the paper ships in. The binary format is
//! the `snr-store` segment.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::node::NodeId;
use std::io::{BufRead, Write};

/// Writes `g` as a text edge list: one `u v` pair per line, undirected edges
/// once each, preceded by a `# nodes=<n>` header so isolated nodes survive a
/// round trip.
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut w: W) -> Result<(), GraphError> {
    writeln!(w, "# nodes={} directed={}", g.node_count(), g.is_directed())?;
    for e in g.edges() {
        writeln!(w, "{} {}", e.src.0, e.dst.0)?;
    }
    Ok(())
}

/// Reads a text edge list produced by [`write_edge_list`] (or any
/// whitespace-separated `u v` file; lines starting with `#` other than the
/// header are ignored).
///
/// Every malformed input is reported as a [`GraphError`], never a panic: an
/// unparseable header value or edge line is a [`GraphError::ParseEdge`]
/// carrying the 1-based line number, and — when the file declares its node
/// count — an edge endpoint outside `0..nodes` is a
/// [`GraphError::NodeOutOfBounds`] (headerless files still grow the node
/// set from the ids they mention).
pub fn read_edge_list<R: BufRead>(r: R) -> Result<CsrGraph, GraphError> {
    let mut declared_nodes: Option<usize> = None;
    let mut directed = false;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parse_err = || GraphError::ParseEdge { line: idx + 1, content: line.to_string() };
        if let Some(rest) = line.strip_prefix('#') {
            for token in rest.split_whitespace() {
                if let Some(v) = token.strip_prefix("nodes=") {
                    declared_nodes = Some(v.parse().map_err(|_| parse_err())?);
                } else if let Some(v) = token.strip_prefix("directed=") {
                    directed = v.parse().map_err(|_| parse_err())?;
                }
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let (a, b) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(parse_err()),
        };
        let parse = |s: &str| -> Result<u32, GraphError> { s.parse().map_err(|_| parse_err()) };
        let (a, b) = (parse(a)?, parse(b)?);
        edges.push((NodeId(a), NodeId(b)));
    }
    // Bounds are enforced after the whole file is read, so a header that
    // appears below some edges (nothing forbids that) still covers them.
    if let Some(n) = declared_nodes {
        for &(a, b) in &edges {
            for id in [a, b] {
                if id.index() >= n {
                    return Err(GraphError::NodeOutOfBounds { node: id.0, node_count: n });
                }
            }
        }
    }
    let node_count = declared_nodes.unwrap_or(0);
    let mut builder = if directed {
        GraphBuilder::directed(node_count)
    } else {
        GraphBuilder::undirected(node_count)
    };
    builder.reserve_edges(edges.len());
    builder.extend_edges(edges);
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_preserves_isolated_nodes_via_header() {
        let g = CsrGraph::from_edges(10, &[(0, 1)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.node_count(), 10);
        assert_eq!(g2.edge_count(), 1);
    }

    #[test]
    fn edge_list_rejects_garbage_lines() {
        let data = "0 1\nnot an edge\n";
        let err = read_edge_list(data.as_bytes()).unwrap_err();
        match err {
            GraphError::ParseEdge { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn edge_list_accepts_headerless_files() {
        let data = "0 1\n1 2\n2 0\n";
        let g = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn edge_list_rejects_single_token_line() {
        let data = "0 1\n7\n";
        assert!(read_edge_list(data.as_bytes()).is_err());
    }

    #[test]
    fn edge_list_rejects_malformed_directed_header() {
        // The directed flag used to be silently defaulted on garbage; it
        // must surface as a parse error on the header's line instead.
        let data = "# nodes=3 directed=sideways\n0 1\n";
        match read_edge_list(data.as_bytes()).unwrap_err() {
            GraphError::ParseEdge { line, content } => {
                assert_eq!(line, 1);
                assert!(content.contains("directed=sideways"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn edge_list_rejects_edges_outside_a_declared_node_count() {
        let data = "# nodes=3\n0 1\n1 5\n";
        match read_edge_list(data.as_bytes()).unwrap_err() {
            GraphError::NodeOutOfBounds { node, node_count } => {
                assert_eq!(node, 5);
                assert_eq!(node_count, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn edge_list_bounds_edges_that_precede_the_header() {
        // The node-count declaration may appear anywhere; edges read before
        // it are still checked against it.
        let data = "0 9\n# nodes=3\n0 1\n";
        assert!(matches!(
            read_edge_list(data.as_bytes()),
            Err(GraphError::NodeOutOfBounds { node: 9, node_count: 3 })
        ));
    }

    #[test]
    fn edge_list_rejects_malformed_nodes_header() {
        assert!(matches!(
            read_edge_list("# nodes=many\n0 1\n".as_bytes()),
            Err(GraphError::ParseEdge { line: 1, .. })
        ));
    }

    proptest::proptest! {
        #[test]
        fn edge_list_roundtrip_random_graphs(edges in proptest::collection::vec((0u32..25, 0u32..25), 0..100)) {
            let g = CsrGraph::from_edges(25, &edges);
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            let g2 = read_edge_list(buf.as_slice()).unwrap();
            proptest::prop_assert_eq!(g, g2);
        }
    }
}
