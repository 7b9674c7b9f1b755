//! Property tests for the segment pipeline: random PA/ER/R-MAT graphs go
//! through write → mmap-backed reopen and the view must observe the
//! identical graph — counts, degrees, neighbor lists and edge probes.
//! Corrupted and truncated segments must come back as errors, never panics.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_generators::{gnp, preferential_attachment, rmat, RmatConfig};
use snr_graph::{CompactCsr, CsrGraph, GraphView, NodeId};
use snr_store::{write_segment, MmapGraph};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique scratch path per test case (proptest cases run within one
/// process; the counter keeps them from clobbering each other).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("snr-roundtrip-{}-{tag}-{n}", std::process::id()))
}

/// The three generator families of the paper's evaluation, keyed by an
/// arbitrary proptest byte.
fn generate(family: u8, size_knob: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 3 {
        0 => preferential_attachment(200 + size_knob * 7, 2 + size_knob % 5, &mut rng)
            .expect("valid PA parameters"),
        1 => gnp(150 + size_knob * 5, 0.02 + (size_knob % 10) as f64 * 0.01, &mut rng)
            .expect("valid ER parameters"),
        _ => rmat(&RmatConfig::graph500(7 + (size_knob % 3) as u32, 8), &mut rng)
            .expect("valid R-MAT parameters"),
    }
}

fn assert_view_matches<G: GraphView>(view: &G, g: &CsrGraph, label: &str) {
    assert_eq!(view.node_count(), g.node_count(), "{label}: node count");
    assert_eq!(view.edge_count(), g.edge_count(), "{label}: edge count");
    assert_eq!(view.max_degree(), GraphView::max_degree(g), "{label}: max degree");
    assert_eq!(view.total_degree(), g.total_degree(), "{label}: total degree");
    assert_eq!(view.is_directed(), g.is_directed(), "{label}: directedness");
    for v in GraphView::nodes_iter(g) {
        assert_eq!(view.degree(v), g.degree(v), "{label}: degree of {v:?}");
        assert_eq!(
            view.neighbors_iter(v).collect::<Vec<_>>(),
            g.neighbors(v).to_vec(),
            "{label}: neighbors of {v:?}"
        );
    }
    // Edge probes over a sample of pairs, including a self-loop probe
    // and the highest-degree node's list end to end.
    let hub = GraphView::nodes_iter(g).max_by_key(|&v| g.degree(v)).unwrap_or(NodeId(0));
    let n = g.node_count() as u32;
    for (a, b) in [(0, 1), (0, n.saturating_sub(1)), (hub.0, 2 % n.max(1)), (hub.0, hub.0)] {
        if a >= n || b >= n {
            continue;
        }
        let (a, b) = (NodeId(a), NodeId(b));
        assert_eq!(view.has_edge(a, b), g.has_edge(a, b), "{label}: edge {a:?}-{b:?}");
    }
    for &w in g.neighbors(hub) {
        assert!(view.has_edge(hub, w), "{label}: edge {hub:?}-{w:?}");
    }
}

proptest::proptest! {
    #[test]
    fn segments_roundtrip_across_all_views(
        family in 0u8..3,
        size_knob in 0usize..12,
        seed in 0u64..1_000,
    ) {
        let g = generate(family, size_knob, seed);

        let mut buf = Vec::new();
        let meta = write_segment(&g, &mut buf).unwrap();
        proptest::prop_assert_eq!(buf.len(), meta.file_len());
        let path = scratch("seg");
        std::fs::File::create(&path).unwrap().write_all(&buf).unwrap();
        let mapped = MmapGraph::open(&path).unwrap();
        proptest::prop_assert_eq!(mapped.meta(), &meta);
        proptest::prop_assert_eq!(&CompactCsr::from_view(&mapped).unwrap(), &g.compact());
        assert_view_matches(&mapped, &g, "mmap");
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_segments_error_instead_of_panicking(
        size_knob in 0usize..8,
        seed in 0u64..500,
        // Position knob mapped over the file length, so corruption lands in
        // the header, the arrays, the gap stream, and the checksum.
        pos_knob in 0usize..10_000,
        flip in 1u8..255,
    ) {
        let g = generate(2, size_knob, seed);
        let mut buf = Vec::new();
        write_segment(&g, &mut buf).unwrap();
        let pos = pos_knob % buf.len();
        buf[pos] ^= flip;
        let path = scratch("corrupt");
        std::fs::File::create(&path).unwrap().write_all(&buf).unwrap();
        proptest::prop_assert!(
            MmapGraph::open(&path).is_err(),
            "flip {flip:#04x} at byte {pos} of {} was accepted", buf.len()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_segments_error_instead_of_panicking(
        size_knob in 0usize..8,
        seed in 0u64..500,
        cut_knob in 0usize..10_000,
    ) {
        let g = generate(0, size_knob, seed);
        let mut buf = Vec::new();
        write_segment(&g, &mut buf).unwrap();
        let cut = cut_knob % buf.len();
        let path = scratch("cut");
        std::fs::File::create(&path).unwrap().write_all(&buf[..cut]).unwrap();
        proptest::prop_assert!(MmapGraph::open(&path).is_err(), "cut at {cut} was accepted");
        std::fs::remove_file(&path).unwrap();
    }
}
