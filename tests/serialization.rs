//! Serialization round-trips across crate boundaries: graphs written as
//! edge lists and as store segments and read back for reconciliation,
//! experiment records, and the dataset proxies' determinism guarantees.

use rand::rngs::StdRng;
use rand::SeedableRng;
use social_reconcile::experiments::datasets::{facebook_like, Scale};
use social_reconcile::graph::io::{read_edge_list, write_edge_list};
use social_reconcile::metrics::{ExperimentRecord, MeasuredRow};
use social_reconcile::prelude::*;
use social_reconcile::store::write_segment_file;

#[test]
fn graph_edge_list_roundtrip_through_a_file() {
    let mut rng = StdRng::seed_from_u64(41);
    let g = preferential_attachment(500, 6, &mut rng).unwrap();

    let dir = std::env::temp_dir().join("snr-serialization-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.edges");

    let mut buffer = Vec::new();
    write_edge_list(&g, &mut buffer).unwrap();
    std::fs::write(&path, &buffer).unwrap();

    let data = std::fs::read(&path).unwrap();
    let g2 = read_edge_list(data.as_slice()).unwrap();
    assert_eq!(g, g2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn graph_binary_roundtrip_preserves_reconciliation_results() {
    let mut rng = StdRng::seed_from_u64(42);
    let g = preferential_attachment(800, 8, &mut rng).unwrap();
    let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.10, &mut rng).unwrap();

    // Write both copies as segment files, map them back, and check the
    // matcher produces the identical link set on the round-tripped graphs.
    let path = std::env::temp_dir().join(format!("snr-serialization-{}.snrs", std::process::id()));
    let roundtrip = |g: &CsrGraph| {
        write_segment_file(g, &path).unwrap();
        let mapped = MmapGraph::open(&path).unwrap();
        CompactCsr::from_view(&mapped).unwrap().to_csr()
    };
    let g1 = roundtrip(&pair.g1);
    let g2 = roundtrip(&pair.g2);
    assert_eq!(g1, pair.g1);
    assert_eq!(g2, pair.g2);
    std::fs::remove_file(&path).unwrap();

    let direct = UserMatching::with_defaults().run(&pair.g1, &pair.g2, &seeds);
    let roundtripped = UserMatching::with_defaults().run(&g1, &g2, &seeds);
    assert_eq!(direct.links, roundtripped.links);
}

#[test]
fn experiment_records_roundtrip_as_json() {
    let mut record = ExperimentRecord::new("integration", "Table 3")
        .parameter("s", "0.5")
        .parameter("dataset", "facebook-proxy");
    record.push_row(
        MeasuredRow::new("T=2 l=10%")
            .value("good", 1234.0)
            .value("bad", 5.0)
            .paper_value("good", 38752.0)
            .paper_value("bad", 213.0),
    );
    let json = record.to_json();
    let parsed = ExperimentRecord::from_json(&json).unwrap();
    assert_eq!(record, parsed);
    assert!(json.contains("facebook-proxy"));
}

#[test]
fn dataset_proxies_are_reproducible_across_calls() {
    let a = facebook_like(Scale::Demo, 7);
    let b = facebook_like(Scale::Demo, 7);
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.paper_nodes, 63_731);
}
