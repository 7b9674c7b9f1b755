//! Property tests for the arena scoring engine: on random PA/ER graph
//! pairs, across thresholds and graph representations (CSR, compact, and
//! mixed), the fused score+select pass must equal the brute-force oracle
//! pipeline `count_brute_force` → `mutual_best_pairs`, and its scored-pair
//! count must equal the oracle table's size.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::matching::mutual_best_pairs;
use snr_core::scoring::{collect_candidates, fused_phase_on};
use snr_core::witness::count_brute_force;
use snr_core::Linking;
use snr_generators::{gnp, preferential_attachment};
use snr_graph::{CompactCsr, CsrGraph, GraphView};
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::sample_seeds;

/// One random reconciliation workload: two partial copies and seed links.
fn workload(use_pa: bool, n: usize, density: u32, seed: u64) -> (CsrGraph, CsrGraph, Linking) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = if use_pa {
        preferential_attachment(n.max(10), 2 + density as usize, &mut rng).unwrap()
    } else {
        let p = (2.0 + density as f64) * 2.0 / n as f64;
        gnp(n, p.min(0.9), &mut rng).unwrap()
    };
    let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.15, &mut rng).unwrap();
    let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
    (pair.g1, pair.g2, links)
}

/// Asserts the fused pass agrees with the brute-force oracle on one
/// (G1, G2) representation combination.
fn assert_matches_oracle<G1, G2>(
    g1: &G1,
    g2: &G2,
    links: &Linking,
    min_deg: usize,
    threshold: u32,
    label: &str,
) where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let oracle = count_brute_force(g1, g2, links, min_deg, min_deg);
    let expected_pairs = mutual_best_pairs(&oracle, threshold);
    let candidates = collect_candidates(g1, links, min_deg);
    for parallel in [false, true] {
        let (scored, pairs) =
            fused_phase_on(g1, g2, links, &candidates, min_deg, threshold, parallel);
        assert_eq!(
            scored,
            oracle.len(),
            "scored_pairs vs oracle table size ({label}, parallel={parallel})"
        );
        assert_eq!(pairs, expected_pairs, "fused selection ({label}, parallel={parallel})");
    }
}

proptest::proptest! {
    #[test]
    fn fused_score_select_matches_brute_force_oracle(
        n in 40usize..140,
        density in 0u32..4,
        min_deg in 1usize..4,
        threshold_pick in 0usize..5,
        seed in 0u64..10_000,
    ) {
        // 0 is clamped to 1; u32::MAX leaves every row below the threshold.
        let threshold = [0, 1, 2, 3, u32::MAX][threshold_pick];
        // Alternate PA and ER topologies deterministically with the seed.
        let (g1, g2, links) = workload(seed % 2 == 0, n, density, seed);
        assert_matches_oracle(&g1, &g2, &links, min_deg, threshold, "csr");
    }

    #[test]
    fn fused_pass_is_representation_independent(
        n in 40usize..120,
        density in 0u32..4,
        threshold in 1u32..4,
        seed in 0u64..10_000,
    ) {
        let (g1, g2, links) = workload(seed % 2 == 1, n, density, seed);
        let (c1, c2): (CompactCsr, CompactCsr) = (g1.compact(), g2.compact());
        assert_matches_oracle(&c1, &c2, &links, 2, threshold, "compact");
        assert_matches_oracle(&g1, &c2, &links, 2, threshold, "csr+compact");
        assert_matches_oracle(&c1, &g2, &links, 2, threshold, "compact+csr");
    }
}

/// A fixed-size smoke version of the property, so a failure here is easy to
/// reproduce without the proptest driver.
#[test]
fn fused_matches_oracle_on_a_fixed_workload() {
    let (g1, g2, links) = workload(true, 200, 3, 77);
    for threshold in [1, 2, 3, u32::MAX] {
        assert_matches_oracle(&g1, &g2, &links, 2, threshold, "fixed");
    }
}
