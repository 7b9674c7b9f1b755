//! Synthetic proxies for the paper's datasets (Table 1).
//!
//! The paper evaluates on 11 datasets; none of the real ones can be
//! downloaded in this offline environment, so each is replaced by a
//! generator-based proxy of matching scale and structure (each proxy's docs
//! below say what it preserves). Every proxy comes in two sizes:
//!
//! * **demo** — a few thousand nodes, runs in seconds, used by default and
//!   by the integration tests;
//! * **paper** — the node/edge counts of Table 1 (except the largest R-MAT
//!   instances, which are scaled to what fits a single machine), selected
//!   with `--full`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_generators::{
    preferential_attachment, rmat, AffiliationConfig, AffiliationNetwork, RmatConfig, TemporalGraph,
};
use snr_graph::{CsrGraph, GraphStats};

/// Which size variant of a dataset proxy to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-friendly size for quick runs and CI.
    Demo,
    /// The node counts reported in Table 1 of the paper (where feasible).
    Paper,
}

impl Scale {
    /// Chooses between the demo and paper values.
    pub fn pick<T>(self, demo: T, paper: T) -> T {
        match self {
            Scale::Demo => demo,
            Scale::Paper => paper,
        }
    }

    /// Builds the scale from the `--full` flag.
    pub fn from_full_flag(full: bool) -> Self {
        if full {
            Scale::Paper
        } else {
            Scale::Demo
        }
    }
}

/// A named static-graph dataset proxy plus its Table 1 reference statistics.
pub struct DatasetProxy {
    /// Dataset name as it appears in Table 1.
    pub name: &'static str,
    /// The generated proxy graph.
    pub graph: CsrGraph,
    /// Node count reported in Table 1 for the real dataset.
    pub paper_nodes: usize,
    /// Edge count reported in Table 1 for the real dataset.
    pub paper_edges: usize,
}

impl DatasetProxy {
    /// Computes statistics of the proxy graph.
    pub fn stats(&self) -> GraphStats {
        GraphStats::compute(&self.graph)
    }
}

/// Facebook (New Orleans WOSN'09 snapshot) proxy: a preferential-attachment
/// graph matching the dataset's 63,731 nodes and ~1.5M edges.
pub fn facebook_like(scale: Scale, seed: u64) -> DatasetProxy {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE_B00C);
    let n = scale.pick(8_000, 63_731);
    let m = 12; // average degree ≈ 2m ≈ 24, close to the snapshot's 2·1.5M/63.7k ≈ 48 at paper scale
    let m = scale.pick(m, 24);
    DatasetProxy {
        name: "Facebook",
        graph: preferential_attachment(n, m, &mut rng).expect("valid PA parameters"),
        paper_nodes: 63_731,
        paper_edges: 1_545_686,
    }
}

/// Enron email network proxy: much sparser (average degree ≈ 20).
pub fn enron_like(scale: Scale, seed: u64) -> DatasetProxy {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00E0_E0E0);
    let n = scale.pick(6_000, 36_692);
    let m = 10;
    DatasetProxy {
        name: "Enron",
        graph: preferential_attachment(n, m, &mut rng).expect("valid PA parameters"),
        paper_nodes: 36_692,
        paper_edges: 367_662,
    }
}

/// Synthetic PA dataset of Table 1 ("PA", 1M nodes, 20M edges).
pub fn pa_dataset(scale: Scale, seed: u64) -> DatasetProxy {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0000_00FA_17E5);
    let n = scale.pick(20_000, 1_000_000);
    DatasetProxy {
        name: "PA",
        graph: preferential_attachment(n, 20, &mut rng).expect("valid PA parameters"),
        paper_nodes: 1_000_000,
        paper_edges: 20_000_000,
    }
}

/// Affiliation-network dataset proxy (Table 1 "AN": 60,026 nodes, 8.07M
/// edges). Returns the full affiliation structure because the Table 4
/// experiment needs the community memberships.
pub fn affiliation_like(scale: Scale, seed: u64) -> AffiliationNetwork {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAFF1_11A7);
    let cfg = AffiliationConfig {
        users: scale.pick(6_000, 60_026),
        communities: scale.pick(500, 5_000),
        memberships_per_user: 4,
        fold_cap: scale.pick(30, 67),
    };
    AffiliationNetwork::generate(&cfg, &mut rng).expect("valid affiliation parameters")
}

/// R-MAT proxy at the given scale exponent (Table 1 uses 24/26/28; the
/// scalability experiment uses three consecutive exponents).
pub fn rmat_like(scale_exponent: u32, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0000_0B3A_7700 ^ scale_exponent as u64);
    let cfg = RmatConfig::graph500(scale_exponent, 16);
    rmat(&cfg, &mut rng).expect("valid R-MAT parameters")
}

/// DBLP co-authorship proxy: a temporal affiliation graph whose "papers"
/// carry year stamps; the Table 5 experiment splits even vs odd years.
pub fn dblp_like(scale: Scale, seed: u64) -> TemporalGraph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0000_DB1D_B1B0);
    let authors = scale.pick(8_000, 400_000);
    let papers = scale.pick(20_000, 1_200_000);
    TemporalGraph::affiliation(authors, papers, 3, 20, &mut rng)
        .expect("valid temporal affiliation parameters")
}

/// Gowalla proxy: a temporal PA graph whose edges carry month stamps and
/// recur with high probability — check-in friendships in the real dataset
/// are dominated by people who repeatedly co-check-in, which is what makes
/// the odd/even-month copies overlap at all.
pub fn gowalla_like(scale: Scale, seed: u64) -> TemporalGraph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0000_0607_A11A);
    let n = scale.pick(6_000, 196_591);
    TemporalGraph::preferential_attachment(n, 6, 12, 0.65, &mut rng)
        .expect("valid temporal PA parameters")
}

/// French/German Wikipedia proxy: two *different but related* graphs, not
/// subsets of a common edge set. We take one underlying PA graph ("the
/// shared encyclopedic structure"), give the French copy a high edge
/// survival rate and the German copy a lower one (the German Wikipedia is
/// roughly 65% of the French one's size in Table 1), and then add
/// language-specific noise edges to each copy independently. The result is
/// the regime the paper describes for this experiment: markedly lower
/// precision than the clean-model experiments.
pub fn wikipedia_like(scale: Scale, seed: u64) -> snr_sampling::RealizationPair {
    use snr_sampling::{independent::independent_deletion, noise::noisy_pair};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0000_A117_1C1E);
    let n = scale.pick(10_000, 200_000);
    let g = preferential_attachment(n, 14, &mut rng).expect("valid PA parameters");
    let pair = independent_deletion(&g, 0.85, 0.55, &mut rng).expect("valid probabilities");
    noisy_pair(&pair, 0.15, &mut rng).expect("valid noise fraction")
}

/// Reference rows of Table 1 (name, nodes, edges) for the datasets the
/// proxies stand in for.
pub fn table1_reference() -> Vec<(&'static str, u64, u64)> {
    vec![
        ("PA", 1_000_000, 20_000_000),
        ("RMAT24", 8_871_645, 520_757_402),
        ("RMAT26", 32_803_311, 2_103_850_648),
        ("RMAT28", 121_228_778, 8_472_338_793),
        ("AN", 60_026, 8_069_546),
        ("Facebook", 63_731, 1_545_686),
        ("DBLP", 4_388_906, 2_778_941),
        ("Enron", 36_692, 367_662),
        ("Gowalla", 196_591, 950_327),
        ("French Wikipedia", 4_362_736, 141_311_515),
        ("German Wikipedia", 2_851_252, 81_467_497),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_selects_variant() {
        assert_eq!(Scale::Demo.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
        assert_eq!(Scale::from_full_flag(true), Scale::Paper);
        assert_eq!(Scale::from_full_flag(false), Scale::Demo);
    }

    #[test]
    fn facebook_demo_proxy_has_expected_shape() {
        let ds = facebook_like(Scale::Demo, 1);
        let stats = ds.stats();
        assert_eq!(stats.nodes, 8_000);
        assert!(stats.avg_degree > 15.0 && stats.avg_degree < 30.0, "avg {}", stats.avg_degree);
        assert!(stats.max_degree > 100);
        assert_eq!(ds.paper_nodes, 63_731);
    }

    #[test]
    fn enron_demo_proxy_is_sparser_than_facebook() {
        let fb = facebook_like(Scale::Demo, 1).stats();
        let en = enron_like(Scale::Demo, 1).stats();
        assert!(en.avg_degree < fb.avg_degree);
    }

    #[test]
    fn dblp_and_gowalla_proxies_are_temporal() {
        let dblp = dblp_like(Scale::Demo, 1);
        assert!(dblp.max_time().unwrap() < 20);
        assert!(dblp.edge_count() > 10_000);
        let gowalla = gowalla_like(Scale::Demo, 1);
        assert!(gowalla.max_time().unwrap() < 12);
    }

    #[test]
    fn affiliation_proxy_exposes_communities() {
        let an = affiliation_like(Scale::Demo, 1);
        assert_eq!(an.user_count(), 6_000);
        assert!(an.community_count() >= 500);
        assert!(!an.edge_communities.is_empty());
    }

    #[test]
    fn proxies_are_deterministic_in_the_seed() {
        let a = facebook_like(Scale::Demo, 9).graph;
        let b = facebook_like(Scale::Demo, 9).graph;
        let c = facebook_like(Scale::Demo, 10).graph;
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn table1_reference_matches_paper_row_count() {
        assert_eq!(table1_reference().len(), 11);
    }

    #[test]
    fn wikipedia_proxy_copies_are_asymmetric() {
        let pair = wikipedia_like(Scale::Demo, 1);
        // The "German" copy is substantially smaller than the "French" one.
        assert!(pair.g2.edge_count() * 10 < pair.g1.edge_count() * 9);
        assert!(pair.matchable_nodes() > 1_000);
    }
}
