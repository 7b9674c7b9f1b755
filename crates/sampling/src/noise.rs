//! Noise-edge extension.
//!
//! §3.1 of the paper notes that the model can be generalized so that "with
//! small probability, the two copies could have new 'noise' edges not
//! present in the original network". The theoretical analysis skips this
//! generalization; we implement it so the robustness experiments can measure
//! how quickly precision/recall degrade as spurious edges are added.

use crate::realization::RealizationPair;
use rand::Rng;
use snr_graph::{CsrGraph, GraphBuilder, GraphError, NodeId};

/// Adds `extra_fraction * edge_count` uniformly random spurious edges to a
/// single graph (self-loops and duplicates are skipped, so the realized
/// number can be slightly lower).
fn add_noise_edges<R: Rng + ?Sized>(
    g: &CsrGraph,
    extra_fraction: f64,
    rng: &mut R,
) -> Result<CsrGraph, GraphError> {
    if extra_fraction < 0.0 || extra_fraction.is_nan() {
        return Err(GraphError::InvalidParameter(format!(
            "extra_fraction = {extra_fraction} must be non-negative"
        )));
    }
    let n = g.node_count();
    if n < 2 {
        return Ok(g.clone());
    }
    let extra = (g.edge_count() as f64 * extra_fraction).round() as usize;
    let mut b = GraphBuilder::undirected(n);
    b.reserve_edges(g.edge_count() + extra);
    for e in g.edges() {
        b.add_edge(e.src, e.dst);
    }
    for _ in 0..extra {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            b.add_edge(NodeId(u), NodeId(v));
        }
    }
    b.ensure_nodes(n);
    Ok(b.build())
}

/// Applies `add_noise_edges` to both copies of a realization pair with the
/// same noise fraction (independent random choices per copy).
pub fn noisy_pair<R: Rng + ?Sized>(
    pair: &RealizationPair,
    extra_fraction: f64,
    rng: &mut R,
) -> Result<RealizationPair, GraphError> {
    Ok(RealizationPair {
        g1: add_noise_edges(&pair.g1, extra_fraction, rng)?,
        g2: add_noise_edges(&pair.g2, extra_fraction, rng)?,
        truth: pair.truth.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independent::independent_deletion_symmetric;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_generators::preferential_attachment;

    #[test]
    fn rejects_negative_fraction() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(add_noise_edges(&g, -0.5, &mut rng).is_err());
        assert!(add_noise_edges(&g, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn zero_fraction_is_identity() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = add_noise_edges(&g, 0.0, &mut rng).unwrap();
        assert_eq!(g, noisy);
    }

    #[test]
    fn noise_increases_edge_count_roughly_proportionally() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = preferential_attachment(2_000, 6, &mut rng).unwrap();
        let noisy = add_noise_edges(&g, 0.2, &mut rng).unwrap();
        let added = noisy.edge_count() - g.edge_count();
        let target = (g.edge_count() as f64 * 0.2) as usize;
        assert!(added as f64 > 0.9 * target as f64, "added {added}, target {target}");
        assert!(added <= target);
        // Original edges are all preserved.
        for e in g.edges() {
            assert!(noisy.has_edge(e.src, e.dst));
        }
    }

    #[test]
    fn tiny_graphs_are_returned_unchanged() {
        let g = CsrGraph::from_edges(1, &[]);
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = add_noise_edges(&g, 1.0, &mut rng).unwrap();
        assert_eq!(g, noisy);
    }

    #[test]
    fn noisy_pair_keeps_ground_truth() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = preferential_attachment(500, 5, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
        let noisy = noisy_pair(&pair, 0.3, &mut rng).unwrap();
        assert_eq!(noisy.truth, pair.truth);
        assert!(noisy.g1.edge_count() > pair.g1.edge_count());
        assert!(noisy.g2.edge_count() > pair.g2.edge_count());
    }
}
