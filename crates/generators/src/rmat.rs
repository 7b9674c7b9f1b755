//! R-MAT recursive matrix generator (Chakrabarti, Zhan & Faloutsos, SDM 2004).
//!
//! The paper uses three R-MAT graphs (RMAT24/26/28, up to 121M nodes and
//! 8.5G edges) for the scalability experiment of Table 2. We reproduce the
//! generator with the same recursive quadrant-splitting process; the
//! experiment harness instantiates it at laptop-friendly scales (the table
//! reports *relative* running times, so the shape of the scaling curve is
//! what matters).

use crate::check_probability;
use rand::Rng;
use snr_graph::{CsrGraph, GraphBuilder, GraphError, NodeId};

/// R-MAT generator parameters.
#[derive(Clone, Debug)]
pub struct RmatConfig {
    /// log2 of the number of nodes; the graph has `2^scale` nodes.
    pub scale: u32,
    /// Average number of edges per node; the generator draws
    /// `edge_factor * 2^scale` (directed) edge samples before deduplication.
    pub edge_factor: usize,
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of recursing into the top-right quadrant.
    pub b: f64,
    /// Probability of recursing into the bottom-left quadrant.
    pub c: f64,
    // d = 1 - a - b - c
}

impl RmatConfig {
    /// The Graph500-style default parameters `(a, b, c, d) = (0.57, 0.19,
    /// 0.19, 0.05)` at the given scale and edge factor.
    pub fn graph500(scale: u32, edge_factor: usize) -> Self {
        RmatConfig { scale, edge_factor, a: 0.57, b: 0.19, c: 0.19 }
    }

    /// Probability of the bottom-right quadrant.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    fn validate(&self) -> Result<(), GraphError> {
        check_probability("a", self.a)?;
        check_probability("b", self.b)?;
        check_probability("c", self.c)?;
        let d = self.d();
        if d < -1e-9 {
            return Err(GraphError::InvalidParameter(format!(
                "a + b + c = {} exceeds 1",
                self.a + self.b + self.c
            )));
        }
        if self.scale == 0 || self.scale > 31 {
            return Err(GraphError::InvalidParameter(format!(
                "scale = {} must be in 1..=31",
                self.scale
            )));
        }
        if self.edge_factor == 0 {
            return Err(GraphError::InvalidParameter("edge_factor must be >= 1".into()));
        }
        Ok(())
    }
}

/// Generates an undirected R-MAT graph.
pub fn rmat<R: Rng + ?Sized>(config: &RmatConfig, rng: &mut R) -> Result<CsrGraph, GraphError> {
    config.validate()?;
    let n: u64 = 1u64 << config.scale;
    let samples = (n as usize).saturating_mul(config.edge_factor);
    let mut builder = GraphBuilder::undirected(n as usize);
    builder.reserve_edges(samples);

    // Noise added to the quadrant probabilities at each level, as in the
    // original paper, to avoid exact self-similarity artifacts.
    let noise = 0.05;
    for _ in 0..samples {
        let mut u: u64 = 0;
        let mut v: u64 = 0;
        let mut bit: u64 = n >> 1;
        while bit > 0 {
            let (mut a, mut b, mut c) = (config.a, config.b, config.c);
            // Symmetric multiplicative noise, renormalized.
            let jitter = |x: f64, r: &mut R| x * (1.0 - noise + 2.0 * noise * r.gen::<f64>());
            a = jitter(a, rng);
            b = jitter(b, rng);
            c = jitter(c, rng);
            let d = jitter(config.d().max(0.0), rng);
            let total = a + b + c + d;
            let roll: f64 = rng.gen::<f64>() * total;
            if roll < a {
                // top-left: no bits set
            } else if roll < a + b {
                v |= bit;
            } else if roll < a + b + c {
                u |= bit;
            } else {
                u |= bit;
                v |= bit;
            }
            bit >>= 1;
        }
        if u != v {
            builder.add_edge(NodeId(u as u32), NodeId(v as u32));
        }
    }
    builder.ensure_nodes(n as usize);
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn graph500_defaults_sum_to_one() {
        let cfg = RmatConfig::graph500(10, 16);
        assert!((cfg.a + cfg.b + cfg.c + cfg.d() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cfg = RmatConfig::graph500(0, 16);
        assert!(rmat(&cfg, &mut rng).is_err());
        cfg = RmatConfig::graph500(10, 0);
        assert!(rmat(&cfg, &mut rng).is_err());
        cfg = RmatConfig { a: 0.6, b: 0.3, c: 0.3, scale: 10, edge_factor: 4 };
        assert!(rmat(&cfg, &mut rng).is_err());
        cfg = RmatConfig { a: -0.1, b: 0.3, c: 0.3, scale: 10, edge_factor: 4 };
        assert!(rmat(&cfg, &mut rng).is_err());
    }

    #[test]
    fn node_count_is_power_of_two() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = rmat(&RmatConfig::graph500(12, 8), &mut rng).unwrap();
        assert_eq!(g.node_count(), 1 << 12);
    }

    #[test]
    fn edge_count_is_close_to_requested_samples() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = RmatConfig::graph500(13, 8);
        let g = rmat(&cfg, &mut rng).unwrap();
        let samples = (1usize << 13) * 8;
        // Self-loops and duplicates are removed, but skew means heavy nodes
        // attract repeats; require at least half of the samples survive.
        assert!(g.edge_count() > samples / 2, "edges = {}", g.edge_count());
        assert!(g.edge_count() <= samples);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = rmat(&RmatConfig::graph500(14, 16), &mut rng).unwrap();
        let stats = snr_graph::GraphStats::compute(&g);
        assert!(
            stats.max_degree as f64 > 20.0 * stats.avg_degree,
            "max {} avg {}",
            stats.max_degree,
            stats.avg_degree
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = RmatConfig::graph500(10, 4);
        let g1 = rmat(&cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let g2 = rmat(&cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(g1, g2);
    }
}
