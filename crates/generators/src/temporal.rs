//! Temporal graphs: edge lists with timestamps.
//!
//! The paper's "real world scenarios" experiments (Table 5, Figure 4) build
//! the two copies not by random deletion but by *time slicing*: the DBLP
//! copies keep publications from even vs odd years, the Gowalla copies keep
//! co-check-ins from even vs odd months. Since those datasets are not
//! available offline, we generate temporal graphs with the same structure —
//! a growing network whose edges carry discrete timestamps — and let
//! `snr-sampling::time_slice` cut them the same way the paper cuts the real
//! data.

use rand::Rng;
use snr_graph::{CsrGraph, GraphBuilder, GraphError, NodeId};

/// A timestamped edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemporalEdge {
    /// First endpoint.
    pub src: NodeId,
    /// Second endpoint.
    pub dst: NodeId,
    /// Discrete timestamp (year, month, … — the unit is up to the caller).
    pub time: u32,
}

/// An undirected graph whose edges carry discrete timestamps. The same node
/// pair may appear multiple times with different timestamps (e.g. two
/// co-authors publishing in several years).
#[derive(Clone, Debug, PartialEq)]
pub struct TemporalGraph {
    node_count: usize,
    edges: Vec<TemporalEdge>,
}

impl TemporalGraph {
    /// Creates a temporal graph from parts.
    pub fn new(node_count: usize, edges: Vec<TemporalEdge>) -> Self {
        TemporalGraph { node_count, edges }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// All timestamped edges.
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// Number of timestamped edge records.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Largest timestamp present, or `None` for an edgeless graph.
    pub fn max_time(&self) -> Option<u32> {
        self.edges.iter().map(|e| e.time).max()
    }

    /// Materializes the static graph containing every edge whose timestamp
    /// satisfies `keep`.
    pub fn slice<F: Fn(u32) -> bool>(&self, keep: F) -> CsrGraph {
        let mut b = GraphBuilder::undirected(self.node_count);
        for e in &self.edges {
            if keep(e.time) {
                b.add_edge(e.src, e.dst);
            }
        }
        b.ensure_nodes(self.node_count);
        b.build()
    }

    /// Materializes the static graph with every edge regardless of time.
    pub fn flatten(&self) -> CsrGraph {
        self.slice(|_| true)
    }

    /// Generates a temporal preferential-attachment graph: nodes arrive in
    /// order, each bringing `m` degree-proportional edges; the edge timestamp
    /// is drawn uniformly from `0..periods` *per edge* (a co-authorship /
    /// co-check-in can happen in any period, repeatedly).
    ///
    /// `repeat_prob` is the probability that an edge is duplicated into a
    /// second, independently chosen period — real collaboration edges often
    /// recur, which is what makes time-sliced copies overlap at all.
    pub fn preferential_attachment<R: Rng + ?Sized>(
        n: usize,
        m: usize,
        periods: u32,
        repeat_prob: f64,
        rng: &mut R,
    ) -> Result<Self, GraphError> {
        if n == 0 || m == 0 {
            return Err(GraphError::InvalidParameter("temporal PA needs n >= 1 and m >= 1".into()));
        }
        if periods == 0 {
            return Err(GraphError::InvalidParameter("periods must be >= 1".into()));
        }
        crate::check_probability("repeat_prob", repeat_prob)?;

        let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
        endpoints.extend(std::iter::repeat_n(0, 2 * m));
        let mut edges = Vec::with_capacity(n * m);
        for v in 1..n as u32 {
            for _ in 0..m {
                let target = endpoints[rng.gen_range(0..endpoints.len())];
                endpoints.push(target);
                endpoints.push(v);
                if target == v {
                    continue;
                }
                let t = rng.gen_range(0..periods);
                edges.push(TemporalEdge { src: NodeId(v), dst: NodeId(target), time: t });
                if rng.gen::<f64>() < repeat_prob {
                    let t2 = rng.gen_range(0..periods);
                    edges.push(TemporalEdge { src: NodeId(v), dst: NodeId(target), time: t2 });
                }
            }
        }
        Ok(TemporalGraph { node_count: n, edges })
    }

    /// Generates a temporal *affiliation* graph: `papers` communities are
    /// created over `periods` time steps; each paper has a small author set
    /// drawn preferentially (prolific authors keep publishing), and all
    /// co-author pairs of a paper get an edge stamped with the paper's
    /// period. Crucially for the paper's odd/even-year experiment, research
    /// teams *recur*: with probability ~0.5 a paper reuses a previously seen
    /// team (possibly swapping one member), so long-running collaborations
    /// show up in many different periods — exactly what makes the
    /// time-sliced copies overlap in real DBLP data.
    pub fn affiliation<R: Rng + ?Sized>(
        authors: usize,
        papers: usize,
        authors_per_paper: usize,
        periods: u32,
        rng: &mut R,
    ) -> Result<Self, GraphError> {
        if authors == 0 || papers == 0 || authors_per_paper < 2 {
            return Err(GraphError::InvalidParameter(
                "temporal affiliation needs authors >= 1, papers >= 1, authors_per_paper >= 2"
                    .into(),
            ));
        }
        if periods == 0 {
            return Err(GraphError::InvalidParameter("periods must be >= 1".into()));
        }
        // Preferential author sampling: every authorship appends the author
        // to `stubs`; papers pick a mix of preferential and uniform authors
        // so that newcomers keep entering the network.
        let mut stubs: Vec<u32> = Vec::with_capacity(papers * authors_per_paper);
        let mut teams: Vec<Vec<u32>> = Vec::new();
        let mut edges = Vec::with_capacity(papers * authors_per_paper * authors_per_paper / 2);
        for p in 0..papers {
            // Timestamps are assigned round-robin so that every period
            // contains both old and new teams.
            let time = (p as u32) % periods;
            let team: Vec<u32> = if !teams.is_empty() && rng.gen::<f64>() < 0.55 {
                // Recurring collaboration: reuse an existing team, sometimes
                // rotating one member in.
                let mut team = teams[rng.gen_range(0..teams.len())].clone();
                if rng.gen::<f64>() < 0.3 {
                    let idx = rng.gen_range(0..team.len());
                    let replacement = rng.gen_range(0..authors as u32);
                    if !team.contains(&replacement) {
                        team[idx] = replacement;
                    }
                }
                team
            } else {
                let mut team: Vec<u32> = Vec::with_capacity(authors_per_paper);
                let mut guard = 0;
                while team.len() < authors_per_paper && guard < 20 * authors_per_paper {
                    guard += 1;
                    let a = if stubs.is_empty() || rng.gen::<f64>() < 0.3 {
                        rng.gen_range(0..authors as u32)
                    } else {
                        stubs[rng.gen_range(0..stubs.len())]
                    };
                    if !team.contains(&a) {
                        team.push(a);
                    }
                }
                team
            };
            for &a in &team {
                stubs.push(a);
            }
            teams.push(team.clone());
            for i in 0..team.len() {
                for j in (i + 1)..team.len() {
                    edges.push(TemporalEdge { src: NodeId(team[i]), dst: NodeId(team[j]), time });
                }
            }
        }
        Ok(TemporalGraph { node_count: authors, edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn slice_partitions_edges_by_time() {
        let edges = vec![
            TemporalEdge { src: NodeId(0), dst: NodeId(1), time: 0 },
            TemporalEdge { src: NodeId(1), dst: NodeId(2), time: 1 },
            TemporalEdge { src: NodeId(2), dst: NodeId(3), time: 2 },
        ];
        let tg = TemporalGraph::new(4, edges);
        let even = tg.slice(|t| t % 2 == 0);
        let odd = tg.slice(|t| t % 2 == 1);
        assert_eq!(even.edge_count(), 2);
        assert_eq!(odd.edge_count(), 1);
        assert_eq!(tg.flatten().edge_count(), 3);
        assert_eq!(tg.max_time(), Some(2));
    }

    #[test]
    fn temporal_pa_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(TemporalGraph::preferential_attachment(0, 3, 4, 0.2, &mut rng).is_err());
        assert!(TemporalGraph::preferential_attachment(10, 0, 4, 0.2, &mut rng).is_err());
        assert!(TemporalGraph::preferential_attachment(10, 3, 0, 0.2, &mut rng).is_err());
        assert!(TemporalGraph::preferential_attachment(10, 3, 4, 1.2, &mut rng).is_err());
    }

    #[test]
    fn temporal_pa_covers_all_periods() {
        let mut rng = StdRng::seed_from_u64(1);
        let tg = TemporalGraph::preferential_attachment(2_000, 5, 6, 0.3, &mut rng).unwrap();
        let mut seen = vec![false; 6];
        for e in tg.edges() {
            assert!(e.time < 6);
            seen[e.time as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
        // Repeats mean the temporal edge count exceeds the flattened count.
        assert!(tg.edge_count() > tg.flatten().edge_count());
    }

    #[test]
    fn temporal_affiliation_produces_cliques_per_paper() {
        let mut rng = StdRng::seed_from_u64(2);
        let tg = TemporalGraph::affiliation(500, 800, 4, 10, &mut rng).unwrap();
        assert_eq!(tg.node_count(), 500);
        // 800 papers * C(4,2)=6 pairs, minus teams that fell short.
        assert!(tg.edge_count() > 3_000, "edge count {}", tg.edge_count());
        assert!(tg.max_time().unwrap() < 10);
    }

    #[test]
    fn temporal_affiliation_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(TemporalGraph::affiliation(0, 10, 3, 5, &mut rng).is_err());
        assert!(TemporalGraph::affiliation(10, 0, 3, 5, &mut rng).is_err());
        assert!(TemporalGraph::affiliation(10, 10, 1, 5, &mut rng).is_err());
        assert!(TemporalGraph::affiliation(10, 10, 3, 0, &mut rng).is_err());
    }

    #[test]
    fn slices_of_disjoint_periods_share_nodes_not_edges() {
        let mut rng = StdRng::seed_from_u64(4);
        let tg = TemporalGraph::affiliation(300, 600, 3, 2, &mut rng).unwrap();
        let a = tg.slice(|t| t == 0);
        let b = tg.slice(|t| t == 1);
        assert_eq!(a.node_count(), b.node_count());
        // Both slices are substantial.
        assert!(a.edge_count() > 100);
        assert!(b.edge_count() > 100);
    }
}
