//! The scorer of one distributed task, shared by the worker binary and the
//! coordinator's in-process degradation path.
//!
//! A task is a contiguous copy-1 row range of one phase. Scoring it means:
//! map the run's two segment files, build the phase's [`LinkCache`] once,
//! filter the range to its candidate rows and run [`score_phase_cached`]
//! over them into a fresh [`SelectSink`]. Both executors do exactly this
//! through [`ShardScorer`], which is why a range scored in-process is
//! bit-identical to the same range scored by a worker.

use crate::error::DriverError;
use snr_core::scoring::{score_phase_cached, LinkCache, SelectSink, SinkClaims};
use snr_core::Linking;
use snr_graph::{GraphError, GraphView, NodeId};
use snr_store::MmapGraph;

/// The phase a scorer is set up for.
struct PhaseState {
    phase: u32,
    min_degree: usize,
    threshold: u32,
    cache: LinkCache,
}

/// Mapped graph views and the current phase's [`LinkCache`]: everything
/// needed to score row ranges of one phase.
pub struct ShardScorer {
    g1: MmapGraph,
    g2: MmapGraph,
    phase: Option<PhaseState>,
}

impl ShardScorer {
    /// Maps the whole-graph segments at `g1` and `g2`. No phase is set yet.
    ///
    /// # Errors
    ///
    /// Fails if a segment cannot be opened, or with
    /// [`GraphError::InvalidParameter`] if the copy-2 segment is directed:
    /// the [`LinkCache`] build needs undirected adjacency.
    pub fn open(g1: &str, g2: &str) -> Result<ShardScorer, DriverError> {
        let (g1, g2) = (MmapGraph::open(g1)?, MmapGraph::open(g2)?);
        require_undirected(g2.is_directed())?;
        Ok(ShardScorer { g1, g2, phase: None })
    }

    /// The phase the scorer is set up for, if any.
    pub fn phase(&self) -> Option<u32> {
        self.phase.as_ref().map(|p| p.phase)
    }

    /// Whether a task of `phase` can be scored now: a protocol error unless
    /// the scorer is set up for exactly that phase.
    pub fn check_phase(&self, phase: u32) -> Result<(), DriverError> {
        current(&self.phase, phase).map(|_| ())
    }

    /// Sets the scorer up for `phase` over `links`: rebuilds the
    /// [`LinkCache`] and keeps the degree floor (the same on both sides)
    /// and threshold. Phase 0 means "no phase yet" and drops the cache.
    pub fn set_phase(&mut self, links: &Linking, phase: u32, min_degree: u32, threshold: u32) {
        self.phase = (phase != 0).then(|| {
            let min_degree = min_degree as usize;
            let cache = LinkCache::build(&self.g2, links, min_degree);
            PhaseState { phase, min_degree, threshold, cache }
        });
    }

    /// Scores rows `first_node..first_node + node_count` of `phase` against
    /// `links` (the links the phase was set up with) and returns the sink's
    /// claims. The rows scored are the range's candidates, exactly as
    /// `collect_candidates` picks them: degree at least the floor, and not
    /// linked. A task of any other phase, or rows past the end of copy 1,
    /// is a protocol error.
    pub fn score(
        &mut self,
        links: &Linking,
        phase: u32,
        first_node: u32,
        node_count: u32,
    ) -> Result<SinkClaims, DriverError> {
        let p = current(&self.phase, phase)?;
        let bad_rows = || {
            DriverError::Protocol(format!("Task rows {first_node}+{node_count} are outside copy 1"))
        };
        let end = first_node.checked_add(node_count).ok_or_else(bad_rows)?;
        if end as usize > self.g1.node_count() {
            return Err(bad_rows());
        }
        // The task reads exactly this row range; have the mapped view
        // prefetch it.
        self.g1.advise_rows(first_node..end);
        let rows: Vec<u32> = (first_node..end)
            .filter(|&u| {
                self.g1.degree(NodeId(u)) >= p.min_degree && !links.is_linked_g1(NodeId(u))
            })
            .collect();
        let n2 = self.g2.node_count();
        let sink = score_phase_cached(&self.g1, &p.cache, n2, &rows, false, || {
            SelectSink::new(n2, p.threshold)
        });
        Ok(sink.into_claims())
    }
}

/// Rejects a directed copy 2 with [`GraphError::InvalidParameter`]: the
/// [`LinkCache`] build may transpose copy-2 rows, which needs undirected
/// adjacency.
pub(crate) fn require_undirected(directed: bool) -> Result<(), DriverError> {
    if directed {
        return Err(DriverError::Graph(GraphError::InvalidParameter(
            "copy 2 is directed; the LinkCache build needs undirected adjacency".into(),
        )));
    }
    Ok(())
}

/// The state of `phase` if it is the one set up.
fn current(state: &Option<PhaseState>, phase: u32) -> Result<&PhaseState, DriverError> {
    let p = state.as_ref().ok_or_else(|| DriverError::Protocol("Task before Phase".into()))?;
    if p.phase != phase {
        return Err(DriverError::Protocol(format!(
            "Task for phase {phase} while phase {} is current",
            p.phase
        )));
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_core::scoring::{collect_candidates, fused_phase_on};
    use snr_generators::preferential_attachment;
    use snr_sampling::independent::independent_deletion_symmetric;
    use snr_sampling::sample_seeds;
    use snr_store::write_segment_file;

    #[test]
    fn scored_ranges_reassemble_the_fused_phase() {
        let mut rng = StdRng::seed_from_u64(91);
        let g = preferential_attachment(600, 6, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
        let seeds = sample_seeds(&pair, 0.1, &mut rng).unwrap();
        let (g1, g2) = (&pair.g1, &pair.g2);
        let links = Linking::with_seeds(g1.node_count(), g2.node_count(), &seeds);

        let dir = std::env::temp_dir().join(format!("snr-shard-scorer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (p1, p2) = (dir.join("g1.snrs"), dir.join("g2.snrs"));
        write_segment_file(g1, &p1).unwrap();
        write_segment_file(g2, &p2).unwrap();

        let n1 = g1.node_count() as u32;
        for (min_degree, threshold) in [(1usize, 1u32), (2, 2), (4, 3)] {
            let candidates = collect_candidates(g1, &links, min_degree);
            let expected =
                fused_phase_on(g1, g2, &links, &candidates, min_degree, threshold, false);
            let mut scorer = ShardScorer::open(p1.to_str().unwrap(), p2.to_str().unwrap()).unwrap();
            assert!(scorer.score(&links, 5, 0, n1).is_err(), "no phase set yet");
            let d = min_degree as u32;
            scorer.set_phase(&links, 5, d, threshold);
            assert!(scorer.score(&links, 6, 0, n1).is_err(), "stale phase");
            assert!(scorer.score(&links, 5, 1, n1).is_err(), "rows past copy 1");
            assert!(scorer.score(&links, 5, u32::MAX, 2).is_err(), "overflowing rows");
            // Uneven ranges tiling 0..n1.
            let mut sink = SelectSink::new(g2.node_count(), threshold);
            for first in (0..n1).step_by(97) {
                let count = 97.min(n1 - first);
                let claims = scorer.score(&links, 5, first, count).unwrap();
                sink.absorb_claims(&claims, first..first + count).unwrap();
            }
            assert_eq!(sink.finish(), expected, "d={d}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_directed_copy_2_segment_is_rejected_on_open() {
        let dir = std::env::temp_dir().join(format!("snr-shard-directed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = snr_graph::GraphBuilder::directed(4);
        b.add_edge(snr_graph::NodeId(0), snr_graph::NodeId(1));
        b.add_edge(snr_graph::NodeId(2), snr_graph::NodeId(3));
        let path = dir.join("directed.snrs");
        write_segment_file(&b.build(), &path).unwrap();
        let path = path.to_str().unwrap();
        match ShardScorer::open(path, path) {
            Err(DriverError::Graph(GraphError::InvalidParameter(why))) => {
                assert!(why.contains("directed"), "{why}")
            }
            Err(e) => panic!("wrong error {e}"),
            Ok(_) => panic!("a directed copy 2 was accepted"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
