//! The straightforward common-neighbor baseline of §5.
//!
//! The paper compares User-Matching against "a simple algorithm that just
//! counts the number of common neighbors": no degree bucketing, a single
//! pass, and every pair above a (low) witness threshold is linked when it is
//! the mutual best. The paper reports two failure modes, both reproduced by
//! the ablation experiment:
//!
//! * under attack the baseline keeps perfect precision but recovers less
//!   than half as many nodes as User-Matching;
//! * on the Wikipedia-style workload its error rate balloons (27.9% vs
//!   17.3% in the paper).

use crate::linking::Linking;
use crate::scoring::{collect_candidates, fused_phase_on};
use crate::stats::{MatchingOutcome, PhaseStats};
use serde::{Deserialize, Serialize};
use snr_graph::{GraphView, NodeId};
use std::time::Instant;

/// Configuration of the baseline matcher.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Minimum number of common (linked) neighbors required to link a pair.
    /// The paper's straw-man uses 1.
    pub threshold: u32,
    /// Number of passes; each pass recounts witnesses with the links found
    /// so far. The paper's baseline is a single pass.
    pub passes: u32,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig { threshold: 1, passes: 1 }
    }
}

/// The common-neighbor baseline matcher.
#[derive(Clone, Debug, Default)]
pub struct BaselineMatching {
    config: BaselineConfig,
}

impl BaselineMatching {
    /// Creates a baseline matcher with the given configuration.
    pub fn new(config: BaselineConfig) -> Self {
        BaselineMatching { config }
    }

    /// Creates a baseline matcher with the paper's straw-man settings
    /// (threshold 1, one pass).
    pub fn with_defaults() -> Self {
        BaselineMatching::default()
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// Runs the baseline on a pair of graphs (any [`GraphView`]
    /// representations) and a seed set. Each pass is one exact phase of the
    /// fused kernel over every node of degree at least 1 — the same
    /// selection as `mutual_best_pairs(&count_sequential(g1, g2, links, 1,
    /// 1), threshold)`.
    pub fn run<G1, G2>(&self, g1: &G1, g2: &G2, seeds: &[(NodeId, NodeId)]) -> MatchingOutcome
    where
        G1: GraphView + Sync,
        G2: GraphView + Sync,
    {
        let start = Instant::now();
        let mut links = Linking::with_seeds(g1.node_count(), g2.node_count(), seeds);
        let mut phases = Vec::new();
        for pass in 1..=self.config.passes.max(1) {
            let phase_start = Instant::now();
            let candidates = collect_candidates(g1, &links, 1);
            let (scored_pairs, pairs) =
                fused_phase_on(g1, g2, &links, &candidates, 1, self.config.threshold, false);
            let new_links = links.insert_batch(&pairs);
            phases.push(PhaseStats {
                iteration: pass,
                bucket: 0,
                scored_pairs,
                new_links,
                total_links: links.len(),
                duration: phase_start.elapsed(),
            });
        }
        MatchingOutcome { links, phases, total_duration: start.elapsed() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::mutual_best_pairs;
    use crate::witness::count_sequential;
    use crate::{MatchingConfig, UserMatching};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_generators::preferential_attachment;
    use snr_sampling::attack::inject_attack;
    use snr_sampling::independent::independent_deletion_symmetric;
    use snr_sampling::sample_seeds;

    #[test]
    fn baseline_links_obvious_pairs() {
        let g = snr_graph::CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let seeds = vec![(NodeId(1), NodeId(1)), (NodeId(2), NodeId(2))];
        let outcome = BaselineMatching::with_defaults().run(&g, &g.clone(), &seeds);
        assert_eq!(outcome.links.linked_in_g2(NodeId(0)), Some(NodeId(0)));
    }

    #[test]
    fn multiple_passes_grow_the_link_set() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = preferential_attachment(1_500, 8, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
        let seeds = sample_seeds(&pair, 0.05, &mut rng).unwrap();
        let one = BaselineMatching::new(BaselineConfig { passes: 1, ..Default::default() })
            .run(&pair.g1, &pair.g2, &seeds);
        let two = BaselineMatching::new(BaselineConfig { passes: 2, ..Default::default() })
            .run(&pair.g1, &pair.g2, &seeds);
        assert!(two.links.len() >= one.links.len());
        assert_eq!(one.phases.len(), 1);
        assert_eq!(two.phases.len(), 2);
    }

    #[test]
    fn each_pass_equals_the_oracle_selection() {
        // Two passes on a PA workload: every pass's links and scored-pair
        // count must be the oracle table's, recomputed from the links the
        // previous passes left behind.
        let mut rng = StdRng::seed_from_u64(12);
        let g = preferential_attachment(1_000, 6, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
        let seeds = sample_seeds(&pair, 0.08, &mut rng).unwrap();
        let threshold = 1;
        let mut links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
        for passes in 1..=2u32 {
            let table = count_sequential(&pair.g1, &pair.g2, &links, 1, 1);
            let new_links = links.insert_batch(&mutual_best_pairs(&table, threshold));
            let outcome = BaselineMatching::new(BaselineConfig { threshold, passes })
                .run(&pair.g1, &pair.g2, &seeds);
            let last = outcome.phases.last().expect("one phase per pass");
            assert_eq!(outcome.phases.len(), passes as usize);
            assert_eq!(last.scored_pairs, table.len(), "scored pairs of pass {passes}");
            assert_eq!(last.new_links, new_links, "new links of pass {passes}");
            assert!(new_links > 0, "pass {passes} must link something");
            assert_eq!(outcome.links, links, "links after pass {passes}");
        }
    }

    #[test]
    fn baseline_under_attack_recovers_fewer_nodes_than_user_matching() {
        // Reproduces the shape of the paper's ablation: under the attack
        // model the baseline's recall is much lower than User-Matching's.
        let mut rng = StdRng::seed_from_u64(6);
        let g = preferential_attachment(1_200, 10, &mut rng).unwrap();
        let clean = independent_deletion_symmetric(&g, 0.75, &mut rng).unwrap();
        let attacked = inject_attack(&clean, 0.5, &mut rng).unwrap();
        let seeds = sample_seeds(&attacked, 0.10, &mut rng).unwrap();

        let um = UserMatching::new(MatchingConfig::default().with_threshold(2).with_iterations(2))
            .run(&attacked.g1, &attacked.g2, &seeds);
        let base = BaselineMatching::with_defaults().run(&attacked.g1, &attacked.g2, &seeds);

        let correct = |o: &MatchingOutcome| {
            o.links.pairs().filter(|&(a, b)| attacked.truth.is_correct(a, b)).count()
        };
        let um_good = correct(&um);
        let base_good = correct(&base);
        assert!(
            base_good * 10 < um_good * 9,
            "baseline ({base_good}) should clearly trail User-Matching ({um_good}) under attack"
        );
    }

    #[test]
    fn default_config_matches_the_papers_strawman() {
        let c = BaselineConfig::default();
        assert_eq!(c.threshold, 1);
        assert_eq!(c.passes, 1);
    }
}
