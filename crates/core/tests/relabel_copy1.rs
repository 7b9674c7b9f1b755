//! Whole runs are invariant under relabelling copy 1: renaming copy-1 nodes
//! (and the seeds with them) by a permutation must move every output link
//! by that permutation and leave every per-phase work count unchanged, on
//! every exact executor. Ties abstain and candidate rows are scored
//! independently, so no exact path may depend on copy-1 ids. LSH blocking
//! is exempt: MinHash hashes ids.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use snr_core::{Backend, MatchingConfig, MatchingOutcome, UserMatching};
use snr_generators::{gnp, preferential_attachment, rmat, RmatConfig};
use snr_graph::{CsrGraph, GraphView, NodeId};
use snr_mapreduce::Engine;
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::sample_seeds;

type Seeds = Vec<(NodeId, NodeId)>;

/// Links (sorted) and per-phase `(scored_pairs, new_links, total_links)`.
type Summary = (Vec<(u32, u32)>, Vec<(usize, usize, usize)>);

fn summary(outcome: &MatchingOutcome) -> Summary {
    let mut links: Vec<(u32, u32)> = outcome.links.pairs().map(|(u, v)| (u.0, v.0)).collect();
    links.sort_unstable();
    let phases =
        outcome.phases.iter().map(|p| (p.scored_pairs, p.new_links, p.total_links)).collect();
    (links, phases)
}

/// `UserMatching` on every exact executor: sequential, rayon inside a
/// 4-worker pool, and MapReduce with no spill budget and a budget of 0.
/// Asserts they agree and returns the common summary.
fn every_executor(g1: &CsrGraph, g2: &CsrGraph, seeds: &Seeds) -> Summary {
    let config = MatchingConfig::default().with_threshold(2).with_iterations(2);
    let run = |backend| UserMatching::new(config.clone().with_backend(backend));
    let expected = summary(&run(Backend::Sequential).run(g1, g2, seeds));
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let rayon = pool.install(|| run(Backend::Rayon).run(g1, g2, seeds));
    assert_eq!(summary(&rayon), expected, "rayon");
    for budget in [None, Some(0)] {
        let engine = Engine::new(2).with_chunk_size(16).with_spill_budget(budget);
        let matcher = run(Backend::MapReduce { workers: 2 });
        let outcome = matcher.try_run_on_engine(g1, g2, seeds, &engine).unwrap();
        assert_eq!(summary(&outcome), expected, "mapreduce budget {budget:?}");
    }
    expected
}

/// Copy 1 and the seeds renamed by `perm` (old id `u` becomes `perm[u]`).
fn relabel_copy1(g1: &CsrGraph, seeds: &Seeds, perm: &[u32]) -> (CsrGraph, Seeds) {
    let edges: Vec<(u32, u32)> = GraphView::nodes_iter(g1)
        .flat_map(|u| g1.neighbors(u).iter().map(move |&v| (u.0, v.0)))
        .filter(|&(u, v)| u < v)
        .map(|(u, v)| (perm[u as usize], perm[v as usize]))
        .collect();
    let seeds = seeds.iter().map(|&(u, v)| (NodeId(perm[u.index()]), v)).collect();
    (CsrGraph::from_edges(g1.node_count(), &edges), seeds)
}

/// A small workload of `family`: PA, ER and R-MAT copies with sampled
/// seeds, then a star and a graph of duplicated rows matched against
/// themselves.
fn workload(family: usize, rng: &mut StdRng) -> (CsrGraph, CsrGraph, Seeds) {
    let random = |g: CsrGraph, rng: &mut StdRng| {
        let pair = independent_deletion_symmetric(&g, 0.7, rng).unwrap();
        let seeds = sample_seeds(&pair, 0.2, rng).unwrap();
        (pair.g1, pair.g2, seeds)
    };
    let identical = |g: CsrGraph, rng: &mut StdRng| {
        let n = g.node_count() as u32;
        let seeds: Seeds =
            (0..n).filter(|_| rng.gen_bool(0.3)).map(|v| (NodeId(v), NodeId(v))).collect();
        (g.clone(), g, seeds)
    };
    match family {
        0 => random(preferential_attachment(150, 4, rng).unwrap(), rng),
        1 => random(gnp(150, 0.06, rng).unwrap(), rng),
        2 => random(rmat(&RmatConfig::graph500(7, 6), rng).unwrap(), rng),
        3 => {
            // Two stars sharing their leaves.
            let edges: Vec<(u32, u32)> = (2..40).flat_map(|v| [(0, v), (1, v)]).collect();
            identical(CsrGraph::from_edges(40, &edges), rng)
        }
        _ => {
            // Every node of a PA graph gets a twin with its row.
            let g = preferential_attachment(60, 3, rng).unwrap();
            let edges: Vec<(u32, u32)> = (0..60u32)
                .flat_map(|u| g.neighbors(NodeId(u)).iter().map(move |v| (u, v.0)))
                .flat_map(|(u, v)| [(u, v), (u + 60, v)])
                .collect();
            identical(CsrGraph::from_edges(120, &edges), rng)
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20))]
    #[test]
    fn whole_runs_are_invariant_under_relabelling_copy_1(
        family in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g1, g2, seeds) = workload(family, &mut rng);
        let mut perm: Vec<u32> = (0..g1.node_count() as u32).collect();
        perm.shuffle(&mut rng);
        let (g1p, seeds_p) = relabel_copy1(&g1, &seeds, &perm);

        let (links, phases) = every_executor(&g1, &g2, &seeds);
        // The sampled families must link something; the star and the twins
        // are mostly ties, which must abstain under every labelling.
        proptest::prop_assert!(
            family > 2 || phases.iter().any(|&(_, new_links, _)| new_links > 0),
            "family {} seed {} links nothing beyond the seeds", family, seed
        );
        let mut moved: Vec<(u32, u32)> = links.iter().map(|&(u, v)| (perm[u as usize], v)).collect();
        moved.sort_unstable();
        let got = every_executor(&g1p, &g2, &seeds_p);
        proptest::prop_assert_eq!(got, (moved, phases), "family {} seed {}", family, seed);
    }
}
