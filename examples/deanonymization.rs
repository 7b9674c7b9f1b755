//! Network de-anonymization (the Narayanan–Shmatikov setting).
//!
//! ```text
//! cargo run --release --example deanonymization
//! ```
//!
//! The paper positions User-Matching as "the first really scalable algorithm
//! for network de-anonymization with theoretical guarantees". This example
//! plays that scenario: an "anonymized" release of a social graph (node ids
//! scrambled, 70% of edges present) is attacked with an auxiliary crawl of
//! the same underlying network (60% of edges) plus a handful of users whose
//! identity the attacker already knows (high-degree public figures). It then
//! compares User-Matching against the plain common-neighbor baseline, which
//! mirrors the comparison the paper draws with prior de-anonymization work.

use rand::rngs::StdRng;
use rand::SeedableRng;
use social_reconcile::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(13_071_690);

    println!("building the hidden social network…");
    let network = preferential_attachment(15_000, 12, &mut rng).expect("valid parameters");

    // The released (anonymized) graph and the attacker's auxiliary graph are
    // two partial observations of the same network.
    let pair = independent_deletion(&network, 0.7, 0.6, &mut rng).expect("valid probabilities");
    println!(
        "anonymized release: {} edges | auxiliary crawl: {} edges | overlapping users: {}",
        pair.g1.edge_count(),
        pair.g2.edge_count(),
        pair.matchable_nodes()
    );

    // The attacker starts from a small set of already-identified public
    // figures — the paper notes (and Narayanan & Shmatikov did the same)
    // that high-degree nodes are the natural seeds.
    let seeds = sample_seeds_degree_biased(&pair, 0.02, &mut rng).expect("valid probability");
    println!("known identities (seeds): {}\n", seeds.len());

    let um_outcome =
        UserMatching::new(MatchingConfig::default().with_threshold(2).with_iterations(2))
            .run(&pair.g1, &pair.g2, &seeds);
    let um = Evaluation::score(&pair, &um_outcome.links, um_outcome.links.seed_count());

    let base_outcome =
        UserMatching::new(MatchingConfig::baseline()).run(&pair.g1, &pair.g2, &seeds);
    let base = Evaluation::score(&pair, &base_outcome.links, base_outcome.links.seed_count());

    println!("                         re-identified   precision   share of users exposed");
    for (name, eval) in [("User-Matching", &um), ("common-neighbor baseline", &base)] {
        println!(
            "{name:<26} {:>10}   {:>8.2}%   {:>8.2}%",
            eval.new_good,
            100.0 * eval.precision(),
            100.0 * eval.recall()
        );
    }

    println!("\nContext from the paper: Narayanan & Shmatikov report 72% precision for their");
    println!("de-anonymization heuristic; User-Matching reaches a far lower error rate while");
    println!("scaling to networks their O((E1+E2)·Δ1·Δ2) scoring function cannot handle.");
}
