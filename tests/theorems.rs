//! The paper's guarantees as checks, run inside the regime each lemma
//! assumes. Every bound comes from `snr_core::theory`, which cites its
//! lemma; none is tuned to this implementation's output.

use rand::rngs::StdRng;
use rand::SeedableRng;
use social_reconcile::core::theory::PreferentialAttachmentModel;
use social_reconcile::prelude::*;

/// Preferential attachment inside Lemma 12's regime (m·s² = 24.75 ≥ 22),
/// matched at the analysis threshold T = 9 for k = 2 iterations. Lemma 10:
/// no wrong link. Lemma 12: at least 97% of the nodes are identified.
#[test]
fn preferential_attachment_meets_lemmas_10_and_12() {
    let model = PreferentialAttachmentModel { n: 20_000, m: 44, s: 0.75, l: 0.1 };
    assert!(model.satisfies_lemma12());
    let floor = model.predicted_identified_fraction().expect("inside Lemma 12's regime");
    let config =
        MatchingConfig::default().with_threshold(model.analysis_threshold()).with_iterations(2);
    for seed in 1..=3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = preferential_attachment(model.n, model.m, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, model.s, &mut rng).unwrap();
        let seeds = sample_seeds(&pair, model.l, &mut rng).unwrap();
        let outcome = UserMatching::new(config.clone()).run(&pair.g1, &pair.g2, &seeds);
        let eval = Evaluation::score(&pair, &outcome.links, outcome.links.seed_count());
        assert_eq!(eval.bad, 0, "seed {seed}: Lemma 10 allows no wrong link");
        assert!(
            eval.recall() >= floor,
            "seed {seed}: recall {} below Lemma 12's {floor}",
            eval.recall()
        );
    }
}
