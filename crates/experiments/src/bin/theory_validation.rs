//! Theory validation — Section 4 predictions vs simulation.
//!
//! Not a table or figure of the paper, but a direct check of the quantities
//! its proofs are built on:
//!
//! * the expected number of similarity witnesses of correct vs wrong pairs
//!   in the Erdős–Rényi warm-up (Theorem 1), and the resulting zero-error /
//!   near-total-recall behaviour (Theorems 1–4);
//! * the fraction of unidentifiable low-degree nodes in the preferential
//!   attachment model and Lemma 11's "all high-degree nodes are identified"
//!   claim.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::theory::{ErdosRenyiModel, PreferentialAttachmentModel};
use snr_core::witness::count_sequential;
use snr_core::{Linking, MatchingConfig};
use snr_experiments::{run_user_matching, ExperimentArgs};
use snr_generators::{gnp, preferential_attachment};
use snr_metrics::table::pct;
use snr_metrics::{ExperimentRecord, MeasuredRow, TextTable};
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::sample_seeds;

fn main() {
    let args = ExperimentArgs::from_env();
    args.init_telemetry();
    let mut record =
        ExperimentRecord::new("theory_validation", "Section 4 (Theorems 1-4, Lemmas 11-12)")
            .parameter("seed", args.seed.to_string());

    // ---------------------------------------------------------------- ER --
    let n = if args.full { 40_000 } else { 8_000 };
    let p = 4.0 * (n as f64).ln() / n as f64; // comfortably connected copies
    let s = 0.5;
    let l = 0.10;
    let model = ErdosRenyiModel { n, p, s, l };

    println!("Erdős–Rényi warm-up: n = {n}, p = {p:.5}, s = {s}, l = {l}");
    println!(
        "  predicted witnesses  correct pair: {:.2}   wrong pair: {:.4}   separation ≈ 1/p = {:.0}",
        model.expected_witnesses_correct(),
        model.expected_witnesses_wrong(),
        model.separation_ratio()
    );

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7EA0_0001);
    let g = gnp(n, p, &mut rng).expect("valid parameters");
    let pair = independent_deletion_symmetric(&g, s, &mut rng).expect("valid probability");
    let seeds = sample_seeds(&pair, l, &mut rng).expect("valid probability");
    let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);

    // Measure first-phase witnesses of correct pairs (sampled) vs the best
    // wrong pair score.
    let scores = count_sequential(&pair.g1, &pair.g2, &links, 1, 1);
    let mut correct_sum = 0.0;
    let mut correct_count = 0usize;
    let mut wrong_max = 0u32;
    for (&(u, v), &score) in &scores {
        if pair.truth.is_correct(snr_graph::NodeId(u), snr_graph::NodeId(v)) {
            correct_sum += score as f64;
            correct_count += 1;
        } else {
            wrong_max = wrong_max.max(score);
        }
    }
    let correct_avg = if correct_count == 0 { 0.0 } else { correct_sum / correct_count as f64 };
    println!(
        "  measured  average correct-pair witnesses: {correct_avg:.2}   maximum wrong-pair witnesses: {wrong_max}"
    );

    let er_threshold = model.sparse_regime_threshold();
    let run = run_user_matching(
        &pair,
        l,
        MatchingConfig::default().with_threshold(er_threshold).with_iterations(2),
        args.seed,
    );
    let er_precision = run.eval.precision();
    println!(
        "  full run at T = {er_threshold} (Lemma 3's threshold): precision {} recall {}\n",
        pct(run.eval.precision()),
        pct(run.eval.recall())
    );
    record.push_row(
        MeasuredRow::new("erdos-renyi")
            .value("predicted_correct_witnesses", model.expected_witnesses_correct())
            .value("measured_correct_witnesses", correct_avg)
            .value("max_wrong_witnesses", wrong_max as f64)
            .value("precision", run.eval.precision())
            .value("recall", run.eval.recall())
            .paper_value("precision", 1.0),
    );

    // ---------------------------------------------------------------- PA --
    let n = if args.full { 200_000 } else { 20_000 };
    let m = 10;
    let pa_model = PreferentialAttachmentModel { n, m, s, l };
    println!("Preferential attachment: n = {n}, m = {m}, s = {s}, l = {l}");
    println!(
        "  Lemma 11 high-degree threshold: {:.0}   Lemma 12 condition m·s² ≥ 22: {}",
        pa_model.high_degree_threshold(),
        pa_model.satisfies_lemma12()
    );
    println!(
        "  predicted unidentifiable fraction among degree-{m} nodes: {}",
        pct(pa_model.unidentifiable_fraction_for_degree(m))
    );

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7EA0_0002);
    let g = preferential_attachment(n, m, &mut rng).expect("valid parameters");
    let pair = independent_deletion_symmetric(&g, s, &mut rng).expect("valid probability");
    let pa_threshold = 2;
    let run = run_user_matching(
        &pair,
        l,
        MatchingConfig::default().with_threshold(pa_threshold).with_iterations(2),
        args.seed,
    );

    // Recall restricted to high-degree nodes (Lemma 11's claim).
    let threshold_degree = pa_model.high_degree_threshold().min(64.0) as usize;
    let mut high_total = 0usize;
    let mut high_found = 0usize;
    for (u1, u2) in pair.truth.correct_pairs() {
        if pair.g1.degree(u1) >= threshold_degree && pair.g2.degree(u2) >= 1 {
            high_total += 1;
            if run.outcome.links.linked_in_g2(u1) == Some(u2) {
                high_found += 1;
            }
        }
    }
    let high_recall = if high_total == 0 { 0.0 } else { high_found as f64 / high_total as f64 };

    let mut table = TextTable::new(["metric", "predicted", "measured"]);
    table.row([
        "overall precision".to_string(),
        format!("100% at T = {} (Lemma 10)", pa_model.analysis_threshold()),
        pct(run.eval.precision()),
    ]);
    table.row([
        format!("recall of nodes with copy degree ≥ {threshold_degree}"),
        "~100% (Lemma 11)".to_string(),
        pct(high_recall),
    ]);
    table.row([
        "overall recall".to_string(),
        "97% if m·s² ≥ 22 (Lemma 12)".to_string(),
        pct(run.eval.recall()),
    ]);
    println!("{table}");
    record.push_row(
        MeasuredRow::new("preferential-attachment")
            .value("precision", run.eval.precision())
            .value("recall", run.eval.recall())
            .value("high_degree_recall", high_recall)
            .paper_value("high_degree_recall", 1.0),
    );

    // Which runs the lemmas speak for: a run outside a lemma's regime
    // measures the algorithm there, but checks nothing the lemma claims.
    let regime = |inside: bool| if inside { "inside" } else { "outside" };
    println!("Regimes of the runs above:");
    println!(
        "  Erdős–Rényi: {} the sparse-regime analysis (Lemma 3's T = {er_threshold}, copies \
         connected w.h.p.) and {} Theorem 1's dense regime; measured precision {} against a \
         predicted 100%.",
        regime(model.copies_are_connected_whp()),
        regime(model.satisfies_dense_regime()),
        pct(er_precision)
    );
    let lemma12 = pa_model.satisfies_lemma12() && pa_threshold == pa_model.analysis_threshold();
    println!(
        "  Preferential attachment: {} Lemma 12's regime (m·s² = {:.1}, it needs ≥ 22; T = \
         {pa_threshold}, the analysis uses T = {}). Measured precision {} and recall {} are {}.",
        regime(lemma12),
        m as f64 * s * s,
        pa_model.analysis_threshold(),
        pct(run.eval.precision()),
        pct(run.eval.recall()),
        if lemma12 {
            "checks of the lemma's 100% and 97%"
        } else {
            "observations outside the lemma, not checks of its 100% and 97%"
        }
    );
    args.maybe_write_json(&record);
    args.maybe_write_trace();
}
