//! Figure 2 — preferential attachment with random edge deletion.
//!
//! The paper's first experiment: the underlying network is a PA graph with
//! 1M nodes and m = 20, the two copies keep each edge with probability
//! s = 0.5, and the algorithm is run with seed-link probabilities from 1% to
//! 20% and thresholds 1–5. The paper reports that precision is always 100%
//! and that recall grows with the seed probability and shrinks mildly with
//! the threshold.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::MatchingConfig;
use snr_experiments::{run_user_matching, ExperimentArgs};
use snr_generators::preferential_attachment;
use snr_metrics::table::pct;
use snr_metrics::{ExperimentRecord, MeasuredRow, TextTable};
use snr_sampling::independent::independent_deletion_symmetric;

fn main() {
    let args = ExperimentArgs::from_env();
    snr_telemetry::init_from_env();
    let n = if args.full { 1_000_000 } else { 10_000 };
    let m = 20;
    let s = 0.5;
    let seed_probs = [0.01, 0.05, 0.10, 0.20];
    let thresholds = [1u32, 2, 3, 4, 5];

    println!("Figure 2 — PA underlying graph (n = {n}, m = {m}), random deletion s = {s}");
    println!(
        "Paper: precision is 100% at every threshold; recall grows with the seed probability.\n"
    );

    let mut rng = StdRng::seed_from_u64(args.seed);
    let g = preferential_attachment(n, m, &mut rng).expect("valid PA parameters");
    let pair = independent_deletion_symmetric(&g, s, &mut rng).expect("valid probability");
    let matchable = pair.matchable_nodes();
    println!("matchable nodes (degree >= 1 in both copies): {matchable}\n");

    let mut table =
        TextTable::new(["seed prob", "T", "seeds", "new good", "new bad", "precision", "recall"]);
    let mut record = ExperimentRecord::new("figure2_pa_deletion", "Figure 2")
        .parameter("n", n.to_string())
        .parameter("m", m.to_string())
        .parameter("s", s.to_string())
        .parameter("seed", args.seed.to_string());

    for &l in &seed_probs {
        for &t in &thresholds {
            let config = MatchingConfig::default().with_threshold(t).with_iterations(2);
            let run = run_user_matching(&pair, l, config, args.seed);
            table.row([
                pct(l),
                t.to_string(),
                run.seed_count.to_string(),
                run.new_good().to_string(),
                run.new_bad().to_string(),
                pct(run.eval.precision()),
                pct(run.eval.recall()),
            ]);
            record.push_row(
                MeasuredRow::new(format!("l={} T={t}", pct(l)))
                    .value("new_good", run.new_good() as f64)
                    .value("new_bad", run.new_bad() as f64)
                    .value("precision", run.eval.precision())
                    .value("recall", run.eval.recall())
                    .paper_value("precision", 1.0),
            );
        }
    }

    println!("{table}");
    println!("Paper's qualitative claims to check:");
    println!("  * precision stays at (or extremely close to) 100% for every cell;");
    println!("  * recall increases with the seed probability;");
    println!("  * lowering the threshold increases recall without hurting precision.");
    args.maybe_write_json(&record);
    args.maybe_write_trace();
}
