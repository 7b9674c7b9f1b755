//! Figure 3 — copies generated by the Independent Cascade Model.
//!
//! Instead of deleting edges independently, each copy of the Facebook graph
//! is the subgraph adopted by an independent cascade with adoption
//! probability p = 0.05. The paper reports *zero* errors and near-complete
//! recall of the nodes present in both copies (16,273 of 16,533 at a 5%
//! seed probability).

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::MatchingConfig;
use snr_experiments::datasets::{facebook_like, Scale};
use snr_experiments::{run_user_matching, ExperimentArgs};
use snr_metrics::table::pct;
use snr_metrics::{ExperimentRecord, MeasuredRow, TextTable};
use snr_sampling::cascade::cascade_realization;

fn main() {
    let args = ExperimentArgs::from_env();
    snr_telemetry::init_from_env();
    let scale = Scale::from_full_flag(args.full);
    // The paper uses p = 0.05 on the real Facebook graph (average degree
    // ~48, so the cascade's branching factor is ~2.4). The demo proxy has
    // half that average degree; p = 0.10 preserves the branching factor,
    // which is what determines how much of the network the cascades reach.
    let p = if args.full { 0.05 } else { 0.10 };
    let seed_probs = [0.05, 0.10, 0.20];
    let thresholds = [2u32, 3, 4, 5];

    println!("Figure 3 — Facebook proxy, copies grown by independent cascades (p = {p})");
    println!("Paper: precision is always 100%; at 5% seeds, 16,273 of 16,533 co-present nodes are identified.\n");

    let fb = facebook_like(scale, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xCA5C_ADE5);
    let pair = cascade_realization(&fb.graph, p, &mut rng).expect("valid probability");
    let matchable = pair.matchable_nodes();
    println!("nodes present (degree >= 1) in both cascade copies: {matchable}\n");

    let mut table = TextTable::new([
        "seed prob",
        "T",
        "new good",
        "new bad",
        "precision",
        "recall of co-present",
    ]);
    let mut record = ExperimentRecord::new("figure3_cascade", "Figure 3")
        .parameter("p", p.to_string())
        .parameter("scale", format!("{scale:?}"))
        .parameter("seed", args.seed.to_string());

    for &l in &seed_probs {
        for &t in &thresholds {
            let config = MatchingConfig::default().with_threshold(t).with_iterations(2);
            let run = run_user_matching(&pair, l, config, args.seed);
            // The paper's recall denominator is the set of nodes present in
            // both cascade copies; seeds can also fall on nodes outside that
            // set (isolated in a copy), so divide the co-present discoveries
            // rather than using the generic recall.
            let co_present_recall = run.new_good().min(matchable) as f64 / matchable.max(1) as f64;
            table.row([
                pct(l),
                t.to_string(),
                run.new_good().to_string(),
                run.new_bad().to_string(),
                pct(run.eval.precision()),
                pct(co_present_recall),
            ]);
            record.push_row(
                MeasuredRow::new(format!("l={} T={t}", pct(l)))
                    .value("new_good", run.new_good() as f64)
                    .value("new_bad", run.new_bad() as f64)
                    .value("precision", run.eval.precision())
                    .value("recall_co_present", co_present_recall)
                    .paper_value("precision", 1.0),
            );
        }
    }

    println!("{table}");
    println!("Paper's qualitative claims to check:");
    println!("  * precision is essentially perfect under the cascade model (better than random deletion);");
    println!("  * recall of co-present nodes approaches 100% even at the 5% seed probability.");
    args.maybe_write_json(&record);
    args.maybe_write_trace();
}
