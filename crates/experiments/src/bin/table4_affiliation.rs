//! Table 4 — Affiliation Networks with correlated community deletion.
//!
//! The underlying network is an affiliation network (users connected when
//! they share an interest). Each copy deletes every interest independently
//! with probability 0.25 and keeps only the edges generated by surviving
//! interests — a highly correlated deletion process. The paper reports
//! perfect precision and near-total recall (54,770 / 55,863 / 55,942 good
//! matches at thresholds 4 / 3 / 2 with 10% seeds, zero bad matches).

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::MatchingConfig;
use snr_experiments::datasets::{affiliation_like, Scale};
use snr_experiments::{run_user_matching, ExperimentArgs};
use snr_metrics::table::pct;
use snr_metrics::{ExperimentRecord, MeasuredRow, TextTable};
use snr_sampling::community::community_deletion;

/// Paper values: (threshold, good, bad) at 10% seed probability.
const PAPER: &[(u32, u64, u64)] = &[(4, 54_770, 0), (3, 55_863, 0), (2, 55_942, 0)];

fn main() {
    let args = ExperimentArgs::from_env();
    snr_telemetry::init_from_env();
    let scale = Scale::from_full_flag(args.full);
    let delete_prob = 0.25;
    let l = 0.10;

    println!("Table 4 — affiliation network, correlated per-community deletion (delete prob = {delete_prob})\n");

    let net = affiliation_like(scale, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0AFF_0001);
    let pair = community_deletion(&net, delete_prob, &mut rng).expect("valid probability");
    println!(
        "users = {}, communities = {}, matchable after deletion = {}\n",
        net.user_count(),
        net.community_count(),
        pair.matchable_nodes()
    );

    let mut table = TextTable::new([
        "seed prob",
        "T",
        "new good",
        "new bad",
        "precision",
        "recall",
        "paper good",
        "paper bad",
    ]);
    let mut record = ExperimentRecord::new("table4_affiliation", "Table 4")
        .parameter("delete_prob", delete_prob.to_string())
        .parameter("l", l.to_string())
        .parameter("scale", format!("{scale:?}"))
        .parameter("seed", args.seed.to_string());

    for &(t, paper_good, paper_bad) in PAPER {
        let config = MatchingConfig::default().with_threshold(t).with_iterations(2);
        let run = run_user_matching(&pair, l, config, args.seed);
        table.row([
            pct(l),
            t.to_string(),
            run.new_good().to_string(),
            run.new_bad().to_string(),
            pct(run.eval.precision()),
            pct(run.eval.recall()),
            paper_good.to_string(),
            paper_bad.to_string(),
        ]);
        record.push_row(
            MeasuredRow::new(format!("T={t}"))
                .value("new_good", run.new_good() as f64)
                .value("new_bad", run.new_bad() as f64)
                .value("precision", run.eval.precision())
                .value("recall", run.eval.recall())
                .paper_value("good", paper_good as f64)
                .paper_value("bad", paper_bad as f64),
        );
    }

    println!("{table}");
    println!("Paper's qualitative claims to check:");
    println!(
        "  * precision stays at (or extremely close to) 100% despite the correlated deletions;"
    );
    println!("  * recall is high and grows slightly as the threshold drops from 4 to 2.");
    args.maybe_write_json(&record);
    args.maybe_write_trace();
}
