//! Table 5 — "real world scenarios": DBLP, Gowalla, Wikipedia.
//!
//! The two copies are no longer random subsets of one edge set:
//!
//! * **DBLP** — co-authorships from even years vs odd years;
//! * **Gowalla** — co-located check-ins from even months vs odd months;
//! * **Wikipedia** — the French and German link graphs, two different but
//!   related networks.
//!
//! The paper's numbers (10% seeds): DBLP 68,641 good / 2,985 bad at T = 2;
//! Gowalla 7,931 / 155 at T = 2; Wikipedia 122,740 good / 14,373 bad at
//! T = 3 (an error rate of ~17.5% on new links, much higher than the clean
//! models, partly due to Wikipedia's own inter-language-link errors).

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::MatchingConfig;
use snr_experiments::datasets::{dblp_like, gowalla_like, wikipedia_like, Scale};
use snr_experiments::{run_user_matching, ExperimentArgs};
use snr_metrics::table::pct;
use snr_metrics::{ExperimentRecord, MeasuredRow, TextTable};
use snr_sampling::time_slice::odd_even_split;
use snr_sampling::RealizationPair;

/// Paper values: (dataset, threshold, good, bad) at 10% seeds.
const PAPER: &[(&str, u32, u64, u64)] = &[
    ("DBLP", 5, 42_797, 58),
    ("DBLP", 4, 53_026, 641),
    ("DBLP", 2, 68_641, 2_985),
    ("Gowalla", 5, 5_520, 29),
    ("Gowalla", 4, 5_917, 48),
    ("Gowalla", 2, 7_931, 155),
    ("Wikipedia", 5, 108_343, 9_441),
    ("Wikipedia", 3, 122_740, 14_373),
];

fn run_dataset(
    name: &str,
    pair: &RealizationPair,
    thresholds: &[u32],
    args: &ExperimentArgs,
    record: &mut ExperimentRecord,
) {
    println!("{name}: matchable nodes = {}", pair.matchable_nodes());
    let mut table = TextTable::new([
        "T",
        "new good",
        "new bad",
        "error rate",
        "recall",
        "paper good",
        "paper bad",
    ]);
    for &t in thresholds {
        let config = MatchingConfig::default().with_threshold(t).with_iterations(2);
        let run = run_user_matching(pair, 0.10, config, args.seed);
        let paper = PAPER.iter().find(|&&(d, pt, _, _)| d == name && pt == t);
        let (pg, pb) = paper.map(|&(_, _, g, b)| (g, b)).unwrap_or((0, 0));
        table.row([
            t.to_string(),
            run.new_good().to_string(),
            run.new_bad().to_string(),
            pct(run.eval.error_rate()),
            pct(run.eval.recall()),
            pg.to_string(),
            pb.to_string(),
        ]);
        record.push_row(
            MeasuredRow::new(format!("{name} T={t}"))
                .value("new_good", run.new_good() as f64)
                .value("new_bad", run.new_bad() as f64)
                .value("error_rate", run.eval.error_rate())
                .value("recall", run.eval.recall())
                .paper_value("good", pg as f64)
                .paper_value("bad", pb as f64),
        );
    }
    println!("{table}");
}

fn main() {
    let args = ExperimentArgs::from_env();
    snr_telemetry::init_from_env();
    let scale = Scale::from_full_flag(args.full);
    let mut record = ExperimentRecord::new("table5_real_world", "Table 5")
        .parameter("l", "0.10")
        .parameter("scale", format!("{scale:?}"))
        .parameter("seed", args.seed.to_string());

    println!("Table 5 — real-world scenario proxies (10% seed links)\n");

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7AB1_E005);
    let dblp = odd_even_split(&dblp_like(scale, args.seed), &mut rng);
    run_dataset("DBLP", &dblp, &[5, 4, 2], &args, &mut record);

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7AB1_E006);
    let gowalla = odd_even_split(&gowalla_like(scale, args.seed), &mut rng);
    run_dataset("Gowalla", &gowalla, &[5, 4, 2], &args, &mut record);

    let wikipedia = wikipedia_like(scale, args.seed);
    run_dataset("Wikipedia", &wikipedia, &[5, 3], &args, &mut record);

    println!("Paper's qualitative claims to check:");
    println!("  * DBLP/Gowalla: error rates of a few percent, far higher recall than the seed set alone;");
    println!("  * recall is concentrated on nodes of intersection degree > 5 (see figure4_degree_curves);");
    println!(
        "  * Wikipedia: the hardest setting — error rate in the tens of percent range, threshold 5"
    );
    println!("    trades recall for noticeably better precision.");
    args.maybe_write_json(&record);
    args.maybe_write_trace();
}
