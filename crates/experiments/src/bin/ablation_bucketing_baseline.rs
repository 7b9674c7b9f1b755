//! §5 ablations: degree bucketing and the common-neighbor baseline.
//!
//! Three comparisons from the last experimental subsection of the paper:
//!
//! 1. **Degree bucketing** — on the Facebook / random-deletion workload
//!    (s = 0.5, 5% seeds, T = 1), disabling the high-to-low degree sweep
//!    increases the number of bad matches by ~50% without materially more
//!    good matches.
//! 2. **Baseline under attack** — the plain common-neighbor algorithm keeps
//!    perfect precision but reconstructs less than half the matches
//!    User-Matching finds (22,346 vs 46,955 in the paper).
//! 3. **Baseline on Wikipedia** — the baseline's error rate balloons to
//!    27.9% (vs 17.3% for User-Matching) with much lower recall.
//!
//! Every record row also carries the matcher time of each run it reports
//! (`seconds_*` values), the cost side of each comparison.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::MatchingConfig;
use snr_experiments::datasets::{facebook_like, wikipedia_like, Scale};
use snr_experiments::{run_user_matching, ExperimentArgs};
use snr_metrics::table::pct;
use snr_metrics::{ExperimentRecord, MeasuredRow, TextTable};
use snr_sampling::attack::inject_attack;
use snr_sampling::independent::independent_deletion_symmetric;

fn main() {
    let args = ExperimentArgs::from_env();
    snr_telemetry::init_from_env();
    let scale = Scale::from_full_flag(args.full);
    let mut record = ExperimentRecord::new("ablation_bucketing_baseline", "Section 5, ablations")
        .parameter("scale", format!("{scale:?}"))
        .parameter("seed", args.seed.to_string());

    // ------------------------------------------------------------------ 1 --
    println!("Ablation 1 — degree bucketing (Facebook proxy, s = 0.5, 5% seeds, T = 1)\n");
    let fb = facebook_like(scale, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xAB1A_0001);
    let pair = independent_deletion_symmetric(&fb.graph, 0.5, &mut rng).expect("valid s");

    let with = run_user_matching(
        &pair,
        0.05,
        MatchingConfig::default().with_threshold(1).with_iterations(2),
        args.seed,
    );
    let without = run_user_matching(
        &pair,
        0.05,
        MatchingConfig::default().with_threshold(1).with_iterations(2).with_degree_bucketing(false),
        args.seed,
    );
    let mut t1 = TextTable::new(["variant", "new good", "new bad", "error rate"]);
    t1.row([
        "with degree bucketing".to_string(),
        with.new_good().to_string(),
        with.new_bad().to_string(),
        pct(with.eval.error_rate()),
    ]);
    t1.row([
        "without degree bucketing".to_string(),
        without.new_good().to_string(),
        without.new_bad().to_string(),
        pct(without.eval.error_rate()),
    ]);
    println!("{t1}");
    let increase = if with.new_bad() > 0 {
        without.new_bad() as f64 / with.new_bad() as f64
    } else {
        f64::INFINITY
    };
    println!("bad-match ratio without/with bucketing: {increase:.2} (paper: ~1.5x)\n");
    record.push_row(
        MeasuredRow::new("bucketing")
            .value("bad_with", with.new_bad() as f64)
            .value("bad_without", without.new_bad() as f64)
            .value("ratio", increase)
            .value("seconds_with", with.matcher_time.as_secs_f64())
            .value("seconds_without", without.matcher_time.as_secs_f64())
            .paper_value("ratio", 1.5),
    );

    // ------------------------------------------------------------------ 2 --
    println!(
        "Ablation 2 — baseline vs User-Matching under attack (s = 0.75, accept 0.5, 10% seeds)\n"
    );
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xAB1A_0002);
    let clean = independent_deletion_symmetric(&fb.graph, 0.75, &mut rng).expect("valid s");
    let attacked = inject_attack(&clean, 0.5, &mut rng).expect("valid accept prob");

    let um = run_user_matching(
        &attacked,
        0.10,
        MatchingConfig::default().with_threshold(2).with_iterations(2),
        args.seed,
    );
    let base = run_user_matching(&attacked, 0.10, MatchingConfig::baseline(), args.seed);
    // Count correctly aligned *real* users (matching the attacker's own two
    // fake accounts with each other is correct but not interesting here).
    let real_nodes = fb.graph.node_count();
    let real_good = |run: &snr_experiments::ExperimentRun| {
        run.outcome
            .links
            .pairs()
            .filter(|&(u1, u2)| u1.index() < real_nodes && attacked.truth.is_correct(u1, u2))
            .count()
    };
    let um_real = real_good(&um);
    let base_real = real_good(&base);
    let mut t2 = TextTable::new(["algorithm", "real users aligned", "bad", "precision"]);
    t2.row([
        "User-Matching (T=2)".to_string(),
        um_real.to_string(),
        um.eval.bad.to_string(),
        pct(um.eval.precision()),
    ]);
    t2.row([
        "common-neighbor baseline".to_string(),
        base_real.to_string(),
        base.eval.bad.to_string(),
        pct(base.eval.precision()),
    ]);
    println!("{t2}");
    println!(
        "baseline recovers {:.0}% of User-Matching's correct matches (paper: 22,346 / 46,955 = 48%)\n",
        100.0 * base_real as f64 / um_real.max(1) as f64
    );
    record.push_row(
        MeasuredRow::new("attack baseline")
            .value("um_good", um_real as f64)
            .value("baseline_good", base_real as f64)
            .value("seconds_um", um.matcher_time.as_secs_f64())
            .value("seconds_baseline", base.matcher_time.as_secs_f64())
            .paper_value("um_good", 46_955.0)
            .paper_value("baseline_good", 22_346.0),
    );

    // ------------------------------------------------------------------ 3 --
    println!("Ablation 3 — baseline vs User-Matching on the Wikipedia proxy (10% seeds)\n");
    let wiki = wikipedia_like(scale, args.seed);
    let um = run_user_matching(
        &wiki,
        0.10,
        MatchingConfig::default().with_threshold(3).with_iterations(2),
        args.seed,
    );
    let base = run_user_matching(&wiki, 0.10, MatchingConfig::baseline(), args.seed);
    let mut t3 = TextTable::new(["algorithm", "new good", "new bad", "error rate", "recall"]);
    t3.row([
        "User-Matching (T=3)".to_string(),
        um.new_good().to_string(),
        um.new_bad().to_string(),
        pct(um.eval.error_rate()),
        pct(um.eval.recall()),
    ]);
    t3.row([
        "common-neighbor baseline".to_string(),
        base.new_good().to_string(),
        base.new_bad().to_string(),
        pct(base.eval.error_rate()),
        pct(base.eval.recall()),
    ]);
    println!("{t3}");
    record.push_row(
        MeasuredRow::new("wikipedia baseline")
            .value("um_error_rate", um.eval.error_rate())
            .value("baseline_error_rate", base.eval.error_rate())
            .value("seconds_um", um.matcher_time.as_secs_f64())
            .value("seconds_baseline", base.matcher_time.as_secs_f64())
            .paper_value("um_error_rate", 0.173)
            .paper_value("baseline_error_rate", 0.279),
    );

    println!("Paper's qualitative claims to check:");
    println!(
        "  * removing degree bucketing inflates the error count (~1.5x) for the same good matches;"
    );
    println!(
        "  * under attack the baseline's recall collapses to roughly half of User-Matching's;"
    );
    println!("  * on the noisy Wikipedia-style workload the baseline's error rate is much higher.");
    args.maybe_write_json(&record);
    args.maybe_write_trace();
}
