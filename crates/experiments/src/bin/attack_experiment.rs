//! §5 "Robustness to attack".
//!
//! The strongest adversarial setting in the paper: the Facebook graph is
//! copied with edge survival 0.75, then in each copy every user gets a
//! malicious mirror node that befriends each of the victim's neighbors with
//! probability 0.5. With 10% seeds and threshold 2, the paper aligns 46,955
//! users correctly with only 114 errors (out of 63,731 possible matches).

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::MatchingConfig;
use snr_experiments::datasets::{facebook_like, Scale};
use snr_experiments::{run_user_matching, ExperimentArgs};
use snr_metrics::table::pct;
use snr_metrics::{ExperimentRecord, MeasuredRow, TextTable};
use snr_sampling::attack::inject_attack;
use snr_sampling::independent::independent_deletion_symmetric;

fn main() {
    let args = ExperimentArgs::from_env();
    snr_telemetry::init_from_env();
    let scale = Scale::from_full_flag(args.full);
    let survival = 0.75;
    let accept_prob = 0.5;
    let l = 0.10;

    println!("Attack experiment — Facebook proxy, s = {survival}, fake-friend accept prob = {accept_prob}, 10% seeds");
    println!("Paper: 46,955 correct and 114 wrong matches out of 63,731 possible.\n");

    let fb = facebook_like(scale, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xA77A_CC00);
    let clean = independent_deletion_symmetric(&fb.graph, survival, &mut rng).expect("valid s");
    let attacked = inject_attack(&clean, accept_prob, &mut rng).expect("valid accept prob");
    let possible = fb.graph.node_count();

    let mut table = TextTable::new([
        "T",
        "real users aligned",
        "wrong matches",
        "precision",
        "aligned / possible",
    ]);
    let mut record = ExperimentRecord::new("attack_experiment", "Section 5, robustness to attack")
        .parameter("survival", survival.to_string())
        .parameter("accept_prob", accept_prob.to_string())
        .parameter("l", l.to_string())
        .parameter("scale", format!("{scale:?}"))
        .parameter("seed", args.seed.to_string());

    for t in [2u32, 3, 4] {
        let config = MatchingConfig::default().with_threshold(t).with_iterations(2);
        let run = run_user_matching(&attacked, l, config, args.seed);
        // The paper counts correctly aligned *real* users and wrong matches;
        // aligning the attacker's own two fake accounts is neither.
        let mut real_good = 0usize;
        let mut wrong = 0usize;
        for (u1, u2) in run.outcome.links.pairs() {
            if attacked.truth.is_correct(u1, u2) {
                if u1.index() < possible {
                    real_good += 1;
                }
            } else {
                wrong += 1;
            }
        }
        table.row([
            t.to_string(),
            real_good.to_string(),
            wrong.to_string(),
            pct(run.eval.precision()),
            format!("{real_good} / {possible}"),
        ]);
        record.push_row(
            MeasuredRow::new(format!("T={t}"))
                .value("real_good", real_good as f64)
                .value("wrong", wrong as f64)
                .value("possible", possible as f64)
                .value("precision", run.eval.precision())
                .paper_value("real_good", 46_955.0)
                .paper_value("wrong", 114.0)
                .paper_value("possible", 63_731.0),
        );
    }

    println!("{table}");
    println!("Paper's qualitative claims to check (paper reports the T = 2 row):");
    println!("  * a large majority of the real users are still aligned correctly;");
    println!("  * the number of wrong matches stays tiny relative to the correct ones, i.e. the");
    println!("    mirror-node attack fails to poison the matching.");
    args.maybe_write_json(&record);
    args.maybe_write_trace();
}
