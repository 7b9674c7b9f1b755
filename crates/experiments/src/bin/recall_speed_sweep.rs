//! Recall/speed sweep of the MinHash/LSH candidate-blocking parameters.
//!
//! Not a table from the paper: this bin maps the trade-off the blocking
//! layer (`snr-sketch` + `snr_core::blocking`) introduces. An exact run
//! scores every degree-eligible pair; a blocked run only scores the pairs
//! the LSH banding proposes, so it trades a bounded recall loss for a large
//! reduction in scored candidate pairs. The sweep runs the exact matcher
//! once as the reference, then one blocked run per `(bands, rows)` point
//! (sketch size `k = bands × rows`), all on the same R-MAT reconciliation
//! workload (edge survival 0.5, seed probability 0.10, T = 2, k = 1 — the
//! Table 2 setup).
//!
//! For every point it reports scored candidate pairs (and the reduction
//! factor vs exact), matcher wall time, good/bad new links, and recall
//! relative to the exact run's good links. Demo scale is RMAT-16; `--full`
//! is RMAT-18. `SNR_SWEEP_EXPONENT=14` overrides the exponent,
//! `SNR_SWEEP_GRID=8x2,16x2` overrides the `(bands, rows)` grid.
//!
//! Grid rows run with `lsh_mass_floor = 0` — *pure* blocking, every phase
//! through the sketch — so the reduction/recall numbers measure the banding
//! itself. A final `adaptive` row re-runs the best-recall grid point with
//! the default mass floor, which is what production wall time looks like:
//! cheap tail phases go exact (lossless there), only mass-heavy phases pay
//! the sketch.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::{CandidateSource, MatchingConfig, MatchingOutcome, UserMatching};
use snr_experiments::datasets::rmat_like;
use snr_experiments::ExperimentArgs;
use snr_metrics::{Evaluation, ExperimentRecord, MeasuredRow, TextTable};
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::{sample_seeds, RealizationPair};
use std::time::Instant;

/// The default `(bands, rows)` sweep: rows = 1 floods (high recall, weak
/// reduction), rows = 3 starves (strong reduction, recall risk); the
/// interesting regime is rows = 2 with the band count controlling where on
/// the collision S-curve the phase sits.
const DEFAULT_GRID: &[(usize, usize)] = &[(8, 1), (4, 2), (8, 2), (16, 2), (32, 2), (16, 3)];

fn grid_from_env() -> Option<Vec<(usize, usize)>> {
    let list = std::env::var("SNR_SWEEP_GRID").ok()?;
    Some(
        list.split(',')
            .map(|t| {
                let (b, r) = t.trim().split_once('x').expect("SNR_SWEEP_GRID entries are BxR");
                (b.parse().expect("bands must be usize"), r.parse().expect("rows must be usize"))
            })
            .collect(),
    )
}

fn timed(run: impl FnOnce() -> MatchingOutcome) -> (MatchingOutcome, f64) {
    let start = Instant::now();
    let outcome = run();
    (outcome, start.elapsed().as_secs_f64())
}

fn scored_pairs(outcome: &MatchingOutcome) -> usize {
    outcome.phases.iter().map(|p| p.scored_pairs).sum()
}

fn main() {
    let args = ExperimentArgs::from_env();
    snr_telemetry::init_from_env();
    let exp = std::env::var("SNR_SWEEP_EXPONENT")
        .ok()
        .map(|v| v.parse().expect("SNR_SWEEP_EXPONENT must be a u32"))
        .unwrap_or(if args.full { 18 } else { 16 });
    let grid = grid_from_env().unwrap_or_else(|| DEFAULT_GRID.to_vec());

    let g = rmat_like(exp, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ exp as u64);
    let pair = independent_deletion_symmetric(&g, 0.5, &mut rng).expect("valid probability");
    let (nodes, edges) = (g.node_count(), g.edge_count());
    drop(g);
    let mut seed_rng = StdRng::seed_from_u64(args.seed ^ 0x5EED_5EED);
    let seeds = sample_seeds(&pair, 0.10, &mut seed_rng).expect("valid link probability");
    let matchable = pair.matchable_nodes();
    let RealizationPair { g1, g2, truth } = pair;
    let (c1, c2) = (g1.compact(), g2.compact());
    drop((g1, g2));

    println!("Recall/speed sweep — LSH candidate blocking on RMAT-{exp}");
    println!("({nodes} nodes, {edges} edges per copy before deletion; s = 0.5, seed prob = 0.10, T = 2, k = 1)\n");

    let base =
        MatchingConfig::default().with_threshold(2).with_iterations(1).with_backend(args.backend);
    let evaluate = |outcome: &MatchingOutcome| {
        Evaluation::score_against(&truth, matchable, &outcome.links, outcome.links.seed_count())
    };

    let (exact, exact_secs) = timed(|| UserMatching::new(base.clone()).run(&c1, &c2, &seeds));
    let exact_eval = evaluate(&exact);
    let exact_scored = scored_pairs(&exact);

    let mut table = TextTable::new([
        "blocking",
        "sketch k",
        "scored pairs",
        "reduction",
        "time (s)",
        "speedup",
        "new good",
        "new bad",
        "recall vs exact",
    ]);
    let mut record =
        ExperimentRecord::new("recall_speed_sweep", "blocking trade-off (not in paper)")
            .parameter("exponent", exp.to_string())
            .parameter("backend", args.backend_label())
            .parameter("seed", args.seed.to_string());

    table.row([
        "exact".to_string(),
        "-".to_string(),
        exact_scored.to_string(),
        "1.0x".to_string(),
        format!("{exact_secs:.2}"),
        "1.00x".to_string(),
        exact_eval.new_good.to_string(),
        exact_eval.new_bad.to_string(),
        "1.000".to_string(),
    ]);
    record.push_row(
        MeasuredRow::new("exact")
            .value("scored_pairs", exact_scored as f64)
            .value("seconds", exact_secs)
            .value("new_good", exact_eval.new_good as f64)
            .value("new_bad", exact_eval.new_bad as f64)
            .value("recall_vs_exact", 1.0),
    );

    let mut best: Option<(usize, usize, usize)> = None; // (good, bands, rows)
    for &(bands, rows) in &grid {
        // Mass floor 0: pure blocking, so the row measures the banding, not
        // the adaptive gate.
        let cfg = base
            .clone()
            .with_candidates(CandidateSource::Lsh { bands, rows })
            .with_lsh_mass_floor(0);
        let (outcome, secs) = timed(|| UserMatching::new(cfg).run(&c1, &c2, &seeds));
        let eval = evaluate(&outcome);
        let scored = scored_pairs(&outcome);
        let reduction = exact_scored as f64 / scored.max(1) as f64;
        let recall = eval.new_good as f64 / (exact_eval.new_good as f64).max(1.0);
        if best.is_none_or(|(g, _, _)| eval.new_good > g) {
            best = Some((eval.new_good, bands, rows));
        }
        let label = format!("lsh:{bands}x{rows}");
        table.row([
            label.clone(),
            (bands * rows).to_string(),
            scored.to_string(),
            format!("{reduction:.1}x"),
            format!("{secs:.2}"),
            format!("{:.2}x", exact_secs / secs.max(1e-9)),
            eval.new_good.to_string(),
            eval.new_bad.to_string(),
            format!("{recall:.3}"),
        ]);
        record.push_row(
            MeasuredRow::new(label)
                .value("bands", bands as f64)
                .value("rows", rows as f64)
                .value("sketch_k", (bands * rows) as f64)
                .value("scored_pairs", scored as f64)
                .value("reduction", reduction)
                .value("seconds", secs)
                .value("new_good", eval.new_good as f64)
                .value("new_bad", eval.new_bad as f64)
                .value("recall_vs_exact", recall),
        );
    }

    // The best-recall grid point again, this time with the default adaptive
    // mass floor — the configuration table2_scalability's `--blocking=lsh`
    // actually runs.
    if let Some((_, bands, rows)) = best {
        let cfg = base.clone().with_candidates(CandidateSource::Lsh { bands, rows });
        let (outcome, secs) = timed(|| UserMatching::new(cfg).run(&c1, &c2, &seeds));
        let eval = evaluate(&outcome);
        let scored = scored_pairs(&outcome);
        let reduction = exact_scored as f64 / scored.max(1) as f64;
        let recall = eval.new_good as f64 / (exact_eval.new_good as f64).max(1.0);
        let label = format!("adaptive lsh:{bands}x{rows}");
        table.row([
            label.clone(),
            (bands * rows).to_string(),
            scored.to_string(),
            format!("{reduction:.1}x"),
            format!("{secs:.2}"),
            format!("{:.2}x", exact_secs / secs.max(1e-9)),
            eval.new_good.to_string(),
            eval.new_bad.to_string(),
            format!("{recall:.3}"),
        ]);
        record.push_row(
            MeasuredRow::new(label)
                .value("bands", bands as f64)
                .value("rows", rows as f64)
                .value("sketch_k", (bands * rows) as f64)
                .value("scored_pairs", scored as f64)
                .value("reduction", reduction)
                .value("seconds", secs)
                .value("new_good", eval.new_good as f64)
                .value("new_bad", eval.new_bad as f64)
                .value("recall_vs_exact", recall),
        );
    }

    println!("{table}");
    println!("Reading the sweep: more bands push collision probability up (recall -> 1, scored");
    println!("pairs -> exact); more rows sharpen the S-curve (fewer proposals, recall risk).");
    println!("The useful operating points hold >= 0.95 recall at >= 10x fewer scored pairs.");
    args.maybe_write_json(&record);
    args.maybe_write_trace();
}
