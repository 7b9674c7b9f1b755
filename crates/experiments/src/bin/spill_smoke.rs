//! Smoke check for the out-of-core (spill-to-disk) MapReduce shuffle.
//!
//! ```text
//! cargo run --release -p snr-experiments --bin spill_smoke [--full]
//! ```
//!
//! Runs the fused MapReduce witness phase on an R-MAT workload (scale 13 by
//! default, scale 16 with `--full`) three ways and fails (non-zero exit)
//! unless every check holds:
//!
//! 1. **Bit-identity under spilling** — with a small memory budget the
//!    round must write spill runs (`spilled_runs > 0`) and still produce
//!    exactly the links and scored-pair count of the unbudgeted in-memory
//!    round, with identical non-spill shuffle counters.
//! 2. **Telemetry** — the budgeted run's JSONL trace must schema-validate
//!    and carry the `spilled_bytes`/`spilled_runs` counters, one `spill`
//!    event per flushed run, and at least one `spill_merge` span.
//! 3. **Fault tolerance** — with a `spill_io` fault injected, the round
//!    must fail with a clean `EngineError` (no panic, no wrong links) and
//!    leave no scratch directory behind.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::scoring::{collect_candidates, mapreduce_fused_phase_on};
use snr_core::Linking;
use snr_experiments::ExperimentArgs;
use snr_mapreduce::{Engine, EngineError};
use std::time::Instant;

fn main() {
    let args = ExperimentArgs::from_env();
    let scale: u32 = if args.full { 16 } else { 13 };
    let (min_deg, threshold) = (2usize, 2u32);
    // Small enough that every phase-1 map task overflows it on RMAT-13.
    let budget = args.spill_budget.unwrap_or(4096);

    // The mr_shuffle_smoke workload shape: graph500 R-MAT, edge survival
    // 0.7, 2% seed links (deterministic in --seed).
    let mut rng = StdRng::seed_from_u64(args.seed ^ scale as u64);
    let g = snr_generators::rmat(&snr_generators::RmatConfig::graph500(scale, 16), &mut rng)
        .expect("valid R-MAT parameters");
    let pair = snr_sampling::independent::independent_deletion_symmetric(&g, 0.7, &mut rng)
        .expect("valid probability");
    drop(g);
    let seeds = snr_sampling::sample_seeds(&pair, 0.02, &mut rng).expect("valid probability");
    let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
    let (g1, g2) = (&pair.g1, &pair.g2);
    println!(
        "RMAT-{scale}: {} nodes, {}/{} edges, {} seed links, budget {budget} B",
        g1.node_count(),
        g1.edge_count(),
        g2.edge_count(),
        links.len()
    );

    let scratch = std::env::temp_dir().join(format!("snr-spill-smoke-{}", std::process::id()));
    let candidates = collect_candidates(g1, &links, min_deg);
    let phase = |engine: &Engine| {
        mapreduce_fused_phase_on(engine, g1, g2, &links, candidates.clone(), min_deg, threshold)
    };

    // Reference: the unbudgeted in-memory round.
    let in_memory = Engine::new(4);
    let expected = phase(&in_memory).expect("in-memory round cannot spill");
    let mem_round = in_memory.stats().per_round[0].clone();

    // 1. Budgeted run, traced: must spill and still match bit-for-bit.
    let trace_path = scratch.with_extension("jsonl");
    snr_telemetry::reset();
    snr_telemetry::set_trace_path(trace_path.clone());
    snr_telemetry::enable();
    let engine = Engine::new(4).with_spill_budget(Some(budget)).with_scratch_dir(&scratch);
    let start = Instant::now();
    let got = phase(&engine).expect("budgeted round failed");
    let secs = start.elapsed().as_secs_f64();
    snr_telemetry::write_trace_if_configured().expect("trace write failed");
    snr_telemetry::disable();

    assert_eq!(got, expected, "spilled round must produce bit-identical scored pairs and links");
    let round = engine.stats().per_round[0].clone();
    assert!(round.spilled_runs > 0, "budget {budget} B did not force any spill on RMAT-{scale}");
    assert!(round.spilled_bytes > 0 && round.spilled_bytes <= round.shuffled_bytes);
    assert_eq!(round.shuffled_records, mem_round.shuffled_records, "shuffle counters must agree");
    assert_eq!(round.shuffled_bytes, mem_round.shuffled_bytes, "shuffle counters must agree");
    assert!(!scratch.exists(), "scratch dir must be removed after the round");
    println!(
        "spilled round: {secs:.3}s, {} runs / {} B spilled of {} B shuffled, merge {} us",
        round.spilled_runs, round.spilled_bytes, round.shuffled_bytes, round.spill_merge_micros
    );

    // 2. The trace carries the spill telemetry, schema-valid.
    let text = std::fs::read_to_string(&trace_path).expect("trace unreadable");
    let summary = snr_telemetry::validate_jsonl(&text).expect("trace failed schema validation");
    let counter = |name: &str| {
        summary
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("counter {name} missing from trace"))
            .1
    };
    assert_eq!(counter("spilled_bytes"), round.spilled_bytes as u64);
    assert_eq!(counter("spilled_runs"), round.spilled_runs as u64);
    let spill_events = summary.events.iter().filter(|e| e.name == "spill").count();
    assert_eq!(spill_events, round.spilled_runs, "one spill event per flushed run");
    let merge_spans = summary.spans.iter().filter(|s| s.name == "spill_merge").count();
    assert!(merge_spans > 0, "no spill_merge span in the trace");
    let _ = std::fs::remove_file(&trace_path);
    println!("trace: schema-valid, {spill_events} spill events, {merge_spans} spill_merge spans");

    // 3. Injected spill I/O fault: clean error, clean scratch.
    let faulted = Engine::new(4)
        .with_spill_budget(Some(budget))
        .with_scratch_dir(&scratch)
        .with_fault_registry(
            snr_faults::FaultRegistry::parse("spill_io@round1").expect("valid fault spec"),
        );
    match phase(&faulted) {
        Err(EngineError::Spill(why)) => {
            assert!(why.contains("spill_io"), "unexpected error detail: {why}");
            println!("injected spill_io fault: clean EngineError ({why})");
        }
        Ok(_) => panic!("injected spill_io fault did not fail the round"),
    }
    assert!(!scratch.exists(), "scratch dir must be removed on the error path");
    assert_eq!(faulted.stats().rounds, 0, "failed rounds must not be recorded");

    println!("OK: spilled {} runs, output bit-identical, fault path clean", round.spilled_runs);
}
