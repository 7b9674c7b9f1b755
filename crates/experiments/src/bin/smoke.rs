//! End-to-end smoke checks, one scenario per subsystem, over a shared
//! R-MAT fixture ([`snr_experiments::smoke`]).
//!
//! ```text
//! cargo run --release -p snr-experiments --bin smoke -- \
//!     <segment|mr_shuffle|spill|driver|resilience|telemetry|blocking|all> \
//!     [--full] [--seed N]
//! ```
//!
//! Scenarios run at RMAT-13 with 2 driver workers (RMAT-16 with 4 under
//! `--full`) and each ends with one `OK <scenario>` line; `all` runs every
//! scenario and exits non-zero if any failed. The driver scenarios need the
//! worker binary from a release workspace build.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::scoring::{collect_candidates, fused_phase_on, mapreduce_fused_phase_on};
use snr_core::{CandidateSource, MatchingConfig, MatchingOutcome, UserMatching};
use snr_driver::{run_distributed, DriverConfig, DriverError, ShardDriver};
use snr_experiments::smoke::{assert_identical, driver_config, rmat_graph, Fixture};
use snr_experiments::ExperimentArgs;
use snr_graph::{CsrGraph, GraphView, NodeId};
use snr_mapreduce::{Engine, EngineError};
use snr_store::{write_segment_file, MmapGraph};
use snr_telemetry::TraceSummary;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// One scenario: panics on the first failed check.
type Scenario = fn(&ExperimentArgs);

/// Every scenario, in the order `all` runs them.
const SCENARIOS: [(&str, Scenario); 7] = [
    ("segment", segment),
    ("mr_shuffle", mr_shuffle),
    ("spill", spill),
    ("driver", driver),
    ("resilience", resilience),
    ("telemetry", telemetry),
    ("blocking", blocking),
];

fn usage() -> String {
    let names: Vec<&str> = SCENARIOS.iter().map(|(name, _)| *name).collect();
    format!("usage: smoke <{}|all> [--full] [--seed N]", names.join("|"))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let selected: Vec<_> =
        SCENARIOS.iter().filter(|(scenario, _)| name == "all" || name == *scenario).collect();
    if selected.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    let args = match ExperimentArgs::parse(argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for (scenario, run) in selected {
        match std::panic::catch_unwind(|| run(&args)) {
            Ok(()) => println!("OK {scenario}"),
            Err(_) => failed.push(*scenario),
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("FAILED {}", failed.join(", "));
    ExitCode::FAILURE
}

/// RMAT-13 (RMAT-16 under `--full`) scale, plus the driver worker count.
fn scale_and_workers(args: &ExperimentArgs) -> (u32, usize) {
    if args.full {
        (16, 4)
    } else {
        (13, 2)
    }
}

fn check_view<G: GraphView>(label: &str, view: &G, reference: &CsrGraph) -> Result<(), String> {
    let fail = |msg: String| Err(format!("{label}: {msg}"));
    if view.node_count() != reference.node_count() {
        return fail(format!("{} nodes vs {}", view.node_count(), reference.node_count()));
    }
    if view.edge_count() != reference.edge_count() {
        return fail(format!("{} edges vs {}", view.edge_count(), reference.edge_count()));
    }
    if view.max_degree() != GraphView::max_degree(reference) {
        return fail("max degree mismatch".to_string());
    }
    if view.total_degree() != reference.total_degree() {
        return fail("total degree mismatch".to_string());
    }
    for v in GraphView::nodes_iter(reference) {
        if view.degree(v) != reference.degree(v) {
            return fail(format!("degree mismatch at node {}", v.0));
        }
        if !view.neighbors_iter(v).eq(reference.neighbors(v).iter().copied()) {
            return fail(format!("neighbor list mismatch at node {}", v.0));
        }
    }
    println!(
        "  {label}: OK ({} nodes, {} edges, {:.2} B/edge, {:.1} MB)",
        view.node_count(),
        view.edge_count(),
        view.bytes_per_edge(),
        view.memory_bytes() as f64 / 1e6
    );
    Ok(())
}

fn segment_checks(scale: u32, seed: u64, dir: &Path) -> Result<(), String> {
    let g = rmat_graph(scale, &mut StdRng::seed_from_u64(seed));
    println!("RMAT-{scale}: {} nodes, {} edges, seed {seed}", g.node_count(), g.edge_count());
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    // Whole-graph segment -> MmapGraph.
    let seg = dir.join(format!("rmat{scale}.snrs"));
    let meta = write_segment_file(&g, &seg).map_err(|e| format!("write: {e}"))?;
    println!(
        "  segment: {} bytes on disk for {} entries in {} blocks",
        meta.file_len(),
        meta.entry_count,
        meta.block_count
    );
    let mapped = MmapGraph::open(&seg).map_err(|e| format!("open: {e}"))?;
    check_view("mmap", &mapped, &g)?;

    // Spot-check edge probes on the mapped graph: every neighbor of the
    // highest-degree node, plus the first id that is not one.
    let hub = GraphView::nodes_iter(&g).max_by_key(|&v| g.degree(v)).unwrap_or(NodeId(0));
    if let Some(&w) = g.neighbors(hub).iter().find(|&&w| !mapped.has_edge(hub, w)) {
        return Err(format!("edge probe missed {}-{}", hub.0, w.0));
    }
    let absent = GraphView::nodes_iter(&g).find(|&w| !g.has_edge(hub, w));
    if let Some(w) = absent.filter(|&w| mapped.has_edge(hub, w)) {
        return Err(format!("edge probe found absent {}-{}", hub.0, w.0));
    }
    println!("  edge probes: OK");
    drop(mapped);

    // A flipped payload byte must be rejected by the checksum.
    let mut bytes = std::fs::read(&seg).map_err(|e| format!("read back: {e}"))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let corrupted = dir.join(format!("rmat{scale}-corrupt.snrs"));
    std::fs::write(&corrupted, &bytes).map_err(|e| format!("write corrupt: {e}"))?;
    match MmapGraph::open(&corrupted) {
        Err(e) => println!("  corruption: rejected as expected ({e})"),
        Ok(_) => return Err("corrupted segment was accepted".to_string()),
    }
    Ok(())
}

/// The `snr-store` segment pipeline: write an R-MAT graph (drawn from
/// `StdRng(seed)`) as a whole-graph segment, reopen it through `MmapGraph`,
/// verify every degree, neighbor list and a hub's edge probes against the
/// source, and check that a corrupted segment is rejected. Catches a broken writer, checksum, or mmap decode
/// even though the unit suites run on much smaller fixtures.
fn segment(args: &ExperimentArgs) {
    let (scale, _) = scale_and_workers(args);
    let dir = std::env::temp_dir().join(format!("snr-segment-smoke-{}", std::process::id()));
    let result = segment_checks(scale, args.seed, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(msg) = result {
        panic!("segment smoke FAILED: {msg}");
    }
}

/// The MapReduce-on-arena witness round (the `bench_witnesses` rmat16
/// workload shape: edge survival 0.7, 2% seeds): the fused engine round
/// must select bit-identically to the sequential arena path, its shuffle
/// must be charged one `u32` key per row plus 8 bytes per scored pair, and
/// its shuffle must carry one record per non-empty row, at least 5x
/// below the per-contribution formula `Σ_{(w1,w2)∈L} |N1*(w1)| · |N2*(w2)|`
/// the pre-arena round used to shuffle. Catches regressions that silently
/// fall back to record-at-a-time shuffling.
fn mr_shuffle(args: &ExperimentArgs) {
    let (scale, _) = scale_and_workers(args);
    let (min_deg, threshold) = (2usize, 2u32);
    let fixture = Fixture::rmat(scale, args.seed, 0.7, 0.02);
    let links = fixture.links();
    let (g1, g2) = (&fixture.pair.g1, &fixture.pair.g2);
    println!("{}", fixture.summary());

    // The pre-arena shuffle volume: one record per witness contribution.
    let mut contributions = 0usize;
    for (w1, w2) in links.pairs() {
        let eligible1 = g1
            .neighbors_iter(w1)
            .filter(|&u| g1.degree(u) >= min_deg && !links.is_linked_g1(u))
            .count();
        let eligible2 = g2
            .neighbors_iter(w2)
            .filter(|&v| g2.degree(v) >= min_deg && !links.is_linked_g2(v))
            .count();
        contributions += eligible1 * eligible2;
    }

    let candidates = collect_candidates(g1, &links, min_deg);
    let engine = Engine::new(4);
    let start = Instant::now();
    let (scored, pairs) =
        mapreduce_fused_phase_on(&engine, g1, g2, &links, candidates.clone(), min_deg, threshold)
            .expect("in-memory round cannot spill");
    let mr_secs = start.elapsed().as_secs_f64();
    let stats = engine.stats();
    let round = &stats.per_round[0];
    println!("fused MapReduce witness round: {mr_secs:.3}s, {}", stats.stats_summary());

    // Correctness: same bits as the sequential in-process phase.
    let expected = fused_phase_on(g1, g2, &links, &candidates, min_deg, threshold, false);
    assert_eq!((scored, pairs), expected, "fused MR phase must match the sequential arena path");
    assert!(
        round.shuffled_records <= scored,
        "packed-row records ({}) cannot exceed scored pairs ({scored})",
        round.shuffled_records
    );
    assert_eq!(
        round.shuffled_bytes,
        4 * round.shuffled_records + 8 * scored,
        "the shuffle charge must be one u32 key per row + 8 bytes per scored pair"
    );

    // Data movement: the row-aggregation guarantee.
    let record_ratio = contributions as f64 / round.shuffled_records.max(1) as f64;
    // The pre-arena round shuffled ((u32, u32), u32) records: 12 bytes each.
    let old_bytes = contributions * 12;
    let byte_ratio = old_bytes as f64 / round.shuffled_bytes.max(1) as f64;
    println!(
        "shuffle records: {} packed rows ({scored} scored pairs) vs {} per-contribution \
         ({record_ratio:.1}x fewer)",
        round.shuffled_records, contributions
    );
    println!(
        "shuffle charge:  {} B (4 per row + 8 per scored pair) vs {} B per-contribution \
         ({byte_ratio:.1}x fewer)",
        round.shuffled_bytes, old_bytes
    );
    assert!(
        (round.shuffled_records as u128) * 5 <= contributions as u128,
        "whole-row mappers must shrink the witness shuffle at least 5x \
         (got {record_ratio:.2}x: {} vs {contributions})",
        round.shuffled_records
    );
    println!("OK: shuffle shrank {record_ratio:.1}x (>= 5x required), selection bit-identical");
}

/// The out-of-core (spill-to-disk) shuffle on the `mr_shuffle` workload.
/// A 4 KiB spill budget (`--spill-budget` overrides it) must force spill
/// runs to disk (`spilled_runs > 0`) while the phase's links and non-spill
/// shuffle counters stay bit-identical to the in-memory round; the JSONL
/// trace must schema-validate with the `spilled_bytes`/`spilled_runs`
/// counters, one `spill` event per run and a `spill_merge` span; the run
/// files those events size must sum to at most a quarter of the
/// `spilled_bytes` charge, which shipping whole rows again would fail; and
/// an injected `spill_io` fault must fail cleanly (`EngineError`, scratch
/// dir removed, no panic).
fn spill(args: &ExperimentArgs) {
    let (scale, _) = scale_and_workers(args);
    let (min_deg, threshold) = (2usize, 2u32);
    // Small enough that every phase-1 map task overflows it on RMAT-13.
    let budget = args.spill_budget.unwrap_or(4096);

    let fixture = Fixture::rmat(scale, args.seed, 0.7, 0.02);
    let links = fixture.links();
    let (g1, g2) = (&fixture.pair.g1, &fixture.pair.g2);
    println!("{}, budget {budget} B", fixture.summary());

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
    let spill_events: Vec<_> = summary.events.iter().filter(|e| e.name == "spill").collect();
    assert_eq!(spill_events.len(), round.spilled_runs, "one spill event per flushed run");
    // The run files' own sizes: a record ships its scored-pair count and
    // only its entries at or above the threshold, mostly in 4 bytes each,
    // so the files hold a small share of the 4 + 8-per-scored-pair charge.
    let file_bytes: u64 = spill_events
        .iter()
        .map(|e| {
            let bytes = e.fields.split(' ').find_map(|f| f.strip_prefix("bytes="));
            bytes.and_then(|b| b.parse::<u64>().ok()).expect("spill event without bytes")
        })
        .sum();
    let file_share = file_bytes as f64 / round.spilled_bytes as f64;
    assert!(
        file_bytes * 4 <= round.spilled_bytes as u64,
        "run files ({file_bytes} B) must hold at most a quarter of the charge ({} B), \
         not {:.1}%",
        round.spilled_bytes,
        100.0 * file_share
    );
    let merge_spans = summary.spans.iter().filter(|s| s.name == "spill_merge").count();
    assert!(merge_spans > 0, "no spill_merge span in the trace");
    let _ = std::fs::remove_file(&trace_path);
    println!(
        "trace: schema-valid, {} spill events, {merge_spans} spill_merge spans, \
         {file_bytes} B of run files for {} B spilled_bytes charged ({:.1}%)",
        spill_events.len(),
        round.spilled_bytes,
        100.0 * file_share
    );

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

/// The multi-process shard driver on the Table 2 schedule (T = 2, one
/// iteration): a healthy distributed run AND a run whose worker 0 is killed
/// the first time it receives a task (`kill:w0@round1`, forcing the
/// coordinator to detect the death and re-assign the lost row-ranges) must
/// both produce links, per-phase counters, and good/bad counts
/// bit-identical to the sequential matcher.
fn driver(args: &ExperimentArgs) {
    let (scale, workers) = scale_and_workers(args);
    let fixture = Fixture::table2(scale, args.seed);
    let (pair, seeds) = (&fixture.pair, &fixture.seeds);
    println!("{}, {workers} workers", fixture.summary());

    let matching = MatchingConfig::default().with_threshold(2).with_iterations(1);
    let reference = fixture.reference(&matching);

    let start = Instant::now();
    let healthy =
        run_distributed(&pair.g1, &pair.g2, seeds, driver_config(workers, matching.clone(), None))
            .expect("healthy distributed run");
    let healthy_secs = start.elapsed().as_secs_f64();
    let eval = assert_identical("healthy", &healthy, &reference, &fixture);
    println!(
        "driver x{workers} (healthy): {healthy_secs:.3}s, {} links, {} good / {} bad",
        healthy.links.len(),
        eval.new_good,
        eval.new_bad
    );

    let start = Instant::now();
    let faulted = run_distributed(
        &pair.g1,
        &pair.g2,
        seeds,
        driver_config(workers, matching, Some("kill:w0@round1")),
    )
    .expect("a killed worker among several must be survivable");
    let faulted_secs = start.elapsed().as_secs_f64();
    assert_identical("kill:w0@round1", &faulted, &reference, &fixture);
    println!(
        "driver x{workers} (worker 0 killed in round 1): {faulted_secs:.3}s, {} links — \
         re-assigned ranges converged",
        faulted.links.len()
    );
    println!("OK: both distributed runs bit-identical to the sequential matcher");
}

/// The driver's self-healing layers on a two-iteration Table 2 schedule:
/// a mid-run worker kill healed by respawn ([`RESPAWN_FAULT`]), a
/// coordinator halt healed by checkpoint/resume (`halt@phase1`), and a
/// total worker loss healed by in-process degradation must all produce
/// links and per-phase counters bit-identical to the sequential matcher.
const RESPAWN_FAULT: &str = "kill:w1@round1,stall:w0@round1:200ms";

fn resilience(args: &ExperimentArgs) {
    let (scale, workers) = scale_and_workers(args);
    let fixture = Fixture::table2(scale, args.seed);
    let (pair, seeds) = (&fixture.pair, &fixture.seeds);
    println!("{}, {workers} workers", fixture.summary());

    // Two iterations so the schedule spans multiple phases: the halted run
    // below checkpoints after phase 1 and resume has real work left.
    let matching = MatchingConfig::default().with_threshold(2).with_iterations(2);
    let reference = fixture.reference(&matching);

    // 1. Respawn: worker 1 dies mid-round; the budget (default 2) must
    //    bring a healthy replacement back that syncs from the handshake's
    //    full link snapshot. Worker 0 stalls on its round-1 task for 200 ms,
    //    past the 50 ms respawn backoff: without it the surviving worker can
    //    finish the whole run before the relaunch comes due.
    let start = Instant::now();
    let driver = ShardDriver::new(
        &pair.g1,
        &pair.g2,
        driver_config(workers, matching.clone(), Some(RESPAWN_FAULT)),
    )
    .expect("snapshot graphs for driver");
    let respawned = driver.run(seeds).expect("a killed worker must be respawned around");
    let stats = driver.last_run_stats();
    drop(driver);
    assert!(stats.respawns >= 1, "respawn machinery never engaged: {stats:?}");
    assert_identical("respawn", &respawned, &reference, &fixture);
    println!(
        "driver x{workers} ({RESPAWN_FAULT}, {} respawns): {:.3}s, {} links — bit-identical",
        stats.respawns,
        start.elapsed().as_secs_f64(),
        respawned.links.len()
    );

    // 2. Checkpoint/resume: the coordinator halts after phase 1; resume
    //    finishes the schedule from the checkpoint, counters included.
    let start = Instant::now();
    let driver = ShardDriver::new(
        &pair.g1,
        &pair.g2,
        driver_config(workers, matching.clone(), Some("halt@phase1")),
    )
    .expect("snapshot graphs for driver");
    match driver.run(seeds) {
        Err(DriverError::Interrupted { phase: 1 }) => {}
        other => panic!("halt@phase1 must interrupt after phase 1, got {other:?}"),
    }
    let resumed =
        ShardDriver::resume(driver.scratch_dir(), driver_config(workers, matching.clone(), None))
            .expect("resume from the phase-1 checkpoint");
    assert_identical("checkpoint/resume", &resumed, &reference, &fixture);
    println!(
        "driver x{workers} (halt@phase1 + resume): {:.3}s, {} links — bit-identical",
        start.elapsed().as_secs_f64(),
        resumed.links.len()
    );

    // 3. Degradation: every worker dies with no respawn budget; the
    //    coordinator finishes the remaining row-ranges in-process.
    let kill_all: Vec<String> = (0..workers).map(|w| format!("kill:w{w}@round1")).collect();
    let start = Instant::now();
    let mut config = driver_config(workers, matching, Some(&kill_all.join(",")));
    config.respawn_budget = 0;
    let driver = ShardDriver::new(&pair.g1, &pair.g2, config).expect("snapshot graphs for driver");
    let degraded = driver.run(seeds).expect("total loss must degrade in-process");
    let stats = driver.last_run_stats();
    drop(driver);
    assert!(stats.degraded_tasks > 0, "degradation path never engaged: {stats:?}");
    assert_identical("degradation", &degraded, &reference, &fixture);
    println!(
        "driver x{workers} (total loss, {} ranges in-process): {:.3}s, {} links — bit-identical",
        stats.degraded_tasks,
        start.elapsed().as_secs_f64(),
        degraded.links.len()
    );

    println!("OK: respawn, checkpoint/resume, and degradation all bit-identical to sequential");
}

/// Runs one driver pass with a fresh telemetry slate and returns the
/// outcome plus the schema-validated summary of the trace it wrote.
fn traced_run(
    label: &str,
    fixture: &Fixture,
    config: DriverConfig,
    trace_path: &Path,
) -> (MatchingOutcome, TraceSummary) {
    snr_telemetry::reset();
    snr_telemetry::set_trace_path(trace_path.to_path_buf());
    snr_telemetry::enable();
    let outcome = run_distributed(&fixture.pair.g1, &fixture.pair.g2, &fixture.seeds, config)
        .unwrap_or_else(|e| panic!("{label}: distributed run failed: {e}"));
    snr_telemetry::write_trace_if_configured()
        .unwrap_or_else(|e| panic!("{label}: trace write failed: {e}"))
        .unwrap_or_else(|| panic!("{label}: no trace path configured"));
    snr_telemetry::disable();
    let text = std::fs::read_to_string(trace_path)
        .unwrap_or_else(|e| panic!("{label}: trace unreadable: {e}"));
    let summary = snr_telemetry::validate_jsonl(&text)
        .unwrap_or_else(|e| panic!("{label}: trace failed schema validation: {e}"));
    (outcome, summary)
}

fn span_count(summary: &TraceSummary, name: &str) -> usize {
    summary.spans.iter().filter(|s| s.name == name).count()
}

fn event_count(summary: &TraceSummary, name: &str) -> usize {
    summary.events.iter().filter(|e| e.name == name).count()
}

/// The telemetry pipeline through the shard driver: a healthy run with
/// tracing on must emit a schema-valid JSONL trace carrying coordinator
/// `phase` spans, per-worker `task` spans (shipped home as `Stats` frames
/// and tagged `worker=<N>`), and `checkpoint` events; a faulted run (worker
/// 1 killed in round 1, worker 0 stalled 1 ms per task) must additionally
/// record the `respawn` event and the `fault_fired` events — including ones
/// recorded inside a worker subprocess and shipped home (the stall site).
/// Neither observed run may change a single link.
fn telemetry(args: &ExperimentArgs) {
    let (scale, workers) = scale_and_workers(args);
    let fixture = Fixture::table2(scale, args.seed);
    println!("{}, {workers} workers", fixture.summary());

    let matching = MatchingConfig::default().with_threshold(2).with_iterations(1);
    let reference = fixture.reference(&matching);

    let dir = std::env::temp_dir().join(format!("snr-telemetry-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create trace dir");

    // ---- 1. Healthy run: spans and counters flow end-to-end. ------------
    let trace = dir.join("healthy.jsonl");
    let (outcome, summary) =
        traced_run("healthy", &fixture, driver_config(workers, matching.clone(), None), &trace);
    assert_eq!(outcome.links, reference.links, "healthy: telemetry changed the links");
    let phases = span_count(&summary, "phase");
    assert!(
        phases >= outcome.phases.len(),
        "expected >= {} phase spans, saw {phases}",
        outcome.phases.len()
    );
    let tasks = span_count(&summary, "task");
    assert!(tasks > 0, "no per-worker task spans shipped home");
    let per_worker = (0..workers as u32)
        .filter(|w| {
            summary
                .spans
                .iter()
                .any(|s| s.name == "task" && s.fields.contains(&format!("worker={w}")))
        })
        .count();
    assert!(per_worker >= 2, "task spans from only {per_worker} worker(s) in the trace");
    assert!(event_count(&summary, "checkpoint") > 0, "no checkpoint events in the trace");
    let tasks_done = summary.counters.iter().find(|(n, _)| n == "tasks_completed");
    assert!(
        matches!(tasks_done, Some((_, v)) if *v as usize == tasks),
        "tasks_completed counter ({tasks_done:?}) disagrees with task span count ({tasks})"
    );
    println!(
        "healthy: {} trace lines — {phases} phase spans, {tasks} task spans from {per_worker} workers, {} checkpoint events",
        summary.meta_lines + summary.spans.len() + summary.events.len() + summary.counters.len(),
        event_count(&summary, "checkpoint"),
    );

    // ---- 2. Faulted run: fault + recovery shows up in the trace. --------
    let trace = dir.join("faulted.jsonl");
    let (outcome, summary) = traced_run(
        "faulted",
        &fixture,
        driver_config(workers, matching, Some("kill:w1@round1,stall:w0:1ms")),
        &trace,
    );
    assert_eq!(outcome.links, reference.links, "faulted: recovery changed the links");
    assert!(event_count(&summary, "respawn") > 0, "kill healed without a respawn event");
    let fired = event_count(&summary, "fault_fired");
    // The stall fires on every w0 task and each firing ships home in that
    // task's Stats frame; the kill's own event dies with worker 1.
    assert!(fired > 0, "no fault_fired events in the trace");
    assert!(
        summary.events.iter().any(|e| e.name == "fault_fired" && e.fields.contains("site=stall")),
        "worker-side stall firing did not ship home"
    );
    println!(
        "faulted: {} respawn event(s), {fired} fault_fired event(s) — recovery visible in trace",
        event_count(&summary, "respawn"),
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("OK: traces schema-valid, observe-only, and fault/recovery events present");
}

const BANDS: usize = 16;
const ROWS: usize = 2;
const RECALL_FLOOR: f64 = 0.95;

fn scored_pairs(outcome: &MatchingOutcome) -> usize {
    outcome.phases.iter().map(|p| p.scored_pairs).sum()
}

/// The MinHash/LSH candidate-blocking path on the Table 2 workload shape
/// (T = 2, k = 1), three ways: the exact sequential matcher, a *pure*
/// blocked run (`lsh:16x2`, mass floor 0 — every phase through the
/// sketch), and an adaptive blocked run at the default mass floor. The
/// pure run must hold at least 95% of the exact run's good links while
/// scoring at least 2x fewer pairs, with a bad-link rate within 5% of its
/// emitted links; the adaptive run must reproduce the exact run bit for
/// bit, because every phase at this scale sits below
/// `DEFAULT_LSH_MASS_FLOOR`.
fn blocking(args: &ExperimentArgs) {
    let (exp, _) = scale_and_workers(args);
    let fixture = Fixture::blocking(exp, args.seed);
    let (c1, c2) = (fixture.pair.g1.compact(), fixture.pair.g2.compact());
    let seeds = &fixture.seeds;
    println!("{}", fixture.summary());

    let base = MatchingConfig::default().with_threshold(2).with_iterations(1);
    let evaluate = |outcome: &MatchingOutcome| fixture.evaluate(outcome);
    let run = |cfg: MatchingConfig| {
        let start = Instant::now();
        let outcome = UserMatching::new(cfg).run(&c1, &c2, seeds);
        (outcome, start.elapsed().as_secs_f64())
    };

    let (exact, exact_secs) = run(base.clone());
    let exact_eval = evaluate(&exact);
    let exact_scored = scored_pairs(&exact);
    println!(
        "exact:    {exact_secs:.3}s, {exact_scored} scored pairs, {} good / {} bad new links",
        exact_eval.new_good, exact_eval.new_bad
    );

    // Pure blocking: mass floor 0 pushes every phase through the sketch, so
    // the recall/reduction numbers measure the banding itself.
    let pure_cfg = base
        .clone()
        .with_candidates(CandidateSource::Lsh { bands: BANDS, rows: ROWS })
        .with_lsh_mass_floor(0);
    snr_telemetry::reset();
    snr_telemetry::enable();
    let (pure, pure_secs) = run(pure_cfg);
    snr_telemetry::disable();
    // Banding finds a pair once per band it agrees on: the pre-dedup
    // collision count lies between the proposals and `bands ×` them.
    let proposals = snr_telemetry::Counter::LshProposals.get();
    let collisions = snr_telemetry::Counter::LshBandCollisions.get();
    assert!(
        proposals > 0 && proposals <= collisions && collisions <= BANDS as u64 * proposals,
        "lsh_band_collisions {collisions} out of range for {proposals} proposals"
    );
    // Every proposal's copy-2 list holds at least one link (lists below
    // the threshold are dropped), so the verify intersects at least one
    // entry per proposal.
    let verify_entries = snr_telemetry::Counter::LshVerifyEntries.get();
    assert!(
        verify_entries >= proposals,
        "lsh_verify_entries {verify_entries} below the {proposals} proposals"
    );
    let pure_eval = evaluate(&pure);
    let pure_scored = scored_pairs(&pure);
    let recall = pure_eval.new_good as f64 / (exact_eval.new_good as f64).max(1.0);
    let reduction = exact_scored as f64 / pure_scored.max(1) as f64;
    println!(
        "lsh:{BANDS}x{ROWS}: {pure_secs:.3}s, {pure_scored} scored pairs ({reduction:.1}x fewer), \
         {} good / {} bad new links (recall {recall:.3}), {collisions} band collisions for \
         {proposals} proposals, {verify_entries} list entries verified",
        pure_eval.new_good, pure_eval.new_bad
    );
    assert!(
        recall >= RECALL_FLOOR,
        "pure lsh:{BANDS}x{ROWS} recovered {} of {} good links (recall {recall:.3}, \
         floor {RECALL_FLOOR})",
        pure_eval.new_good,
        exact_eval.new_good
    );
    assert!(
        pure_scored * 2 < exact_scored,
        "pure lsh:{BANDS}x{ROWS} scored {pure_scored} pairs vs {exact_scored} exact — \
         blocking must cut the scored set at least 2x"
    );
    let emitted = pure.links.len() - pure.links.seed_count();
    assert!(
        (pure_eval.new_bad as f64) <= 0.05 * (emitted as f64).max(1.0),
        "pure lsh:{BANDS}x{ROWS} emitted {} bad links of {emitted}",
        pure_eval.new_bad
    );

    // Adaptive gate: this workload sits far below the default mass floor in
    // every phase, so the gated run must be indistinguishable from exact.
    let adaptive_cfg = base.with_candidates(CandidateSource::Lsh { bands: BANDS, rows: ROWS });
    let (adaptive, adaptive_secs) = run(adaptive_cfg);
    println!("adaptive: {adaptive_secs:.3}s (default mass floor, all phases below it)");
    assert_eq!(
        adaptive.links, exact.links,
        "adaptive run below the mass floor must reproduce the exact links bit for bit"
    );
    assert_eq!(
        scored_pairs(&adaptive),
        exact_scored,
        "adaptive run below the mass floor must score exactly the exact run's pairs"
    );

    println!(
        "OK: recall {recall:.3} (>= {RECALL_FLOOR} required), {reduction:.1}x fewer scored \
         pairs (>= 2x required), adaptive gate fell back to exact bit-identically"
    );
}
