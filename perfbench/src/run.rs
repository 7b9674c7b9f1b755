//! One workload run: inputs, store set-up, timed matcher calls, the
//! correctness gate, and the metrics.

use crate::probes::{self, Faults, Samples, Tally};
use crate::trace::{self, Traced};
use crate::workload::{Exec, Inputs, Workload, SPILL_BUDGET, WORKERS};
use crate::{DEFAULT_SEED, END_TO_END, PER_LAYER};
use snr_core::{Backend, Linking, UserMatching};
use snr_driver::{DriverConfig, DriverStore, ShardDriver};
use snr_graph::{CompactCsr, GraphView};
use snr_mapreduce::{Engine, EngineStats};
use snr_store::{write_segment_file, MmapGraph};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Store set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Matcher calls every run makes, however short `--seconds` is.
const MIN_CALLS: usize = 3;

/// A matcher call slower than this counts as timed out.
const CALL_LIMIT_S: f64 = 120.0;

/// Everything one workload run measured.
pub struct Report {
    /// The workload run.
    pub workload: &'static Workload,
    /// Calls attempted and failed.
    pub tally: Tally,
    /// `(name, value, unit)` of every metric the run reports.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Exact work counts, compared with the recorded ones at the default
    /// seed.
    pub counts: BTreeMap<String, u64>,
    /// Run manifest: seed, parameters, input sizes, threads, host.
    pub manifest: Vec<(&'static str, String)>,
    /// Remarks printed with the results.
    pub notes: Vec<String>,
    /// Matcher-call time samples of the untraced calls.
    pub match_s: Samples,
}

/// A matcher-ready store.
enum Store {
    Compact(CompactCsr, CompactCsr),
    Mmap(MmapGraph, MmapGraph),
    Driver(ShardDriver),
}

/// Set-up time of one store, split by step.
#[derive(Clone, Copy, Default)]
struct SetupTimes {
    total: f64,
    compact: f64,
    write: f64,
    open: f64,
    bytes: u64,
}

/// One matcher call's result.
struct CallOut {
    links: Linking,
    phases: usize,
    scored_pairs: u64,
    engine: Option<EngineStats>,
    secs: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn segment_paths(scratch: &Path) -> (PathBuf, PathBuf) {
    let dir = scratch.join("segments");
    (dir.join("g1.snrs"), dir.join("g2.snrs"))
}

fn set_up(w: &Workload, inputs: &Inputs, scratch: &Path) -> Result<(Store, SetupTimes), String> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let store = match w.exec {
        Exec::Rayon | Exec::SequentialLsh { .. } => {
            let (c1, c2) = (inputs.g1.compact(), inputs.g2.compact());
            times.compact = secs(start);
            times.bytes = (c1.memory_bytes() + c2.memory_bytes()) as u64;
            Store::Compact(c1, c2)
        }
        Exec::MapReduceSpill => {
            let (p1, p2) = segment_paths(scratch);
            let err = |e: snr_graph::GraphError| format!("segment set-up failed: {e}");
            std::fs::create_dir_all(p1.parent().expect("segment paths have a parent"))
                .map_err(|e| format!("creating the segment directory failed: {e}"))?;
            write_segment_file(&inputs.g1, &p1).map_err(err)?;
            write_segment_file(&inputs.g2, &p2).map_err(err)?;
            times.write = secs(start);
            let t = Instant::now();
            let (m1, m2) = (MmapGraph::open(&p1).map_err(err)?, MmapGraph::open(&p2).map_err(err)?);
            times.open = secs(t);
            times.bytes = (m1.file_len() + m2.file_len()) as u64;
            Store::Mmap(m1, m2)
        }
        Exec::Driver => {
            let mut config = DriverConfig::new(WORKERS);
            config.matching = w.config();
            config.store = DriverStore::Mmap;
            let driver = ShardDriver::new(&inputs.g1, &inputs.g2, config)
                .map_err(|e| format!("driver snapshot failed: {e}"))?;
            times.bytes = driver.segment_bytes();
            Store::Driver(driver)
        }
    };
    times.total = secs(start);
    Ok((store, times))
}

/// The engine a MapReduce call runs on: the workload's workers and spill
/// budget, spilling under the run's scratch directory.
fn mr_engine(scratch: &Path) -> Engine {
    Engine::new(WORKERS)
        .with_spill_budget(Some(SPILL_BUDGET))
        .with_scratch_dir(scratch.join("spill"))
}

/// One matcher call, the way a user makes it. Errors and panics become
/// `Err` with the reason.
fn call(w: &Workload, store: &Store, inputs: &Inputs, scratch: &Path) -> Result<CallOut, String> {
    let seeds = &inputs.seeds;
    let matcher = UserMatching::new(w.config());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let (outcome, engine) = match store {
            Store::Compact(c1, c2) => (Ok(matcher.run(c1, c2, seeds)), None),
            Store::Mmap(m1, m2) => {
                let engine = mr_engine(scratch);
                let outcome = matcher
                    .try_run_on_engine(m1, m2, seeds, &engine)
                    .map_err(|e| format!("MapReduce run failed: {e}"));
                (outcome, Some(engine.stats()))
            }
            Store::Driver(driver) => {
                (driver.run(seeds).map_err(|e| format!("driver run failed: {e}")), None)
            }
        };
        (outcome, engine, secs(start))
    }));
    let (outcome, engine, secs) = outcome.map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("matcher panicked: {msg}")
    })?;
    let outcome = outcome?;
    Ok(CallOut {
        phases: outcome.phases.len(),
        scored_pairs: outcome.total_scored_pairs() as u64,
        links: outcome.links,
        engine,
        secs,
    })
}

/// Shuffled bytes and spilled runs summed over an engine's rounds.
fn shuffle_counts(stats: &EngineStats) -> (u64, u64) {
    let bytes = stats.per_round.iter().map(|r| r.shuffled_bytes).sum::<usize>();
    let runs = stats.per_round.iter().map(|r| r.spilled_runs).sum::<usize>();
    (bytes as u64, runs as u64)
}

/// Why a call's result is wrong, if it is: a timeout, or links or work
/// counts that differ from the first call's. The first call itself is
/// checked against the reference after the timed calls.
fn check_call(out: &CallOut, first: Option<&CallOut>) -> Option<String> {
    if out.secs > CALL_LIMIT_S {
        return Some(format!("call took {:.1} s, over the {CALL_LIMIT_S} s limit", out.secs));
    }
    let first = first?;
    if out.links != first.links {
        return Some("links differ from the first call's".to_string());
    }
    if (out.phases, out.scored_pairs) != (first.phases, first.scored_pairs) {
        return Some(format!(
            "work counts differ between calls: {} phases / {} scored pairs, first call {} / {}",
            out.phases, out.scored_pairs, first.phases, first.scored_pairs
        ));
    }
    let bytes = |o: &CallOut| o.engine.as_ref().map(|s| shuffle_counts(s).0);
    if bytes(out) != bytes(first) {
        return Some("shuffled bytes differ between calls".to_string());
    }
    None
}

/// New good and new bad links (seed links excluded; every seed is a true
/// pair).
fn quality(links: &Linking, inputs: &Inputs) -> (u64, u64) {
    let good = links.pairs().filter(|&(a, b)| inputs.truth.is_correct(a, b)).count();
    let bad = links.len() - good;
    ((good - inputs.seeds.len()) as u64, bad as u64)
}

/// Runs workload `w` at `seed` for `seconds` of matcher calls. With
/// `traced`, half the time goes to untraced calls and the rest to one
/// traced run, and the per-layer metrics are reported instead of the
/// end-to-end ones. `expected` holds the work counts recorded at
/// [`DEFAULT_SEED`].
pub fn run_workload(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
    expected: Option<&BTreeMap<String, u64>>,
) -> Report {
    let mut report = Report {
        workload: w,
        tally: Tally::new(),
        metrics: Vec::new(),
        counts: BTreeMap::new(),
        manifest: Vec::new(),
        notes: Vec::new(),
        match_s: Samples::new(),
    };
    let t = Instant::now();
    let inputs = w.generate(seed);
    let generate_s = secs(t);
    report.manifest.push(("workload", w.name.to_string()));
    report.manifest.push(("seed", seed.to_string()));
    for (key, value) in w.parameters() {
        report.manifest.push((key, value));
    }
    report
        .manifest
        .push(("nodes", format!("{} / {}", inputs.g1.node_count(), inputs.g2.node_count())));
    report
        .manifest
        .push(("edges", format!("{} / {}", inputs.g1.edge_count(), inputs.g2.edge_count())));
    report.manifest.push(("seed_links", inputs.seeds.len().to_string()));
    report.manifest.push(("matchable", inputs.matchable.to_string()));
    report.manifest.push(("workers", w.workers().to_string()));
    report.manifest.push(("generate_s", format!("{generate_s:.3}")));

    probes::release_free_heap();
    if let Err(e) = probes::reset_peak_rss() {
        report
            .notes
            .push(format!("peak RSS could not be reset ({e}); it covers the whole process"));
    }
    let mut setup = Samples::new();
    let mut store = None;
    let mut times = SetupTimes::default();
    for _ in 0..SETUP_REPS {
        // The previous store goes first: the mmap set-up rewrites the
        // files it maps.
        drop(store.take());
        match set_up(w, &inputs, scratch) {
            Ok((s, t)) => {
                setup.push(t.total);
                times = t;
                store = Some(s);
            }
            Err(e) => {
                report.tally.fail(e);
                break;
            }
        }
    }

    let mut first: Option<CallOut> = None;
    let mut faults = Faults::default();
    // Peak RSS covers set-up plus one matcher call: later calls would tie
    // the figure to how many calls the host's speed allowed.
    let mut peak_kib = None;
    if let Some(store) = store.as_ref() {
        let budget = if traced { seconds / 2.0 } else { seconds };
        let start = Instant::now();
        let mut calls = 0;
        while calls < MIN_CALLS || secs(start) < budget {
            calls += 1;
            let before = Faults::now().ok();
            let result = call(w, store, &inputs, scratch);
            if let (Some(b), Ok(a)) = (before, Faults::now()) {
                faults = a.since(b);
            }
            if calls == 1 {
                peak_kib = Some(probes::peak_rss_kib());
            }
            let leaked = probes::leftovers(&scratch.join("spill"));
            if !leaked.is_empty() {
                report.tally.flag(format!("spill scratch left behind: {leaked:?}"));
            }
            match result {
                Err(e) => report.tally.fail(e),
                Ok(out) => {
                    match check_call(&out, first.as_ref()) {
                        Some(problem) => report.tally.fail(problem),
                        None => {
                            report.tally.pass();
                            report.match_s.push(out.secs);
                        }
                    }
                    if first.is_none() {
                        first = Some(out);
                    }
                }
            }
        }
    }
    let peak_rss_mb = match peak_kib {
        Some(Ok(kib)) => kib as f64 / 1024.0,
        Some(Err(e)) => {
            report.tally.flag(format!("peak RSS unreadable: {e}"));
            0.0
        }
        None => 0.0,
    };
    if w.exec == Exec::Driver {
        report.notes.push("peak_rss_mb covers the coordinator process only".to_string());
    }

    let (new_good, new_bad) = first.as_ref().map_or((0, 0), |f| quality(&f.links, &inputs));
    if let Some(f) = &first {
        report.counts.insert("phases".into(), f.phases as u64);
        report.counts.insert("core.scored_pairs".into(), f.scored_pairs);
        report.counts.insert("links.new_good".into(), new_good);
        report.counts.insert("links.new_bad".into(), new_bad);
        if let Some(stats) = &f.engine {
            let (bytes, runs) = shuffle_counts(stats);
            report.counts.insert("mapreduce.shuffled_bytes".into(), bytes);
            report.counts.insert("mapreduce.spilled_runs".into(), runs);
        }
    }
    if let Some(Store::Driver(driver)) = &store {
        report.counts.insert("driver.segment_bytes".into(), driver.segment_bytes());
    }

    if traced {
        let traced = match (&store, &first) {
            (Some(store), Some(first)) => {
                let result = trace_store(w, store, &inputs, scratch);
                match &result {
                    Ok(t) if t.links != first.links => {
                        report.tally.fail("traced links differ from the untraced run's")
                    }
                    Ok(_) => report.tally.pass(),
                    Err(e) => report.tally.fail(e.clone()),
                }
                result.ok()
            }
            _ => None,
        };
        layer_metrics(&mut report, traced, times, faults);
    } else {
        let match_s = report.match_s.median().unwrap_or(0.0);
        let edges_per_s = if match_s > 0.0 { inputs.edges() as f64 / match_s } else { 0.0 };
        let new = (new_good + new_bad) as f64;
        let values = [
            match_s,
            edges_per_s,
            setup.median().unwrap_or(0.0),
            peak_rss_mb,
            new_good as f64 / inputs.matchable.max(1) as f64,
            if new > 0.0 { new_good as f64 / new } else { 1.0 },
        ];
        report.metrics =
            END_TO_END.iter().zip(values).map(|(&(name, unit, _), v)| (name, v, unit)).collect();
    }

    // Exact workloads are checked against a sequential run on the plain
    // CSR copies, made after the timed calls so that its allocations stay
    // out of their peak RSS; a blocked run is checked against its own
    // first call, and at the default seed against the recorded counts.
    if let (Some(first), true) = (&first, w.is_exact()) {
        let reference = UserMatching::new(w.config().with_backend(Backend::Sequential))
            .run(&inputs.g1, &inputs.g2, &inputs.seeds)
            .links;
        if first.links != reference {
            report.tally.fail_all("links differ from the sequential reference");
        }
    }

    if seed == DEFAULT_SEED {
        match expected {
            Some(expected) => {
                for (key, want) in expected {
                    match report.counts.get(key) {
                        Some(got) if got != want => {
                            report.tally.flag(format!("work count {key} = {got}, recorded {want}"))
                        }
                        _ => {}
                    }
                }
            }
            None => report.tally.flag(format!("no work counts recorded for {}", w.name)),
        }
    }

    drop(store);
    let (p1, p2) = segment_paths(scratch);
    for p in [&p1, &p2] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir(p1.parent().expect("segment paths have a parent"));
    let leaked: Vec<PathBuf> = probes::leftovers(scratch)
        .into_iter()
        .flat_map(|p| if p.ends_with("tmp") { probes::leftovers(&p) } else { vec![p] })
        .collect();
    if !leaked.is_empty() {
        report.tally.flag(format!("scratch left behind: {leaked:?}"));
    }
    report
}

/// The traced run on an already set-up store.
fn trace_store(
    w: &Workload,
    store: &Store,
    inputs: &Inputs,
    scratch: &Path,
) -> Result<Traced, String> {
    let cfg = w.config();
    let seeds = &inputs.seeds;
    catch_unwind(AssertUnwindSafe(|| match store {
        Store::Compact(c1, c2) => trace::in_process(&cfg, c1, c2, seeds, None),
        Store::Mmap(m1, m2) => trace::in_process(&cfg, m1, m2, seeds, Some(&mr_engine(scratch))),
        Store::Driver(driver) => trace::driver(driver, seeds),
    }))
    .unwrap_or_else(|_| Err("traced run panicked".to_string()))
}

/// Fills `report.metrics` with every per-layer metric: the traced run's
/// layers, the store's set-up steps and page faults, and 0 for layers the
/// workload bypasses.
fn layer_metrics(report: &mut Report, traced: Option<Traced>, times: SetupTimes, faults: Faults) {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("store.compact_s", times.compact);
    values.insert("store.write_s", times.write);
    values.insert("store.open_s", times.open);
    values.insert("store.bytes", times.bytes as f64);
    values.insert("store.majflt", faults.majflt as f64);
    values.insert("store.minflt", faults.minflt as f64);
    if report.workload.exec == Exec::Driver {
        values.insert("driver.snapshot_s", times.total);
        values.insert("driver.segment_bytes", times.bytes as f64);
    }
    if let Some(traced) = traced {
        let untraced = report.match_s.median().unwrap_or(traced.match_s);
        values.insert("telemetry.overhead_s", traced.match_s - untraced);
        for (name, value) in traced.layers {
            values.insert(name, value);
        }
        for key in ["core.bumps", "sketch.proposals"] {
            if let Some(&v) = values.get(key) {
                if v > 0.0 {
                    report.counts.insert(key.to_string(), v as u64);
                }
            }
        }
        let coverage = values.get("telemetry.coverage").copied().unwrap_or(0.0);
        let gated = matches!(report.workload.exec, Exec::Rayon | Exec::SequentialLsh { .. });
        if gated && !(0.95..=1.05).contains(&coverage) {
            report
                .tally
                .flag(format!("layer self times cover {coverage:.3} of the traced matcher time"));
        }
    }
    report.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
}
