//! Whole-run benchmark of the User-Matching reconciliation workspace.
//!
//! One command generates a named workload from a seed, hands the matcher
//! only the two graph copies and the seed links, runs it the way a user
//! does (`UserMatching::run`, or `ShardDriver::run` for the multi-process
//! driver), checks every call's links, and prints the end-to-end metrics.
//! With `--trace 1` the same inputs are driven through each layer's public
//! entry points instead, and the per-layer metrics are printed.
//!
//! ```text
//! bash perfbench/run.sh --workload rmat18-rayon --seed 1 --seconds 25 --trace 0
//! ```
//!
//! (`run.sh` builds the `perfbench` binary and the shard driver's worker,
//! which the driver looks for next to its own executable, then runs it.)
//!
//! `--workload all` runs every workload in turn. Scratch files (segments,
//! spill runs, driver snapshots) live under `.perfbench_scratch/` in the
//! working directory and are removed after each run; anything left behind
//! counts as a failure. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the process exits
//! non-zero when any call failed or produced wrong links, or when a work
//! count at [`DEFAULT_SEED`] differs from `perfbench/expected_counts.json`.

pub mod probes;
pub mod run;
pub mod trace;
pub mod workload;

/// The seed at which exact work counts are recorded and checked.
pub const DEFAULT_SEED: u64 = 1;

/// A metric's definition: name, unit, and whether higher or lower is
/// better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// Metrics of an untraced run, per workload.
pub const END_TO_END: &[MetricDef] = &[
    ("match_s", "s", "lower"),
    ("edges_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("recall", "ratio", "higher"),
    ("precision", "ratio", "higher"),
];

/// Metrics of a traced run. Every workload reports all of them; a layer a
/// workload bypasses reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("store.compact_s", "s", "lower"),
    ("store.write_s", "s", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("store.majflt", "count", "lower"),
    ("store.minflt", "count", "lower"),
    ("core.phases", "count", "lower"),
    ("core.candidates_s", "s", "lower"),
    ("core.candidate_rows", "count", "lower"),
    ("core.link_cache_s", "s", "lower"),
    ("core.link_cache_targets", "count", "lower"),
    ("core.score_s", "s", "lower"),
    ("core.bumps", "count", "lower"),
    ("core.scored_pairs", "count", "lower"),
    ("core.phase_max_s", "s", "lower"),
    ("core.finish_s", "s", "lower"),
    ("core.insert_s", "s", "lower"),
    ("core.new_links", "count", "higher"),
    ("core.yield", "ratio", "higher"),
    ("sketch.sketch_s", "s", "lower"),
    ("sketch.band_s", "s", "lower"),
    ("core.verify_s", "s", "lower"),
    ("sketch.proposals", "count", "lower"),
    ("sketch.useful", "ratio", "higher"),
    ("mapreduce.round_s", "s", "lower"),
    ("mapreduce.map_output_records", "count", "lower"),
    ("mapreduce.shuffled_records", "count", "lower"),
    ("mapreduce.shuffled_bytes", "bytes", "lower"),
    ("mapreduce.combine_ratio", "ratio", "higher"),
    ("mapreduce.spilled_bytes", "bytes", "lower"),
    ("mapreduce.spilled_runs", "count", "lower"),
    ("mapreduce.spill_merge_s", "s", "lower"),
    ("driver.snapshot_s", "s", "lower"),
    ("driver.segment_bytes", "bytes", "lower"),
    ("driver.tasks", "count", "lower"),
    ("driver.broadcast_s", "s", "lower"),
    ("driver.merge_s", "s", "lower"),
    ("driver.checkpoint_s", "s", "lower"),
    ("driver.worker_task_s", "s", "lower"),
    ("driver.coordinator_wait_s", "s", "lower"),
    ("driver.respawns", "count", "lower"),
    ("driver.checkpoints", "count", "lower"),
    ("driver.checkpoint_failures", "count", "lower"),
    ("telemetry.traced_match_s", "s", "lower"),
    ("telemetry.overhead_s", "s", "lower"),
    ("telemetry.coverage", "ratio", "higher"),
];
