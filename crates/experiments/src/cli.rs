//! Minimal command-line argument handling shared by the experiment binaries.
//!
//! We deliberately avoid a CLI-parsing dependency: the binaries accept the
//! few flags below, each value given either as the next argument
//! (`--seed 7`) or inline (`--seed=7`).
//!
//! * `--seed <u64>` — RNG seed (default 20140707, the VLDB 2014 date).
//! * `--full` — run at (closer to) the paper's dataset sizes instead of the
//!   laptop-friendly demo scale.
//! * `--json <path>` — also write the experiment record as JSON.
//! * `--store <mode>` — graph representation the in-process matcher runs
//!   on, for the binaries that honor it (`table2_scalability`): `compact`
//!   (default) or `mmap`. `--backend driver` always runs on mapped
//!   segments and ignores it.
//! * `--backend <mode>` — execution backend for the binaries that honor it
//!   (`table2_scalability`): `sequential` (default), `rayon`,
//!   `mapreduce[:workers]` (worker count defaults to the CPU count), or
//!   `driver[:workers]` — the multi-process shard driver from `snr-driver`,
//!   whose workers each map one segment per copy (worker count defaults
//!   to 2).
//! * `--blocking <mode>` — candidate generation for the binaries that honor
//!   it (`table2_scalability`): `exact` (default, every degree-eligible
//!   pair) or `lsh:<bands>x<rows>` — MinHash/LSH candidate blocking from
//!   `snr-sketch`.
//! * `--respawn-budget <N>` — for driver-backed runs: how many worker
//!   relaunches one run may spend (defaults to the driver's own default).
//! * `--degrade <fail|inprocess>` — for driver-backed runs: what the
//!   coordinator does when the worker pool collapses.
//! * `--spill-budget <bytes>` — for MapReduce-backed runs: memory budget
//!   for each engine round's shuffle; rounds that exceed it spill sorted
//!   run files to disk and k-way merge them back. `0` spills everything.
//! * `--trace-out <path>` — enable `snr-telemetry` and write the run's
//!   JSONL trace (spans, events, counters) to `<path>` on exit. Equivalent
//!   to setting `SNR_TRACE=<path>` in the environment.

use snr_core::{Backend, CandidateSource};
use snr_driver::DegradePolicy;
use std::path::PathBuf;
use std::str::FromStr;

/// Parses a `--backend` value: `sequential`, `rayon`, or
/// `mapreduce[:workers]`.
fn parse_backend(s: &str) -> Result<Backend, String> {
    match s {
        "sequential" => Ok(Backend::Sequential),
        "rayon" => Ok(Backend::Rayon),
        "mapreduce" => Ok(Backend::mapreduce_default()),
        _ => match s.strip_prefix("mapreduce:").map(str::parse) {
            Some(Ok(workers)) if workers > 0 => Ok(Backend::MapReduce { workers }),
            _ => Err(format!(
                "invalid --backend value {s:?} \
                 (expected sequential, rayon, mapreduce[:N], or driver[:N])"
            )),
        },
    }
}

/// Parses a `--respawn-budget` value: any u32.
fn parse_respawn_budget(s: &str) -> Result<u32, String> {
    s.parse().map_err(|_| format!("invalid --respawn-budget value {s:?} (expected a u32)"))
}

/// Parses a `--spill-budget` value: a byte count (plain `u64`).
fn parse_spill_budget(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| {
        format!(
            "invalid --spill-budget value {s:?} \
             (expected a plain byte count like 268435456; no suffixes)"
        )
    })
}

/// Parses a `--degrade` value: `fail` or `inprocess`.
fn parse_degrade(s: &str) -> Result<DegradePolicy, String> {
    match s {
        "fail" => Ok(DegradePolicy::Fail),
        "inprocess" => Ok(DegradePolicy::InProcess),
        _ => Err(format!("invalid --degrade value {s:?} (expected fail or inprocess)")),
    }
}

/// Parses a `--blocking` value: `exact` or `lsh:<bands>x<rows>`.
fn parse_blocking(s: &str) -> Result<CandidateSource, String> {
    if s == "exact" {
        return Ok(CandidateSource::Exact);
    }
    let parsed = s.strip_prefix("lsh:").and_then(|spec| {
        let (b, r) = spec.split_once('x')?;
        Some((b.parse::<usize>().ok()?, r.parse::<usize>().ok()?))
    });
    match parsed {
        Some((bands, rows)) if bands > 0 && rows > 0 => Ok(CandidateSource::Lsh { bands, rows }),
        _ => Err(format!("invalid --blocking value {s:?} (expected exact or lsh:<bands>x<rows>)")),
    }
}

/// Graph storage the scalability experiments run the matcher on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreMode {
    /// In-memory delta-encoded [`snr_graph::CompactCsr`] (the default).
    #[default]
    Compact,
    /// On-disk segments opened as [`snr_store::MmapGraph`]s: resident graph
    /// memory is bounded by what the kernel pages in from the mapped files.
    Mmap,
}

impl StoreMode {
    /// Short label for table headers and experiment records.
    pub fn label(&self) -> &'static str {
        match self {
            StoreMode::Compact => "CompactCsr",
            StoreMode::Mmap => "MmapGraph",
        }
    }
}

impl FromStr for StoreMode {
    type Err = String;

    fn from_str(s: &str) -> Result<StoreMode, String> {
        match s {
            "compact" => Ok(StoreMode::Compact),
            "mmap" => Ok(StoreMode::Mmap),
            _ => Err(format!("invalid --store value {s:?} (expected compact or mmap)")),
        }
    }
}

/// Parsed command-line arguments of an experiment binary.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentArgs {
    /// RNG seed for every random choice in the experiment.
    pub seed: u64,
    /// Whether to run at full (paper) scale.
    pub full: bool,
    /// Optional path to write the JSON experiment record to.
    pub json: Option<PathBuf>,
    /// Graph representation of in-process runs for the binaries that honor
    /// it (driver runs always map segments).
    pub store: StoreMode,
    /// Execution backend for the binaries that honor it.
    pub backend: Backend,
    /// Worker-subprocess count when `--backend driver[:N]` selects the
    /// multi-process shard driver (`snr-driver`) instead of an in-process
    /// backend; `None` for the in-process backends.
    pub driver: Option<usize>,
    /// Candidate generation for the binaries that honor it.
    pub blocking: CandidateSource,
    /// Respawn budget override for driver-backed runs (`None` keeps the
    /// driver default).
    pub respawn_budget: Option<u32>,
    /// Degradation policy override for driver-backed runs (`None` keeps
    /// the driver default).
    pub degrade: Option<DegradePolicy>,
    /// Shuffle memory budget in bytes for MapReduce-backed runs (`None`
    /// keeps the engine fully in memory; `Some(0)` spills every round).
    pub spill_budget: Option<u64>,
    /// Optional path to write the telemetry JSONL trace to (also enables
    /// telemetry for the run, like `SNR_TRACE`).
    pub trace_out: Option<PathBuf>,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            seed: 20_140_707,
            full: false,
            json: None,
            store: StoreMode::Compact,
            backend: Backend::Sequential,
            driver: None,
            blocking: CandidateSource::Exact,
            respawn_budget: None,
            degrade: None,
            spill_budget: None,
            trace_out: None,
        }
    }
}

impl ExperimentArgs {
    /// Parses arguments from an iterator of strings (excluding the program
    /// name). Unknown flags produce an error string listing the usage.
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = ExperimentArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            // Every flag takes its value either as the next argument or
            // inline, `--flag=value`.
            let arg = arg.as_ref();
            let (flag, mut inline) = match arg.split_once('=') {
                Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_string())),
                _ => (arg, None),
            };
            let mut value = |what: &str| match inline.take() {
                Some(v) => Ok(v),
                None => iter
                    .next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| format!("{flag} requires {what}")),
            };
            match flag {
                "--seed" => {
                    let v = value("a value")?;
                    out.seed = v.parse().map_err(|_| format!("invalid --seed value: {v}"))?;
                }
                "--json" => out.json = Some(PathBuf::from(value("a path")?)),
                "--store" => out.store = value("a value")?.parse()?,
                "--backend" => out.set_backend(&value("a value")?)?,
                "--blocking" => out.blocking = parse_blocking(&value("a value")?)?,
                "--respawn-budget" => {
                    out.respawn_budget = Some(parse_respawn_budget(&value("a value")?)?);
                }
                "--degrade" => out.degrade = Some(parse_degrade(&value("a value")?)?),
                "--spill-budget" => {
                    out.spill_budget = Some(parse_spill_budget(&value("a byte count")?)?);
                }
                "--trace-out" => out.trace_out = Some(PathBuf::from(value("a path")?)),
                "--full" if inline.is_none() => out.full = true,
                "--help" | "-h" if inline.is_none() => return Err(Self::usage().to_string()),
                _ => return Err(format!("unknown argument {arg:?}\n{}", Self::usage())),
            }
        }
        Ok(out)
    }

    /// Parses from the process arguments, exiting with a message on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Resolves a `--backend` value: the in-process backends go through
    /// [`parse_backend`]; `driver[:N]` selects the multi-process shard
    /// driver with `N` worker subprocesses (default 2).
    fn set_backend(&mut self, s: &str) -> Result<(), String> {
        if s == "driver" {
            self.driver = Some(2);
            return Ok(());
        }
        if let Some(rest) = s.strip_prefix("driver:") {
            return match rest.parse() {
                Ok(n) if n > 0 => {
                    self.driver = Some(n);
                    Ok(())
                }
                _ => Err(format!("invalid --backend value {s:?} (driver:<N> needs N > 0)")),
            };
        }
        self.driver = None;
        self.backend = parse_backend(s)?;
        Ok(())
    }

    /// Usage string shown for `--help` and on parse errors.
    pub fn usage() -> &'static str {
        "usage: <experiment> [--seed <u64>] [--full] [--json <path>] \
         [--store compact|mmap] \
         [--backend sequential|rayon|mapreduce[:N]|driver[:N]] \
         [--blocking exact|lsh:<B>x<R>] \
         [--respawn-budget <N>] [--degrade fail|inprocess] \
         [--spill-budget <bytes>] [--trace-out <path>]"
    }

    /// Short label of the configured backend for table headers and records.
    pub fn backend_label(&self) -> String {
        if let Some(workers) = self.driver {
            return format!("driver x{workers}");
        }
        match self.backend {
            Backend::Sequential => "sequential".to_string(),
            Backend::Rayon => "rayon".to_string(),
            Backend::MapReduce { workers } => format!("mapreduce x{workers}"),
        }
    }

    /// Short label of the configured candidate source for table headers and
    /// experiment records.
    pub fn blocking_label(&self) -> String {
        match self.blocking {
            CandidateSource::Exact => "exact".to_string(),
            CandidateSource::Lsh { bands, rows } => format!("lsh:{bands}x{rows}"),
        }
    }

    /// Applies the telemetry-related arguments: `--trace-out` sets the trace
    /// path and enables telemetry, then the `SNR_TRACE`/`SNR_TELEMETRY`/
    /// `SNR_LOG` environment variables are honored. Call once at binary
    /// startup, before the run begins.
    pub fn init_telemetry(&self) {
        snr_telemetry::init_from_env();
        if let Some(path) = &self.trace_out {
            snr_telemetry::set_trace_path(path.clone());
            snr_telemetry::enable();
        }
    }

    /// Writes the telemetry JSONL trace if `--trace-out` (or `SNR_TRACE`)
    /// configured a path, reporting where it went.
    pub fn maybe_write_trace(&self) {
        match snr_telemetry::write_trace_if_configured() {
            Ok(Some(path)) => eprintln!("wrote trace {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("failed to write trace: {e}"),
        }
    }

    /// Writes an experiment record to the `--json` path if one was given.
    pub fn maybe_write_json(&self, record: &snr_metrics::ExperimentRecord) {
        if let Some(path) = &self.json {
            match std::fs::write(path, record.to_json()) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_when_no_args() {
        let args = ExperimentArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(args, ExperimentArgs::default());
        assert!(!args.full);
        assert!(args.json.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let args =
            ExperimentArgs::parse(["--seed", "42", "--full", "--json", "/tmp/out.json"]).unwrap();
        assert_eq!(args.seed, 42);
        assert!(args.full);
        assert_eq!(args.json, Some(PathBuf::from("/tmp/out.json")));
        assert_eq!(args.store, StoreMode::Compact);
    }

    #[test]
    fn parses_store_modes_in_both_spellings() {
        assert_eq!(ExperimentArgs::parse(["--store", "mmap"]).unwrap().store, StoreMode::Mmap);
        assert_eq!(ExperimentArgs::parse(["--store=mmap"]).unwrap().store, StoreMode::Mmap);
        assert_eq!(
            ExperimentArgs::parse(["--store", "compact"]).unwrap().store,
            StoreMode::Compact
        );
        assert_eq!(StoreMode::Mmap.label(), "MmapGraph");
    }

    #[test]
    fn rejects_unknown_and_malformed_flags() {
        assert!(ExperimentArgs::parse(["--bogus"]).is_err());
        assert!(ExperimentArgs::parse(["--seed"]).is_err());
        assert!(ExperimentArgs::parse(["--seed", "abc"]).is_err());
        assert!(ExperimentArgs::parse(["--json"]).is_err());
        assert!(ExperimentArgs::parse(["--store"]).is_err());
        assert!(ExperimentArgs::parse(["--store", "floppy"]).is_err());
        assert!(ExperimentArgs::parse(["--store=sharded:4"]).is_err());
        assert!(ExperimentArgs::parse(["--backend"]).is_err());
        assert!(ExperimentArgs::parse(["--backend", "quantum"]).is_err());
        assert!(ExperimentArgs::parse(["--backend=mapreduce:0"]).is_err());
        assert!(ExperimentArgs::parse(["--backend=mapreduce:x"]).is_err());
    }

    #[test]
    fn parses_backend_modes_in_both_spellings() {
        assert_eq!(ExperimentArgs::parse(["--backend", "rayon"]).unwrap().backend, Backend::Rayon);
        assert_eq!(
            ExperimentArgs::parse(["--backend=sequential"]).unwrap().backend,
            Backend::Sequential
        );
        assert_eq!(
            ExperimentArgs::parse(["--backend=mapreduce:3"]).unwrap().backend,
            Backend::MapReduce { workers: 3 }
        );
        match ExperimentArgs::parse(["--backend", "mapreduce"]).unwrap().backend {
            Backend::MapReduce { workers } => assert!(workers >= 1),
            other => panic!("unexpected backend {other:?}"),
        }
        let args = ExperimentArgs::parse(["--backend=mapreduce:3"]).unwrap();
        assert_eq!(args.backend_label(), "mapreduce x3");
        assert_eq!(ExperimentArgs::default().backend_label(), "sequential");
    }

    #[test]
    fn parses_driver_backend_in_both_spellings() {
        let args = ExperimentArgs::parse(["--backend", "driver:4"]).unwrap();
        assert_eq!(args.driver, Some(4));
        assert_eq!(args.backend_label(), "driver x4");
        assert_eq!(ExperimentArgs::parse(["--backend=driver:3"]).unwrap().driver, Some(3));
        assert_eq!(ExperimentArgs::parse(["--backend=driver"]).unwrap().driver, Some(2));
        // Switching back to an in-process backend clears the driver choice.
        let args = ExperimentArgs::parse(["--backend=driver:4", "--backend=rayon"]).unwrap();
        assert_eq!(args.driver, None);
        assert_eq!(args.backend, Backend::Rayon);
        assert!(ExperimentArgs::parse(["--backend=driver:0"]).is_err());
        assert!(ExperimentArgs::parse(["--backend=driver:x"]).is_err());
    }

    #[test]
    fn parses_blocking_modes_in_both_spellings() {
        assert_eq!(ExperimentArgs::default().blocking, CandidateSource::Exact);
        assert_eq!(
            ExperimentArgs::parse(["--blocking", "exact"]).unwrap().blocking,
            CandidateSource::Exact
        );
        let args = ExperimentArgs::parse(["--blocking=lsh:16x2"]).unwrap();
        assert_eq!(args.blocking, CandidateSource::Lsh { bands: 16, rows: 2 });
        assert_eq!(args.blocking_label(), "lsh:16x2");
        assert_eq!(
            ExperimentArgs::parse(["--blocking", "lsh:8x4"]).unwrap().blocking,
            CandidateSource::Lsh { bands: 8, rows: 4 }
        );
        assert_eq!(ExperimentArgs::default().blocking_label(), "exact");
        assert!(ExperimentArgs::parse(["--blocking"]).is_err());
        assert!(ExperimentArgs::parse(["--blocking", "fuzzy"]).is_err());
        assert!(ExperimentArgs::parse(["--blocking=lsh:0x2"]).is_err());
        assert!(ExperimentArgs::parse(["--blocking=lsh:16x0"]).is_err());
        assert!(ExperimentArgs::parse(["--blocking=lsh:16"]).is_err());
        assert!(ExperimentArgs::parse(["--blocking=lsh:ax2"]).is_err());
    }

    #[test]
    fn parses_resilience_flags_in_both_spellings() {
        let args = ExperimentArgs::parse(["--respawn-budget", "3", "--degrade", "fail"]).unwrap();
        assert_eq!(args.respawn_budget, Some(3));
        assert_eq!(args.degrade, Some(DegradePolicy::Fail));
        let args = ExperimentArgs::parse(["--respawn-budget=0", "--degrade=inprocess"]).unwrap();
        assert_eq!(args.respawn_budget, Some(0));
        assert_eq!(args.degrade, Some(DegradePolicy::InProcess));
        assert_eq!(ExperimentArgs::default().respawn_budget, None);
        assert_eq!(ExperimentArgs::default().degrade, None);
        assert!(ExperimentArgs::parse(["--respawn-budget"]).is_err());
        assert!(ExperimentArgs::parse(["--respawn-budget", "-1"]).is_err());
        assert!(ExperimentArgs::parse(["--degrade"]).is_err());
        assert!(ExperimentArgs::parse(["--degrade", "shrug"]).is_err());
    }

    #[test]
    fn parses_spill_budget_in_both_spellings() {
        assert_eq!(ExperimentArgs::default().spill_budget, None);
        let args = ExperimentArgs::parse(["--spill-budget", "1048576"]).unwrap();
        assert_eq!(args.spill_budget, Some(1_048_576));
        let args = ExperimentArgs::parse(["--spill-budget=0"]).unwrap();
        assert_eq!(args.spill_budget, Some(0));
        assert!(ExperimentArgs::parse(["--spill-budget"]).is_err());
        assert!(ExperimentArgs::parse(["--spill-budget", "-1"]).is_err());
        assert!(ExperimentArgs::parse(["--spill-budget", "lots"]).is_err());
        assert!(ExperimentArgs::parse(["--spill-budget=256MB"]).is_err());
        assert!(ExperimentArgs::parse(["--spill-budget=1.5"]).is_err());
        let err = ExperimentArgs::parse(["--spill-budget=1e6"]).unwrap_err();
        assert!(err.contains("--spill-budget"), "{err}");
    }

    #[test]
    fn parses_trace_out_in_both_spellings() {
        assert_eq!(ExperimentArgs::default().trace_out, None);
        let args = ExperimentArgs::parse(["--trace-out", "/tmp/trace.jsonl"]).unwrap();
        assert_eq!(args.trace_out, Some(PathBuf::from("/tmp/trace.jsonl")));
        let args = ExperimentArgs::parse(["--trace-out=/tmp/t2.jsonl"]).unwrap();
        assert_eq!(args.trace_out, Some(PathBuf::from("/tmp/t2.jsonl")));
        assert!(ExperimentArgs::parse(["--trace-out"]).is_err());
    }

    #[test]
    fn help_returns_usage() {
        let err = ExperimentArgs::parse(["--help"]).unwrap_err();
        assert!(err.contains("usage"));
    }
}
