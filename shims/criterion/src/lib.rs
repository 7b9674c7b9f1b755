//! Offline shim for the subset of the Criterion benchmarking API this
//! workspace uses. Benchmarks compile and run with `cargo bench`, printing
//! mean ± standard deviation and the min/max wall-clock time per iteration;
//! there is no plotting or baseline comparison.
//!
//! So that perf claims are comparable *across* PRs, every benchmark run
//! also writes one JSON record to `target/criterion-json/<label>.json`
//! (`CARGO_TARGET_DIR` is honored; set `CRITERION_SHIM_JSON_DIR` to
//! redirect, or set it to the empty string to disable the files).
//!
//! The iteration budget is intentionally small (time-boxed per benchmark)
//! so `cargo bench` completes quickly; set `CRITERION_SHIM_SAMPLES` to
//! override the per-benchmark sample count, or pass `--quick` (as in
//! `cargo bench ... -- --quick`, mirroring criterion's quick mode) to cap
//! every benchmark at 2 samples for CI smoke runs.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Time budget per benchmark function (after the single warm-up call).
const TIME_BUDGET: Duration = Duration::from_secs(2);

/// Top-level benchmark driver.
pub struct Criterion {
    json_dir: Option<PathBuf>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { json_dir: json_dir_from_env() }
    }
}

impl Criterion {
    /// Overrides (or, with `None`, disables) the directory the per-run JSON
    /// records are written to. The default comes from
    /// `CRITERION_SHIM_JSON_DIR` / the workspace `target/criterion-json`.
    pub fn with_json_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.json_dir = dir;
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { parent: self, name: name.into(), sample_size: default_samples() }
    }
}

fn default_samples() -> usize {
    std::env::var("CRITERION_SHIM_SAMPLES").ok().and_then(|s| s.parse().ok()).unwrap_or(10)
}

/// True when the benchmark binary was invoked with `--quick` (mirroring
/// criterion's quick mode): sample counts are capped so a whole bench
/// target finishes in CI-smoke time while still emitting JSON records.
fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<I, F>(&mut self, id: I, f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into().label);
        run_benchmark(self.parent.json_dir.as_deref(), &label, self.sample_size, f);
        self
    }

    /// Runs one benchmark parameterized by an input value.
    pub fn bench_with_input<I, P, F>(&mut self, id: I, input: &P, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        P: ?Sized,
        F: FnMut(&mut Bencher, &P),
    {
        let label = format!("{}/{}", self.name, id.into().label);
        run_benchmark(self.parent.json_dir.as_deref(), &label, self.sample_size, |b| f(b, input));
        self
    }

    /// Finishes the group.
    pub fn finish(self) {}
}

/// Summary statistics of one benchmark's per-iteration times, in seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleSummary {
    /// Number of timed iterations.
    pub samples: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`0.0` with fewer than two samples).
    pub std_dev: f64,
    /// Fastest iteration.
    pub min: f64,
    /// Slowest iteration.
    pub max: f64,
}

/// Computes [`SampleSummary`] over per-iteration times in seconds. Returns
/// `None` for an empty slice.
pub fn summarize(times: &[f64]) -> Option<SampleSummary> {
    if times.is_empty() {
        return None;
    }
    let n = times.len() as f64;
    let mean = times.iter().sum::<f64>() / n;
    let std_dev = if times.len() < 2 {
        0.0
    } else {
        let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / (n - 1.0);
        var.sqrt()
    };
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Some(SampleSummary { samples: times.len(), mean, std_dev, min, max })
}

/// The build's target directory. Benchmarks run with the *package* root as
/// cwd, so a bare relative `target` would land inside the package; walk up
/// to the workspace root (marked by `Cargo.lock`) instead.
fn default_target_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("target");
        }
        if !dir.pop() {
            return PathBuf::from("target");
        }
    }
}

/// Default directory for the per-run JSON records; `None` disables them.
fn json_dir_from_env() -> Option<PathBuf> {
    if let Ok(dir) = std::env::var("CRITERION_SHIM_JSON_DIR") {
        return if dir.is_empty() { None } else { Some(PathBuf::from(dir)) };
    }
    Some(default_target_dir().join("criterion-json"))
}

/// Minimal JSON string escaping for benchmark labels.
fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn write_json_record(dir: &std::path::Path, label: &str, s: &SampleSummary) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("criterion shim: cannot create {}: {e}", dir.display());
        return;
    }
    let file_stem: String =
        label.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
    let path = dir.join(format!("{file_stem}.json"));
    let json = format!(
        "{{\n  \"label\": \"{}\",\n  \"samples\": {},\n  \"mean_s\": {:e},\n  \
         \"std_dev_s\": {:e},\n  \"min_s\": {:e},\n  \"max_s\": {:e}\n}}\n",
        escape_json(label),
        s.samples,
        s.mean,
        s.std_dev,
        s.min,
        s.max
    );
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("criterion shim: cannot write {}: {e}", path.display());
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    json_dir: Option<&std::path::Path>,
    label: &str,
    samples: usize,
    mut f: F,
) {
    let samples = if quick_mode() { samples.min(2) } else { samples };
    let mut bencher = Bencher { sample_times: Vec::new(), samples };
    f(&mut bencher);
    match summarize(&bencher.sample_times) {
        Some(summary) => {
            println!(
                "{label:<60} time: {} ± {}  [min {}, max {}]  ({} iterations)",
                format_time(summary.mean),
                format_time(summary.std_dev),
                format_time(summary.min),
                format_time(summary.max),
                summary.samples
            );
            if let Some(dir) = json_dir {
                write_json_record(dir, label, &summary);
            }
        }
        None => println!("{label:<60} (no iterations executed)"),
    }
}

fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Timing handle passed to each benchmark closure.
pub struct Bencher {
    sample_times: Vec<f64>,
    samples: usize,
}

impl Bencher {
    /// Times repeated calls of `routine`: one warm-up call, then up to the
    /// configured sample count (stopping early if the time budget runs out).
    /// Each timed call becomes one sample of the reported statistics.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        let budget_start = Instant::now();
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.sample_times.push(start.elapsed().as_secs_f64());
            if budget_start.elapsed() > TIME_BUDGET {
                break;
            }
        }
    }
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id made of a parameter value only.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.to_string() }
    }
}

/// Declares a benchmark group function, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_reports_mean_std_min_max() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.samples, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // Sample std-dev of 1,2,3,4 = sqrt(5/3).
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12, "std {}", s.std_dev);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summarize_handles_degenerate_inputs() {
        assert!(summarize(&[]).is_none());
        let one = summarize(&[0.5]).unwrap();
        assert_eq!(one.std_dev, 0.0);
        assert_eq!(one.min, one.max);
    }

    #[test]
    fn labels_are_json_escaped() {
        assert_eq!(escape_json("plain/label-1"), "plain/label-1");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn bench_run_writes_a_json_record() {
        // Inject the output directory instead of mutating the process
        // environment (tests run concurrently in one process).
        let dir = std::env::temp_dir().join("criterion-shim-test-json");
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = Criterion::default().with_json_dir(Some(dir.clone()));
        c.benchmark_group("json smoke").bench_function("k=1", |b| b.iter(|| 1 + 1));
        let record =
            std::fs::read_to_string(dir.join("json-smoke-k-1.json")).expect("record written");
        for key in
            ["\"label\"", "\"samples\"", "\"mean_s\"", "\"std_dev_s\"", "\"min_s\"", "\"max_s\""]
        {
            assert!(record.contains(key), "missing {key} in {record}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_api_shapes_compile_and_run() {
        // JSON output disabled: API-shape runs should not leave records in
        // the real target/criterion-json next to genuine bench results.
        let mut c = Criterion::default().with_json_dir(None);
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        group.bench_function("plain", |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::from_parameter(5), &5u32, |b, &x| b.iter(|| x * 2));
        group.finish();
    }
}
