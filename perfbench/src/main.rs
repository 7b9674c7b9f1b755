//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run manifest, one human-readable result line per workload,
//! and, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when any call failed or was wrong, and 2
//! on bad arguments.

use perfbench::run::{run_workload, Report};
use perfbench::workload::{Workload, WORKLOADS};
use perfbench::DEFAULT_SEED;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Exact work counts recorded at the default seed, per workload.
const EXPECTED_COUNTS: &str = include_str!("../expected_counts.json");

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed <u64>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { workloads: Vec::new(), seed: DEFAULT_SEED, seconds: 25.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.iter().collect(),
            "--workload" => match Workload::by_name(&value) {
                Some(w) => args.workloads = vec![w],
                None => usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => {
                args.seed = value.parse().unwrap_or_else(|_| usage(&format!("bad seed {value:?}")))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage(&format!("bad seconds {value:?}")))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    if args.workloads.is_empty() {
        usage("--workload is required");
    }
    args
}

/// A digest of the sources the benchmark was built from, standing in for
/// a revision id when the tree is not a git checkout.
fn source_digest() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = ["Cargo.toml", "crates", "shims", "src", "perfbench/src"]
        .iter()
        .map(|p| root.join(p))
        .collect();
    while let Some(p) = stack.pop() {
        if p.is_dir() {
            if let Ok(entries) = std::fs::read_dir(&p) {
                stack.extend(entries.filter_map(|e| e.ok().map(|e| e.path())));
            }
        } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
            files.push(p);
        }
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_report(r: &Report, host: &[(&str, String)]) {
    let mut manifest = String::from("{");
    for (i, (key, value)) in host.iter().chain(r.manifest.iter()).enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(manifest, "{sep}{}:{}", json_str(key), json_str(value));
    }
    manifest.push('}');
    println!("manifest {manifest}");
    let mut line = format!("{}:", r.workload.name);
    for (name, value, unit) in &r.metrics {
        let _ = write!(line, " {name}={value:.6} {unit};");
    }
    println!("{line}");
    let samples = &r.match_s;
    let tail = samples.tail().map_or_else(
        || "no tail percentile (fewer than ten samples beyond p75)".to_string(),
        |(p, v)| format!("p{p} {v:.4} s"),
    );
    let each: Vec<String> = samples.values().iter().map(|v| format!("{v:.3}")).collect();
    println!(
        "  matcher calls: {} timed [{}] s (median {:.4} s, {tail}); fail_rate {:.4} ({})",
        samples.len(),
        each.join(" "),
        samples.median().unwrap_or(0.0),
        r.tally.fail_rate(),
        r.tally
    );
    let counts: Vec<String> =
        r.counts.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    println!("  counts {{{}}}", counts.join(","));
    for note in &r.notes {
        println!("  note: {note}");
    }
    for reason in r.tally.reasons() {
        println!("  FAILED: {reason}");
    }
}

fn main() {
    // Nothing from the caller's environment may change what runs: fault
    // injection, spill budgets and telemetry are all set by the benchmark.
    for var in [
        "SNR_FAULT",
        "SNR_DRIVER_FAULT",
        "SNR_MR_SPILL_BUDGET",
        "SNR_TRACE",
        "SNR_TELEMETRY",
        "SNR_DRIVER_WORKER",
    ] {
        std::env::remove_var(var);
    }
    let args = parse_args();
    let expected: BTreeMap<String, BTreeMap<String, u64>> =
        serde_json::from_str(EXPECTED_COUNTS).expect("expected_counts.json is valid JSON");

    // Scratch space inside the working directory; the driver's snapshots
    // land under TMPDIR, so point it there before any thread starts.
    let base = std::env::current_dir().expect("working directory").join(".perfbench_scratch");
    let scratch = base.join(format!("run-{}", std::process::id()));
    let tmp = scratch.join("tmp");
    std::fs::create_dir_all(&tmp).expect("create scratch directory");
    std::env::set_var("TMPDIR", &tmp);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = [
        ("host_cores", cores.to_string()),
        ("build", source_digest()),
        ("mode", if args.trace { "traced" } else { "untraced" }.to_string()),
        ("seconds", args.seconds.to_string()),
    ];

    let mut all_correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    let single = args.workloads.len() == 1;
    for &w in &args.workloads {
        let report =
            run_workload(w, args.seed, args.seconds, args.trace, &scratch, expected.get(w.name));
        print_report(&report, &host);
        all_correct &= report.tally.failed() == 0;
        attempted += report.tally.attempted();
        failed += report.tally.failed();
        for (name, value, unit) in report.metrics {
            let name = if single { name.to_string() } else { format!("{}/{name}", w.name) };
            metrics.push(format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(&name),
                json_str(unit)
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&base);

    println!(
        "{{\"correct\":{all_correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    if !all_correct {
        std::process::exit(1);
    }
}
