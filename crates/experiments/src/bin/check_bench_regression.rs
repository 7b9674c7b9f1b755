//! Diffs criterion-shim benchmark records against the checked-in baseline.
//!
//! Usage: `check_bench_regression <BENCH_BASELINE.json> <records-dir>
//! [--tolerance <fraction>]`
//!
//! Reads every `*.json` record the criterion shim wrote to `<records-dir>`
//! (normally `target/criterion-json`), then compares the labels pinned in
//! the baseline: a label that is missing, or whose mean regressed beyond
//! the tolerance (the baseline file's own `tolerance` unless overridden on
//! the command line), fails the build. CI runs this after a `--quick`
//! smoke run of `bench_witnesses` so the witness-kernel fast path cannot
//! silently slow down.

use snr_experiments::{check_bench_regressions, BenchBaseline, BenchRecord};
use std::collections::HashMap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut tolerance_override = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--tolerance" {
            let value = iter.next().and_then(|v| v.parse::<f64>().ok());
            match value {
                Some(t) if t >= 0.0 => tolerance_override = Some(t),
                _ => {
                    eprintln!("--tolerance needs a non-negative number");
                    std::process::exit(2);
                }
            }
        } else {
            positional.push(arg);
        }
    }
    let [baseline_path, records_dir] = positional.as_slice() else {
        eprintln!("usage: check_bench_regression <baseline.json> <records-dir> [--tolerance <f>]");
        std::process::exit(2);
    };

    let baseline: BenchBaseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))
        .and_then(|json| {
            serde_json::from_str(&json)
                .map_err(|e| format!("{baseline_path} does not parse: {e:?}"))
        })
        .unwrap_or_else(|msg| {
            eprintln!("FAIL {msg}");
            std::process::exit(1);
        });

    let mut current: HashMap<String, f64> = HashMap::new();
    let entries = std::fs::read_dir(records_dir).unwrap_or_else(|e| {
        eprintln!("FAIL cannot read records dir {records_dir}: {e}");
        std::process::exit(1);
    });
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|ext| ext != "json") {
            continue;
        }
        match std::fs::read_to_string(&path).map_err(|e| format!("cannot read: {e}")).and_then(
            |json| {
                serde_json::from_str::<BenchRecord>(&json)
                    .map_err(|e| format!("does not parse as a bench record: {e:?}"))
            },
        ) {
            Ok(record) => {
                current.insert(record.label, record.mean_s);
            }
            // Non-bench JSON in the directory is not an error; the gate
            // below catches genuinely missing labels.
            Err(msg) => eprintln!("note: skipping {}: {msg}", path.display()),
        }
    }

    let tolerance = tolerance_override.unwrap_or(baseline.tolerance);
    match check_bench_regressions(&baseline, &current, tolerance) {
        Ok(report) => {
            for line in report {
                println!("ok {line}");
            }
            // The baseline's `note` (how its numbers were recorded) stays in
            // the JSON: it runs to kilobytes, too long for a summary line.
            println!(
                "bench baseline check passed: {} labels within {:.0}% of {baseline_path}",
                baseline.benches.len(),
                100.0 * tolerance
            );
        }
        Err(problems) => {
            for p in problems {
                eprintln!("FAIL {p}");
            }
            std::process::exit(1);
        }
    }
}
