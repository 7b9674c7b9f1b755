//! Schema validation for emitted experiment records and benchmark
//! regression gating.
//!
//! CI smoke-runs the fastest experiment binaries and then checks their
//! `--json` output with [`validate_record_json`]: the record must parse,
//! carry a non-empty identity, contain at least one measured row, and every
//! number in it must be finite. This catches the failure mode where a
//! binary "succeeds" while silently emitting NaNs or an empty table — a
//! regression the exit code alone would never show.
//!
//! CI also smoke-runs `bench_witnesses` and diffs the criterion-shim JSON
//! records against the checked-in `BENCH_BASELINE.json` with
//! [`check_bench_regressions`], so a change that quietly slows the witness
//! kernel past the tolerance fails the build instead of landing unnoticed.

use serde::Deserialize;
use snr_metrics::ExperimentRecord;
use std::collections::HashMap;

/// Validates one JSON experiment record; returns a short human-readable
/// summary on success and the first problem found on failure.
pub fn validate_record_json(json: &str) -> Result<String, String> {
    let record =
        ExperimentRecord::from_json(json).map_err(|e| format!("record does not parse: {e:?}"))?;
    if record.id.trim().is_empty() {
        return Err("record id is empty".to_string());
    }
    if record.paper_reference.trim().is_empty() {
        return Err(format!("record {:?} has an empty paper_reference", record.id));
    }
    if record.rows.is_empty() {
        return Err(format!("record {:?} has no measured rows", record.id));
    }
    let mut values = 0usize;
    for (i, row) in record.rows.iter().enumerate() {
        if row.label.trim().is_empty() {
            return Err(format!("record {:?}: row {i} has an empty label", record.id));
        }
        if row.values.is_empty() {
            return Err(format!("record {:?}: row {:?} has no values", record.id, row.label));
        }
        for (key, &v) in row.values.iter().chain(row.paper.iter()) {
            if !v.is_finite() {
                return Err(format!(
                    "record {:?}: row {:?} value {key:?} is not finite ({v})",
                    record.id, row.label
                ));
            }
            values += 1;
        }
    }
    Ok(format!(
        "{}: {} rows, {} finite values ({})",
        record.id,
        record.rows.len(),
        values,
        record.paper_reference
    ))
}

/// The checked-in benchmark baseline: per-label mean iteration times a
/// bench smoke run is compared against.
#[derive(Clone, Debug, Deserialize)]
pub struct BenchBaseline {
    /// Where the baseline numbers were recorded (machine / settings), for
    /// humans reading a failure.
    pub note: String,
    /// Relative slowdown allowed before a label counts as a regression
    /// (`0.25` = fail when the mean is more than 25% above the baseline).
    pub tolerance: f64,
    /// Baseline mean seconds per iteration, keyed by the criterion label.
    pub benches: HashMap<String, f64>,
}

/// One benchmark record as written by the criterion shim to
/// `target/criterion-json/<label>.json`.
#[derive(Clone, Debug, Deserialize)]
pub struct BenchRecord {
    /// Full criterion label (`group/bench`).
    pub label: String,
    /// Number of timed iterations behind the statistics.
    pub samples: u64,
    /// Mean seconds per iteration.
    pub mean_s: f64,
}

/// Diffs freshly measured benchmark means against a [`BenchBaseline`].
///
/// Every label pinned in the baseline must be present in `current` (a
/// silently-renamed or deleted benchmark would otherwise disable its gate)
/// and must not be slower than `baseline mean × (1 + tolerance)`. Returns
/// one human-readable comparison line per label on success, or the list of
/// problems on failure. Speedups never fail — they just show up in the
/// report (and deserve a baseline refresh).
pub fn check_bench_regressions(
    baseline: &BenchBaseline,
    current: &HashMap<String, f64>,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut labels: Vec<&String> = baseline.benches.keys().collect();
    labels.sort();
    let mut report = Vec::new();
    let mut problems = Vec::new();
    for label in labels {
        let base = baseline.benches[label];
        if !(base.is_finite() && base > 0.0) {
            problems.push(format!("{label}: baseline mean {base} is not a positive number"));
            continue;
        }
        match current.get(label) {
            None => problems.push(format!("{label}: pinned in the baseline but not measured")),
            Some(&mean) if !mean.is_finite() => {
                problems.push(format!("{label}: measured mean is not finite ({mean})"));
            }
            Some(&mean) => {
                let ratio = mean / base;
                if ratio > 1.0 + tolerance {
                    problems.push(format!(
                        "{label}: regressed {:.1}% (baseline {:.3e}s, measured {:.3e}s, \
                         tolerance {:.0}%)",
                        (ratio - 1.0) * 100.0,
                        base,
                        mean,
                        tolerance * 100.0
                    ));
                } else {
                    report.push(format!(
                        "{label}: {:+.1}% vs baseline ({:.3e}s -> {:.3e}s)",
                        (ratio - 1.0) * 100.0,
                        base,
                        mean
                    ));
                }
            }
        }
    }
    if problems.is_empty() {
        Ok(report)
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_metrics::{ExperimentRecord, MeasuredRow};

    fn valid_record() -> ExperimentRecord {
        let mut rec = ExperimentRecord::new("table_test", "Table T").parameter("seed", "1");
        rec.push_row(MeasuredRow::new("row-a").value("good", 10.0).paper_value("good", 12.0));
        rec
    }

    #[test]
    fn accepts_a_well_formed_record() {
        let summary = validate_record_json(&valid_record().to_json()).unwrap();
        assert!(summary.contains("table_test"));
        assert!(summary.contains("1 rows"));
    }

    #[test]
    fn rejects_unparseable_input() {
        assert!(validate_record_json("{nope").is_err());
        // Well-formed JSON of the wrong shape: a missing field, and a
        // string where a row value must be a number.
        let no_rows = r#"{"id": "x", "paper_reference": "Table X", "parameters": {}}"#;
        let err = validate_record_json(no_rows).unwrap_err();
        assert!(err.contains("missing field `rows`"), "{err}");
        let string_value = r#"{"id": "x", "paper_reference": "Table X", "parameters": {},
            "rows": [{"label": "r", "values": {"good": "many"}, "paper": {}}]}"#;
        let err = validate_record_json(string_value).unwrap_err();
        assert!(err.contains("expected float"), "{err}");
    }

    #[test]
    fn rejects_empty_rows() {
        let rec = ExperimentRecord::new("x", "Table X");
        let err = validate_record_json(&rec.to_json()).unwrap_err();
        assert!(err.contains("no measured rows"), "{err}");
    }

    #[test]
    fn rejects_non_finite_values() {
        // `1e999` overflows to +inf when parsed; NaN itself cannot round-trip
        // through JSON (it serializes as null), so overflow is the way a
        // non-finite number actually reaches a stored record.
        let json = r#"{
            "id": "x",
            "paper_reference": "Table X",
            "parameters": {},
            "rows": [{"label": "r", "values": {"bad": 1e999}, "paper": {}}]
        }"#;
        let err = validate_record_json(json).unwrap_err();
        assert!(err.contains("not finite"), "{err}");
    }

    #[test]
    fn rejects_rows_without_values() {
        let mut rec = ExperimentRecord::new("x", "Table X");
        rec.push_row(MeasuredRow::new("r"));
        let err = validate_record_json(&rec.to_json()).unwrap_err();
        assert!(err.contains("no values"), "{err}");
    }

    #[test]
    fn rejects_blank_identity() {
        let mut rec = ExperimentRecord::new(" ", "Table X");
        rec.push_row(MeasuredRow::new("r").value("v", 1.0));
        assert!(validate_record_json(&rec.to_json()).is_err());
    }

    fn baseline(entries: &[(&str, f64)]) -> BenchBaseline {
        BenchBaseline {
            note: "test".into(),
            tolerance: 0.25,
            benches: entries.iter().map(|&(l, m)| (l.to_string(), m)).collect(),
        }
    }

    #[test]
    fn bench_record_json_round_trips_from_the_shim_format() {
        let json = "{\n  \"label\": \"witness_counting/backends/rayon\",\n  \"samples\": 15,\n  \
                    \"mean_s\": 3.4e-3,\n  \"std_dev_s\": 1e-4,\n  \"min_s\": 3.2e-3,\n  \
                    \"max_s\": 3.8e-3\n}\n";
        let rec: BenchRecord = serde_json::from_str(json).unwrap();
        assert_eq!(rec.label, "witness_counting/backends/rayon");
        assert_eq!(rec.samples, 15);
        assert!((rec.mean_s - 3.4e-3).abs() < 1e-12);
    }

    #[test]
    fn regressions_within_tolerance_pass() {
        let base = baseline(&[("a", 1.0), ("b", 2.0)]);
        let current = HashMap::from([("a".to_string(), 1.2), ("b".to_string(), 0.5)]);
        let report = check_bench_regressions(&base, &current, 0.25).unwrap();
        assert_eq!(report.len(), 2);
        assert!(report.iter().any(|l| l.contains("+20.0%")), "{report:?}");
    }

    #[test]
    fn regressions_beyond_tolerance_fail() {
        let base = baseline(&[("a", 1.0)]);
        let current = HashMap::from([("a".to_string(), 1.3)]);
        let problems = check_bench_regressions(&base, &current, 0.25).unwrap_err();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("regressed 30.0%"), "{problems:?}");
    }

    #[test]
    fn missing_measurements_fail_the_gate() {
        let base = baseline(&[("a", 1.0), ("gone", 1.0)]);
        let current = HashMap::from([("a".to_string(), 1.0)]);
        let problems = check_bench_regressions(&base, &current, 0.25).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("gone")), "{problems:?}");
    }

    #[test]
    fn non_positive_baselines_are_rejected() {
        let base = baseline(&[("a", 0.0)]);
        let current = HashMap::from([("a".to_string(), 1.0)]);
        assert!(check_bench_regressions(&base, &current, 0.25).is_err());
    }
}
