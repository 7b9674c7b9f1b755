//! Machine-readable experiment records.
//!
//! Every experiment binary can dump its measurements as JSON
//! ([`ExperimentRecord`]), so the paper-vs-measured comparison is
//! reproducible rather than hand-copied; `run_all` collects every binary's
//! record into one directory.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One measured row of an experiment (e.g. one `(seed probability,
/// threshold)` cell of Table 3).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeasuredRow {
    /// Human-readable label of the row ("seed=10% T=4", "RMAT26", …).
    pub label: String,
    /// Named measurements for the row (good, bad, precision, seconds, …).
    pub values: BTreeMap<String, f64>,
    /// The corresponding numbers reported in the paper, where applicable.
    pub paper: BTreeMap<String, f64>,
}

impl MeasuredRow {
    /// Creates an empty row with a label.
    pub fn new(label: impl Into<String>) -> Self {
        MeasuredRow { label: label.into(), values: BTreeMap::new(), paper: BTreeMap::new() }
    }

    /// Adds a measured value.
    pub fn value(mut self, key: impl Into<String>, v: f64) -> Self {
        self.values.insert(key.into(), v);
        self
    }

    /// Adds the paper's reference value for the same key.
    pub fn paper_value(mut self, key: impl Into<String>, v: f64) -> Self {
        self.paper.insert(key.into(), v);
        self
    }
}

/// A full experiment record: identity, parameters, and measured rows.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment identifier, e.g. `"table3_facebook"` or `"figure2"`.
    pub id: String,
    /// The table / figure of the paper this experiment reproduces.
    pub paper_reference: String,
    /// Free-form parameter description (dataset, s, l, T, k, seed).
    pub parameters: BTreeMap<String, String>,
    /// Measured rows.
    pub rows: Vec<MeasuredRow>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: impl Into<String>, paper_reference: impl Into<String>) -> Self {
        ExperimentRecord {
            id: id.into(),
            paper_reference: paper_reference.into(),
            parameters: BTreeMap::new(),
            rows: Vec::new(),
        }
    }

    /// Records a parameter.
    pub fn parameter(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.parameters.insert(key.into(), value.into());
        self
    }

    /// Appends a measured row.
    pub fn push_row(&mut self, row: MeasuredRow) {
        self.rows.push(row);
    }

    /// Serializes the record as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("experiment records are always serializable")
    }

    /// Parses a record from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_parameters_and_rows() {
        let mut rec = ExperimentRecord::new("table4", "Table 4")
            .parameter("dataset", "affiliation-60k")
            .parameter("delete_prob", "0.25");
        rec.push_row(
            MeasuredRow::new("T=2 seed=10%")
                .value("good", 55_000.0)
                .value("bad", 1.0)
                .paper_value("good", 55_942.0)
                .paper_value("bad", 0.0),
        );
        assert_eq!(rec.rows.len(), 1);
        assert_eq!(rec.parameters.len(), 2);
        assert_eq!(rec.rows[0].values["good"], 55_000.0);
        assert_eq!(rec.rows[0].paper["good"], 55_942.0);
    }

    #[test]
    fn json_roundtrip() {
        let mut rec = ExperimentRecord::new("figure2", "Figure 2");
        rec.push_row(MeasuredRow::new("l=5% T=3").value("good", 12.0));
        let json = rec.to_json();
        let back = ExperimentRecord::from_json(&json).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(ExperimentRecord::from_json("not json").is_err());
    }
}
