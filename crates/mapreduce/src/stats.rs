//! Execution statistics.
//!
//! The paper's efficiency argument is about *round complexity*: User-Matching
//! needs `O(k log D)` MapReduce rounds. The engine keeps enough bookkeeping
//! to verify that claim on real runs — and enough to verify the
//! *data-movement* claim too: shuffle volume is tracked in records
//! ([`RoundStats::shuffled_records`]) and in bytes
//! ([`RoundStats::shuffled_bytes`]), so the shrinkage that pre-aggregating
//! mappers buy is measured, not assumed.

use std::time::Duration;

/// Statistics of a single MapReduce round (one job execution).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundStats {
    /// Human-readable job label.
    pub label: String,
    /// Number of input records mapped.
    pub input_records: usize,
    /// Number of intermediate `(key, value)` pairs emitted by mappers. The
    /// engine has no combiner, so this equals
    /// [`RoundStats::shuffled_records`].
    pub map_output_records: usize,
    /// Number of intermediate `(key, value)` records shuffled — the number
    /// that crosses the (simulated) network.
    pub shuffled_records: usize,
    /// Shuffle bytes of the round: the codec's
    /// [`crate::SpillCodec::bytes_of`] charge summed over every shuffled
    /// record — the shuffle volume a real cluster would serialize.
    pub shuffled_bytes: usize,
    /// Number of distinct key groups seen by reducers.
    pub key_groups: usize,
    /// Number of output records emitted by reducers.
    pub output_records: usize,
    /// Number of map tasks (input chunks).
    pub map_tasks: usize,
    /// Number of reduce tasks (partitions).
    pub reduce_tasks: usize,
    /// Shuffle bytes that were flushed to on-disk spill runs
    /// instead of staying resident (a subset of
    /// [`RoundStats::shuffled_bytes`]; `0` when the round fit in its
    /// memory budget).
    pub spilled_bytes: usize,
    /// Spill run files written by map tasks this round.
    pub spilled_runs: usize,
    /// Microseconds reduce partitions with run files spent on their
    /// streamed fold, from opening the runs through the k-way merge and
    /// the reduce to its return, summed over those partitions (`0` when
    /// nothing spilled).
    pub spill_merge_micros: u64,
    /// Wall-clock duration of the round.
    pub duration: Duration,
}

/// Aggregate statistics across every round run on an [`crate::Engine`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Number of rounds (jobs) executed so far.
    pub rounds: usize,
    /// Total records mapped across all rounds.
    pub total_input_records: usize,
    /// Total records shuffled across all rounds.
    pub total_shuffled_records: usize,
    /// Total shuffle bytes across all rounds.
    pub total_shuffled_bytes: usize,
    /// Total output records across all rounds.
    pub total_output_records: usize,
    /// Per-round details in execution order.
    pub per_round: Vec<RoundStats>,
}

impl EngineStats {
    /// Records a completed round.
    pub fn record(&mut self, round: RoundStats) {
        self.rounds += 1;
        self.total_input_records += round.input_records;
        self.total_shuffled_records += round.shuffled_records;
        self.total_shuffled_bytes += round.shuffled_bytes;
        self.total_output_records += round.output_records;
        self.per_round.push(round);
    }

    /// Total wall-clock time across all rounds.
    pub fn total_duration(&self) -> Duration {
        self.per_round.iter().map(|r| r.duration).sum()
    }

    /// Total mapper output across all rounds.
    pub(crate) fn total_map_output_records(&self) -> usize {
        self.per_round.iter().map(|r| r.map_output_records).sum()
    }

    /// One-line human-readable account of the engine's work so far, e.g.
    /// `4 rounds: 1203 in, 88411 map-out, 9120 shuffled (charge 109.4 KB), 511 out, 18.3ms`.
    /// The byte figure is the shuffle charge (see [`RoundStats::shuffled_bytes`]),
    /// not the bytes moved.
    pub fn stats_summary(&self) -> String {
        let plural = if self.rounds == 1 { "round" } else { "rounds" };
        format!(
            "{} {plural}: {} in, {} map-out, {} shuffled (charge {}), {} out, {:.1?}",
            self.rounds,
            self.total_input_records,
            self.total_map_output_records(),
            self.total_shuffled_records,
            human_bytes(self.total_shuffled_bytes),
            self.total_output_records,
            self.total_duration(),
        )
    }
}

/// Formats a byte count with a binary-ish decimal unit (KB/MB/GB).
fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1000.0 && unit + 1 < UNITS.len() {
        value /= 1000.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(label: &str, input: usize, shuffled: usize, output: usize) -> RoundStats {
        RoundStats {
            label: label.into(),
            input_records: input,
            map_output_records: shuffled * 2,
            shuffled_records: shuffled,
            shuffled_bytes: shuffled * 12,
            key_groups: output,
            output_records: output,
            map_tasks: 2,
            reduce_tasks: 4,
            spilled_bytes: shuffled * 4,
            spilled_runs: 1,
            spill_merge_micros: 25,
            duration: Duration::from_micros(150),
        }
    }

    #[test]
    fn record_accumulates_totals() {
        let mut s = EngineStats::default();
        s.record(round("a", 10, 30, 5));
        s.record(round("b", 20, 10, 7));
        assert_eq!(s.rounds, 2);
        assert_eq!(s.total_input_records, 30);
        assert_eq!(s.total_shuffled_records, 40);
        assert_eq!(s.total_shuffled_bytes, 480);
        assert_eq!(s.total_map_output_records(), 80);
        assert_eq!(s.total_output_records, 12);
        assert_eq!(s.per_round.len(), 2);
        assert_eq!(s.total_duration(), Duration::from_micros(300));
    }

    #[test]
    fn summary_mentions_rounds_shuffle_and_bytes() {
        let mut s = EngineStats::default();
        s.record(round("a", 10, 30, 5));
        let line = s.stats_summary();
        assert!(line.starts_with("1 round:"), "{line}");
        assert!(line.contains("30 shuffled"), "{line}");
        assert!(line.contains("(charge 360 B)"), "{line}");
        s.record(round("b", 20, 100_000, 7));
        let line = s.stats_summary();
        assert!(line.starts_with("2 rounds:"), "{line}");
        assert!(line.contains("1.2 MB"), "{line}");
    }

    #[test]
    fn human_bytes_scales_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(999), "999 B");
        assert_eq!(human_bytes(1_500), "1.5 KB");
        assert_eq!(human_bytes(2_000_000), "2.0 MB");
        assert_eq!(human_bytes(3_400_000_000), "3.4 GB");
    }
}
