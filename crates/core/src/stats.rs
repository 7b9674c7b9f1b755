//! Per-phase statistics and the overall matching outcome.

use crate::config::Phase;
use crate::linking::Linking;
use serde::{Deserialize, Serialize};
use snr_graph::NodeId;
use std::time::{Duration, Instant};

/// Statistics of one phase (one degree bucket within one outer iteration).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Outer iteration index, starting at 1.
    pub iteration: u32,
    /// Degree-bucket exponent `j` (the phase considered nodes of degree
    /// ≥ `2^j`); `0` when degree bucketing is disabled.
    pub bucket: u32,
    /// Number of candidate pairs that received a non-zero score.
    pub scored_pairs: usize,
    /// Number of new links added by this phase.
    pub new_links: usize,
    /// Total links after this phase.
    pub total_links: usize,
    /// Wall-clock duration of the phase.
    #[serde(with = "duration_micros")]
    pub duration: Duration,
}

mod duration_micros {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(d.as_micros() as u64)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let micros = <u64 as serde::Deserialize>::deserialize(d)?;
        Ok(Duration::from_micros(micros))
    }
}

/// Result of running a matching algorithm: the final link set plus progress
/// statistics.
#[derive(Clone, Debug)]
pub struct MatchingOutcome {
    /// The final set of identification links (seeds plus discoveries).
    pub links: Linking,
    /// Per-phase statistics in execution order.
    pub phases: Vec<PhaseStats>,
    /// Total wall-clock duration of the run.
    pub total_duration: Duration,
}

impl MatchingOutcome {
    /// A run's outcome before its first phase: `links` holds the seeds.
    pub fn new(links: Linking) -> Self {
        MatchingOutcome { links, phases: Vec::new(), total_duration: Duration::ZERO }
    }

    /// Closes `phase`, which began at `started` and selected `selected`:
    /// inserts the pairs into the links, records the link and phase-time
    /// telemetry, and appends the phase's [`PhaseStats`]. The caller accounts
    /// for `scored_pairs` in telemetry itself (the driver's workers report
    /// their own).
    pub fn close_phase(
        &mut self,
        phase: &Phase,
        scored_pairs: usize,
        selected: &[(NodeId, NodeId)],
        started: Instant,
    ) {
        let new_links = self.links.insert_batch(selected);
        let duration = started.elapsed();
        snr_telemetry::Counter::LinksInserted.add(new_links as u64);
        snr_telemetry::Gauge::LinksTotal.set(self.links.len() as u64);
        snr_telemetry::Histogram::PhaseMicros.record(duration.as_micros() as u64);
        self.phases.push(PhaseStats {
            iteration: phase.iteration,
            bucket: phase.bucket,
            scored_pairs,
            new_links,
            total_links: self.links.len(),
            duration,
        });
    }

    /// Number of links discovered by the algorithm (excludes seeds).
    pub fn discovered(&self) -> usize {
        self.links.discovered_count()
    }

    /// Total number of phases that added at least one link.
    pub fn productive_phases(&self) -> usize {
        self.phases.iter().filter(|p| p.new_links > 0).count()
    }

    /// Sum of scored candidate pairs across all phases (a proxy for the
    /// algorithm's total work).
    pub fn total_scored_pairs(&self) -> usize {
        self.phases.iter().map(|p| p.scored_pairs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_graph::NodeId;

    fn phase(iteration: u32, bucket: u32, new_links: usize) -> PhaseStats {
        PhaseStats {
            iteration,
            bucket,
            scored_pairs: 10 * new_links,
            new_links,
            total_links: new_links,
            duration: Duration::from_micros(42),
        }
    }

    #[test]
    fn outcome_accessors() {
        let mut links = Linking::with_seeds(10, 10, &[(NodeId(0), NodeId(0))]);
        links.insert(NodeId(1), NodeId(2));
        links.insert(NodeId(2), NodeId(1));
        let outcome = MatchingOutcome {
            links,
            phases: vec![phase(1, 3, 2), phase(1, 2, 0), phase(2, 3, 1)],
            total_duration: Duration::from_millis(5),
        };
        assert_eq!(outcome.discovered(), 2);
        assert_eq!(outcome.productive_phases(), 2);
        assert_eq!(outcome.total_scored_pairs(), 30);
    }

    #[test]
    fn phase_stats_serde_roundtrip() {
        let p = phase(2, 5, 7);
        let json = serde_json::to_string(&p).unwrap();
        let p2: PhaseStats = serde_json::from_str(&json).unwrap();
        assert_eq!(p, p2);
    }
}
