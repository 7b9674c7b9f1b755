//! Error type of the shard driver.

use snr_graph::GraphError;
use snr_store::wire::WireError;

/// Everything that can go wrong while coordinating worker subprocesses.
///
/// The driver's contract is *clean failure*: a dead worker whose row-range
/// can be re-assigned (or whose slot can be respawned) is not an error, but
/// losing every worker past the respawn budget under
/// [`crate::DegradePolicy::Fail`], exhausting the retry budget for one
/// row-range, a corrupt checkpoint, or a malformed frame surfaces as a
/// `DriverError` — never a hang and never a panic.
#[derive(Debug)]
pub enum DriverError {
    /// An I/O failure talking to a worker or the scratch segments.
    Io(std::io::Error),
    /// A graph or segment error (writing scratch segments, decoding claims).
    Graph(GraphError),
    /// A malformed or unexpected protocol frame.
    Protocol(String),
    /// Every worker died and the respawn budget could not refill the pool
    /// (only reachable under [`crate::DegradePolicy::Fail`]; the default
    /// policy finishes in-process instead).
    AllWorkersDead {
        /// The 1-based phase that was running when the pool collapsed.
        phase: u32,
        /// Respawn attempts consumed before giving up.
        respawns_used: u32,
        /// The configured respawn budget.
        respawn_budget: u32,
        /// The most recent worker failure observed, if any.
        last_fault: Option<String>,
    },
    /// One row-range failed or timed out more times than the retry budget
    /// allows (e.g. a task that kills every worker assigned to it).
    TaskAbandoned {
        /// Global id of the first row of the abandoned range.
        first_node: u32,
        /// Number of rows in the abandoned range.
        node_count: u32,
        /// Number of assignment attempts made.
        attempts: u32,
        /// Every worker the range was assigned to, in assignment order.
        workers: Vec<u32>,
        /// The most recent worker failure observed, if any.
        last_fault: Option<String>,
    },
    /// A checkpoint file is missing, corrupt, or inconsistent with the
    /// resume configuration. Corruption is always this error — never a
    /// panic and never a silent partial resume.
    Checkpoint(String),
    /// The run stopped early on an injected coordinator halt (fault site
    /// `halt@phase<P>`); the scratch directory is kept for
    /// [`crate::ShardDriver::resume`].
    Interrupted {
        /// The 1-based phase after which the run halted.
        phase: u32,
    },
    /// `DriverConfig::fault` / `SNR_FAULT` did not parse.
    InvalidFaultSpec(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Io(e) => write!(f, "driver I/O error: {e}"),
            DriverError::Graph(e) => write!(f, "driver graph error: {e}"),
            DriverError::Protocol(msg) => write!(f, "driver protocol error: {msg}"),
            DriverError::AllWorkersDead { phase, respawns_used, respawn_budget, last_fault } => {
                write!(
                    f,
                    "all workers dead during phase {phase} \
                     ({respawns_used}/{respawn_budget} respawns used{})",
                    last_fault_suffix(last_fault)
                )
            }
            DriverError::TaskAbandoned {
                first_node,
                node_count,
                attempts,
                workers,
                last_fault,
            } => {
                write!(
                    f,
                    "row-range starting at {first_node} ({node_count} rows) abandoned after \
                     {attempts} attempts on workers {workers:?}{}",
                    last_fault_suffix(last_fault)
                )
            }
            DriverError::Checkpoint(msg) => write!(f, "driver checkpoint error: {msg}"),
            DriverError::Interrupted { phase } => {
                write!(f, "run halted by injected fault after phase {phase} (resumable)")
            }
            DriverError::InvalidFaultSpec(msg) => write!(f, "invalid fault spec: {msg}"),
        }
    }
}

fn last_fault_suffix(last_fault: &Option<String>) -> String {
    match last_fault {
        Some(s) => format!("; last fault: {s}"),
        None => String::new(),
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriverError::Io(e) => Some(e),
            DriverError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DriverError {
    fn from(e: std::io::Error) -> Self {
        DriverError::Io(e)
    }
}

impl From<GraphError> for DriverError {
    fn from(e: GraphError) -> Self {
        DriverError::Graph(e)
    }
}

/// A wire-level defect in a protocol frame body. (Checkpoint decoding maps
/// its wire errors to [`DriverError::Checkpoint`] itself.)
impl From<WireError> for DriverError {
    fn from(e: WireError) -> Self {
        DriverError::Protocol(format!("frame body: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workers_dead_reports_budget_state_and_last_fault() {
        let e = DriverError::AllWorkersDead {
            phase: 3,
            respawns_used: 2,
            respawn_budget: 2,
            last_fault: Some("worker 1 exited with status 17".into()),
        };
        let msg = e.to_string();
        assert!(msg.contains("phase 3"), "{msg}");
        assert!(msg.contains("2/2 respawns used"), "{msg}");
        assert!(msg.contains("last fault: worker 1 exited with status 17"), "{msg}");

        let quiet = DriverError::AllWorkersDead {
            phase: 1,
            respawns_used: 0,
            respawn_budget: 0,
            last_fault: None,
        };
        assert!(!quiet.to_string().contains("last fault"), "{quiet}");
    }

    #[test]
    fn task_abandoned_names_workers_range_and_last_fault() {
        let e = DriverError::TaskAbandoned {
            first_node: 4096,
            node_count: 512,
            attempts: 8,
            workers: vec![0, 1, 0, 1],
            last_fault: Some("task deadline missed twice".into()),
        };
        let msg = e.to_string();
        assert!(msg.contains("4096"), "{msg}");
        assert!(msg.contains("512 rows"), "{msg}");
        assert!(msg.contains("8 attempts"), "{msg}");
        assert!(msg.contains("[0, 1, 0, 1]"), "{msg}");
        assert!(msg.contains("last fault: task deadline missed twice"), "{msg}");
    }

    #[test]
    fn checkpoint_and_interrupted_messages_are_actionable() {
        let e = DriverError::Checkpoint("bad checksum in checkpoint.snrc".into());
        assert!(e.to_string().contains("bad checksum"), "{e}");
        let e = DriverError::Interrupted { phase: 2 };
        let msg = e.to_string();
        assert!(msg.contains("phase 2") && msg.contains("resumable"), "{msg}");
    }
}
