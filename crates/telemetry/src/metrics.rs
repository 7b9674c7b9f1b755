//! Typed counters: the run totals a trace's `counter` lines export.
//!
//! Each counter is a fixed enum variant backed by a static atomic, so hot
//! loops pay one `Relaxed` load (the enabled check) plus one atomic update —
//! and nothing at all when telemetry is disabled. Durations are not counted
//! here: a span's `dur_us` carries them.

use crate::enabled;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

macro_rules! metric_enum {
    ($(#[$doc:meta])* $vis:vis enum $ty:ident { $($(#[$vdoc:meta])* $variant:ident => $name:literal),+ $(,)? }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis enum $ty {
            $($(#[$vdoc])* $variant),+
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant),+];

            /// The stable snake_case export name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name),+
                }
            }

            /// Reverse lookup by export name (used when absorbing remote
            /// deltas); unknown names return `None`.
            pub fn from_name(name: &str) -> Option<$ty> {
                match name {
                    $($name => Some($ty::$variant),)+
                    _ => None,
                }
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metric_enum! {
    /// Monotonic counters. Saturating: they stick at `u64::MAX` rather than
    /// wrapping.
    pub enum Counter {
        /// Candidate pairs scored across all phases.
        ScoredPairs => "scored_pairs",
        /// Links added to the linking by mutual-best selection.
        LinksInserted => "links_inserted",
        /// Bytes moved through the MapReduce shuffle.
        ShuffleBytes => "shuffle_bytes",
        /// Records moved through the MapReduce shuffle.
        ShuffleRecords => "shuffle_records",
        /// MapReduce rounds executed.
        EngineRounds => "engine_rounds",
        /// Candidate pairs proposed by LSH banding.
        LshProposals => "lsh_proposals",
        /// LSH band-bucket collisions before deduplication: the banding
        /// work behind `lsh_proposals`, at most `bands ×` it.
        LshBandCollisions => "lsh_band_collisions",
        /// Witness-link list entries the blocked verify intersected: the
        /// copy-2 list length of every proposal, the verify's work next to
        /// `lsh_proposals`.
        LshVerifyEntries => "lsh_verify_entries",
        /// Phases where the adaptive gate chose the sketch path.
        LshGateSketch => "lsh_gate_sketch",
        /// Phases where the adaptive gate fell back to the exact scan.
        LshGateExact => "lsh_gate_exact",
        /// Bytes written to driver checkpoints.
        CheckpointBytes => "checkpoint_bytes",
        /// Checkpoints successfully written by the driver.
        Checkpoints => "checkpoints",
        /// Worker respawns performed by the driver.
        Respawns => "respawns",
        /// Driver tasks completed (locally or by workers).
        TasksCompleted => "tasks_completed",
        /// Tasks the driver scored in-process after losing its worker pool.
        DegradedTasks => "degraded_tasks",
        /// Injected faults that actually fired.
        FaultsFired => "faults_fired",
        /// Shuffle bytes flushed to spill run files.
        SpilledBytes => "spilled_bytes",
        /// Spill run files written by the MapReduce engine.
        SpilledRuns => "spilled_runs",
    }
}

const COUNTERS: usize = Counter::ALL.len();

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

static COUNTER_CELLS: [AtomicU64; COUNTERS] = [ZERO; COUNTERS];
// Counter values at the previous drain, for delta shipping.
static DRAINED: Mutex<[u64; COUNTERS]> = Mutex::new([0; COUNTERS]);

impl Counter {
    /// Adds `n`, saturating at `u64::MAX`. A no-op while telemetry is
    /// disabled.
    #[inline]
    pub fn add(self, n: u64) {
        if !enabled() || n == 0 {
            return;
        }
        let cell = &COUNTER_CELLS[self.index()];
        let _ =
            cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_add(n)));
    }

    /// The current total.
    pub fn get(self) -> u64 {
        COUNTER_CELLS[self.index()].load(Ordering::Relaxed)
    }
}

/// Counter increments since the previous drain, skipping zero deltas.
pub(crate) fn drain_counters() -> Vec<(String, u64)> {
    let mut last = DRAINED.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::new();
    for (i, &c) in Counter::ALL.iter().enumerate() {
        let now = c.get();
        let delta = now.saturating_sub(last[i]);
        if delta > 0 {
            out.push((c.name().to_string(), delta));
        }
        last[i] = now;
    }
    out
}

pub(crate) fn reset() {
    for cell in &COUNTER_CELLS {
        cell.store(0, Ordering::Relaxed);
    }
    *DRAINED.lock().unwrap_or_else(|e| e.into_inner()) = [0; COUNTERS];
}
