//! The coordinator: spawns worker subprocesses, assigns contiguous shard
//! row-ranges, and merges serialized `SelectSink` claims into the exact
//! per-phase selection the sequential arena path would have produced.
//!
//! # Bit-identity argument
//!
//! The distributed run is bit-identical to [`snr_core::UserMatching`] with
//! the fused arena backend because every source of nondeterminism is
//! squeezed out structurally rather than by scheduling discipline:
//!
//! - Tasks tile `0..n1` with disjoint contiguous row-ranges, so each
//!   candidate row is scored by exactly one *accepted* task result (a
//!   per-task `done` set absorbs the first completion and drops
//!   speculative duplicates).
//! - `scored_pairs` is a sum and per-`v` bests merge through
//!   `Best::merge`, which is associative, commutative, and tie-abstaining
//!   — so the order in which task claims arrive cannot change the merged
//!   survivor set.
//! - [`snr_core::scoring::SelectSink::finish`] sorts its output, so the
//!   selected pairs come out in the same order as the sequential sink.
//! - Workers reconstruct the coordinator's `Linking` state from per-phase
//!   deltas; `Linking::insert_batch` is defined to equal repeated
//!   `insert`, which is how the coordinator (and the sequential driver)
//!   applies the same pairs.
//!
//! The same argument covers every recovery path. During phase `P` the
//! coordinator's merged `Linking` holds the seeds plus the selections of
//! phases `1..P-1` — exactly the replica state a worker that saw every
//! delta would hold — so a `Phase` frame carrying the full snapshot
//! brings a *fresh* process (respawn, resume) to a state
//! bit-identical to an uninterrupted worker's, and the in-process
//! degradation path scores row-ranges through the very same
//! [`ShardScorer`] the workers run.
//!
//! # Fault tolerance and self-healing
//!
//! A worker that dies (pipe EOF, nonzero exit, undecodable claims) or
//! misses its round deadline has its row-range re-queued for the
//! surviving workers; stragglers get one speculative grace period and are
//! then killed. On top of that sit three healing layers:
//!
//! 1. **Respawn** — every death schedules a relaunch with exponential
//!    backoff (`50 ms · 2^attempt`) while the per-run
//!    [`DriverConfig::respawn_budget`] lasts; the replacement syncs via a
//!    full-snapshot `Phase` frame and picks up tasks mid-phase.
//! 2. **Checkpoint/resume** — after each phase the coordinator persists
//!    links + counters to `checkpoint.snrc` in the scratch dir (see
//!    [`crate::checkpoint`]); [`ShardDriver::resume`] restarts from the
//!    last complete phase, bit-identical to an uninterrupted run.
//! 3. **Degradation** — when the pool (live + scheduled respawns) is
//!    empty, the coordinator finishes the remaining row-ranges in-process
//!    through the same [`ShardScorer`] the workers run.
//!
//! What healing cannot absorb — one row-range burning through the retry
//! budget — surfaces as [`DriverError::TaskAbandoned`], never a hang.

use crate::checkpoint::{Checkpoint, CHECKPOINT_FILE};
use crate::error::DriverError;
use crate::protocol::{read_frame, write_frame, Message};
use crate::shard::{require_undirected, ShardScorer};
use snr_core::scoring::{SelectSink, SinkClaims};
use snr_core::{CandidateSource, Linking, MatchingConfig, MatchingOutcome, Phase};
use snr_faults::{FaultRegistry, FaultSite};
use snr_graph::{GraphError, GraphView, NodeId};
use snr_store::segment::{SegmentMeta, HEADER_LEN};
use snr_store::{write_segment_file, MmapGraph};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How the driver materializes graphs for its workers. Workers always
/// memory-map one whole-graph segment per copy, so this has one value; it
/// stays only because the whole-run benchmark's driver set-up names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverStore {
    /// Workers memory-map one whole-graph segment per copy.
    Mmap,
}

/// Counters of one [`ShardDriver::run`] / [`ShardDriver::resume`] call,
/// exposed via [`ShardDriver::last_run_stats`] so tests and smoke bins can
/// assert that a recovery path actually engaged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Respawn launches attempted (successful or not).
    pub respawns: u32,
    /// Row-ranges scored in-process by the degradation path.
    pub degraded_tasks: u64,
    /// Checkpoint files written.
    pub checkpoints: u32,
    /// Checkpoint writes that failed (the run continues; resume just redoes
    /// one more phase).
    pub checkpoint_failures: u32,
}

/// Configuration of a [`ShardDriver`] run.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Number of worker subprocesses (min 1).
    pub workers: usize,
    /// The matching schedule to distribute (threshold, iterations,
    /// bucketing) — same meaning as in the sequential driver. Its
    /// `candidates` must be [`CandidateSource::Exact`].
    pub matching: MatchingConfig,
    /// How workers open the graphs: always [`DriverStore::Mmap`]. Kept only
    /// because the whole-run benchmark's driver set-up assigns it.
    pub store: DriverStore,
    /// Per-task round deadline: a worker that holds a task past this long
    /// has the task speculatively re-queued, and is killed if it also
    /// sleeps through the grace period.
    pub task_timeout: Duration,
    /// Fault-injection spec (see `snr_faults` for the grammar). Parsed into
    /// a registry by [`ShardDriver::new`]; worker-site actions are
    /// re-scoped per subprocess through `FaultRegistry::worker_spec`.
    /// Inherited from `SNR_FAULT` by [`DriverConfig::new`].
    pub fault: Option<String>,
    /// Explicit worker binary path; when unset the driver checks
    /// `SNR_DRIVER_WORKER` and then looks next to the current executable.
    pub worker_bin: Option<PathBuf>,
    /// How many worker relaunches one run may spend (a respawn consumes
    /// budget when it is scheduled, whether or not the exec succeeds).
    pub respawn_budget: u32,
}

impl DriverConfig {
    /// A config with `workers` subprocesses and defaults for the rest:
    /// mapped segments, 60 s round deadline, two respawns, fault spec taken
    /// from the `SNR_FAULT` environment variable.
    pub fn new(workers: usize) -> Self {
        DriverConfig {
            workers: workers.max(1),
            matching: MatchingConfig::default(),
            store: DriverStore::Mmap,
            task_timeout: Duration::from_secs(60),
            fault: std::env::var(snr_faults::ENV_FAULT).ok().filter(|s| !s.is_empty()),
            worker_bin: None,
            respawn_budget: 2,
        }
    }
}

/// Row-range granularity: the node space is cut into
/// `workers * TASKS_PER_WORKER` entry-balanced tasks.
const TASKS_PER_WORKER: usize = 3;

/// Base of the exponential respawn backoff: attempt `k` of a slot waits
/// `BACKOFF_BASE_MS · 2^k` before relaunching.
const BACKOFF_BASE_MS: u64 = 50;

/// Monotonic suffix so concurrent drivers in one process get distinct
/// scratch directories.
static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Single-coordinator, multi-worker shard driver.
///
/// `new` snapshots both graphs into segment files under a scratch
/// directory; [`ShardDriver::run`] then executes the configured matching
/// schedule across worker subprocesses, one distributed round per phase.
/// The scratch directory is removed on drop after a clean run and *kept*
/// after a failed or interrupted one, so [`ShardDriver::resume`] can pick
/// the run back up from its last checkpoint.
pub struct ShardDriver {
    config: DriverConfig,
    faults: FaultRegistry,
    scratch: PathBuf,
    keep_scratch: Cell<bool>,
    n1: usize,
    n2: usize,
    max_degree: usize,
    /// Paths of the copy-1 and copy-2 segments every worker maps.
    g1_path: String,
    g2_path: String,
    /// Disjoint `(first_node, node_count)` ranges tiling `0..n1`, ascending.
    tasks: Vec<(u32, u32)>,
    segment_bytes: u64,
    stats: RefCell<RunStats>,
    pids: RefCell<Vec<u32>>,
}

impl ShardDriver {
    /// Snapshots `g1`/`g2` into scratch segment files and plans the task
    /// ranges. No worker is spawned yet; that happens in [`ShardDriver::run`].
    ///
    /// A directed `g2` or a config whose candidates are not exact is
    /// rejected up front with [`GraphError::InvalidParameter`]: the
    /// phase's `LinkCache` build needs undirected copy-2 adjacency, and
    /// the workers score every eligible pair.
    pub fn new<G1, G2>(g1: &G1, g2: &G2, config: DriverConfig) -> Result<Self, DriverError>
    where
        G1: GraphView,
        G2: GraphView,
    {
        require_exact(&config.matching)?;
        require_undirected(g2.is_directed())?;
        let faults = parse_faults(&config)?;
        let scratch = std::env::temp_dir().join(format!(
            "snr-driver-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&scratch)?;
        write_segment_file(g2, &scratch.join("g2.snrs"))?;
        write_segment_file(g1, &scratch.join("g1.snrs"))?;
        ShardDriver::plan(scratch, config, faults, g1, g2.node_count(), g2.max_degree())
    }

    /// The plan shared by [`ShardDriver::new`] and [`ShardDriver::resume`]:
    /// from the copy-1 view (`g1.snrs` and `g2.snrs` sit in `scratch`),
    /// derives the task tiling of `0..n1` and the segment byte count.
    fn plan<G1: GraphView>(
        scratch: PathBuf,
        config: DriverConfig,
        faults: FaultRegistry,
        g1: &G1,
        n2: usize,
        g2_max_degree: usize,
    ) -> Result<ShardDriver, DriverError> {
        let (g1_path, g2_path) = (scratch.join("g1.snrs"), scratch.join("g2.snrs"));
        let tasks = shard_boundaries(g1, config.workers.max(1) * TASKS_PER_WORKER)
            .windows(2)
            .map(|w| (w[0], w[1] - w[0]))
            .filter(|&(_, count)| count > 0)
            .collect();
        let segment_bytes = file_len(&g1_path) + file_len(&g2_path);
        Ok(ShardDriver {
            config,
            faults,
            scratch,
            keep_scratch: Cell::new(false),
            n1: g1.node_count(),
            n2,
            max_degree: g1.max_degree().max(g2_max_degree),
            g1_path: path_str(&g1_path)?,
            g2_path: path_str(&g2_path)?,
            tasks,
            segment_bytes,
            stats: RefCell::new(RunStats::default()),
            pids: RefCell::new(Vec::new()),
        })
    }

    /// Reopens an interrupted run from the checkpoint in `dir` (a scratch
    /// directory kept by a failed or halted run) and executes the phases
    /// that remain. The result is bit-identical to what the uninterrupted
    /// run would have produced.
    ///
    /// The checkpoint pins the matching schedule; a `config` whose
    /// schedule disagrees is a [`DriverError::Checkpoint`]
    /// (no silent partial resume), and one whose candidates are not exact
    /// is rejected as in [`ShardDriver::new`]. Worker count, timeouts, and
    /// the respawn budget are free to differ — task tiling does not affect
    /// the result.
    pub fn resume<P: AsRef<Path>>(
        dir: P,
        config: DriverConfig,
    ) -> Result<MatchingOutcome, DriverError> {
        require_exact(&config.matching)?;
        let scratch = dir.as_ref().to_path_buf();
        let cp = Checkpoint::read_file(&scratch.join(CHECKPOINT_FILE))?;
        let driver = ShardDriver::reopen(scratch, config, &cp)?;
        let seeds: Vec<(NodeId, NodeId)> =
            cp.seeds.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
        let out = driver.run_inner(&seeds, Some(&cp));
        if out.is_err() {
            driver.keep_scratch.set(true);
        }
        out
    }

    /// Rebuilds a driver around an existing scratch directory: reopens the
    /// segments the interrupted run wrote, re-derives the task tiling, and
    /// validates every checkpointed parameter against `config`.
    fn reopen(
        scratch: PathBuf,
        config: DriverConfig,
        cp: &Checkpoint,
    ) -> Result<ShardDriver, DriverError> {
        let m = &config.matching;
        if (m.threshold, m.iterations, m.degree_bucketing, m.min_bucket)
            != (cp.threshold, cp.iterations, cp.degree_bucketing, cp.min_bucket)
        {
            return Err(DriverError::Checkpoint(format!(
                "resume config (T={} k={} bucketing={} min_bucket={}) disagrees with the \
                 checkpointed schedule (T={} k={} bucketing={} min_bucket={})",
                m.threshold,
                m.iterations,
                m.degree_bucketing,
                m.min_bucket,
                cp.threshold,
                cp.iterations,
                cp.degree_bucketing,
                cp.min_bucket
            )));
        }
        let faults = parse_faults(&config)?;
        let g2_meta = read_meta(&scratch.join("g2.snrs"))?;
        if g2_meta.node_count as u64 != cp.n2 {
            return Err(DriverError::Checkpoint(format!(
                "checkpoint says n2={} but g2.snrs holds {} nodes",
                cp.n2, g2_meta.node_count
            )));
        }
        let g1 = MmapGraph::open(scratch.join("g1.snrs"))?;
        if g1.node_count() as u64 != cp.n1 {
            return Err(DriverError::Checkpoint(format!(
                "checkpoint says n1={} but g1.snrs holds {} nodes",
                cp.n1,
                g1.node_count()
            )));
        }
        ShardDriver::plan(scratch, config, faults, &g1, g2_meta.node_count, g2_meta.max_degree)
    }

    /// Total bytes of the scratch segment files shipped to workers.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Number of row-range tasks per phase.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The scratch directory holding segments and the checkpoint. Kept on
    /// disk after a failed or interrupted run for [`ShardDriver::resume`].
    pub fn scratch_dir(&self) -> &Path {
        &self.scratch
    }

    /// Recovery counters of the most recent `run`/`resume` call.
    pub fn last_run_stats(&self) -> RunStats {
        *self.stats.borrow()
    }

    /// PIDs of every worker subprocess spawned by the most recent run,
    /// respawns included (for reap assertions in tests).
    pub fn worker_pids(&self) -> Vec<u32> {
        self.pids.borrow().clone()
    }

    /// Runs the configured matching schedule across worker subprocesses.
    ///
    /// Mirrors the sequential `UserMatching` loop phase for phase: the
    /// returned [`MatchingOutcome`] carries the same links and the same
    /// per-phase `scored_pairs` / `new_links` counters. On error the
    /// scratch directory (with its last checkpoint) is kept for
    /// [`ShardDriver::resume`].
    pub fn run(&self, seeds: &[(NodeId, NodeId)]) -> Result<MatchingOutcome, DriverError> {
        let out = self.run_inner(seeds, None);
        if out.is_err() {
            self.keep_scratch.set(true);
        }
        out
    }

    fn run_inner(
        &self,
        seeds: &[(NodeId, NodeId)],
        prior: Option<&Checkpoint>,
    ) -> Result<MatchingOutcome, DriverError> {
        let start = Instant::now();
        *self.stats.borrow_mut() = RunStats::default();
        self.pids.borrow_mut().clear();
        let mut outcome = MatchingOutcome::new(Linking::with_seeds(self.n1, self.n2, seeds));
        if let Some(cp) = prior {
            let pairs: Vec<(NodeId, NodeId)> =
                cp.links.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
            outcome.links.insert_batch(&pairs);
            outcome.phases = cp.phases.clone();
        }
        let schedule = self.config.matching.schedule(self.max_degree);
        if outcome.phases.len() > schedule.len() {
            return Err(DriverError::Checkpoint(format!(
                "checkpoint records {} phases but the schedule only has {}",
                outcome.phases.len(),
                schedule.len()
            )));
        }
        let completed = outcome.phases.len();
        let mut pool = WorkerPool::spawn(self)?;
        let mut scorer: Option<ShardScorer> = None;
        // The delta a *Ready* worker folds in at the next Phase broadcast.
        // A fresh pool (first phase of a run, or any resume) has no Ready
        // workers yet; those sync through the handshake's full snapshot.
        let mut delta: Vec<(u32, u32)> = if prior.is_some() {
            Vec::new()
        } else {
            seeds.iter().map(|&(a, b)| (a.0, b.0)).collect()
        };
        for phase in &schedule[completed..] {
            let phase_start = Instant::now();
            // The span carries the bucket the phase runs, not the reported one.
            let _phase_span = snr_telemetry::span!(
                "phase",
                n = phase.number,
                iter = phase.iteration,
                bucket = phase.min_degree.trailing_zeros()
            );
            // Workers count their scored pairs in their own telemetry.
            let (scored_pairs, new_pairs) =
                self.run_phase(&mut pool, phase, &delta, &outcome.links, &mut scorer)?;
            outcome.close_phase(phase, scored_pairs, &new_pairs, phase_start);
            delta = new_pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
            self.write_checkpoint(seeds, &outcome, phase.number);
            if self.faults.fire(FaultSite::Halt, None, Some(phase.number)).is_some() {
                pool.shutdown();
                return Err(DriverError::Interrupted { phase: phase.number });
            }
        }
        pool.shutdown();
        outcome.total_duration = start.elapsed();
        Ok(outcome)
    }

    /// Persists the merged state after a phase. A failed write (real I/O or
    /// the injected `checkpoint_io` fault) is logged and counted, not
    /// fatal: the previous checkpoint survives (writes are
    /// temp-file-then-rename), so resume just redoes one more phase.
    fn write_checkpoint(
        &self,
        seeds: &[(NodeId, NodeId)],
        outcome: &MatchingOutcome,
        phase_no: u32,
    ) {
        let _span = snr_telemetry::span!("checkpoint", phase = phase_no);
        let cfg = &self.config.matching;
        let cp = Checkpoint {
            n1: self.n1 as u64,
            n2: self.n2 as u64,
            threshold: cfg.threshold,
            iterations: cfg.iterations,
            degree_bucketing: cfg.degree_bucketing,
            min_bucket: cfg.min_bucket,
            seeds: seeds.iter().map(|&(a, b)| (a.0, b.0)).collect(),
            links: outcome.links.pairs().map(|(a, b)| (a.0, b.0)).collect(),
            phases: outcome.phases.clone(),
        };
        let result = if self.faults.fire(FaultSite::CheckpointIo, None, Some(phase_no)).is_some() {
            Err(DriverError::Io(std::io::Error::other("injected checkpoint_io fault")))
        } else {
            cp.write_file(&self.scratch.join(CHECKPOINT_FILE))
        };
        let mut stats = self.stats.borrow_mut();
        match result {
            Ok(()) => {
                stats.checkpoints += 1;
                let bytes = file_len(&self.scratch.join(CHECKPOINT_FILE));
                snr_telemetry::Counter::Checkpoints.add(1);
                snr_telemetry::Counter::CheckpointBytes.add(bytes);
                snr_telemetry::event!("checkpoint", phase = phase_no, bytes = bytes);
            }
            Err(e) => {
                stats.checkpoint_failures += 1;
                snr_telemetry::warn!(
                    "checkpoint write after phase {phase_no} failed (continuing): {e}"
                );
            }
        }
    }

    /// One distributed round: broadcast the phase, schedule every task to
    /// completion (re-assigning around dead and straggling workers,
    /// respawning dead slots, degrading in-process if the pool collapses),
    /// and merge the claims.
    fn run_phase(
        &self,
        pool: &mut WorkerPool,
        phase: &Phase,
        delta: &[(u32, u32)],
        links: &Linking,
        scorer: &mut Option<ShardScorer>,
    ) -> Result<(usize, Vec<(NodeId, NodeId)>), DriverError> {
        let threshold = self.config.matching.threshold;
        let (min_degree, phase) = (phase.min_degree as u32, phase.number);
        pool.begin_phase(PhaseCtx { phase, min_degree, threshold });
        {
            let _bspan = snr_telemetry::span!("broadcast", phase = phase, delta = delta.len());
            pool.broadcast_ready(&Message::Phase {
                phase,
                min_degree,
                threshold,
                links: delta.to_vec(),
            });
        }
        let mut sink = SelectSink::new(self.n2, threshold);
        let total = self.tasks.len();
        let mut done = vec![false; total];
        let mut attempts = vec![0u32; total];
        let mut assigned_to: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut pending: VecDeque<usize> = (0..total).collect();
        let attempt_budget = (self.config.workers * 2 + 4) as u32 + self.config.respawn_budget * 2;

        while done.contains(&false) {
            pool.launch_due_respawns(self);
            snr_telemetry::Gauge::WorkersAlive.set(pool.potential_workers() as u64);
            // An empty pool can never finish the remaining tasks: score
            // them here.
            if pool.potential_workers() == 0 {
                self.finish_in_process(phase, min_degree, links, scorer, &mut sink, &done)?;
                break;
            }
            // Hand pending tasks to idle workers.
            while let Some(&task) = pending.front() {
                // A task that finished since it was queued is dropped here.
                if done[task] {
                    pending.pop_front();
                    continue;
                }
                let Some(w) = pool.idle_worker() else { break };
                pending.pop_front();
                attempts[task] += 1;
                if attempts[task] > attempt_budget {
                    return Err(DriverError::TaskAbandoned {
                        first_node: self.tasks[task].0,
                        node_count: self.tasks[task].1,
                        attempts: attempts[task],
                        workers: std::mem::take(&mut assigned_to[task]),
                        last_fault: pool.last_fault.clone(),
                    });
                }
                let (first_node, node_count) = self.tasks[task];
                assigned_to[task].push(w);
                if !pool.assign(
                    w,
                    task,
                    &Message::Task { phase, first_node, node_count },
                    self.config.task_timeout,
                ) {
                    // The pipe write failed: the worker is dead, the task
                    // goes back in the queue for someone else. The reader
                    // thread's Dead event will reap and respawn the slot.
                    pending.push_back(task);
                }
            }

            let wait = pool
                .next_wakeup()
                .map(|at| at.saturating_duration_since(Instant::now()))
                .unwrap_or(self.config.task_timeout);
            match pool.events.recv_timeout(wait) {
                Ok(Event::Msg(w, generation, msg)) => {
                    if pool.is_stale(w, generation) {
                        continue;
                    }
                    match msg {
                        Message::TaskDone { phase: p, first_node, claims, .. } => {
                            pool.task_finished(w);
                            if p != phase {
                                // A straggler finishing a task that a
                                // previous phase already accepted from
                                // someone else; the worker is free again,
                                // the claims are stale.
                                continue;
                            }
                            let task = self.task_index(first_node)?;
                            if done[task] {
                                continue;
                            }
                            let (first, count) = self.tasks[task];
                            // `absorb_claims` validates fully before
                            // mutating, so a rejected frame leaves the sink
                            // untouched and the range can be rescored.
                            let merged = {
                                let _mspan =
                                    snr_telemetry::span!("merge", first = first_node, worker = w);
                                SinkClaims::decode(&claims).and_then(|decoded| {
                                    sink.absorb_claims(&decoded, first..first + count)
                                })
                            };
                            match merged {
                                Ok(()) => done[task] = true,
                                Err(e) => {
                                    pool.note_death(
                                        self,
                                        w,
                                        &format!("worker {w} sent undecodable claims: {e}"),
                                    );
                                    pending.push_back(task);
                                }
                            }
                        }
                        Message::InitOk { .. } => pool.complete_handshake(self, w, links),
                        Message::Stats { delta, .. } => {
                            // Observe-only: fold the worker's telemetry delta
                            // into the coordinator's registry. Nothing about
                            // scheduling or merging reads it back, so the
                            // run's bits cannot depend on it.
                            for (name, _, _, dur_us) in &delta.spans {
                                if name == "task" {
                                    snr_telemetry::Histogram::TaskMicros.record(*dur_us);
                                }
                            }
                            snr_telemetry::absorb_delta(
                                &delta,
                                &format!("worker={w} gen={generation}"),
                            );
                        }
                        Message::WorkerError { message } => {
                            let reason = format!("worker {w} failed: {message}");
                            pending.extend(pool.note_death(self, w, &reason));
                        }
                        other => {
                            return Err(DriverError::Protocol(format!(
                                "unexpected frame from worker: {other:?}"
                            )));
                        }
                    }
                }
                Ok(Event::Dead(w, generation)) => {
                    if pool.is_stale(w, generation) {
                        continue;
                    }
                    let reason = format!("worker {w} pipe closed");
                    pending.extend(pool.note_death(self, w, &reason));
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    for (w, task, second_strike) in pool.expired(now, self.config.task_timeout) {
                        if second_strike {
                            // Slept through the grace period too: stop
                            // waiting, reclaim the slot, and let the respawn
                            // machinery replace the process.
                            let reason = format!(
                                "worker {w} missed two deadlines for the row-range at {}",
                                self.tasks[task].0
                            );
                            pending.extend(pool.note_death(self, w, &reason));
                        } else if !done[task] {
                            // First deadline miss: re-queue speculatively,
                            // first completion wins.
                            pending.push_back(task);
                        }
                    }
                    for w in pool.init_expired(now) {
                        pool.note_death(
                            self,
                            w,
                            &format!("worker {w} never completed the init handshake"),
                        );
                    }
                }
                // The pool holds `events_tx`, so this cannot fire; were it
                // to, no worker could report again: finish as an empty pool.
                Err(RecvTimeoutError::Disconnected) => {
                    self.finish_in_process(phase, min_degree, links, scorer, &mut sink, &done)?;
                    break;
                }
            }
        }
        Ok(sink.finish())
    }

    /// The degradation path: scores every remaining row-range in the
    /// coordinator's own process through the same [`ShardScorer`] the
    /// workers run, absorbing each range's claims into the phase sink.
    /// Bit-identical by construction (the in-memory claims skip only the
    /// encode/decode roundtrip, which is an identity).
    fn finish_in_process(
        &self,
        phase: u32,
        min_degree: u32,
        links: &Linking,
        scorer: &mut Option<ShardScorer>,
        sink: &mut SelectSink,
        done: &[bool],
    ) -> Result<(), DriverError> {
        let scorer = match scorer {
            Some(scorer) => scorer,
            none => none.insert(ShardScorer::open(&self.g1_path, &self.g2_path)?),
        };
        // Consecutive degraded phases build each phase's LinkCache once.
        if scorer.phase() != Some(phase) {
            let threshold = self.config.matching.threshold;
            scorer.set_phase(links, phase, min_degree, threshold);
        }
        let remaining: Vec<(u32, u32)> =
            self.tasks.iter().zip(done).filter(|&(_, &done)| !done).map(|(&t, _)| t).collect();
        for &(first_node, node_count) in &remaining {
            let claims = scorer.score(links, phase, first_node, node_count)?;
            sink.absorb_claims(&claims, first_node..first_node + node_count)?;
        }
        let scored = remaining.len() as u64;
        self.stats.borrow_mut().degraded_tasks += scored;
        snr_telemetry::Counter::DegradedTasks.add(scored);
        snr_telemetry::event!("degraded", phase = phase, tasks = scored);
        snr_telemetry::warn!(
            "worker pool empty in phase {phase}; scored {scored} row-range(s) in-process"
        );
        Ok(())
    }

    /// Maps an echoed range start back to its task index.
    fn task_index(&self, first_node: u32) -> Result<usize, DriverError> {
        self.tasks.binary_search_by_key(&first_node, |&(first, _)| first).map_err(|_| {
            DriverError::Protocol(format!("TaskDone for unknown row-range at {first_node}"))
        })
    }
}

impl Drop for ShardDriver {
    fn drop(&mut self) {
        if !self.keep_scratch.get() {
            let _ = std::fs::remove_dir_all(&self.scratch);
        }
    }
}

/// Snapshots the graphs, runs the schedule, and tears everything down.
///
/// Convenience wrapper over [`ShardDriver::new`] + [`ShardDriver::run`].
/// Unlike a held [`ShardDriver`], the scratch directory is removed even on
/// error — the caller has no handle to resume from anyway.
pub fn run_distributed<G1, G2>(
    g1: &G1,
    g2: &G2,
    seeds: &[(NodeId, NodeId)],
    config: DriverConfig,
) -> Result<MatchingOutcome, DriverError>
where
    G1: GraphView,
    G2: GraphView,
{
    let driver = ShardDriver::new(g1, g2, config)?;
    let out = driver.run(seeds);
    driver.keep_scratch.set(false);
    out
}

/// Rejects candidates other than [`CandidateSource::Exact`]: the workers
/// score every eligible pair, so a blocked config would silently run exact.
fn require_exact(m: &MatchingConfig) -> Result<(), DriverError> {
    if m.candidates != CandidateSource::Exact {
        return Err(DriverError::Graph(GraphError::InvalidParameter(format!(
            "the shard driver scores every eligible pair; candidates {:?} needs an \
             in-process backend",
            m.candidates
        ))));
    }
    Ok(())
}

fn parse_faults(config: &DriverConfig) -> Result<FaultRegistry, DriverError> {
    match &config.fault {
        Some(spec) => FaultRegistry::parse(spec).map_err(DriverError::InvalidFaultSpec),
        None => Ok(FaultRegistry::empty()),
    }
}

/// Balanced shard boundaries: contiguous node ranges with roughly equal
/// adjacency-entry counts (node counts can be wildly skewed on power-law
/// graphs, entry counts are what scoring actually pays for). Returns
/// `shards + 1` ascending cut points starting at 0 and ending at
/// `node_count`.
fn shard_boundaries<G: GraphView>(g: &G, shards: usize) -> Vec<u32> {
    let shards = shards.max(1);
    let n = g.node_count();
    let total = g.total_degree();
    let mut cuts = Vec::with_capacity(shards + 1);
    cuts.push(0u32);
    let mut acc = 0usize;
    let mut v = 0usize;
    for k in 1..shards {
        // Cut when the running entry count reaches k/shards of the total.
        let target = total * k / shards;
        while v < n && acc < target {
            acc += g.degree(NodeId(v as u32));
            v += 1;
        }
        cuts.push(v as u32);
    }
    cuts.push(n as u32);
    cuts
}

/// Reads just the header of a segment file (node counts, max degree) for
/// resume validation, without mapping the data.
fn read_meta(path: &Path) -> Result<SegmentMeta, DriverError> {
    let mut f = File::open(path)
        .map_err(|e| DriverError::Checkpoint(format!("cannot open {}: {e}", path.display())))?;
    let mut header = vec![0u8; HEADER_LEN];
    f.read_exact(&mut header).map_err(|e| {
        DriverError::Checkpoint(format!("cannot read segment header of {}: {e}", path.display()))
    })?;
    Ok(SegmentMeta::from_header_bytes(&header)?)
}

fn path_str(p: &Path) -> Result<String, DriverError> {
    p.to_str()
        .map(str::to_owned)
        .ok_or_else(|| DriverError::Protocol(format!("non-UTF-8 scratch path {}", p.display())))
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

/// The phase parameters the full-snapshot `Phase` answer to a late
/// `InitOk` must carry.
struct PhaseCtx {
    phase: u32,
    min_degree: u32,
    threshold: u32,
}

/// What one worker is currently chewing on.
struct Assignment {
    task: usize,
    /// `None` once the deadline machinery is done with this assignment
    /// (completed tasks keep the slot busy until the frame arrives).
    deadline: Option<Instant>,
    /// Whether the first deadline already expired (next expiry kills).
    speculated: bool,
}

enum SlotState {
    /// Process launched, `Init` sent, waiting for `InitOk` (which the
    /// coordinator answers with a full-snapshot `Phase` before marking the
    /// slot Ready).
    AwaitingInit {
        /// Give up on the handshake past this instant.
        deadline: Instant,
    },
    /// Synced and eligible for tasks.
    Ready,
    /// No live process behind the slot (may still have a pending respawn).
    Dead,
}

struct WorkerSlot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    state: SlotState,
    assignment: Option<Assignment>,
    /// Incremented on every (re)launch; events from previous incarnations
    /// carry an older generation and are dropped.
    generation: u32,
    /// Relaunches of this slot so far (drives the backoff exponent).
    respawns: u32,
    /// Tasks assigned to this slot in the current phase, across its
    /// incarnations (see [`WorkerPool::idle_worker`]).
    phase_tasks: u32,
}

enum Event {
    /// A frame arrived from worker `.0`, incarnation `.1`.
    Msg(u32, u32, Message),
    /// Worker `.0` (incarnation `.1`)'s stdout reached EOF or broke.
    Dead(u32, u32),
}

struct WorkerPool {
    slots: Vec<WorkerSlot>,
    events: Receiver<Event>,
    /// Keeps the channel open even if every reader thread exits; cloned
    /// into each reader thread.
    events_tx: Sender<Event>,
    /// `(slot, due)` relaunches waiting out their backoff.
    pending_respawn: Vec<(usize, Instant)>,
    respawns_used: u32,
    /// The most recent failure description (surfaced in errors).
    last_fault: Option<String>,
    /// Parameters of the phase currently running (for the handshake).
    phase: PhaseCtx,
    bin: PathBuf,
}

impl WorkerPool {
    /// Spawns every worker subprocess and sends `Init`. The handshake
    /// completes asynchronously: each `InitOk` is answered with a
    /// full-snapshot `Phase` inside the phase event loop, so a slow worker
    /// delays nobody.
    fn spawn(driver: &ShardDriver) -> Result<WorkerPool, DriverError> {
        let bin = worker_binary(&driver.config)?;
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pool = WorkerPool {
            slots: (0..driver.config.workers)
                .map(|_| WorkerSlot {
                    child: None,
                    stdin: None,
                    state: SlotState::Dead,
                    assignment: None,
                    generation: 0,
                    respawns: 0,
                    phase_tasks: 0,
                })
                .collect(),
            events: rx,
            events_tx: tx,
            pending_respawn: Vec::new(),
            respawns_used: 0,
            last_fault: None,
            phase: PhaseCtx { phase: 0, min_degree: 0, threshold: 0 },
            bin,
        };
        for w in 0..pool.slots.len() {
            if !pool.launch(driver, w, None) {
                pool.schedule_respawn(driver, w);
            }
        }
        Ok(pool)
    }

    /// Launches (or relaunches) the process behind slot `w` and sends
    /// `Init`. `after_round` is set for respawns: it meters the respawn
    /// stat, consults the `respawn_fail` fault site, and filters the fault
    /// spec so the replacement does not re-inherit the fault that killed
    /// its predecessor.
    fn launch(&mut self, driver: &ShardDriver, w: usize, after_round: Option<u32>) -> bool {
        if let Some(round) = after_round {
            driver.stats.borrow_mut().respawns += 1;
            snr_telemetry::Counter::Respawns.add(1);
            let gen = self.slots[w].generation + 1;
            snr_telemetry::event!("respawn", worker = w, phase = round, gen = gen);
            if driver.faults.fire(FaultSite::RespawnFail, Some(w as u32), after_round).is_some() {
                self.last_fault = Some(format!("injected respawn_fail for worker {w}"));
                snr_telemetry::warn!("injected respawn_fail for worker {w}");
                return false;
            }
        }
        let mut cmd = Command::new(&self.bin);
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::inherit());
        // Each worker sees exactly the fault actions addressed to its
        // index; a spec exported in the user's shell cannot take down the
        // whole pool.
        cmd.env_remove(snr_faults::ENV_FAULT);
        if let Some(spec) = driver.faults.worker_spec(w as u32, after_round) {
            cmd.env(snr_faults::ENV_FAULT, spec);
        }
        // Telemetry scoping mirrors the fault scoping: a worker collects
        // and ships Stats frames exactly when the coordinator's own
        // telemetry is on, and never writes the coordinator's trace file.
        cmd.env_remove("SNR_TRACE");
        if snr_telemetry::enabled() {
            cmd.env("SNR_TELEMETRY", "1");
        } else {
            cmd.env_remove("SNR_TELEMETRY");
        }
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                self.last_fault = Some(format!("spawning worker {w} failed: {e}"));
                return false;
            }
        };
        driver.pids.borrow_mut().push(child.id());
        let stdin = child.stdin.take();
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            self.last_fault = Some(format!("worker {w} spawned without a stdout pipe"));
            return false;
        };
        let id = w as u32;
        let generation = {
            let slot = &mut self.slots[w];
            slot.generation += 1;
            slot.child = Some(child);
            slot.stdin = stdin;
            slot.assignment = None;
            slot.state = SlotState::AwaitingInit {
                deadline: Instant::now() + driver.config.task_timeout.max(Duration::from_secs(30)),
            };
            slot.generation
        };
        let reader_tx = self.events_tx.clone();
        std::thread::spawn(move || {
            let mut stdout = stdout;
            loop {
                match read_frame(&mut stdout) {
                    Ok(Some(msg)) => {
                        if reader_tx.send(Event::Msg(id, generation, msg)).is_err() {
                            break;
                        }
                    }
                    Ok(None) | Err(_) => {
                        let _ = reader_tx.send(Event::Dead(id, generation));
                        break;
                    }
                }
            }
        });
        let init = Message::Init {
            worker_id: id,
            n1: driver.n1 as u64,
            n2: driver.n2 as u64,
            g1: driver.g1_path.clone(),
            g2: driver.g2_path.clone(),
        };
        if !self.send(id, &init) {
            self.reap(w);
            self.last_fault = Some(format!("worker {w} init pipe write failed"));
            return false;
        }
        true
    }

    /// Consumes respawn budget for one future relaunch of slot `w` (no-op
    /// once the budget is spent) with exponential backoff.
    fn schedule_respawn(&mut self, driver: &ShardDriver, w: usize) {
        if self.respawns_used >= driver.config.respawn_budget {
            return;
        }
        self.respawns_used += 1;
        let slot = &mut self.slots[w];
        let exponent = slot.respawns.min(6);
        slot.respawns += 1;
        let delay = Duration::from_millis(BACKOFF_BASE_MS << exponent);
        self.pending_respawn.push((w, Instant::now() + delay));
    }

    /// Executes every respawn whose backoff has elapsed; a failed launch
    /// re-schedules (budget permitting).
    fn launch_due_respawns(&mut self, driver: &ShardDriver) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.pending_respawn.len() {
            if self.pending_respawn[i].1 > now {
                i += 1;
                continue;
            }
            let (w, _) = self.pending_respawn.swap_remove(i);
            if !self.launch(driver, w, Some(self.phase.phase)) {
                self.schedule_respawn(driver, w);
            }
        }
    }

    /// Answers a worker's `InitOk` with the full link snapshot and the
    /// current phase parameters, making the slot Ready. This is the whole
    /// sync story for first launch, respawn, and resume alike — see the
    /// bit-identity argument at the top of the module.
    fn complete_handshake(&mut self, driver: &ShardDriver, w: u32, links: &Linking) {
        if !matches!(self.slots[w as usize].state, SlotState::AwaitingInit { .. }) {
            return; // duplicate InitOk from a confused worker: ignore
        }
        let snapshot = Message::Phase {
            phase: self.phase.phase,
            min_degree: self.phase.min_degree,
            threshold: self.phase.threshold,
            links: links.pairs().map(|(a, b)| (a.0, b.0)).collect(),
        };
        if self.send(w, &snapshot) {
            self.slots[w as usize].state = SlotState::Ready;
        } else {
            self.note_death(driver, w, &format!("worker {w} snapshot pipe write failed"));
        }
    }

    /// Live (Ready or initializing) slots plus scheduled respawns: the
    /// number of workers the phase can still hope to use.
    fn potential_workers(&self) -> usize {
        self.slots.iter().filter(|s| !matches!(s.state, SlotState::Dead)).count()
            + self.pending_respawn.len()
    }

    /// Arms a new phase: records its parameters (for the handshake) and
    /// restarts every slot's task count.
    fn begin_phase(&mut self, phase: PhaseCtx) {
        self.phase = phase;
        for slot in &mut self.slots {
            slot.phase_tasks = 0;
        }
    }

    /// The worker to hand the next task to: a Ready one with no
    /// outstanding assignment and the fewest tasks this phase.
    ///
    /// Every live worker — Ready, or still in its `Init` handshake — gets
    /// one task in a phase before any worker gets a second. Without this a
    /// fast worker can drain a small phase while a slower one is still
    /// handshaking, so a fault aimed at that worker's round (say
    /// `kill:w1@round1`) would depend on process start-up timing instead
    /// of firing every time.
    fn idle_worker(&self) -> Option<u32> {
        let handshaking_unserved = self
            .slots
            .iter()
            .any(|s| matches!(s.state, SlotState::AwaitingInit { .. }) && s.phase_tasks == 0);
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.state, SlotState::Ready) && s.assignment.is_none())
            .filter(|(_, s)| !handshaking_unserved || s.phase_tasks == 0)
            .min_by_key(|(_, s)| s.phase_tasks)
            .map(|(i, _)| i as u32)
    }

    /// Whether an event belongs to a previous incarnation of its slot.
    fn is_stale(&self, w: u32, generation: u32) -> bool {
        self.slots[w as usize].generation != generation
    }

    /// Writes a frame to one worker; marks it dead on failure (the reader
    /// thread's Dead event then triggers reap + respawn).
    fn send(&mut self, w: u32, msg: &Message) -> bool {
        let slot = &mut self.slots[w as usize];
        if matches!(slot.state, SlotState::Dead) {
            return false;
        }
        let ok = slot.stdin.as_mut().map(|s| write_frame(s, msg).is_ok()).unwrap_or(false);
        if !ok {
            slot.state = SlotState::Dead;
        }
        ok
    }

    /// Sends a frame to every Ready worker (stragglers included — pipes are
    /// FIFO, so a busy worker sees the phase after its in-flight task).
    /// Initializing workers are skipped: their full-snapshot answer carries
    /// the same state.
    fn broadcast_ready(&mut self, msg: &Message) {
        for w in 0..self.slots.len() as u32 {
            if matches!(self.slots[w as usize].state, SlotState::Ready) {
                self.send(w, msg);
            }
        }
    }

    /// Sends a task to a worker and records the assignment + deadline.
    fn assign(&mut self, w: u32, task: usize, msg: &Message, timeout: Duration) -> bool {
        if !self.send(w, msg) {
            return false;
        }
        let slot = &mut self.slots[w as usize];
        slot.assignment =
            Some(Assignment { task, deadline: Some(Instant::now() + timeout), speculated: false });
        slot.phase_tasks += 1;
        true
    }

    /// Clears the assignment of a worker whose TaskDone just arrived.
    fn task_finished(&mut self, w: u32) {
        self.slots[w as usize].assignment = None;
    }

    /// Handles a worker death from any cause: kills + reaps the child (no
    /// zombies linger mid-run), records the fault, schedules a respawn
    /// (budget permitting), and returns the abandoned task, if any. Safe to
    /// call twice for one death — the second call finds no child and does
    /// not double-schedule.
    fn note_death(&mut self, driver: &ShardDriver, w: u32, reason: &str) -> Option<usize> {
        let had_child = self.slots[w as usize].child.is_some();
        self.reap(w as usize);
        let task = self.slots[w as usize].assignment.take().map(|a| a.task);
        if had_child {
            snr_telemetry::warn!("{reason}");
            self.last_fault = Some(reason.to_string());
            self.schedule_respawn(driver, w as usize);
        }
        task
    }

    /// Reaps slot `w` without scheduling a respawn (spawn-path cleanup and
    /// teardown).
    fn reap(&mut self, w: usize) {
        let slot = &mut self.slots[w];
        slot.stdin = None;
        slot.state = SlotState::Dead;
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// The soonest instant anything needs attention: an assignment
    /// deadline, an init-handshake deadline, or a respawn coming due.
    fn next_wakeup(&self) -> Option<Instant> {
        self.slots
            .iter()
            .filter_map(|s| match s.state {
                SlotState::AwaitingInit { deadline } => Some(deadline),
                SlotState::Ready => s.assignment.as_ref().and_then(|a| a.deadline),
                SlotState::Dead => None,
            })
            .chain(self.pending_respawn.iter().map(|&(_, due)| due))
            .min()
    }

    /// Collects `(worker, task, second_strike)` for every assignment whose
    /// deadline has passed. A first miss arms the grace period (the
    /// deadline is re-set one `timeout` further out); a second miss clears
    /// the deadline and reports `second_strike = true`.
    fn expired(&mut self, now: Instant, timeout: Duration) -> Vec<(u32, usize, bool)> {
        let mut out = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if !matches!(slot.state, SlotState::Ready) {
                continue;
            }
            let Some(a) = slot.assignment.as_mut() else { continue };
            let Some(d) = a.deadline else { continue };
            if d > now {
                continue;
            }
            let second_strike = a.speculated;
            if second_strike {
                a.deadline = None;
            } else {
                a.speculated = true;
                a.deadline = Some(now + timeout);
            }
            out.push((i as u32, a.task, second_strike));
        }
        out
    }

    /// Workers whose init handshake deadline has passed.
    fn init_expired(&self, now: Instant) -> Vec<u32> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.state {
                SlotState::AwaitingInit { deadline } if deadline <= now => Some(i as u32),
                _ => None,
            })
            .collect()
    }

    /// Broadcasts Shutdown to every live worker, then reaps every child
    /// (kill first, so a stalled worker cannot wedge the teardown).
    fn shutdown(&mut self) {
        for w in 0..self.slots.len() as u32 {
            if !matches!(self.slots[w as usize].state, SlotState::Dead) {
                self.send(w, &Message::Shutdown);
            }
        }
        self.cleanup();
    }

    fn cleanup(&mut self) {
        self.pending_respawn.clear();
        for w in 0..self.slots.len() {
            self.reap(w);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.cleanup();
    }
}

/// Locates the worker binary: explicit config, `SNR_DRIVER_WORKER`, then a
/// sibling of the current executable (hopping out of `deps/` for test
/// binaries).
fn worker_binary(config: &DriverConfig) -> Result<PathBuf, DriverError> {
    if let Some(p) = &config.worker_bin {
        return Ok(p.clone());
    }
    if let Ok(p) = std::env::var("SNR_DRIVER_WORKER") {
        if !p.is_empty() {
            return Ok(PathBuf::from(p));
        }
    }
    let mut dir = std::env::current_exe()?;
    dir.pop();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    let candidate = dir.join(format!("snr-driver-worker{}", std::env::consts::EXE_SUFFIX));
    if candidate.exists() {
        return Ok(candidate);
    }
    Err(DriverError::Protocol(format!(
        "worker binary not found at {}; build it with `cargo build -p snr-driver` \
         or point SNR_DRIVER_WORKER at it",
        candidate.display()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(states: Vec<SlotState>) -> WorkerPool {
        let (events_tx, events) = std::sync::mpsc::channel();
        let slots = states
            .into_iter()
            .map(|state| WorkerSlot {
                child: None,
                stdin: None,
                state,
                assignment: None,
                generation: 1,
                respawns: 0,
                phase_tasks: 0,
            })
            .collect();
        WorkerPool {
            slots,
            events,
            events_tx,
            pending_respawn: Vec::new(),
            respawns_used: 0,
            last_fault: None,
            phase: PhaseCtx { phase: 1, min_degree: 1, threshold: 2 },
            bin: PathBuf::new(),
        }
    }

    #[test]
    fn every_live_worker_gets_a_task_before_any_gets_a_second() {
        let handshaking = || SlotState::AwaitingInit { deadline: Instant::now() };
        let mut pool = pool(vec![SlotState::Ready, handshaking(), SlotState::Dead]);
        assert_eq!(pool.idle_worker(), Some(0));
        pool.slots[0].phase_tasks = 1;
        assert_eq!(pool.idle_worker(), None, "worker 0 waits for worker 1's first task");
        pool.slots[1].state = SlotState::Ready;
        assert_eq!(pool.idle_worker(), Some(1));
        pool.slots[1].phase_tasks = 1;
        assert_eq!(pool.idle_worker(), Some(0), "the dead slot holds nobody back");
        pool.slots[0].phase_tasks = 2;
        assert_eq!(pool.idle_worker(), Some(1), "the least-served Ready worker goes first");
        // A respawned slot keeps its count for the phase, so its new
        // handshake does not stall the others a second time.
        pool.slots[1].state = handshaking();
        assert_eq!(pool.idle_worker(), Some(0));
        pool.begin_phase(PhaseCtx { phase: 2, min_degree: 1, threshold: 2 });
        assert_eq!(pool.idle_worker(), Some(0));
        pool.slots[0].phase_tasks = 1;
        assert_eq!(pool.idle_worker(), None, "a new phase waits for the handshake again");
    }

    #[test]
    fn boundaries_are_entry_balanced_and_tile_the_space() {
        // A hub plus a sparse tail: entry-balanced cuts differ visibly from
        // node-balanced ones.
        let mut edges: Vec<(u32, u32)> = (1..200u32).map(|i| (0, i)).collect();
        edges.extend((200..400u32).map(|i| (i, (i + 1) % 400)));
        let g = snr_graph::CsrGraph::from_edges(400, &edges);
        for shards in [1usize, 2, 3, 4, 7] {
            let cuts = shard_boundaries(&g, shards);
            assert_eq!(cuts.len(), shards + 1);
            assert_eq!(cuts[0], 0);
            assert_eq!(*cuts.last().unwrap(), g.node_count() as u32);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        }
        // The hub (node 0, degree 199 of 798 entries) forces the 4-shard
        // first cut well before the node-count midpoint.
        let cuts = shard_boundaries(&g, 4);
        assert!(cuts[1] < 200, "first cut at {} ignores entry balance", cuts[1]);
    }

    #[test]
    fn a_directed_copy_2_is_rejected_before_any_segment_is_written() {
        let g1 = snr_graph::CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut b = snr_graph::GraphBuilder::directed(3);
        b.add_edge(NodeId(0), NodeId(1));
        let seeds = [(NodeId(0), NodeId(0))];
        match run_distributed(&g1, &b.build(), &seeds, DriverConfig::new(1)) {
            Err(DriverError::Graph(snr_graph::GraphError::InvalidParameter(why))) => {
                assert!(why.contains("directed"), "{why}")
            }
            other => panic!("a directed copy 2 must be a typed error, got {other:?}"),
        }
    }

    #[test]
    fn a_blocked_config_is_rejected_before_any_segment_is_written() {
        let g = snr_graph::CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut config = DriverConfig::new(1);
        config.matching =
            config.matching.with_candidates(CandidateSource::Lsh { bands: 16, rows: 2 });
        match ShardDriver::new(&g, &g, config.clone()) {
            Err(DriverError::Graph(GraphError::InvalidParameter(why))) => {
                assert!(why.contains("candidates"), "{why}")
            }
            other => panic!("an LSH config must be a typed error, got {:?}", other.err()),
        }
        let err = ShardDriver::resume(std::env::temp_dir(), config).unwrap_err();
        assert!(matches!(err, DriverError::Graph(GraphError::InvalidParameter(_))), "{err:?}");
    }
}
