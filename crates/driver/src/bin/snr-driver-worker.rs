//! The worker subprocess of the shard driver.
//!
//! Speaks the length-prefixed frame protocol of `snr_driver::protocol` over
//! stdin/stdout: opens the segment stores named by `Init`, folds each
//! `Phase`'s link delta into a resident `Linking` and rebuilds the
//! `LinkCache`, and answers every `Task` with the serialized `SelectSink`
//! claims of one contiguous row-range. A `Reinit` frame (sent to fresh
//! processes — respawns and resumed runs) replaces the resident `Linking`
//! with the full snapshot it carries, which by the invariant in
//! `snr_driver::driver` is bit-identical to the state an uninterrupted
//! worker would hold. Fatal failures go out as one `WorkerError` frame
//! followed by a nonzero exit; `Shutdown` or EOF on stdin is a clean exit.
//!
//! Fault injection (tests only) comes from the `SNR_FAULT` spec the
//! coordinator scopes to this process (see `snr_faults`): `kill` dies with
//! `exit(17)` on a matching task, `stall` sleeps before answering,
//! `error_frame` reports a fatal `WorkerError`, `corrupt_frame` flips a
//! byte in (and truncates) one claims payload, and `truncate_frame` cuts a
//! `TaskDone` frame off mid-body and exits.

use snr_core::scoring::{score_assigned_rows, LinkCache, ScoreArena, SelectSink};
use snr_core::Linking;
use snr_driver::protocol::{read_frame, write_frame, G1Spec, G2Spec, Message};
use snr_driver::DriverError;
use snr_faults::{corrupt_payload, FaultRegistry, FaultSite};
use snr_graph::{CompactCsr, NodeId};
use snr_store::{read_segment, read_segment_rows_file, wire, MmapGraph, ShardedGraph};
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    if let Err(e) = run() {
        let mut out = std::io::stdout().lock();
        let _ = write_frame(&mut out, &Message::WorkerError { message: e.to_string() });
        let _ = out.flush();
        std::process::exit(1);
    }
}

/// The copy-1 view: whole (indexed by global row id) or a segment path the
/// worker range-loads per task.
enum G1View {
    Range(PathBuf),
    Whole(MmapGraph),
    Sharded(ShardedGraph<MmapGraph>),
}

/// The copy-2 view (always whole: eligibility spans the full `v` axis).
enum G2View {
    Mem(CompactCsr),
    Map(MmapGraph),
}

/// Per-phase parameters retained between `Phase` and its `Task`s.
struct PhaseParams {
    phase: u32,
    min_deg1: usize,
    threshold: u32,
    cache: LinkCache,
}

struct WorkerState {
    worker_id: u32,
    n2: usize,
    g1: G1View,
    g2: G2View,
    links: Linking,
    arena: ScoreArena,
    params: Option<PhaseParams>,
}

impl WorkerState {
    /// Rebuilds the `LinkCache` and phase params after the links changed
    /// (the shared tail of `Phase` and `Reinit`).
    fn set_phase(&mut self, phase: u32, min_deg1: u32, min_deg2: u32, threshold: u32) {
        let cache = match &self.g2 {
            G2View::Mem(g) => LinkCache::build(g, &self.links, min_deg2 as usize),
            G2View::Map(g) => LinkCache::build(g, &self.links, min_deg2 as usize),
        };
        self.params = Some(PhaseParams { phase, min_deg1: min_deg1 as usize, threshold, cache });
    }
}

fn open_g1(spec: &G1Spec) -> Result<G1View, DriverError> {
    Ok(match spec {
        G1Spec::RangeLoad { path } => G1View::Range(PathBuf::from(path)),
        G1Spec::MmapWhole { path } => G1View::Whole(MmapGraph::open(path)?),
        G1Spec::Shards { paths } => G1View::Sharded(ShardedGraph::open(paths)?),
    })
}

fn open_g2(spec: &G2Spec) -> Result<G2View, DriverError> {
    Ok(match spec {
        G2Spec::Load { path } => {
            let (_, g) = read_segment(BufReader::new(File::open(path)?))?;
            G2View::Mem(g)
        }
        G2Spec::Mmap { path } => G2View::Map(MmapGraph::open(path)?),
    })
}

fn to_pairs(raw: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
    raw.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect()
}

fn run() -> Result<(), DriverError> {
    // The coordinator sets SNR_TELEMETRY=1 when its own telemetry is on;
    // collected spans/counters/events ship home as Stats frames.
    snr_telemetry::init_from_env();
    let faults = FaultRegistry::from_env();
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    let mut state: Option<WorkerState> = None;

    loop {
        let Some(msg) = read_frame(&mut stdin)? else { return Ok(()) };
        match msg {
            Message::Shutdown => return Ok(()),
            Message::Init { worker_id, n1, n2, g1, g2 } => {
                let n1 = n1 as usize;
                let n2 = n2 as usize;
                state = Some(WorkerState {
                    worker_id,
                    n2,
                    g1: open_g1(&g1)?,
                    g2: open_g2(&g2)?,
                    links: Linking::new(n1, n2),
                    arena: ScoreArena::new(n2),
                    params: None,
                });
                write_frame(&mut stdout, &Message::InitOk { worker_id })?;
            }
            Message::Phase { phase, min_deg1, min_deg2, threshold, links_delta } => {
                let st = state
                    .as_mut()
                    .ok_or_else(|| DriverError::Protocol("Phase before Init".into()))?;
                st.links.insert_batch(&to_pairs(&links_delta));
                st.set_phase(phase, min_deg1, min_deg2, threshold);
            }
            Message::Reinit { phase, min_deg1, min_deg2, threshold, links_full } => {
                let st = state
                    .as_mut()
                    .ok_or_else(|| DriverError::Protocol("Reinit before Init".into()))?;
                // Replace, not merge: the snapshot *is* the coordinator's
                // full link state for the current phase.
                let mut links = Linking::new(st.links.g1_capacity(), st.links.g2_capacity());
                links.insert_batch(&to_pairs(&links_full));
                st.links = links;
                if phase == 0 {
                    // Handshake completed before the first phase broadcast;
                    // the Phase frame will follow.
                    st.params = None;
                } else {
                    st.set_phase(phase, min_deg1, min_deg2, threshold);
                }
            }
            Message::Task { phase, first_node, node_count } => {
                let st = state
                    .as_mut()
                    .ok_or_else(|| DriverError::Protocol("Task before Init".into()))?;
                let params = st
                    .params
                    .as_ref()
                    .ok_or_else(|| DriverError::Protocol("Task before Phase".into()))?;
                if params.phase != phase {
                    return Err(DriverError::Protocol(format!(
                        "Task for phase {phase} while phase {} is current",
                        params.phase
                    )));
                }
                let me = Some(st.worker_id);
                if faults.fire(FaultSite::Kill, me, Some(phase)).is_some() {
                    // Injected fault: die mid-round without a goodbye, the
                    // way a real worker crash looks to the coordinator.
                    std::process::exit(17);
                }
                if faults.fire(FaultSite::ErrorFrame, me, Some(phase)).is_some() {
                    write_frame(
                        &mut stdout,
                        &Message::WorkerError { message: "injected error_frame fault".to_string() },
                    )?;
                    stdout.flush()?;
                    std::process::exit(3);
                }
                if let Some(hit) = faults.fire(FaultSite::Stall, me, Some(phase)) {
                    std::thread::sleep(Duration::from_millis(hit.millis));
                }
                let task_span = snr_telemetry::span!(
                    "task",
                    phase = phase,
                    first = first_node,
                    rows = node_count
                );
                let mut sink = SelectSink::new(st.n2, params.threshold);
                match &st.g1 {
                    G1View::Range(path) => {
                        let (_, rows) =
                            read_segment_rows_file(path, first_node..first_node + node_count)?;
                        score_assigned_rows(
                            &rows,
                            first_node,
                            0..node_count,
                            &params.cache,
                            &st.links,
                            params.min_deg1,
                            &mut st.arena,
                            &mut sink,
                        );
                    }
                    G1View::Whole(g) => score_assigned_rows(
                        g,
                        0,
                        first_node..first_node + node_count,
                        &params.cache,
                        &st.links,
                        params.min_deg1,
                        &mut st.arena,
                        &mut sink,
                    ),
                    G1View::Sharded(g) => score_assigned_rows(
                        g,
                        0,
                        first_node..first_node + node_count,
                        &params.cache,
                        &st.links,
                        params.min_deg1,
                        &mut st.arena,
                        &mut sink,
                    ),
                }
                let sink_claims = sink.into_claims();
                snr_telemetry::Counter::ScoredPairs.add(sink_claims.scored_pairs());
                snr_telemetry::Counter::TasksCompleted.add(1);
                drop(task_span);
                let mut claims = sink_claims.encode_capped(wire::MAX_LEN)?;
                if faults.fire(FaultSite::CorruptFrame, me, Some(phase)).is_some() {
                    // One task answer goes out damaged; the coordinator's
                    // decode rejects it, kills this worker, and rescores the
                    // range elsewhere.
                    let salt = ((phase as u64) << 32) | first_node as u64;
                    corrupt_payload(&mut claims, faults.seed() ^ salt);
                }
                let reply = Message::TaskDone { phase, first_node, node_count, claims };
                if faults.fire(FaultSite::TruncateFrame, me, Some(phase)).is_some() {
                    // Write the full length prefix but only half the body,
                    // then die: the coordinator's reader sees a short frame
                    // (EOF mid-body) and treats it as a worker death.
                    let mut buf = Vec::new();
                    write_frame(&mut buf, &reply)?;
                    stdout.write_all(&buf[..buf.len() / 2])?;
                    stdout.flush()?;
                    std::process::exit(19);
                }
                write_frame(&mut stdout, &reply)?;
                if snr_telemetry::enabled() {
                    let delta = snr_telemetry::drain_delta();
                    if !delta.is_empty() {
                        let stats = Message::Stats {
                            worker_id: st.worker_id,
                            spans: delta.spans,
                            counters: delta.counters,
                            events: delta.events,
                        };
                        write_frame(&mut stdout, &stats)?;
                    }
                }
            }
            other => {
                return Err(DriverError::Protocol(format!(
                    "coordinator sent a worker-only frame: {other:?}"
                )));
            }
        }
    }
}
