//! The worker subprocess of the shard driver.
//!
//! Speaks the length-prefixed frame protocol of `snr_driver::protocol` over
//! stdin/stdout: opens a `ShardScorer` on the two segment files named by
//! `Init`, folds each `Phase`'s link delta into a resident `Linking` and
//! sets the scorer up for the phase, and answers every `Task` with the
//! serialized claims the scorer returns for one contiguous row-range (the
//! coordinator's degradation path scores through the same `ShardScorer`).
//! A `Reinit` frame (sent to fresh
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

use snr_core::Linking;
use snr_driver::protocol::{read_frame, write_frame, Message};
use snr_driver::{DriverError, ShardScorer};
use snr_faults::{corrupt_payload, FaultRegistry, FaultSite};
use snr_graph::NodeId;
use snr_store::wire;
use std::io::Write;
use std::time::Duration;

fn main() {
    if let Err(e) = run() {
        let mut out = std::io::stdout().lock();
        let _ = write_frame(&mut out, &Message::WorkerError { message: e.to_string() });
        let _ = out.flush();
        std::process::exit(1);
    }
}

struct WorkerState {
    worker_id: u32,
    links: Linking,
    scorer: ShardScorer,
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
                state = Some(WorkerState {
                    worker_id,
                    links: Linking::new(n1 as usize, n2 as usize),
                    scorer: ShardScorer::open(&g1, &g2)?,
                });
                write_frame(&mut stdout, &Message::InitOk { worker_id })?;
            }
            Message::Phase { phase, min_deg1, min_deg2, threshold, links_delta } => {
                let st = state
                    .as_mut()
                    .ok_or_else(|| DriverError::Protocol("Phase before Init".into()))?;
                st.links.insert_batch(&to_pairs(&links_delta));
                st.scorer.set_phase(&st.links, phase, min_deg1, min_deg2, threshold);
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
                // Phase 0: the handshake completed before the first phase
                // broadcast, and the Phase frame will follow.
                st.scorer.set_phase(&st.links, phase, min_deg1, min_deg2, threshold);
            }
            Message::Task { phase, first_node, node_count } => {
                let st = state
                    .as_mut()
                    .ok_or_else(|| DriverError::Protocol("Task before Init".into()))?;
                // A missing or stale phase is rejected before any fault fires.
                st.scorer.check_phase(phase)?;
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
                let sink_claims = st.scorer.score(&st.links, phase, first_node, node_count)?;
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
