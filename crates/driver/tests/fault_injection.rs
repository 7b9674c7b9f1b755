//! Fault-injection harness: the driver must survive worker death and
//! stragglers by re-assigning row-ranges — converging to the **same**
//! links as a healthy run — and must turn unrecoverable failures into a
//! clean [`DriverError`] instead of a hang. The healing layers —
//! respawned workers, checkpoint/resume, and in-process degradation — all
//! have to reproduce the healthy run bit for bit, and a corrupted
//! checkpoint has to be a clean error, never a panic and never a silent
//! partial resume. Every run here sits under a test-side watchdog so a
//! scheduling bug can never wedge the suite.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::{MatchingConfig, MatchingOutcome, UserMatching};
use snr_driver::{run_distributed, DriverConfig, DriverError, RunStats, ShardDriver};
use snr_generators::preferential_attachment;
use snr_graph::NodeId;
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::{sample_seeds, RealizationPair};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

fn workload(seed: u64) -> (RealizationPair, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = preferential_attachment(1_000, 6, &mut rng).unwrap();
    let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.10, &mut rng).unwrap();
    (pair, seeds)
}

fn config(workers: usize, fault: &str, timeout: Duration) -> DriverConfig {
    let mut config = DriverConfig::new(workers);
    config.matching = MatchingConfig::default().with_threshold(2).with_iterations(2);
    config.task_timeout = timeout;
    config.worker_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_snr-driver-worker")));
    config.fault = if fault.is_empty() { None } else { Some(fault.to_string()) };
    config
}

/// The per-phase counters that must survive checkpoint/resume bit-exactly
/// (durations are wall-clock and legitimately differ).
fn phase_counters(outcome: &MatchingOutcome) -> Vec<(u32, u32, usize, usize, usize)> {
    outcome
        .phases
        .iter()
        .map(|p| (p.iteration, p.bucket, p.scored_pairs, p.new_links, p.total_links))
        .collect()
}

/// Runs `config` on a held driver, returning the outcome together with the
/// run's recovery counters.
fn run_with_stats(
    pair: &RealizationPair,
    seeds: &[(NodeId, NodeId)],
    config: DriverConfig,
) -> Result<(MatchingOutcome, RunStats), DriverError> {
    let driver = ShardDriver::new(&pair.g1, &pair.g2, config)?;
    let outcome = driver.run(seeds)?;
    Ok((outcome, driver.last_run_stats()))
}

/// Runs `f` on a helper thread and panics if it has not returned within
/// the watchdog window — the contract under test is "error, never hang".
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(180)) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("driver run hung past the watchdog"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("driver run panicked"),
    }
}

/// Asserts that no recorded worker pid is a zombie child of this process
/// (kill + wait on every death / teardown path means each child is fully
/// reaped; a recycled pid belonging to someone else passes trivially).
fn assert_no_zombies(pids: &[u32]) {
    let me = std::process::id();
    for &pid in pids {
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue; // gone entirely: reaped
        };
        // `pid (comm) STATE PPID ...` — the comm field may contain spaces,
        // so split at the *last* closing paren.
        let after_comm = stat.rsplit_once(')').map(|(_, t)| t).unwrap_or("");
        let mut fields = after_comm.split_whitespace();
        let state = fields.next().unwrap_or("");
        let ppid: u32 = fields.next().and_then(|p| p.parse().ok()).unwrap_or(0);
        assert!(
            !(ppid == me && state == "Z"),
            "worker pid {pid} is a zombie child of the test process"
        );
    }
}

#[test]
fn killed_worker_rows_are_reassigned_bit_identically() {
    let (pair, seeds) = workload(71);
    let reference = UserMatching::new(MatchingConfig::default().with_threshold(2))
        .run(&pair.g1, &pair.g2, &seeds);
    // Worker 0 dies on its first task of round 1; worker 1 absorbs the
    // node space — and the default respawn budget may bring a healthy
    // replacement back — but the links must be the healthy ones either way.
    let outcome = with_watchdog(move || {
        run_distributed(
            &pair.g1,
            &pair.g2,
            &seeds,
            config(2, "kill:w0@round1", Duration::from_secs(60)),
        )
    })
    .expect("one death among two workers is survivable");
    assert_eq!(outcome.links, reference.links, "re-assigned run diverged from the healthy one");
}

#[test]
fn late_round_death_converges_too() {
    let (pair, seeds) = workload(72);
    let reference = UserMatching::new(MatchingConfig::default().with_threshold(2))
        .run(&pair.g1, &pair.g2, &seeds);
    // Death mid-schedule: phases before round 3 ran on both workers, so the
    // survivor's resident Linking must already agree with the coordinator.
    let outcome = with_watchdog(move || {
        run_distributed(
            &pair.g1,
            &pair.g2,
            &seeds,
            config(2, "kill:w0@round3", Duration::from_secs(60)),
        )
    })
    .expect("one death among two workers is survivable");
    assert_eq!(outcome.links, reference.links, "late-death run diverged from the healthy one");
}

#[test]
fn stalled_worker_is_speculated_around() {
    let (pair, seeds) = workload(74);
    let reference = UserMatching::new(MatchingConfig::default().with_threshold(2))
        .run(&pair.g1, &pair.g2, &seeds);
    // Worker 0 sleeps 30 s per task against a 2 s round deadline: its
    // ranges are speculatively re-queued onto worker 1, and after the
    // grace period the straggler is reclaimed outright.
    let outcome = with_watchdog(move || {
        run_distributed(
            &pair.g1,
            &pair.g2,
            &seeds,
            config(2, "stall:w0:30000", Duration::from_secs(2)),
        )
    })
    .expect("a straggler among two workers is survivable");
    assert_eq!(outcome.links, reference.links, "speculated run diverged from the healthy one");
}

#[test]
fn respawn_resurrects_a_single_worker_pool() {
    let (pair, seeds) = workload(75);
    let reference = UserMatching::new(MatchingConfig::default().with_threshold(2))
        .run(&pair.g1, &pair.g2, &seeds);
    // One worker, killed on its first task: the respawn alone must finish
    // this run, with no range scored in-process. The replacement syncs
    // mid-phase via the handshake's full-snapshot Phase frame and must
    // reproduce the healthy links.
    let (outcome, stats) = with_watchdog(move || {
        let mut config = config(1, "kill:w0@round1", Duration::from_secs(60));
        config.respawn_budget = 2;
        run_with_stats(&pair, &seeds, config)
    })
    .expect("a respawn budget of 2 revives a single-worker pool");
    assert!(stats.respawns >= 1, "the kill must have consumed respawn budget: {stats:?}");
    assert_eq!(stats.degraded_tasks, 0, "degradation finished the run, not the respawn");
    assert_eq!(outcome.links, reference.links, "respawned run diverged from the healthy one");
}

#[test]
fn halted_run_resumes_from_checkpoint_bit_identically() {
    let (pair, seeds) = workload(76);
    let (healthy, resumed) = with_watchdog(move || {
        let healthy =
            run_distributed(&pair.g1, &pair.g2, &seeds, config(2, "", Duration::from_secs(60)))?;
        // Same schedule, but the coordinator halts right after phase 1
        // checkpoints — simulating a coordinator crash between phases.
        let driver = ShardDriver::new(
            &pair.g1,
            &pair.g2,
            config(2, "halt@phase1", Duration::from_secs(60)),
        )?;
        let err = driver.run(&seeds).expect_err("halt fault must interrupt the run");
        assert!(
            matches!(err, DriverError::Interrupted { phase: 1 }),
            "expected Interrupted after phase 1, got {err}"
        );
        let resumed =
            ShardDriver::resume(driver.scratch_dir(), config(2, "", Duration::from_secs(60)))?;
        Ok::<_, DriverError>((healthy, resumed))
    })
    .expect("resume from a phase-1 checkpoint must complete");
    assert_eq!(resumed.links, healthy.links, "resumed run diverged from the uninterrupted one");
    assert_eq!(
        phase_counters(&resumed),
        phase_counters(&healthy),
        "resumed per-phase counters diverged"
    );
}

#[test]
fn total_worker_loss_degrades_in_process_bit_identically() {
    let (pair, seeds) = workload(77);
    let reference = UserMatching::new(MatchingConfig::default().with_threshold(2))
        .run(&pair.g1, &pair.g2, &seeds);
    // Both workers die with no respawn budget, either in round 1 or in
    // round 3, after workers built the links of two phases: the
    // coordinator scores the remaining row-ranges itself, opening its
    // scorer lazily over whatever links the run holds by then.
    for round in [1, 3] {
        let (pair, seeds) = (pair.clone(), seeds.clone());
        let (outcome, stats) = with_watchdog(move || {
            let fault = format!("kill:w0@round{round},kill:w1@round{round}");
            let mut config = config(2, &fault, Duration::from_secs(60));
            config.respawn_budget = 0;
            run_with_stats(&pair, &seeds, config)
        })
        .expect("in-process degradation must complete a total-loss run");
        assert!(stats.degraded_tasks > 0, "round {round}: degradation never engaged: {stats:?}");
        assert_eq!(outcome.links, reference.links, "round {round}: degraded run diverged");
        assert_eq!(
            phase_counters(&outcome),
            phase_counters(&reference),
            "round {round}: degraded per-phase counters diverged"
        );
    }
}

#[test]
fn worker_error_frame_requeues_its_task() {
    let (pair, seeds) = workload(78);
    let reference = UserMatching::new(MatchingConfig::default().with_threshold(2))
        .run(&pair.g1, &pair.g2, &seeds);
    // Worker 0 reports a fatal WorkerError mid-round instead of scoring:
    // its in-flight row-range must be re-queued onto worker 1, not abort
    // the run (no respawns, no degradation — the survivor alone must do).
    let (outcome, stats) = with_watchdog(move || {
        let mut config = config(2, "error_frame:w0@round1", Duration::from_secs(60));
        config.respawn_budget = 0;
        run_with_stats(&pair, &seeds, config)
    })
    .expect("a WorkerError from one of two workers is survivable");
    assert_eq!(stats.degraded_tasks, 0, "degradation finished the run, not the requeue");
    assert_eq!(outcome.links, reference.links, "error-frame run diverged from the healthy one");
}

#[test]
fn corrupt_and_truncated_claim_frames_are_survivable() {
    for fault in ["corrupt_frame:w0@round1", "truncate_frame:w1@round1"] {
        let (pair, seeds) = workload(79);
        let reference = UserMatching::new(MatchingConfig::default().with_threshold(2))
            .run(&pair.g1, &pair.g2, &seeds);
        // A damaged TaskDone must be rejected *before* any claim mutates
        // the sink (absorb validates first), the sender killed, and the
        // range rescored cleanly by the survivor.
        let fault = fault.to_string();
        let (outcome, stats) = with_watchdog(move || {
            let mut config = config(2, &fault, Duration::from_secs(60));
            config.respawn_budget = 0;
            run_with_stats(&pair, &seeds, config)
        })
        .expect("a damaged claims frame from one of two workers is survivable");
        assert_eq!(stats.degraded_tasks, 0, "degradation finished the run, not the requeue");
        assert_eq!(outcome.links, reference.links, "damaged-frame run diverged");
    }
}

#[test]
fn corrupted_checkpoint_is_a_clean_error_never_a_panic() {
    let (pair, seeds) = workload(80);
    with_watchdog(move || {
        let driver =
            ShardDriver::new(&pair.g1, &pair.g2, config(2, "halt@phase1", Duration::from_secs(60)))
                .unwrap();
        driver.run(&seeds).expect_err("halt fault must interrupt the run");
        let scratch = driver.scratch_dir().to_path_buf();
        let cp_path = scratch.join("checkpoint.snrc");
        let pristine = std::fs::read(&cp_path).unwrap();

        // A schedule mismatch is rejected before any phase runs.
        let mut wrong = config(2, "", Duration::from_secs(60));
        wrong.matching = MatchingConfig::default().with_threshold(3).with_iterations(2);
        match ShardDriver::resume(&scratch, wrong) {
            Err(DriverError::Checkpoint(msg)) => {
                assert!(msg.contains("disagrees"), "unhelpful mismatch message: {msg}")
            }
            other => panic!("schedule mismatch must be a Checkpoint error, got {other:?}"),
        }

        // Byte flips scattered across the file and every coarse truncation:
        // all must surface as Checkpoint errors (the file-level checksum
        // catches what field validation does not).
        for flip in (0..pristine.len()).step_by(17) {
            let mut bad = pristine.clone();
            bad[flip] ^= 0xA5;
            std::fs::write(&cp_path, &bad).unwrap();
            match ShardDriver::resume(&scratch, config(2, "", Duration::from_secs(60))) {
                Err(DriverError::Checkpoint(_)) => {}
                other => panic!("flip at {flip} must be a Checkpoint error, got {other:?}"),
            }
        }
        for cut in [0, 1, 7, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&cp_path, &pristine[..cut]).unwrap();
            match ShardDriver::resume(&scratch, config(2, "", Duration::from_secs(60))) {
                Err(DriverError::Checkpoint(_)) => {}
                other => panic!("truncation to {cut} must be a Checkpoint error, got {other:?}"),
            }
        }
        std::fs::remove_file(&cp_path).unwrap();
        match ShardDriver::resume(&scratch, config(2, "", Duration::from_secs(60))) {
            Err(DriverError::Checkpoint(_)) => {}
            other => panic!("missing checkpoint must be a Checkpoint error, got {other:?}"),
        }

        // A resealed g2.snrs whose header claims a row range (rows 2.. of
        // n, or 0..n of n + 1) is refused with a clean error.
        std::fs::write(&cp_path, &pristine).unwrap();
        let g2_path = scratch.join("g2.snrs");
        let g2 = std::fs::read(&g2_path).unwrap();
        let n = u64::from_le_bytes(g2[24..32].try_into().unwrap());
        for [total, first, count] in [[n, 2, n - 2], [n + 1, 0, n]] {
            let mut bad = g2.clone();
            for (at, v) in [(8, total), (16, first), (24, count)] {
                bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            let body = bad.len() - snr_store::segment::FOOTER_LEN;
            let sum = snr_store::checksum64(&bad[..body]);
            bad[body..].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&g2_path, &bad).unwrap();
            match ShardDriver::resume(&scratch, config(2, "", Duration::from_secs(60))) {
                Err(e) => assert!(e.to_string().contains("not a whole graph"), "{e}"),
                Ok(_) => {
                    panic!("g2.snrs claiming rows {first}..{} of {total} resumed", first + count)
                }
            }
        }
        std::fs::write(&g2_path, &g2).unwrap();

        // And the pristine bytes still resume fine afterwards.
        ShardDriver::resume(&scratch, config(2, "", Duration::from_secs(60)))
            .expect("pristine checkpoint must resume");
    });
}

#[test]
fn fault_and_recovery_events_appear_in_the_trace() {
    let (pair, seeds) = workload(82);
    let reference = UserMatching::new(MatchingConfig::default().with_threshold(2))
        .run(&pair.g1, &pair.g2, &seeds);
    // Telemetry on: worker 0 is killed (healed by a respawn the coordinator
    // must record), worker 1 stalls 1 ms per task (a worker-side fault
    // firing that must ship home in a Stats frame). The JSONL trace has to
    // schema-validate and carry both recovery stories — and being observed
    // must not change a single link.
    let trace = std::env::temp_dir().join(format!("snr-fault-trace-{}.jsonl", std::process::id()));
    snr_telemetry::set_trace_path(trace.clone());
    snr_telemetry::enable();
    let outcome = with_watchdog(move || {
        let mut config = config(2, "kill:w0@round1,stall:w1:1ms", Duration::from_secs(60));
        config.respawn_budget = 2;
        run_distributed(&pair.g1, &pair.g2, &seeds, config)
    })
    .expect("kill + stall under a respawn budget is survivable");
    snr_telemetry::write_trace_if_configured().expect("trace write");
    snr_telemetry::disable();
    assert_eq!(outcome.links, reference.links, "observed run diverged from the healthy one");

    let text = std::fs::read_to_string(&trace).expect("trace readable");
    let _ = std::fs::remove_file(&trace);
    let summary = snr_telemetry::validate_jsonl(&text).expect("trace must schema-validate");
    assert!(
        summary.events.iter().any(|e| e.name == "respawn"),
        "healed kill left no respawn event in the trace"
    );
    assert!(
        summary.events.iter().any(|e| e.name == "fault_fired" && e.fields.contains("site=stall")),
        "worker-side fault firing did not ship home in a Stats frame"
    );
    assert!(
        summary.spans.iter().any(|s| s.name == "task" && s.fields.contains("worker=")),
        "no per-worker task spans in the trace"
    );
}

#[test]
fn every_worker_is_reaped_no_zombies_left() {
    // Clean completion: every spawned pid must be fully reaped by teardown.
    let (pair, seeds) = workload(81);
    let pids = with_watchdog(move || {
        let driver =
            ShardDriver::new(&pair.g1, &pair.g2, config(2, "", Duration::from_secs(60))).unwrap();
        driver.run(&seeds).expect("healthy run");
        driver.worker_pids()
    });
    assert!(!pids.is_empty());
    assert_no_zombies(&pids);

    // Mid-phase loss: a stalled single worker against a short deadline with
    // no respawns is killed in phase 1, the coordinator finishes the run
    // in-process — and the stalled child must still have been reaped.
    let (pair, seeds) = workload(81);
    let reference = UserMatching::new(MatchingConfig::default().with_threshold(2))
        .run(&pair.g1, &pair.g2, &seeds);
    let (outcome, pids) = with_watchdog(move || {
        let mut config = config(1, "stall:w0:30000", Duration::from_millis(300));
        config.respawn_budget = 0;
        let driver = ShardDriver::new(&pair.g1, &pair.g2, config).unwrap();
        let outcome = driver.run(&seeds).expect("the coordinator finishes a stalled pool");
        (outcome, driver.worker_pids())
    });
    assert_eq!(outcome.links, reference.links, "stalled-pool run diverged from the healthy one");
    assert!(!pids.is_empty());
    assert_no_zombies(&pids);
}
