//! End-to-end supervision: admission control on the bounded queue,
//! retry classification, circuit breaking with half-open recovery,
//! graceful shutdown, prompt cancellation of hung work, watchdog
//! preemption of hung workers, and crash-safe checkpoint/resume of
//! killed sweeps.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use geyser::{CompileError, FaultInjector, PipelineConfig, Technique};
use geyser_circuit::Circuit;
use geyser_supervisor::{
    run_supervised_compile, BreakerConfig, BreakerState, JobSpec, JobState, RetryPolicy,
    SupervisedCompileOptions, Supervisor, SupervisorConfig, SupervisorError, WatchdogConfig,
};
use geyser_workloads::ghz;

fn fast() -> PipelineConfig {
    PipelineConfig::fast()
}

/// Fast retries so exhaustion tests don't sit out real backoffs.
fn quick_retry(max_retries: usize) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base_backoff_ms: 1,
        max_backoff_ms: 4,
        seed: 7,
    }
}

fn job(workload: &str, technique: Technique, faults: &str) -> JobSpec {
    let mut spec = JobSpec::new(workload, technique, ghz(4), fast());
    if !faults.is_empty() {
        spec.faults = FaultInjector::parse(faults).unwrap();
    }
    spec
}

/// A program known to yield several eligible composition blocks under
/// the fast config (the same shape the supervisor crate's own
/// checkpoint tests use), so `kill-after-block:1` reliably fires
/// mid-sweep with work left over for the resume.
fn blocky() -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0).cz(0, 1).h(1).cz(1, 2).h(2).cz(0, 2).h(0).cz(1, 2);
    c
}

fn temp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "geyser-supervision-e2e-{}-{tag}.json",
        std::process::id()
    ))
}

#[test]
fn full_queue_rejects_submissions_and_cancel_frees_hung_jobs() {
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        queue_capacity: 1,
        ..SupervisorConfig::default()
    });
    // Job 1 hangs at its first pass and occupies the lone worker.
    let h1 = supervisor
        .submit(job("q", Technique::OptiMap, "hang-pass:allocate-lattice"))
        .unwrap();
    // Job 2 is accepted once the worker has dequeued job 1; until
    // then the capacity-1 queue rejects it.
    let h2 = loop {
        match supervisor.submit(job("q", Technique::OptiMap, "hang-pass:allocate-lattice")) {
            Ok(handle) => break handle,
            Err(SupervisorError::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    };
    // Queue full again (job 2 waiting, worker busy): deterministic
    // rejection.
    let err = supervisor
        .submit(job("q", Technique::OptiMap, ""))
        .unwrap_err();
    assert!(matches!(err, SupervisorError::QueueFull { capacity: 1 }));
    assert!(supervisor.metrics().rejected >= 1);

    h1.cancel.cancel();
    h2.cancel.cancel();
    let results = supervisor.shutdown();
    assert_eq!(results.len(), 2);
    for r in results {
        assert_eq!(r.state, JobState::Cancelled);
        assert!(matches!(r.error, Some(CompileError::Cancelled { .. })));
    }
}

#[test]
fn fatal_errors_fail_fast_without_retries() {
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        retry: quick_retry(3),
        ..SupervisorConfig::default()
    });
    let mut spec = job("fatal", Technique::Baseline, "");
    spec.program = Circuit::new(0); // EmptyProgram is Fatal
    supervisor.submit(spec).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].state, JobState::Failed);
    assert_eq!(results[0].attempts, 1, "fatal errors must never retry");
    assert!(matches!(results[0].error, Some(CompileError::EmptyProgram)));
}

#[test]
fn retryable_failures_back_off_until_the_budget_is_exhausted() {
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        retry: quick_retry(2),
        ..SupervisorConfig::default()
    });
    supervisor
        .submit(job("flappy", Technique::OptiMap, "pass-panic:map"))
        .unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Failed);
    assert_eq!(results[0].attempts, 3, "1 try + 2 retries");
    assert!(matches!(
        results[0].error,
        Some(CompileError::PassPanicked { .. })
    ));
}

#[test]
fn transient_fault_succeeds_on_retry_with_stats_attached() {
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        retry: quick_retry(1),
        ..SupervisorConfig::default()
    });
    supervisor
        .submit(job("transient", Technique::OptiMap, "pass-panic-once:map"))
        .unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Done);
    assert_eq!(results[0].attempts, 2);
    let compiled = results[0].compiled.as_ref().unwrap();
    let stats = compiled
        .report()
        .and_then(|r| r.supervision.as_ref())
        .expect("supervision stats attached");
    assert_eq!(stats.attempts, 2);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.breaker_state, "closed");
}

#[test]
fn open_breaker_fails_jobs_fast_without_running_them() {
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 60_000,
        },
        ..SupervisorConfig::default()
    });
    supervisor
        .submit(job("sick", Technique::OptiMap, "pass-panic:map"))
        .unwrap();
    supervisor.wait_idle();
    assert_eq!(supervisor.breaker_state("sick"), Some(BreakerState::Open));
    // Same workload: bounced without consuming an attempt. Another
    // workload: unaffected.
    supervisor
        .submit(job("sick", Technique::OptiMap, ""))
        .unwrap();
    supervisor
        .submit(job("healthy", Technique::OptiMap, ""))
        .unwrap();
    supervisor.wait_idle();
    let metrics = supervisor.metrics();
    assert_eq!(metrics.broken, 1);
    assert_eq!(metrics.breaker_trips, 1);
    let results = supervisor.shutdown();
    let bounced = results
        .iter()
        .find(|r| r.workload == "sick" && r.state == JobState::Broken)
        .expect("second sick job bounced");
    assert_eq!(bounced.attempts, 0, "broken jobs never run");
    assert!(results
        .iter()
        .any(|r| r.workload == "healthy" && r.state == JobState::Done));
}

#[test]
fn breaker_half_opens_after_cooldown_and_closes_on_probe_success() {
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 0,
        },
        ..SupervisorConfig::default()
    });
    supervisor
        .submit(job("recovering", Technique::OptiMap, "pass-panic:map"))
        .unwrap();
    supervisor.wait_idle();
    assert_eq!(
        supervisor.breaker_state("recovering"),
        Some(BreakerState::Open)
    );
    // Zero cooldown: the next job is the half-open probe; it succeeds
    // and closes the breaker.
    supervisor
        .submit(job("recovering", Technique::OptiMap, ""))
        .unwrap();
    supervisor.wait_idle();
    assert_eq!(
        supervisor.breaker_state("recovering"),
        Some(BreakerState::Closed)
    );

    // Trip it again, then cancel the half-open probe. Cancellation
    // says nothing about the workload's health, but it must hand the
    // half-open slot back; otherwise every later job of the workload
    // is bounced Broken for the supervisor's life.
    supervisor
        .submit(job("recovering", Technique::OptiMap, "pass-panic:map"))
        .unwrap();
    supervisor.wait_idle();
    let probe = supervisor
        .submit(job("recovering", Technique::OptiMap, "hang-pass:map"))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    probe.cancel.cancel();
    supervisor.wait_idle();
    assert_eq!(
        supervisor.breaker_state("recovering"),
        Some(BreakerState::Open),
        "a cancelled probe re-opens the breaker without closing it"
    );
    // The cooldown has elapsed, so the next job re-probes and closes.
    let clean = supervisor
        .submit(job("recovering", Technique::OptiMap, ""))
        .unwrap();
    supervisor.wait_idle();
    assert_eq!(
        supervisor.breaker_state("recovering"),
        Some(BreakerState::Closed)
    );
    assert_eq!(supervisor.metrics().broken, 0);
    let results = supervisor.shutdown();
    let by_id = |id: u64| results.iter().find(|r| r.id == id).unwrap();
    assert_eq!(by_id(probe.id).state, JobState::Cancelled);
    assert_eq!(by_id(clean.id).state, JobState::Done);
    assert!(results
        .iter()
        .any(|r| r.state == JobState::Done && r.attempts == 1));
}

#[test]
fn half_open_probe_is_exclusive_under_concurrent_submitters() {
    // Once a breaker half-opens, exactly ONE probe may run; rivals
    // racing it on other workers must bounce with the breaker-open
    // fail-fast (Broken, zero attempts), and the probe's success must
    // fully close the breaker for everyone after it.
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 4,
        retry: quick_retry(1),
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 0,
        },
        watchdog: Some(WatchdogConfig {
            hang_timeout_ms: 2_000,
            poll_interval_ms: 10,
        }),
        ..SupervisorConfig::default()
    });

    // Trip the breaker open.
    supervisor
        .submit(job("contended", Technique::OptiMap, "pass-panic:map"))
        .unwrap();
    supervisor.wait_idle();
    assert_eq!(
        supervisor.breaker_state("contended"),
        Some(BreakerState::Open)
    );

    // The probe: admitted through the zero cooldown, then hangs at its
    // first pass, pinning the breaker HalfOpen while the rivals below
    // race it. The watchdog later preempts the hang and the clean
    // retry succeeds — a successful probe, just a slow one.
    let probe = supervisor
        .submit(job("contended", Technique::OptiMap, "hang-pass:map"))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while supervisor.breaker_state("contended") != Some(BreakerState::HalfOpen) {
        assert!(
            Instant::now() < deadline,
            "probe never half-opened the breaker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Three rival submitters race the in-flight probe from their own
    // threads; three idle workers dequeue them against the HalfOpen
    // breaker.
    let rival_ids: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    supervisor
                        .submit(job("contended", Technique::OptiMap, ""))
                        .unwrap()
                        .id
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Every rival must bounce while the probe still holds the flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    while supervisor.metrics().broken < 3 {
        assert!(Instant::now() < deadline, "rivals were not bounced");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        supervisor.breaker_state("contended"),
        Some(BreakerState::HalfOpen),
        "rivals must not perturb the in-flight probe"
    );

    // Probe completes (preempted hang + clean retry) and closes the
    // breaker; the next submission runs normally.
    supervisor.wait_idle();
    assert_eq!(
        supervisor.breaker_state("contended"),
        Some(BreakerState::Closed),
        "probe success must fully close the breaker"
    );
    let after = supervisor
        .submit(job("contended", Technique::OptiMap, ""))
        .unwrap();
    assert_eq!(
        supervisor.metrics().breaker_trips,
        1,
        "the probe's success must not re-trip"
    );
    let results = supervisor.shutdown();

    let metrics_broken = results
        .iter()
        .filter(|r| r.state == JobState::Broken)
        .collect::<Vec<_>>();
    assert_eq!(metrics_broken.len(), 3, "exactly the rivals bounced");
    for r in &metrics_broken {
        assert!(rival_ids.contains(&r.id));
        assert_eq!(r.attempts, 0, "bounced rivals must never run");
    }
    let probe_result = results.iter().find(|r| r.id == probe.id).unwrap();
    assert_eq!(probe_result.state, JobState::Done);
    assert_eq!(
        probe_result.attempts, 2,
        "one preempted hang + one clean retry"
    );
    let after_result = results.iter().find(|r| r.id == after.id).unwrap();
    assert_eq!(after_result.state, JobState::Done);
}

#[test]
fn graceful_shutdown_drains_every_queued_job() {
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            supervisor
                .submit(job(&format!("drain-{i}"), Technique::Baseline, ""))
                .unwrap()
                .id
        })
        .collect();
    // Shut down immediately: queued jobs must still run to completion.
    let results = supervisor.shutdown();
    assert_eq!(results.len(), 3);
    for id in ids {
        let r = results.iter().find(|r| r.id == id).unwrap();
        assert_eq!(r.state, JobState::Done);
    }
}

#[test]
fn hung_pass_is_freed_promptly_by_cancellation() {
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let handle = supervisor
        .submit(job("stuck", Technique::OptiMap, "hang-pass:map"))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let fired = Instant::now();
    handle.cancel.cancel();
    supervisor.wait_idle();
    assert!(
        fired.elapsed() < Duration::from_secs(10),
        "cancellation must free the hung worker promptly"
    );
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Cancelled);
    match results[0].error.as_ref().unwrap() {
        CompileError::Cancelled { pass } => assert_eq!(pass, "map"),
        other => panic!("expected Cancelled at the hung pass, got {other}"),
    }
}

#[test]
fn watchdog_preempts_hung_worker_and_retry_is_bit_identical() {
    // Reference: the same compile with no faults and no supervisor.
    let reference = run_supervised_compile(
        &ghz(4),
        &fast(),
        &SupervisedCompileOptions::new(Technique::OptiMap),
    )
    .unwrap();

    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        retry: quick_retry(1),
        watchdog: Some(WatchdogConfig {
            hang_timeout_ms: 100,
            poll_interval_ms: 10,
        }),
        ..SupervisorConfig::default()
    });
    let submitted = Instant::now();
    supervisor
        .submit(job("hung-once", Technique::OptiMap, "hang-pass:map"))
        .unwrap();
    supervisor.wait_idle();
    // The injected hang never returns on its own: finishing at all
    // proves the watchdog preempted it, and finishing quickly proves
    // detection latency is timeout + poll, not shutdown.
    assert!(
        submitted.elapsed() < Duration::from_secs(30),
        "watchdog must preempt the hung attempt promptly"
    );
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Done);
    assert_eq!(
        results[0].attempts, 2,
        "one preempted attempt + one clean retry"
    );
    let compiled = results[0].compiled.as_ref().unwrap();
    assert_eq!(
        compiled.mapped().circuit().ops(),
        reference.mapped().circuit().ops(),
        "the retried compile must be bit-identical to the uninjected run"
    );
    let stats = compiled
        .report()
        .and_then(|r| r.supervision.as_ref())
        .expect("supervision stats attached");
    assert_eq!(stats.hang_preemptions, 1);
    assert_eq!(stats.retries, 1);
}

#[test]
fn watchdog_exhaustion_surfaces_a_typed_worker_hung_error() {
    // With the retry budget at zero, the preempted attempt is
    // terminal and must carry the typed WorkerHung error (not a
    // generic cancellation).
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        retry: quick_retry(0),
        watchdog: Some(WatchdogConfig {
            hang_timeout_ms: 100,
            poll_interval_ms: 10,
        }),
        ..SupervisorConfig::default()
    });
    supervisor
        .submit(job("hung-forever", Technique::OptiMap, "hang-pass:map"))
        .unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Failed);
    assert_eq!(results[0].attempts, 1);
    match results[0].error.as_ref().unwrap() {
        CompileError::WorkerHung { pass, stalled_ms } => {
            assert_eq!(pass, "map");
            assert!(*stalled_ms >= 100, "stall must cover the timeout");
        }
        other => panic!("expected WorkerHung, got {other}"),
    }
}

#[test]
fn user_cancellation_wins_over_hang_preemption() {
    // A job the user cancels while it happens to be hung must report
    // Cancelled, not WorkerHung: the user's intent is the outer truth.
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        retry: quick_retry(3),
        watchdog: Some(WatchdogConfig {
            hang_timeout_ms: 50_000,
            poll_interval_ms: 10,
        }),
        ..SupervisorConfig::default()
    });
    let handle = supervisor
        .submit(job("user-stop", Technique::OptiMap, "hang-pass:map"))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    handle.cancel.cancel();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Cancelled);
    assert!(
        matches!(results[0].error, Some(CompileError::Cancelled { .. })),
        "user cancellation must not be re-typed as a hang"
    );
}

#[test]
fn killed_sweep_resumes_bit_identical_through_the_supervisor() {
    let path = temp_ckpt("kill-resume");
    let _ = std::fs::remove_file(&path);

    // Reference: one uninterrupted supervised run.
    let reference = run_supervised_compile(
        &blocky(),
        &fast(),
        &SupervisedCompileOptions::new(Technique::Geyser),
    )
    .unwrap();

    // Sweep 1: the injected kill fires after the first fresh block.
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let mut killed = job("sweep", Technique::Geyser, "kill-after-block:1");
    killed.program = blocky();
    killed.checkpoint = Some(path.clone());
    supervisor.submit(killed).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Cancelled);
    assert!(path.exists(), "partial checkpoint survives the kill");

    // Sweep 2: resume picks the checkpoint up and finishes the rest.
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let mut resumed = job("sweep", Technique::Geyser, "");
    resumed.program = blocky();
    resumed.checkpoint = Some(path.clone());
    resumed.resume = true;
    supervisor.submit(resumed).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Done);
    let recovered = results[0].compiled.as_ref().unwrap();
    assert_eq!(
        recovered.mapped().circuit().ops(),
        reference.mapped().circuit().ops(),
        "resumed sweep must be bit-identical to the uninterrupted run"
    );
    let stats = recovered
        .report()
        .and_then(|r| r.supervision.as_ref())
        .unwrap();
    assert!(
        stats.blocks_resumed >= 1,
        "restored blocks must be reported"
    );
    assert!(stats.resumed_from_checkpoint);
    assert!(!path.exists(), "finished jobs clean their checkpoint up");
}

#[test]
fn checkpoint_from_a_different_hardware_spec_restores_nothing() {
    // A checkpoint written while compiling for one machine must never
    // splice its blocks into a compilation for another: the binding
    // carries the HardwareSpec digest, so a cross-spec resume degrades
    // to a fresh start (and still finishes cleanly).
    let path = temp_ckpt("cross-spec");
    let _ = std::fs::remove_file(&path);

    // Killed sweep under the paper machine leaves a partial checkpoint.
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let mut killed = job("cross-spec", Technique::Geyser, "kill-after-block:1");
    killed.program = blocky();
    killed.checkpoint = Some(path.clone());
    supervisor.submit(killed).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Cancelled);
    assert!(path.exists(), "partial checkpoint survives the kill");

    // Resume the same workload compiled for a different machine.
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let mut resumed = JobSpec::new(
        "cross-spec",
        Technique::Geyser,
        blocky(),
        fast().with_hardware(geyser::HardwareSpec::near_term()),
    );
    resumed.checkpoint = Some(path.clone());
    resumed.resume = true;
    supervisor.submit(resumed).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Done);
    let stats = results[0]
        .compiled
        .as_ref()
        .unwrap()
        .report()
        .and_then(|r| r.supervision.as_ref())
        .unwrap();
    assert_eq!(
        stats.blocks_resumed, 0,
        "foreign-machine checkpoints must be rejected wholesale"
    );
    assert!(!stats.resumed_from_checkpoint);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_checkpoint_degrades_to_a_fresh_start() {
    let path = temp_ckpt("corrupt");
    std::fs::write(&path, "definitely-not-json{{{").unwrap();
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let mut spec = job("garbled", Technique::Geyser, "");
    spec.checkpoint = Some(path.clone());
    spec.resume = true;
    supervisor.submit(spec).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Done);
    let stats = results[0]
        .compiled
        .as_ref()
        .unwrap()
        .report()
        .and_then(|r| r.supervision.as_ref())
        .unwrap();
    assert_eq!(stats.blocks_resumed, 0, "garbage restores nothing");
    assert!(!stats.resumed_from_checkpoint);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_checkpoint_corruption_still_lets_the_job_finish() {
    // checkpoint-corrupt truncates the file after every write: the
    // current run must be unaffected (it composes from memory), and a
    // later resume just degrades to a fresh start.
    let path = temp_ckpt("self-corrupting");
    let _ = std::fs::remove_file(&path);
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let mut spec = job("torn-writes", Technique::Geyser, "checkpoint-corrupt");
    spec.program = blocky();
    spec.checkpoint = Some(path.clone());
    supervisor.submit(spec).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Done);
    let _ = std::fs::remove_file(&path);
}
