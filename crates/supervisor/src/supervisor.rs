//! The supervision runtime: bounded queue, worker pool, retry loop,
//! breakers, and graceful shutdown.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use geyser::{CancelToken, CompileError, ErrorClass, SupervisionStats, Telemetry};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::compile::{run_supervised_compile, SupervisedCompileOptions};
use crate::error::SupervisorError;
use crate::job::{JobHandle, JobResult, JobSpec, JobState};
use crate::retry::RetryPolicy;
use crate::watchdog::{Heartbeat, Watchdog, WatchdogConfig};

/// Sizing and policy knobs for one [`Supervisor`].
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Worker threads executing jobs (clamped to at least 1).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected
    /// with [`SupervisorError::QueueFull`].
    pub queue_capacity: usize,
    /// Retry budget and backoff schedule for retryable failures.
    pub retry: RetryPolicy,
    /// Per-workload circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Hung-worker watchdog; `None` disables heartbeat monitoring and
    /// attempts run directly under the job's own token (the pre-
    /// watchdog behavior).
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 2,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            watchdog: None,
        }
    }
}

/// Counters describing everything a supervisor has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisorMetrics {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Submissions bounced by admission control (queue full).
    pub rejected: u64,
    /// Jobs that reached a terminal state.
    pub completed: u64,
    /// Individual retry attempts across all jobs.
    pub retries: u64,
    /// Jobs that ended [`JobState::Cancelled`].
    pub cancelled: u64,
    /// Jobs that ended [`JobState::Failed`].
    pub failed: u64,
    /// Jobs bounced by an open circuit breaker.
    pub broken: u64,
    /// Jobs that restored at least one block from a checkpoint.
    pub resumed: u64,
    /// Attempts the watchdog preempted for a stale heartbeat.
    pub hung: u64,
    /// Deepest the queue ever got.
    pub queue_high_water: u64,
    /// Circuit-breaker trips across all workloads.
    pub breaker_trips: u64,
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    cancel: CancelToken,
    queue_depth: u64,
    enqueued: std::time::Instant,
}

struct QueueState {
    queue: VecDeque<QueuedJob>,
    shutting_down: bool,
    in_flight: usize,
}

struct Shared {
    config: SupervisorConfig,
    telemetry: Telemetry,
    watchdog: Option<Watchdog>,
    state: Mutex<QueueState>,
    job_available: Condvar,
    idle: Condvar,
    breakers: Mutex<HashMap<String, CircuitBreaker>>,
    results: Mutex<Vec<JobResult>>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    retries: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    broken: AtomicU64,
    resumed: AtomicU64,
    hung: AtomicU64,
    queue_high_water: AtomicU64,
}

fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// A running supervision runtime over a pool of worker threads.
///
/// # Example
///
/// ```no_run
/// use geyser::{PipelineConfig, Technique};
/// use geyser_circuit::Circuit;
/// use geyser_supervisor::{JobSpec, Supervisor, SupervisorConfig};
///
/// let sup = Supervisor::start(SupervisorConfig::default());
/// let mut program = Circuit::new(2);
/// program.h(0).cx(0, 1);
/// let spec = JobSpec::new("bell", Technique::OptiMap, program, PipelineConfig::fast());
/// let handle = sup.submit(spec).expect("queue has room");
/// let results = sup.shutdown(); // drains in-flight and queued jobs
/// assert_eq!(results[0].id, handle.id);
/// ```
pub struct Supervisor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Supervisor {
    /// Starts the worker pool.
    pub fn start(config: SupervisorConfig) -> Self {
        Self::start_with_telemetry(config, Telemetry::disabled())
    }

    /// Starts the worker pool with a telemetry handle: every job gets
    /// a `supervisor.job` span (queue wait, attempts, outcome), the
    /// compile attempts nest the pipeline's pass spans beneath it, and
    /// the queue depth is tracked as a gauge. Timings are
    /// observational only — results are identical with telemetry
    /// enabled or disabled.
    pub fn start_with_telemetry(config: SupervisorConfig, telemetry: Telemetry) -> Self {
        let watchdog = config
            .watchdog
            .map(|wd| Watchdog::start(wd, telemetry.clone()));
        let shared = Arc::new(Shared {
            config,
            telemetry,
            watchdog,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutting_down: false,
                in_flight: 0,
            }),
            job_available: Condvar::new(),
            idle: Condvar::new(),
            breakers: Mutex::new(HashMap::new()),
            results: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            broken: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            hung: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("geyser-supervisor-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawns")
            })
            .collect();
        Supervisor { shared, workers }
    }

    /// Submits a job, applying admission control: a full queue or a
    /// draining supervisor rejects with an `Err` instead of buffering.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SupervisorError> {
        let mut state = recover(self.shared.state.lock());
        if state.shutting_down {
            return Err(SupervisorError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.config.queue_capacity {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            self.shared.telemetry.counter_add("supervisor.rejected", 1);
            return Err(SupervisorError::QueueFull {
                capacity: self.shared.config.queue_capacity,
            });
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        let queue_depth = state.queue.len() as u64;
        state.queue.push_back(QueuedJob {
            id,
            spec,
            cancel: cancel.clone(),
            queue_depth,
            enqueued: std::time::Instant::now(),
        });
        self.shared
            .queue_high_water
            .fetch_max(state.queue.len() as u64, Ordering::Relaxed);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.telemetry.counter_add("supervisor.submitted", 1);
        self.shared
            .telemetry
            .gauge_set("supervisor.queue_depth", state.queue.len() as i64);
        drop(state);
        self.shared.job_available.notify_one();
        Ok(JobHandle { id, cancel })
    }

    /// Blocks until no job is queued or running.
    pub fn wait_idle(&self) {
        let mut state = recover(self.shared.state.lock());
        loop {
            if state.queue.is_empty() && state.in_flight == 0 {
                return;
            }
            state = recover(self.shared.idle.wait(state));
        }
    }

    /// Takes the terminal results accumulated so far (completion
    /// order).
    pub fn take_results(&self) -> Vec<JobResult> {
        std::mem::take(&mut *recover(self.shared.results.lock()))
    }

    /// The current breaker state for a workload, if any job of that
    /// workload has run.
    pub fn breaker_state(&self, workload: &str) -> Option<BreakerState> {
        recover(self.shared.breakers.lock())
            .get(workload)
            .map(CircuitBreaker::state)
    }

    /// A point-in-time snapshot of the supervisor's counters.
    pub fn metrics(&self) -> SupervisorMetrics {
        let breaker_trips = recover(self.shared.breakers.lock())
            .values()
            .map(CircuitBreaker::trips)
            .sum();
        SupervisorMetrics {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            retries: self.shared.retries.load(Ordering::Relaxed),
            cancelled: self.shared.cancelled.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            broken: self.shared.broken.load(Ordering::Relaxed),
            resumed: self.shared.resumed.load(Ordering::Relaxed),
            hung: self.shared.hung.load(Ordering::Relaxed),
            queue_high_water: self.shared.queue_high_water.load(Ordering::Relaxed),
            breaker_trips,
        }
    }

    /// Graceful shutdown: stops accepting submissions, lets the
    /// workers drain every queued and in-flight job, joins them, and
    /// returns all unclaimed results.
    pub fn shutdown(mut self) -> Vec<JobResult> {
        recover(self.shared.state.lock()).shutting_down = true;
        self.shared.job_available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(wd) = &self.shared.watchdog {
            wd.stop();
        }
        self.take_results()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = recover(shared.state.lock());
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.in_flight += 1;
                    shared
                        .telemetry
                        .gauge_set("supervisor.queue_depth", state.queue.len() as i64);
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = recover(shared.job_available.wait(state));
            }
        };
        let queue_wait_ms = job.enqueued.elapsed().as_millis() as u64;
        let result = run_job(shared, job, queue_wait_ms);
        {
            let mut state = recover(shared.state.lock());
            state.in_flight -= 1;
        }
        count_terminal(shared, result.state);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        recover(shared.results.lock()).push(result);
        shared.idle.notify_all();
    }
}

fn count_terminal(shared: &Shared, state: JobState) {
    match state {
        JobState::Cancelled => shared.cancelled.fetch_add(1, Ordering::Relaxed),
        JobState::Failed => shared.failed.fetch_add(1, Ordering::Relaxed),
        JobState::Broken => shared.broken.fetch_add(1, Ordering::Relaxed),
        _ => 0,
    };
}

/// Sleeps `ms` in 1 ms slices, returning early (true) if the token
/// fires — a job sitting out a retry backoff stays promptly
/// cancellable.
fn cancel_aware_sleep(ms: u64, cancel: &CancelToken) -> bool {
    for _ in 0..ms {
        if cancel.is_cancelled() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cancel.is_cancelled()
}

fn run_job(shared: &Shared, job: QueuedJob, queue_wait_ms: u64) -> JobResult {
    shared
        .telemetry
        .histogram_record("supervisor.queue_wait_ms", queue_wait_ms);
    let mut job_span = shared.telemetry.span("supervisor", "supervisor.job");
    job_span.attr("id", job.id);
    job_span.attr("workload", &job.spec.workload);
    job_span.attr("queue_wait_ms", queue_wait_ms);
    // Breaker admission: an open workload fails fast without
    // consuming an attempt.
    {
        let mut breakers = recover(shared.breakers.lock());
        let breaker = breakers
            .entry(job.spec.workload.clone())
            .or_insert_with(|| CircuitBreaker::new(shared.config.breaker));
        if !breaker.admit() {
            job_span.attr("outcome", "broken");
            return JobResult {
                id: job.id,
                workload: job.spec.workload,
                state: JobState::Broken,
                compiled: None,
                error: None,
                attempts: 0,
            };
        }
    }

    let retry = shared.config.retry;
    let mut attempts: u64 = 0;
    let mut backoff_total: u64 = 0;
    let mut hang_preemptions: u64 = 0;
    let outcome = loop {
        attempts += 1;
        let mut faults = job.spec.faults.clone();
        if attempts > 1 {
            // Transient faults exist to fail exactly one attempt.
            faults.transient_panic_passes.clear();
        }
        if hang_preemptions > 0 {
            // The watchdog already preempted an injected hang; strip
            // it so the rescheduled attempt can make progress (a real
            // hang would simply be preempted again until retries run
            // out).
            faults.hung_passes.clear();
        }
        // Under a watchdog each attempt runs on a private token so a
        // preemption kills only this attempt, never the job; the
        // watchdog propagates job-level cancels into it.
        let (attempt_cancel, heartbeat, watch) = match &shared.watchdog {
            Some(wd) => {
                let heartbeat = Heartbeat::new();
                let attempt_cancel = CancelToken::new();
                let guard = wd.watch(
                    job.cancel.clone(),
                    attempt_cancel.clone(),
                    heartbeat.clone(),
                );
                (attempt_cancel, Some(heartbeat), Some(guard))
            }
            None => (job.cancel.clone(), None, None),
        };
        let opts = SupervisedCompileOptions {
            technique: job.spec.technique,
            faults,
            cancel: attempt_cancel,
            checkpoint: job.spec.checkpoint.clone(),
            // Later attempts of this very job resume their own
            // checkpoint even when the submission didn't ask to.
            resume: job.spec.resume || (attempts > 1 && job.spec.checkpoint.is_some()),
            telemetry: shared.telemetry.clone(),
            heartbeat,
        };
        let mut attempt_span = shared.telemetry.span("supervisor", "supervisor.compile");
        attempt_span.attr("attempt", attempts);
        let attempt_result = run_supervised_compile(&job.spec.program, &job.spec.config, &opts);
        drop(attempt_span);
        // A Cancelled attempt whose *job* token never fired but whose
        // watch was preempted is a hang, not a cancellation: retype it
        // so the retry machinery reschedules it.
        let attempt_result = match (attempt_result, watch) {
            (Err(CompileError::Cancelled { pass }), Some(guard))
                if guard.hung() && !job.cancel.is_cancelled() =>
            {
                hang_preemptions += 1;
                shared.hung.fetch_add(1, Ordering::Relaxed);
                Err(CompileError::WorkerHung {
                    pass,
                    stalled_ms: guard.stalled_ms(),
                })
            }
            (result, _) => result,
        };
        match attempt_result {
            Ok(compiled) => break Ok(compiled),
            Err(e) => match e.class() {
                ErrorClass::Cancelled => break Err((JobState::Cancelled, e)),
                ErrorClass::Retryable if attempts <= retry.max_retries as u64 => {
                    shared.retries.fetch_add(1, Ordering::Relaxed);
                    shared.telemetry.counter_add("supervisor.retries", 1);
                    let ms = retry.backoff_ms(job.id, (attempts - 1) as usize);
                    backoff_total += ms;
                    if cancel_aware_sleep(ms, &job.cancel) {
                        break Err((
                            JobState::Cancelled,
                            CompileError::Cancelled {
                                pass: "retry-backoff".to_string(),
                            },
                        ));
                    }
                    continue;
                }
                _ => break Err((JobState::Failed, e)),
            },
        }
    };

    // Breaker bookkeeping: cancellation says nothing about workload
    // health, so only real terminals move the streak; a cancelled
    // half-open probe just hands its slot back.
    let breaker_state = {
        let mut breakers = recover(shared.breakers.lock());
        let breaker = breakers
            .entry(job.spec.workload.clone())
            .or_insert_with(|| CircuitBreaker::new(shared.config.breaker));
        match &outcome {
            Ok(_) => breaker.record_success(),
            Err((JobState::Cancelled, _)) => breaker.record_cancelled(),
            Err(_) => breaker.record_failure(),
        }
        breaker.state().label().to_string()
    };

    job_span.attr("attempts", attempts);
    match &outcome {
        Ok(_) => job_span.attr("outcome", "done"),
        Err((state, _)) => job_span.attr("outcome", state.label()),
    }
    match outcome {
        Ok(mut compiled) => {
            let blocks_resumed = compiled
                .composition_stats()
                .map_or(0, |s| s.blocks_resumed as u64);
            if blocks_resumed > 0 {
                shared.resumed.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(report) = compiled.report_mut() {
                report.supervision = Some(SupervisionStats {
                    attempts,
                    retries: attempts - 1,
                    backoff_ms: backoff_total,
                    queue_depth: job.queue_depth,
                    breaker_state,
                    blocks_resumed,
                    resumed_from_checkpoint: blocks_resumed > 0,
                    hang_preemptions,
                });
            }
            // The job finished; its checkpoint has served its purpose.
            if let Some(path) = &job.spec.checkpoint {
                let _ = std::fs::remove_file(path);
            }
            JobResult {
                id: job.id,
                workload: job.spec.workload,
                state: JobState::Done,
                compiled: Some(compiled),
                error: None,
                attempts,
            }
        }
        Err((state, error)) => JobResult {
            id: job.id,
            workload: job.spec.workload,
            state,
            compiled: None,
            error: Some(error),
            attempts,
        },
    }
}
