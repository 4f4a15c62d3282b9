//! Supervised compile-job runtime for the Geyser pipeline.
//!
//! The compiler crates are deliberately single-run: one program, one
//! technique, one `PassManager::run`. An evaluation harness, though,
//! compiles dozens of (workload × technique) jobs, some of which hang,
//! panic, exhaust budgets, or get killed halfway through a sweep. This
//! crate wraps the pipeline in a small supervision runtime:
//!
//! * a **bounded job queue** with admission control — submissions
//!   beyond capacity are rejected with
//!   [`SupervisorError::QueueFull`] instead of buffering unboundedly;
//! * **cooperative cancellation** — each job carries a
//!   [`CancelToken`] observed between passes, inside the annealer's
//!   chain moves, and before every composition block;
//! * **retry classification** — [`ErrorClass::Retryable`] failures
//!   (contained panics, exhausted budgets, NaN trajectories) are
//!   retried with seeded exponential backoff;
//!   [`ErrorClass::Fatal`] failures are not;
//! * a per-workload **circuit breaker** — repeated failures trip the
//!   workload open so further jobs fail fast, with a half-open probe
//!   after a cooldown;
//! * a **hung-worker watchdog** — an attempt whose heartbeat goes
//!   stale is preempted and retried as a typed `WorkerHung` error;
//! * **crash-safe checkpointing** — per-block composition results are
//!   persisted with atomic temp-file + rename writes as they land, so
//!   a killed sweep resumes from its last completed block and, thanks
//!   to per-block seeding, finishes bit-identical to an uninterrupted
//!   run;
//! * **graceful shutdown** — in-flight and queued jobs drain before
//!   the workers exit.
//!
//! The job state machine:
//!
//! ```text
//! Queued ──▶ Running ──▶ Done
//!               │  ▲
//!               │  └── Retrying (retryable error, backoff)
//!               ├────▶ Cancelled (token fired)
//!               ├────▶ Failed    (fatal, or retries exhausted)
//! Queued ─────────────▶ Broken   (workload breaker open)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod checkpoint;
mod compile;
mod error;
mod job;
mod retry;
mod supervisor;
mod watchdog;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use checkpoint::{
    checkpoint_fingerprint, load_checkpoint, load_checkpoint_quarantining, parse_checkpoint,
    write_checkpoint_atomic, Checkpoint, CheckpointError,
};
pub use compile::{run_supervised_compile, CheckpointedComposePass, SupervisedCompileOptions};
pub use error::SupervisorError;
pub use job::{JobHandle, JobResult, JobSpec, JobState};
pub use retry::RetryPolicy;
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorMetrics};
pub use watchdog::{Heartbeat, WatchdogConfig};

pub use geyser::{CancelToken, ErrorClass};
