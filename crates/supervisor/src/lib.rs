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
//! * **crash-safe checkpointing** — per-block composition results are
//!   persisted with atomic temp-file + rename writes as they land, so
//!   a killed sweep resumes from its last completed block and, thanks
//!   to per-block seeding, finishes bit-identical to an uninterrupted
//!   run;
//! * **graceful shutdown** — in-flight and queued jobs drain before
//!   the workers exit;
//! * an optional **overload-resilience service layer**
//!   ([`ServiceCore`], enabled via [`SupervisorConfig::service`]) —
//!   per-tenant token-bucket admission and deficit-round-robin
//!   dispatch, single-flight deduplication of identical in-flight
//!   compiles (with leader re-election on failure), deadline-aware
//!   load shedding with typed [`RejectReason`]s, and a degraded
//!   compile tier under sustained overload;
//! * a **write-ahead job journal** ([`Journal`]) — every service-layer
//!   lifecycle decision is logged durably before the caller observes
//!   it, so [`ServiceCore::recover`] can rebuild state after a
//!   `kill -9` and re-admit acknowledged-but-incomplete jobs exactly
//!   once.
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
//! submit ─────────────▶ Rejected (service layer shed, typed reason)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod breaker;
mod checkpoint;
mod compile;
mod error;
mod job;
mod journal;
mod retry;
mod service;
mod singleflight;
mod supervisor;
mod tenant;
mod watchdog;

pub use admission::{CostModel, RejectReason};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use checkpoint::{
    checkpoint_fingerprint, load_checkpoint, load_checkpoint_quarantining, parse_checkpoint,
    write_checkpoint_atomic, Checkpoint, CheckpointError,
};
pub use compile::{run_supervised_compile, CheckpointedComposePass, SupervisedCompileOptions};
pub use error::SupervisorError;
pub use job::{JobHandle, JobResult, JobSpec, JobState};
pub use journal::{
    decode_journal, load_journal_events, Journal, JournalError, JournalEvent, JournalOpenStats,
    JournalReplay, JOURNAL_VERSION,
};
pub use retry::RetryPolicy;
pub use service::{
    degrade_config, Admission, AttachedInfo, Completion, Dispatch, FlightTicket, PendingJob,
    RecoveryReport, ServiceConfig, ServiceCore, ServiceMetrics,
};
pub use singleflight::{FlightResolution, FlightRole, JobKey, SingleFlight};
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorMetrics};
pub use tenant::{DrrQueue, TenantId, TokenBucket};
pub use watchdog::{Heartbeat, WatchdogConfig};

pub use geyser::{CancelToken, ErrorClass};
