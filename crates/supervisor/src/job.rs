//! Job specifications, handles, and terminal results.

use std::path::PathBuf;

use geyser::{
    CancelToken, CompileError, CompiledCircuit, FaultInjector, PipelineConfig, Technique,
};
use geyser_circuit::Circuit;

/// One compile job submitted to the [`crate::Supervisor`].
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Workload name — the circuit-breaker key and checkpoint label.
    pub workload: String,
    /// Technique to compile with.
    pub technique: Technique,
    /// The logical program.
    pub program: Circuit,
    /// Pipeline configuration (budget, seeds, composition settings).
    pub config: PipelineConfig,
    /// Fault plan for this job (empty in production).
    pub faults: FaultInjector,
    /// Where to persist the crash-safe composition checkpoint; `None`
    /// disables checkpointing for this job.
    pub checkpoint: Option<PathBuf>,
    /// Whether to restore a matching checkpoint before composing.
    pub resume: bool,
}

impl JobSpec {
    /// A plain job: no faults, no checkpointing.
    pub fn new(
        workload: impl Into<String>,
        technique: Technique,
        program: Circuit,
        config: PipelineConfig,
    ) -> Self {
        JobSpec {
            workload: workload.into(),
            technique,
            program,
            config,
            faults: FaultInjector::none(),
            checkpoint: None,
            resume: false,
        }
    }
}

/// Where a job is in its lifecycle.
///
/// `Queued → Running → {Done, Cancelled, Retrying, Failed}`, with
/// `Retrying → Running` on each backoff expiry, and `Queued → Broken`
/// when the workload's breaker is open at dequeue time. The terminal
/// states are `Done`, `Cancelled`, `Failed`, and `Broken`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the bounded queue.
    Queued,
    /// An attempt is executing on a worker.
    Running,
    /// A retryable attempt failed; the job is sleeping out its
    /// backoff before the next attempt.
    Retrying,
    /// Terminal: compiled successfully.
    Done,
    /// Terminal: the job's [`CancelToken`] fired.
    Cancelled,
    /// Terminal: a fatal error, or retries exhausted.
    Failed,
    /// Terminal: rejected without running because the workload's
    /// circuit breaker was open.
    Broken,
}

impl JobState {
    /// Stable lowercase label (telemetry span attributes and logs).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Retrying => "retrying",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
            JobState::Broken => "broken",
        }
    }

    /// Whether this state ends the job.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed | JobState::Broken
        )
    }
}

/// Handle returned by [`crate::Supervisor::submit`].
#[derive(Debug, Clone)]
pub struct JobHandle {
    /// Supervisor-assigned job id (unique per supervisor).
    pub id: u64,
    /// The job's cancellation token; firing it cancels the job
    /// whether queued or mid-pass.
    pub cancel: CancelToken,
}

/// Terminal record of one supervised job.
#[derive(Debug)]
pub struct JobResult {
    /// The id from the [`JobHandle`].
    pub id: u64,
    /// The workload the job belonged to.
    pub workload: String,
    /// Terminal state ([`JobState::is_terminal`] always holds).
    pub state: JobState,
    /// The compiled circuit when `state == Done` (with
    /// [`geyser::SupervisionStats`] attached to its report).
    pub compiled: Option<CompiledCircuit>,
    /// The final error for `Failed` / `Cancelled` terminals.
    pub error: Option<CompileError>,
    /// Attempts consumed (0 for `Broken` jobs, which never ran).
    pub attempts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states_are_exactly_the_four() {
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Broken.is_terminal());
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::Retrying.is_terminal());
    }
}
