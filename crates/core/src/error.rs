//! Typed errors for the end-to-end compilation pipeline.

use std::fmt;

use geyser_blocking::BlockError;
use geyser_compose::ComposeError;
use geyser_map::MapError;
use geyser_sim::SimError;

/// Why a compilation (or evaluation) could not complete.
///
/// Every pipeline stage reports failures through this enum; the
/// panicking entry points ([`crate::compile`], [`crate::evaluate_tvd`])
/// are thin shims that panic with the [`fmt::Display`] rendering.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The input program has zero qubits.
    EmptyProgram,
    /// The mapping stage failed.
    Map(MapError),
    /// The blocking stage failed.
    Block(BlockError),
    /// The composition stage failed.
    Compose(ComposeError),
    /// A pass ran before a stage it depends on (misordered pass list).
    MissingStage {
        /// The pass that could not run.
        pass: &'static str,
        /// The stage output it requires.
        requires: &'static str,
    },
    /// A debug-mode invariant check failed after a pass.
    InvariantViolation {
        /// The pass after which the invariant no longer holds.
        pass: String,
        /// Human-readable description of the broken invariant.
        detail: String,
    },
    /// The evaluated program's register does not match the compiled
    /// circuit's logical register.
    RegisterMismatch {
        /// Qubit count of the logical program.
        program_qubits: usize,
        /// Logical register size of the compiled circuit.
        compiled_qubits: usize,
    },
    /// An evaluation was requested with zero Monte-Carlo trajectories.
    NoTrajectories,
    /// The wall-clock budget expired before the pipeline produced a
    /// mapped circuit it could degrade to.
    BudgetExceeded {
        /// The pass the budget ran out in front of.
        pass: String,
    },
    /// A pass panicked; the panic was contained by the manager and the
    /// payload captured here.
    PassPanicked {
        /// The pass that panicked.
        pass: String,
        /// Rendered panic payload.
        detail: String,
    },
    /// The job's cancellation token fired before the pipeline
    /// completed; the run terminated promptly at a cancellation point.
    Cancelled {
        /// The pass the cancellation was observed in front of (or
        /// inside).
        pass: String,
    },
    /// Simulation failed a numerical health check during evaluation.
    Sim(SimError),
    /// The persistent composition-reuse store could not be read or
    /// written (I/O failure outside the quarantine path — corrupt
    /// *entries* are quarantined and never surface here).
    ReuseStore {
        /// What the store operation was doing when it failed.
        detail: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::EmptyProgram => f.write_str("program must have qubits"),
            CompileError::Map(e) => write!(f, "mapping failed: {e}"),
            CompileError::Block(e) => write!(f, "blocking failed: {e}"),
            CompileError::Compose(e) => write!(f, "composition failed: {e}"),
            CompileError::MissingStage { pass, requires } => write!(
                f,
                "pass '{pass}' requires the '{requires}' stage to have run first"
            ),
            CompileError::InvariantViolation { pass, detail } => {
                write!(f, "invariant violated after pass '{pass}': {detail}")
            }
            CompileError::RegisterMismatch {
                program_qubits,
                compiled_qubits,
            } => write!(
                f,
                "program / compiled register mismatch: program has \
                 {program_qubits} qubits, compiled register has {compiled_qubits}"
            ),
            CompileError::NoTrajectories => {
                f.write_str("evaluation requires at least one trajectory")
            }
            CompileError::BudgetExceeded { pass } => write!(
                f,
                "wall-clock budget exhausted before pass '{pass}' with no \
                 mapped circuit to degrade to"
            ),
            CompileError::PassPanicked { pass, detail } => {
                write!(f, "pass '{pass}' panicked: {detail}")
            }
            CompileError::Cancelled { pass } => {
                write!(f, "compilation cancelled at pass '{pass}'")
            }
            CompileError::Sim(e) => write!(f, "simulation failed: {e}"),
            CompileError::ReuseStore { detail } => {
                write!(f, "reuse store failed: {detail}")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Map(e) => Some(e),
            CompileError::Block(e) => Some(e),
            CompileError::Compose(e) => Some(e),
            CompileError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MapError> for CompileError {
    fn from(e: MapError) -> Self {
        CompileError::Map(e)
    }
}

impl From<BlockError> for CompileError {
    fn from(e: BlockError) -> Self {
        CompileError::Block(e)
    }
}

impl From<ComposeError> for CompileError {
    fn from(e: ComposeError) -> Self {
        CompileError::Compose(e)
    }
}

impl From<SimError> for CompileError {
    fn from(e: SimError) -> Self {
        CompileError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_program_display_matches_legacy_panic() {
        assert_eq!(
            CompileError::EmptyProgram.to_string(),
            "program must have qubits"
        );
    }

    #[test]
    fn register_mismatch_display_mentions_mismatch() {
        let e = CompileError::RegisterMismatch {
            program_qubits: 3,
            compiled_qubits: 4,
        };
        assert!(e.to_string().contains("register mismatch"));
    }

    #[test]
    fn cancelled_display_names_the_pass() {
        let e = CompileError::Cancelled {
            pass: "compose".into(),
        };
        assert_eq!(e.to_string(), "compilation cancelled at pass 'compose'");
    }

    #[test]
    fn stage_errors_convert_and_chain() {
        let e: CompileError = MapError::LatticeTooSmall {
            qubits: 5,
            nodes: 2,
        }
        .into();
        assert!(matches!(e, CompileError::Map(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("lattice too small"));
    }
}
