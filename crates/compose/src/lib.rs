//! Geyser block composition (paper Sec. 3.4, Algorithm 2).
//!
//! Composition is the inverse of gate decomposition: given a 3-qubit
//! block circuit of U3/CZ gates, find an *equivalent* circuit built
//! from parameterized layers of U3 gates and a CZ-or-CCZ entangler
//! that needs **fewer physical pulses**. Equivalence is judged by the
//! Hilbert–Schmidt distance between the 8×8 unitaries; parameters are
//! found with dual annealing.
//!
//! Layer structure (paper Fig. 10): an initial wall of three U3 gates,
//! then per layer one entangler — a categorical choice among CCZ and
//! the three CZ placements — followed by another U3 wall. One layer =
//! 19 parameters (18 angles + 1 categorical), each further layer adds
//! 10. Composition stops when the distance threshold is met or the
//! candidate would need at least as many pulses as the original, in
//! which case the original block is kept (Geyser is never worse than
//! its input).
//!
//! # Example
//!
//! ```
//! use geyser_circuit::Circuit;
//! use geyser_compose::{compose_block, CompositionConfig};
//!
//! // A block that is secretly a CCZ decomposed into many gates will
//! // compose down to a handful of pulses.
//! let mut block = Circuit::new(3);
//! block.h(2).ccz(0, 1, 2).h(2); // 7 pulses already — tiny example
//! let result = compose_block(&block, &CompositionConfig::fast());
//! assert!(result.circuit.total_pulses() <= block.total_pulses());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ansatz;
mod certificate;
mod composer;
mod error;
mod objective;
mod quad;

pub use ansatz::{Ansatz, Entangler};
pub use composer::{
    compose_block, compose_blocked_circuit, try_compose_block, try_compose_blocked_circuit,
    try_compose_blocked_circuit_reusing, try_compose_blocked_circuit_supervised,
    try_compose_blocked_circuit_with_faults, BlockObserver, BlockOutcome, ComposeFaults,
    ComposedCircuit, CompositionConfig, CompositionResult, CompositionStats, FallbackReason,
};
pub use error::ComposeError;
pub use geyser_optimize::{CancelToken, Deadline};
pub use geyser_reuse::{ReuseSession, ReuseStats, SEARCH_VERSION};
pub use quad::{try_compose_quad, QuadAnsatz, QuadAttempt, PULSES_CCCZ, QUAD_ENTANGLER_CHOICES};
