//! Derivative-free global optimization over bounded parameter spaces.
//!
//! Geyser's block composition (paper Sec. 3.4) minimizes the
//! Hilbert–Schmidt distance between an original block unitary and a
//! parameterized ansatz using SciPy's *dual annealing* optimizer. This
//! crate re-implements that optimizer from scratch:
//!
//! * [`dual_annealing`] — generalized simulated annealing (Tsallis
//!   statistics: distorted-Cauchy visiting distribution and
//!   generalized acceptance) with periodic reannealing and an optional
//!   Nelder–Mead local-search polish, mirroring the structure of
//!   Xiang et al.'s dual annealing. Block composition turns the polish
//!   off and refines with [`adam`] instead.
//! * [`nelder_mead`] — bounded Nelder–Mead simplex search, used both
//!   as the polish phase and standalone.
//! * [`adam`] — bounded Adam descent on a value-and-gradient objective;
//!   [`central_difference`] adapts a value-only one.
//!
//! # Example
//!
//! ```
//! use geyser_optimize::{dual_annealing, Bounds, DualAnnealingConfig};
//!
//! // Minimize a shifted sphere function.
//! let bounds = Bounds::uniform(3, -5.0, 5.0);
//! let f = |x: &[f64]| x.iter().map(|v| (v - 1.0).powi(2)).sum::<f64>();
//! let res = dual_annealing(&f, &bounds, &DualAnnealingConfig::default().with_seed(7));
//! assert!(res.fx < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod bounds;
mod cancel;
mod deadline;
mod gradient;
mod neldermead;
mod special;

pub use anneal::{dual_annealing, DualAnnealingConfig};
pub use bounds::Bounds;
pub use cancel::CancelToken;
pub use deadline::Deadline;
pub use gradient::{adam, central_difference, AdamConfig};
pub use neldermead::{nelder_mead, NelderMeadConfig};

/// Outcome of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at [`OptimizeResult::x`].
    pub fx: f64,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
    /// Accepted Metropolis moves ([`dual_annealing`] only; optimizers
    /// without an acceptance step report 0).
    pub accepted: usize,
}
