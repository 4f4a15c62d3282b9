//! Four-qubit composition feasibility (the paper's Fig. 7 trade-off,
//! quantified).
//!
//! Geyser deliberately composes *three*-qubit blocks: the paper argues
//! four-qubit blocks are "significantly more challenging to compose"
//! because the unitary has 256 components instead of 64 and the
//! square-cell restriction zone freezes 12 atoms instead of 9. This
//! module implements the four-qubit analogue of the composition ansatz
//! so the ablation harness can *measure* that difficulty instead of
//! asserting it: same layer structure (U3 walls + one entangler), same
//! dual-annealing search, 16×16 Hilbert–Schmidt objective.
//!
//! The module reports search outcomes; it deliberately does not emit
//! circuits — CCCZ is not part of the compilation gate alphabet
//! precisely because of the trade-off this module demonstrates.

use geyser_circuit::Gate;
use geyser_num::{hilbert_schmidt_distance, CMatrix, Complex};
use geyser_optimize::{
    adam, central_difference, dual_annealing, AdamConfig, Bounds, DualAnnealingConfig,
};
use geyser_sim::embed_gate;

/// Pulses for a native four-qubit CCCZ (the Rydberg ladder costs two
/// pulses per control plus one for the target: 7).
pub const PULSES_CCCZ: u32 = 7;

/// Entangler alternatives of one four-qubit ansatz layer.
fn entangler_matrix(choice: usize) -> CMatrix {
    match choice {
        // CCCZ: diag(1,…,1,−1) on 16 dimensions.
        0 => {
            let mut d = vec![Complex::ONE; 16];
            d[15] = -Complex::ONE;
            CMatrix::from_diagonal(&d)
        }
        // CCZ on one of the four qubit triples.
        1..=4 => {
            let triples = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]];
            embed_gate(&Gate::CCZ.matrix(), &triples[choice - 1], 4)
        }
        // CZ on one of the six pairs.
        _ => {
            let pairs = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]];
            embed_gate(&Gate::CZ.matrix(), &pairs[(choice - 5) % 6], 4)
        }
    }
}

/// Number of categorical entangler choices per layer (CCCZ + 4 CCZ
/// placements + 6 CZ placements).
pub const QUAD_ENTANGLER_CHOICES: usize = 11;

/// The four-qubit layered ansatz: `12·(L+1)` U3 angles plus one
/// categorical entangler per layer — 49 parameters at one layer
/// versus the three-qubit ansatz's 19 (the paper's "4× harder to
/// compose" in concrete dimensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadAnsatz {
    layers: usize,
}

impl QuadAnsatz {
    /// Creates an ansatz with the given layer count.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn new(layers: usize) -> Self {
        assert!(layers > 0, "ansatz needs at least one layer");
        QuadAnsatz { layers }
    }

    /// Parameter-vector dimension: `12·(layers+1) + layers`.
    pub fn num_params(&self) -> usize {
        12 * (self.layers + 1) + self.layers
    }

    /// Parameter bounds (angles `[0, 2π]`, categoricals `[0, 11)`).
    pub fn bounds(&self) -> Vec<(f64, f64)> {
        let mut b = vec![(0.0, std::f64::consts::TAU); 12];
        for _ in 0..self.layers {
            b.push((0.0, QUAD_ENTANGLER_CHOICES as f64 - 1e-9));
            b.extend(std::iter::repeat_n((0.0, std::f64::consts::TAU), 12));
        }
        b
    }

    /// Evaluates the 16×16 ansatz unitary.
    ///
    /// # Panics
    ///
    /// Panics on parameter-count mismatch.
    pub fn unitary(&self, params: &[f64]) -> CMatrix {
        assert_eq!(params.len(), self.num_params(), "parameter count");
        let wall = |angles: &[f64]| -> CMatrix {
            let u = |o: usize| {
                Gate::U3 {
                    theta: angles[o],
                    phi: angles[o + 1],
                    lambda: angles[o + 2],
                }
                .matrix()
            };
            u(0).kron(&u(3)).kron(&u(6)).kron(&u(9))
        };
        let mut m = wall(&params[0..12]);
        let mut idx = 12;
        for _ in 0..self.layers {
            let choice = params[idx].floor().clamp(0.0, 10.0) as usize;
            idx += 1;
            let w = wall(&params[idx..idx + 12]);
            idx += 12;
            m = w.matmul(&entangler_matrix(choice)).matmul(&m);
        }
        m
    }
}

/// Outcome of a four-qubit composition attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadAttempt {
    /// Best Hilbert–Schmidt distance reached.
    pub hsd: f64,
    /// Whether the threshold was met.
    pub converged: bool,
    /// Objective evaluations spent.
    pub evaluations: usize,
    /// Ansatz layers used.
    pub layers: usize,
}

/// Attempts to compose a 16×16 target with the four-qubit ansatz at a
/// fixed layer count — the measurement backing the paper's Fig. 7
/// argument. Uses the same dual-annealing engine and budget semantics
/// as the production three-qubit composer, but keeps the annealer's
/// Nelder–Mead polish, which the composer turns off (its only local
/// phase is Adam on the exact adjoint gradient): ablation 4 measures
/// this engine's evaluations, and they must not move with the
/// composer's search.
///
/// # Panics
///
/// Panics if `target` is not 16×16 or `layers == 0`.
pub fn try_compose_quad(
    target: &CMatrix,
    layers: usize,
    epsilon: f64,
    anneal_iters: usize,
    seed: u64,
) -> QuadAttempt {
    assert_eq!(target.rows(), 16, "quad composition targets 16×16");
    let ansatz = QuadAnsatz::new(layers);
    let bounds = Bounds::new(&ansatz.bounds());
    let objective = |p: &[f64]| hilbert_schmidt_distance(&ansatz.unitary(p), target);
    let cfg = DualAnnealingConfig::default()
        .with_seed(seed)
        .with_max_iters(anneal_iters)
        .with_target(epsilon * 0.5);
    let global = dual_annealing(&objective, &bounds, &cfg);
    let mut best = (global.fx, global.x);
    let mut evaluations = global.evaluations;
    if best.0 > epsilon {
        // The three-qubit composer's Adam refinement, on
        // central-difference gradients; every objective call counts.
        let mut refine_calls = 0usize;
        let counted = |p: &[f64]| {
            refine_calls += 1;
            objective(p)
        };
        let refine = adam(
            central_difference(counted, &bounds),
            &bounds,
            &best.1,
            &AdamConfig {
                max_iters: 350,
                ..AdamConfig::default()
            }
            .with_target(epsilon * 0.5),
        );
        evaluations += refine_calls;
        if refine.fx < best.0 {
            best = (refine.fx, refine.x);
        }
    }
    QuadAttempt {
        hsd: best.0,
        converged: best.0 <= epsilon,
        evaluations,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_counts() {
        assert_eq!(QuadAnsatz::new(1).num_params(), 25);
        assert_eq!(QuadAnsatz::new(2).num_params(), 38);
        assert_eq!(QuadAnsatz::new(1).bounds().len(), 25);
    }

    #[test]
    fn ansatz_unitary_is_unitary() {
        let a = QuadAnsatz::new(2);
        let params: Vec<f64> = (0..a.num_params())
            .map(|i| (i as f64 * 0.37) % std::f64::consts::TAU)
            .collect();
        assert!(a.unitary(&params).is_unitary(1e-9));
    }

    #[test]
    fn all_entanglers_are_diagonal_unitaries() {
        for choice in 0..QUAD_ENTANGLER_CHOICES {
            let m = entangler_matrix(choice);
            assert!(m.is_unitary(1e-12), "choice {choice}");
            assert_eq!(m.rows(), 16);
        }
    }

    #[test]
    fn zero_walls_with_cccz_reproduce_cccz() {
        let a = QuadAnsatz::new(1);
        let mut params = vec![0.0; 25];
        params[12] = 0.0; // CCCZ
        let d = hilbert_schmidt_distance(&a.unitary(&params), &entangler_matrix(0));
        assert!(d < 1e-12);
    }

    #[test]
    fn trivial_target_converges_within_a_few_restarts() {
        // A bare CCCZ target has an exact solution at the origin, yet
        // even *this* 25-dimensional search needs restarts — the
        // difficulty the module exists to measure. A handful of seeds
        // must suffice for the trivial case.
        let mut best = f64::INFINITY;
        for seed in 0..6 {
            let attempt = try_compose_quad(&entangler_matrix(0), 1, 1e-3, 200, seed);
            best = best.min(attempt.hsd);
            if attempt.converged {
                return;
            }
        }
        panic!("no seed converged on the trivial CCCZ target; best hsd = {best}");
    }

    #[test]
    fn hard_target_reports_without_panicking() {
        // A random-ish entangled 4q target under a tiny budget: the
        // point is the honest failure report, not success.
        let mut t = entangler_matrix(0).matmul(&entangler_matrix(7));
        t = t.matmul(&entangler_matrix(3));
        let attempt = try_compose_quad(&t, 1, 1e-6, 10, 5);
        assert!(attempt.hsd >= 0.0);
        assert!(attempt.evaluations > 0);
        assert_eq!(attempt.layers, 1);
    }

    #[test]
    #[should_panic(expected = "16×16")]
    fn wrong_dimension_panics() {
        let _ = try_compose_quad(&CMatrix::identity(8), 1, 1e-3, 10, 0);
    }
}
