//! The composition objective kernel: an allocation-free, memoized
//! evaluator of `HSD(ansatz.unitary(params), target)`.
//!
//! # Bit-identity contract
//!
//! [`AnsatzObjective::distance`] returns exactly the bits of
//! `hilbert_schmidt_distance(&ansatz.unitary(params), target)`, so
//! every annealer and Adam trajectory is unchanged by it. It holds
//! because each step replays the reference's floating-point operations
//! in the reference's order:
//!
//! - U3 gates come from the shared [`u3_entries`] formula;
//! - walls are [`Mat8::kron3`] (`(a ⊗ b) ⊗ c`, same zero-skips);
//! - entanglers are diagonal, so `W·E` is [`Mat8::mul_diag`], which
//!   reproduces the dense product's signed zeros;
//! - the chain `u_l = (W_l·E_l)·u_{l−1}` is evaluated left to right,
//!   exactly as [`Ansatz::unitary`] folds it.
//!
//! # Memoization
//!
//! The evaluator keeps the last query's parameters and, for it, every
//! U3, every wall, every `W_l·E_l` and every prefix product `u_l`. A new query
//! recomputes only the U3s whose angle bits changed and restarts the
//! chain at the first layer whose wall or entangler changed — an Adam
//! probe or a single-coordinate annealing move touches one layer.
//! Prefixes are reused bit-exactly because they are the reference's
//! own partial products. Suffix products are deliberately *not*
//! cached: `(AB)C ≠ A(BC)` in floating point, so recombining a cached
//! suffix would change the bits and with them the search.
//!
//! # Adjoint gradient
//!
//! [`AnsatzObjective::distance_and_gradient`] returns the same value
//! bits plus all partials from one backward sweep over the memoized
//! chain (DESIGN.md §4.3). With `U = S_L ⋯ S_0`, `S_0 = W_0`,
//! `S_w = W_w·D_w` and `z = Tr(U†T)`, the distance is `1 − |z|/8`, so
//! `∂HSD = Re(κ·Tr(T†·∂U))` with `κ = −z / (8|z|)`. A parameter of
//! wall `w` enters as `∂U = A_w·∂W_w·B_w`, hence
//! `Tr(T†·∂U) = Tr(M_w·∂W_w)` with the environment
//! `M_w = B_w·G_w`, where
//!
//! - `G_L = T†` and `G_{w−1} = G_w·S_w` (the backward sweep);
//! - `B_w = D_w·P_{w−1}` for `w ≥ 1` and `B_0 = I`, so `M_0 = G_0`.
//!
//! `W_w = u_0 ⊗ u_1 ⊗ u_2`, so `M_w` contracts against two of the
//! U3s into a 2×2 environment `E_q` per qubit, and each partial is
//! `Re(κ·Tr(E_q·∂u_q))` with the closed-form derivatives of
//! [`u3_entries`]. Categorical entries decode piecewise-constantly:
//! their partial is 0. The gradient is exact up to rounding; only the
//! value carries the bit-identity contract.

use geyser_circuit::u3_entries;
use geyser_num::{CMatrix, Complex, Mat2, Mat8};

use crate::{Ansatz, Entangler};

/// Memoized `params ↦ HSD(ansatz.unitary(params), target)` evaluator,
/// with its adjoint gradient.
///
/// One instance serves one ansatz depth and one target; all buffers
/// are allocated in [`AnsatzObjective::new`], none per query.
#[derive(Debug, Clone)]
pub(crate) struct AnsatzObjective {
    ansatz: Ansatz,
    target: Mat8,
    /// `T†`, the start of the backward sweep.
    target_dagger: Mat8,
    /// Parameters of the last query (meaningful once `primed`).
    last: Vec<f64>,
    primed: bool,
    /// U3 of qubit `q` in wall `w` at index `3w + q`.
    u3: Vec<Mat2>,
    /// Wall `w` (0 = the initial wall, `l` = layer `l`'s wall).
    walls: Vec<Mat8>,
    /// Entangler of layer `l` at index `l − 1`.
    entanglers: Vec<Entangler>,
    /// Chain factor of wall `w`: wall 0 itself, then `W_l·E_l`.
    steps: Vec<Mat8>,
    /// Prefix product through wall `w`: `prefix[0]` is wall 0.
    prefix: Vec<Mat8>,
}

impl AnsatzObjective {
    /// Creates the evaluator for `ansatz` against an 8×8 `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not 8×8.
    pub(crate) fn new(ansatz: Ansatz, target: &CMatrix) -> Self {
        let walls = ansatz.layers() + 1;
        let target = Mat8::from_cmatrix(target);
        AnsatzObjective {
            ansatz,
            target,
            target_dagger: target.dagger(),
            last: vec![0.0; ansatz.num_params()],
            primed: false,
            u3: vec![[Complex::ZERO; 4]; 3 * walls],
            walls: vec![Mat8::ZERO; walls],
            entanglers: vec![Entangler::Ccz; ansatz.layers()],
            steps: vec![Mat8::ZERO; walls],
            prefix: vec![Mat8::ZERO; walls],
        }
    }

    /// Hilbert–Schmidt distance of the ansatz at `params` to the
    /// target, bit-identical to the dense reference.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != ansatz.num_params()`.
    pub(crate) fn distance(&mut self, params: &[f64]) -> f64 {
        assert_eq!(params.len(), self.ansatz.num_params(), "parameter count");
        let layers = self.ansatz.layers();
        let mut first_dirty = None;
        for wall in 0..=layers {
            // Layer l (≥ 1) is [categorical] ++ [9 angles] at 10l − 1.
            let angles = if wall == 0 { 0 } else { 10 * wall };
            let mut ent_dirty = false;
            if wall > 0 {
                let ent = Entangler::from_continuous(params[angles - 1]);
                if !self.primed || ent != self.entanglers[wall - 1] {
                    self.entanglers[wall - 1] = ent;
                    ent_dirty = true;
                }
            }
            let mut wall_dirty = false;
            for q in 0..3 {
                let at = angles + 3 * q;
                let (new, old) = (&params[at..at + 3], &self.last[at..at + 3]);
                if !self.primed || new.iter().zip(old).any(|(a, b)| a.to_bits() != b.to_bits()) {
                    self.u3[3 * wall + q] = u3_entries(new[0], new[1], new[2]);
                    wall_dirty = true;
                }
            }
            if wall_dirty {
                let u = &self.u3[3 * wall..3 * wall + 3];
                self.walls[wall] = Mat8::kron3(&u[0], &u[1], &u[2]);
            }
            if wall_dirty || ent_dirty {
                self.steps[wall] = if wall == 0 {
                    self.walls[0]
                } else {
                    self.walls[wall].mul_diag(&self.entanglers[wall - 1].diagonal())
                };
                first_dirty.get_or_insert(wall);
            }
        }
        self.last.copy_from_slice(params);
        self.primed = true;

        if let Some(first) = first_dirty {
            for wall in first..=layers {
                self.prefix[wall] = if wall == 0 {
                    self.steps[0]
                } else {
                    self.steps[wall].matmul(&self.prefix[wall - 1])
                };
            }
        }
        self.prefix[layers].hilbert_schmidt_distance(&self.target)
    }

    /// [`AnsatzObjective::distance`] and, into a non-empty `grad`, its
    /// exact gradient (module docs): the returned value has
    /// `distance`'s bits, categorical partials are 0. An empty `grad`
    /// asks for the value only.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != ansatz.num_params()`, or if `grad` is
    /// non-empty and of a different length.
    pub(crate) fn distance_and_gradient(&mut self, params: &[f64], grad: &mut [f64]) -> f64 {
        let value = self.distance(params);
        if grad.is_empty() {
            return value;
        }
        assert_eq!(grad.len(), params.len(), "gradient length");
        let layers = self.ansatz.layers();
        let z = self.prefix[layers].hilbert_schmidt_inner(&self.target);
        let norm = z.norm();
        // `1 − |z|/8` is flat where the clamp at 0 binds and has no
        // derivative at z = 0.
        if norm == 0.0 || 1.0 - norm / 8.0 < 0.0 {
            grad.fill(0.0);
            return value;
        }
        let kappa = z * (-1.0 / (8.0 * norm));
        let mut g = self.target_dagger;
        for wall in (0..=layers).rev() {
            let env = if wall == 0 {
                g
            } else {
                let ent = self.entanglers[wall - 1].diagonal();
                self.prefix[wall - 1].diag_mul(&ent).matmul(&g)
            };
            let angles = if wall == 0 { 0 } else { 10 * wall };
            let u = &self.u3[3 * wall..3 * wall + 3];
            for q in 0..3 {
                let e = qubit_environment(&env, u, q);
                let at = angles + 3 * q;
                let partials = u3_partials(params[at], params[at + 1], params[at + 2]);
                for (k, d) in partials.iter().enumerate() {
                    // Tr(E·∂u) = Σ E[r][s]·∂u[s][r].
                    let y = e[0] * d[0] + e[1] * d[2] + e[2] * d[1] + e[3] * d[3];
                    grad[at + k] = (kappa * y).re;
                }
            }
            if wall > 0 {
                grad[angles - 1] = 0.0;
                g = g.matmul(&self.steps[wall]);
            }
        }
        value
    }
}

/// 2×2 environment of qubit `q` in `Tr(M·(u_0 ⊗ u_1 ⊗ u_2))`:
/// `E[r_q][s_q] = Σ M[r][s]·Π_{p≠q} u_p[s_p][r_p]`, so replacing `u_q`
/// by `X` gives `Tr(E·X)`.
fn qubit_environment(m: &Mat8, u: &[Mat2], q: usize) -> Mat2 {
    let bit = |i: usize, p: usize| (i >> (2 - p)) & 1;
    let (a, b) = match q {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let mut e = [Complex::ZERO; 4];
    for r in 0..8 {
        for s in 0..8 {
            let w = u[a][2 * bit(s, a) + bit(r, a)] * u[b][2 * bit(s, b) + bit(r, b)];
            e[2 * bit(r, q) + bit(s, q)] += m.get(r, s) * w;
        }
    }
    e
}

/// `∂/∂θ`, `∂/∂φ` and `∂/∂λ` of [`u3_entries`]`(θ, φ, λ)`.
fn u3_partials(theta: f64, phi: f64, lambda: f64) -> [Mat2; 3] {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    let (el, ep, epl) = (
        Complex::cis(lambda),
        Complex::cis(phi),
        Complex::cis(phi + lambda),
    );
    let i = Complex::I;
    [
        [
            Complex::from_real(-0.5 * s),
            -(el * (0.5 * c)),
            ep * (0.5 * c),
            epl * (-0.5 * s),
        ],
        [Complex::ZERO, Complex::ZERO, i * ep * s, i * epl * c],
        [Complex::ZERO, -(i * el * s), Complex::ZERO, i * epl * c],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use geyser_num::hilbert_schmidt_distance;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::{PI, TAU};

    /// A fixed, non-trivial 3-qubit target (decomposed-CCZ-like).
    fn target(seed: u64) -> CMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Ansatz::new(2);
        let p: Vec<f64> = (0..a.num_params())
            .map(|i| {
                if i == 9 || i == 19 {
                    rng.gen_range(0.0..4.0)
                } else {
                    rng.gen_range(0.0..TAU)
                }
            })
            .collect();
        a.unitary(&p)
    }

    /// Angles drawn with the special values that hit the zero-skip
    /// paths (`θ = 0` zeroes a U3's off-diagonal, `θ = π` its
    /// diagonal) mixed into uniform draws.
    fn draw_param(rng: &mut StdRng, categorical: bool) -> f64 {
        if categorical {
            return match rng.gen_range(0..6) {
                0 => 0.0,
                1 => 2.0,
                _ => rng.gen_range(0.0..4.0 - 1e-9),
            };
        }
        match rng.gen_range(0..8) {
            0 => 0.0,
            1 => PI,
            2 => TAU,
            3 => -0.0,
            _ => rng.gen_range(0.0..TAU),
        }
    }

    fn is_categorical(i: usize) -> bool {
        i >= 9 && (i - 9).is_multiple_of(10)
    }

    fn reference(a: &Ansatz, p: &[f64], t: &CMatrix) -> u64 {
        hilbert_schmidt_distance(&a.unitary(p), t).to_bits()
    }

    #[test]
    fn fresh_queries_are_bit_identical_to_the_dense_reference() {
        let mut rng = StdRng::seed_from_u64(0x0b1e_c71e);
        for layers in 1..=3 {
            let a = Ansatz::new(layers);
            let t = target(layers as u64);
            for _ in 0..400 {
                let p: Vec<f64> = (0..a.num_params())
                    .map(|i| draw_param(&mut rng, is_categorical(i)))
                    .collect();
                // A fresh evaluator per query: no memo involved.
                let got = AnsatzObjective::new(a, &t).distance(&p);
                assert_eq!(
                    got.to_bits(),
                    reference(&a, &p, &t),
                    "layers {layers}, {p:?}"
                );
            }
        }
    }

    #[test]
    fn all_zero_and_all_pi_angles_are_bit_identical() {
        for layers in 1..=3 {
            let a = Ansatz::new(layers);
            let t = target(10 + layers as u64);
            for fill in [0.0, PI, TAU] {
                for cat in [0.0, 1.5, 2.0, 3.5] {
                    let p: Vec<f64> = (0..a.num_params())
                        .map(|i| if is_categorical(i) { cat } else { fill })
                        .collect();
                    let got = AnsatzObjective::new(a, &t).distance(&p);
                    assert_eq!(got.to_bits(), reference(&a, &p, &t));
                    // The target itself: distance exactly as dense.
                    let self_t = a.unitary(&p);
                    let got = AnsatzObjective::new(a, &self_t).distance(&p);
                    assert_eq!(got.to_bits(), reference(&a, &p, &self_t));
                }
            }
        }
    }

    /// Memo query sequences shaped like the optimizers' access
    /// patterns, each answer checked against the dense reference.
    #[test]
    fn memoized_query_sequences_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for layers in 1..=3 {
            let a = Ansatz::new(layers);
            let t = target(20 + layers as u64);
            let dim = a.num_params();
            let mut obj = AnsatzObjective::new(a, &t);
            let mut x: Vec<f64> = (0..dim)
                .map(|i| draw_param(&mut rng, is_categorical(i)))
                .collect();
            let check = |obj: &mut AnsatzObjective, p: &[f64]| {
                assert_eq!(obj.distance(p).to_bits(), reference(&a, p, &t), "{p:?}");
            };
            let mut grad = vec![0.0; dim];
            for round in 0..100 {
                check(&mut obj, &x);
                // Adam: a value, then the gradient at the same point.
                let value = obj.distance_and_gradient(&x, &mut grad);
                assert_eq!(value.to_bits(), reference(&a, &x, &t));
                // Single-coordinate ±h probes, restored in place.
                for i in 0..dim {
                    let xi = x[i];
                    x[i] = xi + 1e-5;
                    check(&mut obj, &x);
                    x[i] = xi - 1e-5;
                    check(&mut obj, &x);
                    x[i] = xi;
                }
                check(&mut obj, &x);
                // Annealer: full-vector moves, then single-coordinate.
                for (i, v) in x.iter_mut().enumerate() {
                    *v = draw_param(&mut rng, is_categorical(i));
                }
                check(&mut obj, &x);
                for _ in 0..dim {
                    let i = rng.gen_range(0..dim);
                    x[i] = draw_param(&mut rng, is_categorical(i));
                    check(&mut obj, &x);
                }
                // Two-coordinate deltas, possibly in different layers.
                for _ in 0..dim {
                    let (i, j) = (rng.gen_range(0..dim), rng.gen_range(0..dim));
                    x[i] = draw_param(&mut rng, is_categorical(i));
                    x[j] = draw_param(&mut rng, is_categorical(j));
                    check(&mut obj, &x);
                }
                // Categorical decode flips, and in-bucket moves that
                // change the bits but not the decoded entangler.
                for l in 0..layers {
                    let slot = 9 + 10 * l;
                    x[slot] = ((x[slot].floor() + 1.0 + round as f64) % 4.0) + 0.25;
                    check(&mut obj, &x);
                    x[slot] = x[slot].floor() + 0.75;
                    check(&mut obj, &x);
                }
                // Repeated query: answered from the memo as is.
                check(&mut obj, &x);
            }
        }
    }

    /// Central differences of `distance` with step `h`; categorical
    /// slots are skipped (a probe may cross a decode boundary).
    fn central_differences(obj: &mut AnsatzObjective, p: &[f64], h: f64) -> Vec<f64> {
        let mut x = p.to_vec();
        (0..p.len())
            .map(|i| {
                if is_categorical(i) {
                    return 0.0;
                }
                x[i] = p[i] + h;
                let plus = obj.distance(&x);
                x[i] = p[i] - h;
                let minus = obj.distance(&x);
                x[i] = p[i];
                (plus - minus) / (2.0 * h)
            })
            .collect()
    }

    /// Checks one point: value bits equal to `distance` and the dense
    /// reference, angle partials within 1e-6 of central differences,
    /// categorical partials exactly 0.
    fn check_gradient(obj: &mut AnsatzObjective, a: &Ansatz, t: &CMatrix, p: &[f64]) {
        let mut grad = vec![f64::NAN; p.len()];
        let value = obj.distance_and_gradient(p, &mut grad);
        assert_eq!(value.to_bits(), reference(a, p, t), "{p:?}");
        assert_eq!(value.to_bits(), obj.distance(p).to_bits());
        let fd = central_differences(obj, p, 1e-6);
        for (i, (g, d)) in grad.iter().zip(&fd).enumerate() {
            if is_categorical(i) {
                assert_eq!(*g, 0.0, "categorical slot {i}");
            } else {
                assert!(
                    (g - d).abs() <= 1e-6,
                    "slot {i}: adjoint {g}, fd {d}, {p:?}"
                );
            }
        }
    }

    #[test]
    fn gradient_matches_central_differences_at_random_angles() {
        let mut rng = StdRng::seed_from_u64(0x00ad_0017);
        for layers in 1..=3 {
            let a = Ansatz::new(layers);
            let t = target(30 + layers as u64);
            let mut obj = AnsatzObjective::new(a, &t);
            for _ in 0..60 {
                let p: Vec<f64> = (0..a.num_params())
                    .map(|i| {
                        if is_categorical(i) {
                            rng.gen_range(0.0..4.0 - 1e-9)
                        } else {
                            rng.gen_range(0.0..TAU)
                        }
                    })
                    .collect();
                check_gradient(&mut obj, &a, &t, &p);
            }
        }
    }

    /// `θ ∈ {0, π, 2π}` zeroes one half of a U3 and takes the
    /// kernel's zero-skip paths; the partials there are still exact.
    #[test]
    fn gradient_matches_central_differences_at_zero_skip_angles() {
        let mut rng = StdRng::seed_from_u64(0x2e20);
        for layers in 1..=3 {
            let a = Ansatz::new(layers);
            let t = target(40 + layers as u64);
            let mut obj = AnsatzObjective::new(a, &t);
            for theta in [0.0, PI, TAU] {
                for _ in 0..10 {
                    let p: Vec<f64> = (0..a.num_params())
                        .map(|i| {
                            // θ sits at offset 0, 3, 6 of each wall (i mod 10).
                            if is_categorical(i) {
                                rng.gen_range(0.0..4.0 - 1e-9)
                            } else if i % 10 % 3 == 0 && rng.gen_bool(0.7) {
                                theta
                            } else {
                                rng.gen_range(0.0..TAU)
                            }
                        })
                        .collect();
                    check_gradient(&mut obj, &a, &t, &p);
                }
            }
        }
    }

    #[test]
    fn empty_gradient_buffer_asks_for_the_value_only() {
        let a = Ansatz::new(2);
        let t = target(50);
        let p: Vec<f64> = (0..a.num_params()).map(|i| 0.1 * i as f64).collect();
        let mut obj = AnsatzObjective::new(a, &t);
        let value = obj.distance_and_gradient(&p, &mut []);
        assert_eq!(value.to_bits(), reference(&a, &p, &t));
    }

    #[test]
    #[should_panic(expected = "parameter count")]
    fn wrong_parameter_count_panics() {
        let mut obj = AnsatzObjective::new(Ansatz::new(1), &CMatrix::identity(8));
        let _ = obj.distance(&[0.0; 29]);
    }
}
