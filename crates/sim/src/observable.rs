//! Pauli-string observables and expectation values.
//!
//! Variational workloads (VQE, QAOA, Hamiltonian evolution) are judged
//! by the expectation value of a Hamiltonian, not by a single output
//! distribution. This module provides weighted Pauli-string
//! observables and `⟨ψ|H|ψ⟩` evaluation against the state-vector
//! engine — used by the energy-error evaluation example and tests.

use serde::{Deserialize, Serialize};

use crate::StateVector;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pauli {
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

/// A weighted tensor product of Pauli operators on specific qubits,
/// e.g. `0.5 · X₀X₁` or `-1.25 · Z₂`.
///
/// # Example
///
/// ```
/// use geyser_sim::{Pauli, PauliString};
/// let zz = PauliString::new(0.5, vec![(0, Pauli::Z), (1, Pauli::Z)]);
/// assert_eq!(zz.weight(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PauliString {
    coefficient: f64,
    factors: Vec<(usize, Pauli)>,
}

impl PauliString {
    /// Creates a weighted Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if a qubit appears twice.
    pub fn new(coefficient: f64, factors: Vec<(usize, Pauli)>) -> Self {
        for (i, (q, _)) in factors.iter().enumerate() {
            assert!(
                !factors[..i].iter().any(|(p, _)| p == q),
                "qubit {q} repeated in Pauli string"
            );
        }
        PauliString {
            coefficient,
            factors,
        }
    }

    /// The identity term `c · I`.
    pub fn identity(coefficient: f64) -> Self {
        Self::new(coefficient, Vec::new())
    }

    /// The real coefficient.
    pub fn coefficient(&self) -> f64 {
        self.coefficient
    }

    /// The non-identity factors.
    pub fn factors(&self) -> &[(usize, Pauli)] {
        &self.factors
    }

    /// Number of non-identity factors (the Pauli weight).
    pub fn weight(&self) -> usize {
        self.factors.len()
    }

    /// Applies the (unweighted) Pauli product to a state in place.
    fn apply_to(&self, sv: &mut StateVector) {
        for &(q, p) in &self.factors {
            match p {
                Pauli::X => sv.apply_x(q),
                Pauli::Z => sv.apply_z(q),
                Pauli::Y => {
                    // Y = i·X·Z: apply Z then X; the global i phase
                    // cancels in ⟨ψ|P|ψ⟩ only when tracked, so apply
                    // it explicitly below via apply_phase_i.
                    sv.apply_z(q);
                    sv.apply_x(q);
                    sv.apply_global_i();
                }
            }
        }
    }

    /// `coefficient · ⟨ψ|P|ψ⟩` (real because P is Hermitian).
    ///
    /// # Panics
    ///
    /// Panics if a factor's qubit exceeds the state's register.
    pub fn expectation(&self, sv: &StateVector) -> f64 {
        let mut transformed = sv.clone();
        self.apply_to(&mut transformed);
        self.coefficient * sv.inner(&transformed).re
    }
}

/// A Hermitian observable as a sum of weighted Pauli strings.
///
/// # Example
///
/// ```
/// use geyser_sim::{Observable, Pauli, PauliString, StateVector};
/// // H = Z₀ on a single qubit: ⟨0|Z|0⟩ = 1.
/// let h = Observable::new(vec![PauliString::new(1.0, vec![(0, Pauli::Z)])]);
/// let sv = StateVector::zero_state(1);
/// assert!((h.expectation(&sv) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observable {
    terms: Vec<PauliString>,
}

impl Observable {
    /// Creates an observable from its Pauli terms.
    pub fn new(terms: Vec<PauliString>) -> Self {
        Observable { terms }
    }

    /// The constituent terms.
    pub fn terms(&self) -> &[PauliString] {
        &self.terms
    }

    /// `⟨ψ|H|ψ⟩ = Σ cᵢ ⟨ψ|Pᵢ|ψ⟩`.
    pub fn expectation(&self, sv: &StateVector) -> f64 {
        self.terms.iter().map(|t| t.expectation(sv)).sum()
    }

    /// The 1D Heisenberg XXX chain Hamiltonian used by the paper's
    /// materials-simulation workload:
    /// `H = J Σᵢ (XᵢXᵢ₊₁ + YᵢYᵢ₊₁ + ZᵢZᵢ₊₁) + h Σᵢ Zᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn heisenberg_chain(n: usize, j: f64, h: f64) -> Self {
        assert!(n >= 2, "chain needs at least two sites");
        let mut terms = Vec::new();
        for i in 0..n - 1 {
            for p in [Pauli::X, Pauli::Y, Pauli::Z] {
                terms.push(PauliString::new(j, vec![(i, p), (i + 1, p)]));
            }
        }
        for i in 0..n {
            terms.push(PauliString::new(h, vec![(i, Pauli::Z)]));
        }
        Observable::new(terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geyser_circuit::Circuit;

    fn state_of(c: &Circuit) -> StateVector {
        let mut sv = StateVector::zero_state(c.num_qubits());
        sv.apply_circuit(c);
        sv
    }

    #[test]
    fn z_expectation_on_basis_states() {
        let zero = StateVector::zero_state(1);
        let z = PauliString::new(1.0, vec![(0, Pauli::Z)]);
        assert!((z.expectation(&zero) - 1.0).abs() < 1e-12);
        let mut c = Circuit::new(1);
        c.x(0);
        assert!((z.expectation(&state_of(&c)) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_expectation_on_plus_state() {
        let mut c = Circuit::new(1);
        c.h(0);
        let x = PauliString::new(1.0, vec![(0, Pauli::X)]);
        assert!((x.expectation(&state_of(&c)) - 1.0).abs() < 1e-12);
        let z = PauliString::new(1.0, vec![(0, Pauli::Z)]);
        assert!(z.expectation(&state_of(&c)).abs() < 1e-12);
    }

    #[test]
    fn y_expectation_on_y_eigenstate() {
        // |+i⟩ = S H |0⟩ has ⟨Y⟩ = +1.
        let mut c = Circuit::new(1);
        c.h(0).s(0);
        let y = PauliString::new(1.0, vec![(0, Pauli::Y)]);
        assert!((y.expectation(&state_of(&c)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zz_on_bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = state_of(&c);
        let zz = PauliString::new(1.0, vec![(0, Pauli::Z), (1, Pauli::Z)]);
        let xx = PauliString::new(1.0, vec![(0, Pauli::X), (1, Pauli::X)]);
        let yy = PauliString::new(1.0, vec![(0, Pauli::Y), (1, Pauli::Y)]);
        assert!((zz.expectation(&sv) - 1.0).abs() < 1e-12);
        assert!((xx.expectation(&sv) - 1.0).abs() < 1e-12);
        assert!((yy.expectation(&sv) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn coefficient_scales_linearly() {
        let sv = StateVector::zero_state(1);
        let z = PauliString::new(-2.5, vec![(0, Pauli::Z)]);
        assert!((z.expectation(&sv) + 2.5).abs() < 1e-12);
    }

    #[test]
    fn heisenberg_neel_energy() {
        // ⟨0101|H|0101⟩: XX/YY terms vanish, each ZZ bond gives −J,
        // field gives h·(+1−1+1−1) = 0.
        let n = 4;
        let ham = Observable::heisenberg_chain(n, 1.0, 0.5);
        let mut c = Circuit::new(n);
        c.x(1).x(3);
        let e = ham.expectation(&state_of(&c));
        assert!((e + 3.0).abs() < 1e-12, "E = {e}");
    }

    #[test]
    fn energy_conserved_under_trotter_evolution() {
        // The Trotterized Heisenberg evolution approximately conserves
        // the Hamiltonian it simulates.
        use geyser_workloads_shim::heisenberg_like;
        let n = 4;
        let ham = Observable::heisenberg_chain(n, 1.0, 0.5);
        let init = {
            let mut c = Circuit::new(n);
            c.x(1).x(3);
            state_of(&c)
        };
        let e0 = ham.expectation(&init);
        let evolved = state_of(&heisenberg_like(n, 3, 0.05));
        let e1 = ham.expectation(&evolved);
        assert!((e0 - e1).abs() < 0.05, "energy drifted {e0} → {e1}");
    }

    /// Minimal local re-implementation of the Heisenberg circuit to
    /// avoid a dev-dependency cycle with `geyser-workloads`.
    mod geyser_workloads_shim {
        use geyser_circuit::Circuit;

        pub fn heisenberg_like(n: usize, steps: usize, dt: f64) -> Circuit {
            let theta = 2.0 * dt;
            let mut c = Circuit::new(n);
            for q in (1..n).step_by(2) {
                c.x(q);
            }
            for _ in 0..steps {
                for i in 0..n - 1 {
                    let (a, b) = (i, i + 1);
                    c.h(a).h(b);
                    c.cx(a, b);
                    c.rz(theta, b);
                    c.cx(a, b);
                    c.h(a).h(b);
                    c.rx(std::f64::consts::FRAC_PI_2, a)
                        .rx(std::f64::consts::FRAC_PI_2, b);
                    c.cx(a, b);
                    c.rz(theta, b);
                    c.cx(a, b);
                    c.rx(-std::f64::consts::FRAC_PI_2, a)
                        .rx(-std::f64::consts::FRAC_PI_2, b);
                    c.cx(a, b);
                    c.rz(theta, b);
                    c.cx(a, b);
                }
                for q in 0..n {
                    c.rz(2.0 * 0.5 * dt, q);
                }
            }
            c
        }
    }
}
