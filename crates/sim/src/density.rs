//! Exact density-matrix simulation of the noise channel.
//!
//! The Monte-Carlo trajectory engine ([`crate::sample_noisy_distribution`])
//! is an *estimator* of the true channel output; this module evolves
//! the full density matrix `ρ` exactly, applying the bit-flip and
//! phase-flip channels in closed form:
//!
//! `ρ → (1−p)·ρ + p·X ρ X` (and likewise with `Z`).
//!
//! Exact evolution costs `O(4^n)` memory, so it is limited to small
//! registers (`n ≤ 8`) — exactly the regime needed to validate the
//! trajectory sampler, which the cross-check tests here do.

use geyser_circuit::{Circuit, Operation};
use geyser_num::{CMatrix, Complex};

use crate::{embed_gate, NoiseModel};

/// An `n`-qubit mixed state as a `2^n × 2^n` density matrix.
///
/// # Example
///
/// ```
/// use geyser_circuit::Circuit;
/// use geyser_sim::{DensityMatrix, NoiseModel};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let mut rho = DensityMatrix::zero_state(2);
/// rho.apply_circuit_noisy(&c, &NoiseModel::noiseless());
/// let p = rho.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// assert!((p[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: CMatrix,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 8` (the dense matrix would be > 4 GiB
    /// beyond that).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(num_qubits <= 8, "density matrix limited to 8 qubits");
        let dim = 1usize << num_qubits;
        let mut rho = CMatrix::zeros(dim, dim);
        rho[(0, 0)] = Complex::ONE;
        DensityMatrix { num_qubits, rho }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Borrows the underlying matrix.
    pub fn as_matrix(&self) -> &CMatrix {
        &self.rho
    }

    /// Applies a unitary operation: `ρ → U ρ U†`.
    pub fn apply_operation(&mut self, op: &Operation) {
        let u = embed_gate(&op.gate().matrix(), op.qubits(), self.num_qubits);
        self.rho = u.matmul(&self.rho).matmul(&u.dagger());
    }

    /// Applies the single-qubit Pauli channel
    /// `ρ → (1−p)·ρ + p·P ρ P` with `P ∈ {X, Z}` on one qubit.
    fn apply_pauli_channel(&mut self, qubit: usize, p: f64, pauli: &CMatrix) {
        if p == 0.0 {
            return;
        }
        let full = embed_gate(pauli, &[qubit], self.num_qubits);
        let flipped = full.matmul(&self.rho).matmul(&full.dagger());
        self.rho =
            &self.rho.scale(Complex::from_real(1.0 - p)) + &flipped.scale(Complex::from_real(p));
    }

    /// Applies the noise model's channel for `op`: for each channel
    /// invocation (per pulse or per op, per the model's granularity)
    /// and each engaged qubit, the bit-flip then phase-flip channels.
    pub fn apply_noise(&mut self, op: &Operation, noise: &NoiseModel) {
        if noise.is_noiseless() {
            return;
        }
        let x = geyser_circuit::Gate::X.matrix();
        let z = geyser_circuit::Gate::Z.matrix();
        for _ in 0..noise.invocations_for(op) {
            for &q in op.qubits() {
                self.apply_pauli_channel(q, noise.bit_flip, &x);
                self.apply_pauli_channel(q, noise.phase_flip, &z);
            }
        }
    }

    /// Runs the whole circuit under the noise model (gate, then its
    /// noise, in program order — matching the trajectory engine).
    ///
    /// # Panics
    ///
    /// Panics if the circuit size mismatches.
    pub fn apply_circuit_noisy(&mut self, circuit: &Circuit, noise: &NoiseModel) {
        assert_eq!(
            circuit.num_qubits(),
            self.num_qubits,
            "circuit qubit count mismatch"
        );
        for op in circuit.iter() {
            self.apply_operation(op);
            self.apply_noise(op, noise);
        }
    }

    /// Measurement probabilities (the diagonal of `ρ`).
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.rho.rows()).map(|i| self.rho[(i, i)].re).collect()
    }

    /// Trace of `ρ` (should remain 1).
    pub fn trace(&self) -> Complex {
        self.rho.trace()
    }

    /// Purity `Tr(ρ²)`: 1 for pure states, `1/2^n` for the maximally
    /// mixed state.
    pub fn purity(&self) -> f64 {
        self.rho.matmul(&self.rho).trace().re
    }
}

/// Exact noisy output distribution via density-matrix evolution.
///
/// The closed-form counterpart of [`crate::sample_noisy_distribution`];
/// use it to validate trajectory counts or when exactness matters more
/// than register size.
///
/// # Panics
///
/// Panics if the circuit has more than 8 qubits.
pub fn exact_noisy_distribution(circuit: &Circuit, noise: &NoiseModel) -> Vec<f64> {
    let mut rho = DensityMatrix::zero_state(circuit.num_qubits());
    rho.apply_circuit_noisy(circuit, noise);
    rho.probabilities()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ideal_distribution, sample_noisy_distribution, total_variation_distance};

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn noiseless_density_matches_statevector() {
        let c = bell();
        let exact = exact_noisy_distribution(&c, &NoiseModel::noiseless());
        let ideal = ideal_distribution(&c);
        assert!(total_variation_distance(&exact, &ideal) < 1e-12);
    }

    #[test]
    fn trace_and_purity_under_noise() {
        let c = bell();
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_circuit_noisy(&c, &NoiseModel::symmetric(0.05));
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        assert!(rho.trace().im.abs() < 1e-12);
        // Noise mixes the state: purity strictly below 1.
        assert!(rho.purity() < 1.0 - 1e-6);
        assert!(rho.purity() > 0.25);
    }

    #[test]
    fn single_qubit_bit_flip_closed_form() {
        // X-channel with probability p on |0⟩: P(1) after one H-free
        // application = p.
        let mut c = Circuit::new(1);
        c.u3(0.0, 0.0, 0.0, 0); // identity op to attach noise to
        let p = 0.2;
        let noise = NoiseModel {
            bit_flip: p,
            phase_flip: 0.0,
            granularity: crate::NoiseGranularity::PerOperation,
        };
        let dist = exact_noisy_distribution(&c, &noise);
        assert!((dist[1] - p).abs() < 1e-12, "dist = {dist:?}");
    }

    #[test]
    fn per_pulse_granularity_compounds() {
        // A CZ carries 3 pulses: the per-pulse channel applies three
        // times per qubit, so P(no flip) = (1-p)^3 per qubit.
        let mut c = Circuit::new(2);
        c.cz(0, 1);
        let p = 0.1;
        let noise = NoiseModel::symmetric(0.0); // start clean
        let noise = NoiseModel {
            bit_flip: p,
            ..noise
        };
        let dist = exact_noisy_distribution(&c, &noise);
        // Three compositions of the flip channel: the qubit reads 0
        // when an even number of X errors occurred.
        let stay = (1.0 + (1.0f64 - 2.0 * p).powi(3)) / 2.0;
        assert!((dist[0] - stay * stay).abs() < 1e-10, "dist = {dist:?}");
    }

    #[test]
    fn trajectory_sampler_converges_to_exact_channel() {
        // The key cross-validation: the Monte-Carlo estimator must
        // converge to the density-matrix ground truth.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cz(1, 2).h(2).cx(2, 0);
        let noise = NoiseModel::symmetric(0.02);
        let exact = exact_noisy_distribution(&c, &noise);
        let coarse = sample_noisy_distribution(&c, &noise, 100, 1);
        let fine = sample_noisy_distribution(&c, &noise, 4000, 1);
        let err_coarse = total_variation_distance(&exact, &coarse);
        let err_fine = total_variation_distance(&exact, &fine);
        assert!(
            err_fine < err_coarse,
            "no convergence: {err_fine} !< {err_coarse}"
        );
        assert!(err_fine < 0.02, "residual error {err_fine}");
    }

    #[test]
    fn phase_flip_is_invisible_in_computational_basis_alone() {
        // Z-noise right before measurement does not change the
        // computational-basis distribution of a basis state.
        let mut c = Circuit::new(1);
        c.x(0);
        let noise = NoiseModel {
            bit_flip: 0.0,
            phase_flip: 0.3,
            granularity: crate::NoiseGranularity::PerOperation,
        };
        let dist = exact_noisy_distribution(&c, &noise);
        assert!((dist[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "limited to 8 qubits")]
    fn oversized_register_rejected() {
        let _ = DensityMatrix::zero_state(9);
    }
}
