//! The parameterized composition ansatz (paper Fig. 10).

use geyser_circuit::{Circuit, Gate, PULSES_CCZ, PULSES_CZ, PULSES_U3};
use geyser_num::{CMatrix, Complex};
use geyser_sim::embed_gate;

/// The entangler choice of one ansatz layer — the categorical
/// parameter of the paper's 19-parameter layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entangler {
    /// Native three-qubit CCZ (5 pulses).
    Ccz,
    /// CZ on local qubits (0, 1) (3 pulses).
    Cz01,
    /// CZ on local qubits (0, 2).
    Cz02,
    /// CZ on local qubits (1, 2).
    Cz12,
}

impl Entangler {
    /// All four entangler variants.
    pub const ALL: [Entangler; 4] = [
        Entangler::Ccz,
        Entangler::Cz01,
        Entangler::Cz02,
        Entangler::Cz12,
    ];

    /// Decodes a continuous parameter in `[0, 4)` to a variant —
    /// how the categorical rides inside the dual-annealing vector.
    pub fn from_continuous(x: f64) -> Self {
        match x.floor().clamp(0.0, 3.0) as usize {
            0 => Entangler::Ccz,
            1 => Entangler::Cz01,
            2 => Entangler::Cz02,
            _ => Entangler::Cz12,
        }
    }

    /// Pulse cost of this entangler.
    pub fn pulses(&self) -> u32 {
        match self {
            Entangler::Ccz => PULSES_CCZ,
            _ => PULSES_CZ,
        }
    }

    /// The entangler's 8×8 unitary on the local 3-qubit space.
    pub fn matrix(&self) -> CMatrix {
        match self {
            Entangler::Ccz => Gate::CCZ.matrix(),
            Entangler::Cz01 => embed_gate(&Gate::CZ.matrix(), &[0, 1], 3),
            Entangler::Cz02 => embed_gate(&Gate::CZ.matrix(), &[0, 2], 3),
            Entangler::Cz12 => embed_gate(&Gate::CZ.matrix(), &[1, 2], 3),
        }
    }

    /// Diagonal of [`Entangler::matrix`]: every entangler is a
    /// diagonal `±1` unitary, `−1` exactly where all of its qubits
    /// are `|1⟩` (big-endian: local qubit 0 is the high bit).
    pub fn diagonal(&self) -> [Complex; 8] {
        let mask = match self {
            Entangler::Ccz => 0b111,
            Entangler::Cz01 => 0b110,
            Entangler::Cz02 => 0b101,
            Entangler::Cz12 => 0b011,
        };
        std::array::from_fn(|i| {
            if i & mask == mask {
                -Complex::ONE
            } else {
                Complex::ONE
            }
        })
    }

    /// Operator Schmidt rank across the cut `q | rest` (local qubit
    /// `q` against the other two): CCZ has rank 2 on every cut, `CZ_ab`
    /// rank 2 on cuts `a` and `b` and rank 1 on the third.
    pub(crate) fn schmidt_rank(&self, q: usize) -> usize {
        let touches = match self {
            Entangler::Ccz => true,
            Entangler::Cz01 => q != 2,
            Entangler::Cz02 => q != 1,
            Entangler::Cz12 => q != 0,
        };
        if touches {
            2
        } else {
            1
        }
    }

    /// Appends the entangler to a local 3-qubit circuit.
    pub fn emit(&self, c: &mut Circuit) {
        match self {
            Entangler::Ccz => {
                c.ccz(0, 1, 2);
            }
            Entangler::Cz01 => {
                c.cz(0, 1);
            }
            Entangler::Cz02 => {
                c.cz(0, 2);
            }
            Entangler::Cz12 => {
                c.cz(1, 2);
            }
        }
    }
}

/// The layered composition ansatz over a 3-qubit block.
///
/// With `L` layers the parameter vector is
/// `[9 initial angles] ++ L × ([1 categorical] ++ [9 angles])`,
/// dimension `9 + 10·L` — matching the paper's 19 parameters for one
/// layer and 29 for two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ansatz {
    layers: usize,
}

impl Ansatz {
    /// Creates an ansatz with the given number of entangling layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn new(layers: usize) -> Self {
        assert!(layers > 0, "ansatz needs at least one layer");
        Ansatz { layers }
    }

    /// Number of entangling layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Dimension of the parameter vector (paper: 19, 29, 39, …).
    pub fn num_params(&self) -> usize {
        9 + 10 * self.layers
    }

    /// Parameter bounds: angles in `[0, 2π]`, categoricals in `[0, 4)`.
    pub fn bounds(&self) -> Vec<(f64, f64)> {
        let mut b = vec![(0.0, std::f64::consts::TAU); 9];
        for _ in 0..self.layers {
            b.push((0.0, 4.0 - 1e-9));
            b.extend(std::iter::repeat_n((0.0, std::f64::consts::TAU), 9));
        }
        b
    }

    /// Smallest possible pulse count of an instantiated candidate
    /// (all-CZ entanglers, every U3 kept): used for Algorithm 2's
    /// early-exit test.
    pub fn min_pulses(&self) -> u64 {
        (3 * (self.layers as u64 + 1)) * PULSES_U3 as u64 + self.layers as u64 * PULSES_CZ as u64
    }

    /// Evaluates the ansatz unitary for a parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn unitary(&self, params: &[f64]) -> CMatrix {
        assert_eq!(params.len(), self.num_params(), "parameter count");
        let mut u = u3_wall_matrix(&params[0..9]);
        let mut idx = 9;
        for _ in 0..self.layers {
            let ent = Entangler::from_continuous(params[idx]);
            idx += 1;
            let wall = u3_wall_matrix(&params[idx..idx + 9]);
            idx += 9;
            u = wall.matmul(&ent.matrix()).matmul(&u);
        }
        u
    }

    /// Materializes the parameter vector as a local 3-qubit circuit,
    /// dropping U3 gates that are numerically the identity (they cost
    /// a pulse but do nothing).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn to_circuit(&self, params: &[f64]) -> Circuit {
        assert_eq!(params.len(), self.num_params(), "parameter count");
        let mut c = Circuit::new(3);
        emit_u3_wall(&mut c, &params[0..9]);
        let mut idx = 9;
        for _ in 0..self.layers {
            let ent = Entangler::from_continuous(params[idx]);
            idx += 1;
            ent.emit(&mut c);
            emit_u3_wall(&mut c, &params[idx..idx + 9]);
            idx += 9;
        }
        c
    }
}

/// Tolerance below which a U3 is treated as the identity pulse.
const IDENTITY_TOL: f64 = 1e-7;

fn u3_matrix(theta: f64, phi: f64, lambda: f64) -> CMatrix {
    Gate::U3 { theta, phi, lambda }.matrix()
}

/// 8×8 unitary of one U3-per-qubit wall.
fn u3_wall_matrix(angles: &[f64]) -> CMatrix {
    let a = u3_matrix(angles[0], angles[1], angles[2]);
    let b = u3_matrix(angles[3], angles[4], angles[5]);
    let c = u3_matrix(angles[6], angles[7], angles[8]);
    a.kron(&b).kron(&c)
}

fn emit_u3_wall(c: &mut Circuit, angles: &[f64]) {
    for q in 0..3 {
        let (theta, phi, lambda) = (angles[3 * q], angles[3 * q + 1], angles[3 * q + 2]);
        if is_identity_u3(theta, phi, lambda) {
            continue;
        }
        c.u3(theta, phi, lambda, q);
    }
}

fn is_identity_u3(theta: f64, phi: f64, lambda: f64) -> bool {
    let m = u3_matrix(theta, phi, lambda);
    let phase = m[(0, 0)];
    (phase.norm() - 1.0).abs() < IDENTITY_TOL
        && m.approx_eq(&CMatrix::identity(2).scale(phase), IDENTITY_TOL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geyser_num::hilbert_schmidt_distance;
    use geyser_sim::circuit_unitary;

    #[test]
    fn parameter_counts_match_paper() {
        assert_eq!(Ansatz::new(1).num_params(), 19);
        assert_eq!(Ansatz::new(2).num_params(), 29);
        assert_eq!(Ansatz::new(3).num_params(), 39);
    }

    #[test]
    fn bounds_shape() {
        let a = Ansatz::new(2);
        let b = a.bounds();
        assert_eq!(b.len(), 29);
        assert_eq!(b[9].1, 4.0 - 1e-9); // first categorical
        assert_eq!(b[19].1, 4.0 - 1e-9); // second categorical
    }

    #[test]
    fn entangler_decoding() {
        assert_eq!(Entangler::from_continuous(0.3), Entangler::Ccz);
        assert_eq!(Entangler::from_continuous(1.9), Entangler::Cz01);
        assert_eq!(Entangler::from_continuous(2.0), Entangler::Cz02);
        assert_eq!(Entangler::from_continuous(3.999), Entangler::Cz12);
        // Clamping at the edges.
        assert_eq!(Entangler::from_continuous(-1.0), Entangler::Ccz);
        assert_eq!(Entangler::from_continuous(9.0), Entangler::Cz12);
    }

    #[test]
    fn entangler_matrices_are_unitary_diagonal() {
        for e in Entangler::ALL {
            let m = e.matrix();
            assert!(m.is_unitary(1e-12));
            assert_eq!(m.rows(), 8);
        }
    }

    #[test]
    fn entangler_diagonal_is_the_matrix_diagonal() {
        for e in Entangler::ALL {
            assert_eq!(e.matrix(), CMatrix::from_diagonal(&e.diagonal()), "{e:?}");
        }
    }

    #[test]
    fn unitary_matches_materialized_circuit() {
        let a = Ansatz::new(2);
        let params: Vec<f64> = (0..a.num_params())
            .map(|i| 0.37 * (i as f64 + 1.0) % std::f64::consts::TAU)
            .collect();
        let direct = a.unitary(&params);
        let via_circuit = circuit_unitary(&a.to_circuit(&params));
        let d = hilbert_schmidt_distance(&direct, &via_circuit);
        assert!(d < 1e-10, "HSD = {d}");
    }

    #[test]
    fn zero_angles_give_bare_entangler() {
        let a = Ansatz::new(1);
        let mut params = vec![0.0; 19];
        params[9] = 0.0; // CCZ
        let u = a.unitary(&params);
        let d = hilbert_schmidt_distance(&u, &Gate::CCZ.matrix());
        assert!(d < 1e-12);
        // The materialized circuit drops the identity U3 walls.
        let c = a.to_circuit(&params);
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_pulses(), 5);
    }

    #[test]
    fn min_pulses_formula() {
        assert_eq!(Ansatz::new(1).min_pulses(), 6 + 3);
        assert_eq!(Ansatz::new(2).min_pulses(), 9 + 6);
    }

    #[test]
    fn one_layer_ccz_pulse_budget_is_eleven() {
        // Paper: one full layer = 6 U3 (6 pulses) + CCZ (5) = 11.
        let a = Ansatz::new(1);
        let mut params: Vec<f64> = vec![0.5; 19];
        params[9] = 0.0; // CCZ
        let c = a.to_circuit(&params);
        assert_eq!(c.total_pulses(), 11);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_panics() {
        let _ = Ansatz::new(0);
    }
}
