//! Operator-Schmidt certificate: which entangler combinations of the
//! ansatz can reach ε on a block at all.
//!
//! For a cut `q | rest` (local qubit `q` against the other two),
//! realign the 8×8 target `T` into the 4×16 matrix `R_q` with
//! `R_q[(a, b), (r, s)] = T[(a, r), (b, s)]`, where `a, b` index qubit
//! `q` and `r, s` the rest. The eigenvalues `s₁² ≥ … ≥ s₄²` of
//! `R_q R_q†` are the squared operator Schmidt coefficients of `T` on
//! that cut; they sum to `‖T‖_F² = 8`. A unitary `U` of operator
//! Schmidt rank ≤ r on the cut has `|Tr(U†T)| ≤ ‖U‖_F·√(s₁²+…+s_r²)`
//! (Ky Fan), so
//!
//! `HSD(U, T) = 1 − |Tr(U†T)|/8 ≥ 1 − √((s₁² + … + s_r²)/8)`.
//!
//! Along the ansatz, U3 walls have rank 1 on every cut and ranks
//! multiply, capped at 4; [`Entangler::schmidt_rank`] gives each
//! entangler's. A combination whose bound exceeds `ε + MARGIN` on any
//! cut cannot be the answer, whatever its angles.

use geyser_num::{jacobi_eigen, CMatrix, Complex, RMatrix};

use crate::Entangler;

/// Slack added to ε before a combination is declared infeasible: it
/// covers the rounding of the Jacobi solve and of the optimizer's
/// objective, both orders of magnitude below it.
const MARGIN: f64 = 1e-9;

/// Per-block reachability certificate of Algorithm 2's ansatz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SchmidtCertificate {
    /// `floor[q][r − 1]`: the least HSD to the target of any unitary
    /// with operator Schmidt rank ≤ r across cut `q | rest`.
    floor: [[f64; 4]; 3],
    /// The acceptance threshold ε plus [`MARGIN`].
    threshold: f64,
}

impl SchmidtCertificate {
    /// Certifies an 8×8 block unitary against the threshold `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not 8×8.
    pub(crate) fn new(target: &CMatrix, epsilon: f64) -> Self {
        assert_eq!(
            (target.rows(), target.cols()),
            (8, 8),
            "certificate needs an 8×8 block unitary"
        );
        let mut floor = [[0.0; 4]; 3];
        for (q, row) in floor.iter_mut().enumerate() {
            let spectrum = schmidt_spectrum(target, q);
            let mut captured = 0.0;
            for (slot, s2) in row.iter_mut().zip(spectrum) {
                captured += s2;
                *slot = (1.0 - (captured / 8.0).sqrt()).max(0.0);
            }
        }
        SchmidtCertificate {
            floor,
            threshold: epsilon + MARGIN,
        }
    }

    /// The least HSD any instance of the entangler combination can
    /// reach: the largest per-cut floor at the combination's ranks.
    pub(crate) fn bound(&self, combo: impl IntoIterator<Item = Entangler>) -> f64 {
        let mut ranks = [1usize; 3];
        for e in combo {
            for (q, rank) in ranks.iter_mut().enumerate() {
                *rank = (*rank * e.schmidt_rank(q)).min(4);
            }
        }
        (0..3)
            .map(|q| self.floor[q][ranks[q] - 1])
            .fold(0.0, f64::max)
    }

    /// Whether the combination may reach ε (it is not ruled out).
    pub(crate) fn admits(&self, combo: impl IntoIterator<Item = Entangler>) -> bool {
        self.bound(combo) <= self.threshold
    }

    /// Whether any combination of `layers` entanglers may reach ε.
    /// All-CCZ has the largest rank on every cut and the floors fall
    /// with rank, so it is admitted whenever any combination is.
    pub(crate) fn admits_depth(&self, layers: usize) -> bool {
        self.admits(std::iter::repeat_n(Entangler::Ccz, layers))
    }
}

/// Squared operator Schmidt coefficients of `target` across the cut
/// `q | rest`, in descending order.
fn schmidt_spectrum(target: &CMatrix, q: usize) -> [f64; 4] {
    // Big-endian local indices: qubit `p` is bit `2 − p`.
    let bit = |i: usize, p: usize| (i >> (2 - p)) & 1;
    let rest: Vec<usize> = (0..3).filter(|&p| p != q).collect();
    let rest_index = |i: usize| 2 * bit(i, rest[0]) + bit(i, rest[1]);
    let mut realigned = [[Complex::ZERO; 16]; 4];
    for i in 0..8 {
        for j in 0..8 {
            realigned[2 * bit(i, q) + bit(j, q)][4 * rest_index(i) + rest_index(j)] =
                target[(i, j)];
        }
    }
    // Gram matrix G = R·R†, Hermitian by construction: the upper
    // triangle is computed, the lower mirrored, the diagonal real.
    let mut gram = [[Complex::ZERO; 4]; 4];
    for x in 0..4 {
        for y in x..4 {
            let g: Complex = (0..16)
                .map(|k| realigned[x][k] * realigned[y][k].conj())
                .sum();
            if x == y {
                gram[x][x] = Complex::from_real(g.re);
            } else {
                gram[x][y] = g;
                gram[y][x] = g.conj();
            }
        }
    }
    // Real symmetric embedding [[Re G, −Im G], [Im G, Re G]]: every
    // eigenvalue of G appears twice.
    let embedded = RMatrix::from_fn(8, |r, c| {
        let g = gram[r % 4][c % 4];
        match (r < 4, c < 4) {
            (true, true) | (false, false) => g.re,
            (true, false) => -g.im,
            (false, true) => g.im,
        }
    });
    let (mut eigenvalues, _) = jacobi_eigen(&embedded);
    eigenvalues.sort_by(|a, b| b.total_cmp(a));
    std::array::from_fn(|k| eigenvalues[2 * k].max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ansatz;
    use geyser_circuit::Circuit;
    use geyser_num::hilbert_schmidt_distance;
    use geyser_sim::circuit_unitary;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1e-3;

    /// Every entangler combination of `layers` layers.
    fn combos(layers: usize) -> Vec<Vec<Entangler>> {
        (0..4usize.pow(layers as u32))
            .map(|code| {
                (0..layers)
                    .map(|l| Entangler::ALL[(code >> (2 * l)) & 3])
                    .collect()
            })
            .collect()
    }

    /// A random ansatz instance with the given entanglers.
    fn instance(combo: &[Entangler], rng: &mut StdRng) -> CMatrix {
        let ansatz = Ansatz::new(combo.len());
        let mut params: Vec<f64> = (0..ansatz.num_params())
            .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
            .collect();
        for (l, e) in combo.iter().enumerate() {
            let code = Entangler::ALL.iter().position(|x| x == e).unwrap();
            params[9 + 10 * l] = code as f64 + 0.5;
        }
        ansatz.unitary(&params)
    }

    fn admitted(cert: &SchmidtCertificate, layers: usize) -> Vec<Vec<Entangler>> {
        combos(layers)
            .into_iter()
            .filter(|c| cert.admits(c.iter().copied()))
            .collect()
    }

    /// Single-qubit `t·h` dressing on every qubit.
    fn dress(c: &mut Circuit) {
        for q in [1, 2, 0] {
            c.t(q).h(q);
        }
    }

    #[test]
    fn ranks_follow_the_entangler_support() {
        for q in 0..3 {
            assert_eq!(Entangler::Ccz.schmidt_rank(q), 2);
        }
        assert_eq!(
            [0, 1, 2].map(|q| Entangler::Cz01.schmidt_rank(q)),
            [2, 2, 1]
        );
        assert_eq!(
            [0, 1, 2].map(|q| Entangler::Cz02.schmidt_rank(q)),
            [2, 1, 2]
        );
        assert_eq!(
            [0, 1, 2].map(|q| Entangler::Cz12.schmidt_rank(q)),
            [1, 2, 2]
        );
    }

    #[test]
    fn spectrum_sums_to_the_frobenius_norm() {
        let mut rng = StdRng::seed_from_u64(3);
        let u = instance(&[Entangler::Ccz, Entangler::Cz12], &mut rng);
        for q in 0..3 {
            let s = schmidt_spectrum(&u, q);
            assert!((s.iter().sum::<f64>() - 8.0).abs() < 1e-10, "{s:?}");
            assert!(s.windows(2).all(|w| w[0] >= w[1]), "{s:?}");
        }
    }

    /// Soundness over 1–3 layers and every combination: the
    /// certificate of an instance admits the instance's own
    /// combination, and no instance of any combination gets closer to
    /// it than that combination's bound.
    #[test]
    fn certificate_is_sound_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(0x05c4_d1d7);
        let all: Vec<Vec<Entangler>> = (1..=3).flat_map(combos).collect();
        for own in &all {
            let target = instance(own, &mut rng);
            let cert = SchmidtCertificate::new(&target, EPS);
            assert!(cert.admits(own.iter().copied()), "{own:?} rules itself out");
            for other in &all {
                let v = instance(other, &mut rng);
                let hsd = hilbert_schmidt_distance(&v, &target);
                let bound = cert.bound(other.iter().copied());
                assert!(
                    hsd >= bound - 1e-12,
                    "{other:?} reached {hsd} against {own:?}, bound {bound}"
                );
            }
            // All-CCZ dominates: a depth is admitted iff some
            // combination of it is.
            for layers in 1..=3 {
                assert_eq!(
                    cert.admits_depth(layers),
                    !admitted(&cert, layers).is_empty(),
                    "{own:?} at {layers} layers"
                );
            }
        }
    }

    #[test]
    fn dressed_ccz_admits_only_ccz() {
        let mut c = Circuit::new(3);
        dress(&mut c);
        c.ccz(0, 1, 2);
        dress(&mut c);
        let cert = SchmidtCertificate::new(&circuit_unitary(&c), EPS);
        assert_eq!(admitted(&cert, 1), vec![vec![Entangler::Ccz]]);
    }

    #[test]
    fn dressed_cz01_admits_ccz_and_cz01() {
        let mut c = Circuit::new(3);
        dress(&mut c);
        c.cz(0, 1);
        dress(&mut c);
        let cert = SchmidtCertificate::new(&circuit_unitary(&c), EPS);
        assert_eq!(
            admitted(&cert, 1),
            vec![vec![Entangler::Ccz], vec![Entangler::Cz01]]
        );
    }

    #[test]
    fn generic_unitary_needs_two_ccz() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut c = Circuit::new(3);
        for _ in 0..4 {
            for (a, b) in [(0, 1), (1, 2), (0, 2)] {
                for q in 0..3 {
                    let [theta, phi, lambda] =
                        [(); 3].map(|_| rng.gen_range(0.0..std::f64::consts::TAU));
                    c.u3(theta, phi, lambda, q);
                }
                c.cz(a, b);
            }
        }
        let cert = SchmidtCertificate::new(&circuit_unitary(&c), EPS);
        assert!(admitted(&cert, 1).is_empty());
        assert!(!cert.admits_depth(1));
        assert_eq!(
            admitted(&cert, 2),
            vec![vec![Entangler::Ccz, Entangler::Ccz]]
        );
    }
}
