//! Stack-allocated 8×8 complex matrices for three-qubit kernels.
//!
//! Block composition evaluates millions of 8×8 unitaries per compile.
//! [`Mat8`] holds one on the stack so that hot loops never touch the
//! heap. Every operation on the value path replays the loop order and
//! zero-skips of its [`CMatrix`] counterpart, so results are
//! bit-identical to the dense path (signed zeros included) for finite
//! inputs. [`Mat8::diag_mul`] and [`Mat8::dagger`] serve only the
//! composition gradient, which has no dense reference to match.

use crate::metrics::distance_from_inner;
use crate::{CMatrix, Complex};

/// A 2×2 complex matrix in row-major order (a single-qubit gate).
pub type Mat2 = [Complex; 4];

/// A dense 8×8 complex matrix in row-major order, stored inline.
///
/// # Example
///
/// ```
/// use geyser_num::{CMatrix, Mat8};
/// let id = Mat8::from_cmatrix(&CMatrix::identity(8));
/// assert_eq!(id.matmul(&id).to_cmatrix(), CMatrix::identity(8));
/// assert!(id.hilbert_schmidt_distance(&id) < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat8([Complex; 64]);

impl Mat8 {
    /// The all-zero matrix.
    pub const ZERO: Mat8 = Mat8([Complex::ZERO; 64]);

    /// Copies an 8×8 [`CMatrix`].
    ///
    /// # Panics
    ///
    /// Panics if `m` is not 8×8.
    pub fn from_cmatrix(m: &CMatrix) -> Self {
        assert!(
            m.rows() == 8 && m.cols() == 8,
            "Mat8 requires an 8×8 matrix"
        );
        let mut out = Mat8::ZERO;
        out.0.copy_from_slice(m.as_slice());
        out
    }

    /// Copies the matrix into a heap-allocated [`CMatrix`].
    pub fn to_cmatrix(&self) -> CMatrix {
        CMatrix::from_vec(8, 8, self.0.to_vec())
    }

    /// Three-way Kronecker product `a ⊗ b ⊗ c` of single-qubit gates,
    /// evaluated as `(a ⊗ b) ⊗ c` with [`CMatrix::kron`]'s loop order
    /// and zero-skips.
    pub fn kron3(a: &Mat2, b: &Mat2, c: &Mat2) -> Self {
        let mut ab = [Complex::ZERO; 16];
        for ar in 0..2 {
            for ac in 0..2 {
                let s = a[ar * 2 + ac];
                if s == Complex::ZERO {
                    continue;
                }
                for br in 0..2 {
                    for bc in 0..2 {
                        ab[(ar * 2 + br) * 4 + ac * 2 + bc] = s * b[br * 2 + bc];
                    }
                }
            }
        }
        let mut out = Mat8::ZERO;
        for r in 0..4 {
            for col in 0..4 {
                let s = ab[r * 4 + col];
                if s == Complex::ZERO {
                    continue;
                }
                for cr in 0..2 {
                    for cc in 0..2 {
                        out.0[(r * 2 + cr) * 8 + col * 2 + cc] = s * c[cr * 2 + cc];
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self · rhs` with [`CMatrix::matmul`]'s loop
    /// order and zero-skips.
    pub fn matmul(&self, rhs: &Mat8) -> Mat8 {
        let mut out = Mat8::ZERO;
        for r in 0..8 {
            for k in 0..8 {
                let a = self.0[r * 8 + k];
                if a == Complex::ZERO {
                    continue;
                }
                for c in 0..8 {
                    out.0[r * 8 + c] += a * rhs.0[k * 8 + c];
                }
            }
        }
        out
    }

    /// Product `self · diag(d)` computed entry-wise as
    /// `ZERO + self[r, c] · d[c]`.
    ///
    /// For finite entries this equals the dense
    /// `self.matmul(diag(d))` bit for bit: the off-diagonal terms of
    /// the dense sum are signed zeros that cannot move a `+0`-seeded
    /// accumulator, and the `ZERO +` reproduces its `-0 → +0`
    /// normalisation.
    pub fn mul_diag(&self, d: &[Complex; 8]) -> Mat8 {
        let mut out = Mat8::ZERO;
        for (i, (o, w)) in out.0.iter_mut().zip(&self.0).enumerate() {
            *o = Complex::ZERO + *w * d[i % 8];
        }
        out
    }

    /// Product `diag(d) · self`: row `r` scaled by `d[r]`.
    pub fn diag_mul(&self, d: &[Complex; 8]) -> Mat8 {
        let mut out = Mat8::ZERO;
        for (i, (o, w)) in out.0.iter_mut().zip(&self.0).enumerate() {
            *o = d[i / 8] * *w;
        }
        out
    }

    /// Conjugate transpose `self†`.
    pub fn dagger(&self) -> Mat8 {
        let mut out = Mat8::ZERO;
        for r in 0..8 {
            for c in 0..8 {
                out.0[c * 8 + r] = self.0[r * 8 + c].conj();
            }
        }
        out
    }

    /// Entry at row `r`, column `c`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Complex {
        self.0[r * 8 + c]
    }

    /// Hilbert–Schmidt inner product `Tr(self† · other)`, folded from
    /// `ZERO` in row-major order like [`crate::hilbert_schmidt_inner`].
    pub fn hilbert_schmidt_inner(&self, other: &Mat8) -> Complex {
        self.0
            .iter()
            .zip(&other.0)
            .fold(Complex::ZERO, |acc, (a, b)| acc + a.conj() * *b)
    }

    /// Hilbert–Schmidt distance `1 − |Tr(self† other)| / 8`, equal to
    /// [`crate::hilbert_schmidt_distance`] on the same entries.
    pub fn hilbert_schmidt_distance(&self, other: &Mat8) -> f64 {
        distance_from_inner(self.hilbert_schmidt_inner(other), 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, hilbert_schmidt_distance};

    /// Deterministic xorshift stream of entries, with exact (signed)
    /// zeros mixed in so the zero-skip paths are exercised.
    struct Entries(u64);

    impl Entries {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            match self.0 % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0,
            }
        }

        fn complex(&mut self) -> Complex {
            c64(self.next_f64(), self.next_f64())
        }

        fn mat2(&mut self) -> Mat2 {
            [
                self.complex(),
                self.complex(),
                self.complex(),
                self.complex(),
            ]
        }

        fn mat8(&mut self) -> Mat8 {
            let mut m = Mat8::ZERO;
            for z in m.0.iter_mut() {
                *z = self.complex();
            }
            m
        }
    }

    fn bits(m: &CMatrix) -> Vec<(u64, u64)> {
        m.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    fn cm2(m: &Mat2) -> CMatrix {
        CMatrix::from_vec(2, 2, m.to_vec())
    }

    #[test]
    fn kron3_matches_dense_bit_for_bit() {
        let mut e = Entries(0x9e37_79b9_7f4a_7c15);
        for _ in 0..500 {
            let (a, b, c) = (e.mat2(), e.mat2(), e.mat2());
            let dense = cm2(&a).kron(&cm2(&b)).kron(&cm2(&c));
            assert_eq!(bits(&Mat8::kron3(&a, &b, &c).to_cmatrix()), bits(&dense));
        }
    }

    #[test]
    fn matmul_matches_dense_bit_for_bit() {
        let mut e = Entries(7);
        for _ in 0..200 {
            let (a, b) = (e.mat8(), e.mat8());
            let dense = a.to_cmatrix().matmul(&b.to_cmatrix());
            assert_eq!(bits(&a.matmul(&b).to_cmatrix()), bits(&dense));
        }
    }

    #[test]
    fn mul_diag_matches_dense_diagonal_product() {
        let mut e = Entries(11);
        let signs = [Complex::ONE, -Complex::ONE];
        for round in 0..300 {
            let a = e.mat8();
            let d: [Complex; 8] = std::array::from_fn(|i| {
                if round % 2 == 0 {
                    signs[(round / 2 + i) % 3 / 2]
                } else {
                    e.complex()
                }
            });
            let dense = a.to_cmatrix().matmul(&CMatrix::from_diagonal(&d));
            assert_eq!(bits(&a.mul_diag(&d).to_cmatrix()), bits(&dense));
        }
    }

    #[test]
    fn diag_mul_and_dagger_match_dense() {
        let mut e = Entries(13);
        for _ in 0..100 {
            let a = e.mat8();
            let d: [Complex; 8] = std::array::from_fn(|_| e.complex());
            let dense = CMatrix::from_diagonal(&d).matmul(&a.to_cmatrix());
            assert!(a.diag_mul(&d).to_cmatrix().approx_eq(&dense, 1e-15));
            assert_eq!(
                bits(&a.dagger().to_cmatrix()),
                bits(&a.to_cmatrix().dagger())
            );
            assert_eq!(a.get(2, 5), a.to_cmatrix()[(2, 5)]);
        }
    }

    #[test]
    fn hilbert_schmidt_matches_dense_bit_for_bit() {
        let mut e = Entries(3);
        for _ in 0..200 {
            let (a, b) = (e.mat8(), e.mat8());
            let dense = hilbert_schmidt_distance(&a.to_cmatrix(), &b.to_cmatrix());
            assert_eq!(a.hilbert_schmidt_distance(&b).to_bits(), dense.to_bits());
        }
    }

    #[test]
    fn cmatrix_round_trip() {
        let m = CMatrix::from_fn(8, 8, |r, c| c64(r as f64, c as f64));
        assert_eq!(Mat8::from_cmatrix(&m).to_cmatrix(), m);
    }

    #[test]
    #[should_panic(expected = "8×8")]
    fn wrong_shape_panics() {
        let _ = Mat8::from_cmatrix(&CMatrix::identity(4));
    }
}
