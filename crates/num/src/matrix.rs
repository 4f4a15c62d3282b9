//! Dense, row-major complex matrices.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use serde::{Deserialize, Serialize};

use crate::Complex;

/// A dense, row-major matrix of [`Complex`] entries.
///
/// `CMatrix` is the workhorse representation for quantum gate and
/// circuit unitaries throughout the workspace. Block composition only
/// ever manipulates matrices up to 8×8, and full-circuit unitary
/// construction is used for ≤ ~12 qubits, so a straightforward dense
/// representation with `O(n³)` multiplication is the right tool.
///
/// # Example
///
/// ```
/// use geyser_num::{CMatrix, Complex};
///
/// let h = CMatrix::from_fn(2, 2, |r, c| {
///     let s = 1.0 / f64::sqrt(2.0);
///     Complex::from_real(if (r, c) == (1, 1) { -s } else { s })
/// });
/// assert!(h.is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[Complex]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        CMatrix {
            rows: rows.len(),
            cols,
            data: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        }
    }

    /// Builds a square diagonal matrix from its diagonal entries.
    pub fn from_diagonal(diag: &[Complex]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        CMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Returns the entry at `(row, col)`, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<Complex> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}×{} · {}×{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == Complex::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out.data[r * rhs.cols + c] += a * rhs.data[k * rhs.cols + c];
                }
            }
        }
        out
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[Complex]) -> Vec<Complex> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|r| {
                v.iter()
                    .enumerate()
                    .map(|(c, &vc)| self.data[r * self.cols + c] * vc)
                    .sum()
            })
            .collect()
    }

    /// Conjugate transpose (the "dagger" of the matrix).
    pub fn dagger(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Entry-wise scaling by a complex factor.
    pub fn scale(&self, k: Complex) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    ///
    /// The result has dimensions `(self.rows·rhs.rows) × (self.cols·rhs.cols)`
    /// and follows the standard big-endian block convention:
    /// entry `((a·p + b), (c·q + d)) = self[(a, c)] · rhs[(b, d)]`.
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for a in 0..self.rows {
            for c in 0..self.cols {
                let s = self[(a, c)];
                if s == Complex::ZERO {
                    continue;
                }
                for b in 0..rhs.rows {
                    for d in 0..rhs.cols {
                        out[(a * rhs.rows + b, c * rhs.cols + d)] = s * rhs[(b, d)];
                    }
                }
            }
        }
        out
    }

    /// Frobenius norm `sqrt(Σ |a_ij|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Returns `true` if `self · self† ≈ I` within entry-wise tolerance `tol`.
    ///
    /// Non-square matrices are never unitary.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.matmul(&self.dagger());
        prod.approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// Entry-wise approximate equality with absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "addition dimension mismatch");
        assert_eq!(self.cols, rhs.cols, "addition dimension mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "subtraction dimension mismatch");
        assert_eq!(self.cols, rhs.cols, "subtraction dimension mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs)
    }
}

impl fmt::Display for CMatrix {
    #[allow(clippy::needless_range_loop)] // (r, c) indexing mirrors the math
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}{:+.4}i", self[(r, c)].re, self[(r, c)].im)?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn pauli_x() -> CMatrix {
        CMatrix::from_rows(&[
            &[Complex::ZERO, Complex::ONE],
            &[Complex::ONE, Complex::ZERO],
        ])
    }

    fn pauli_z() -> CMatrix {
        CMatrix::from_diagonal(&[Complex::ONE, -Complex::ONE])
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let id = CMatrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                let want = if r == c { Complex::ONE } else { Complex::ZERO };
                assert_eq!(id[(r, c)], want);
            }
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let x = pauli_x();
        assert_eq!(x.matmul(&CMatrix::identity(2)), x);
        assert_eq!(CMatrix::identity(2).matmul(&x), x);
    }

    #[test]
    fn pauli_algebra() {
        let x = pauli_x();
        let z = pauli_z();
        // XZ = -ZX (anti-commute)
        let xz = x.matmul(&z);
        let zx = z.matmul(&x).scale(-Complex::ONE);
        assert!(xz.approx_eq(&zx, 1e-15));
        // X² = Z² = I
        assert!(x.matmul(&x).approx_eq(&CMatrix::identity(2), 1e-15));
        assert!(z.matmul(&z).approx_eq(&CMatrix::identity(2), 1e-15));
    }

    #[test]
    fn dagger_reverses_products() {
        let a = CMatrix::from_fn(2, 2, |r, c| c64((r + c) as f64, (r as f64) - (c as f64)));
        let b = CMatrix::from_fn(2, 2, |r, c| c64(1.0 + r as f64 * c as f64, 0.5));
        let lhs = a.matmul(&b).dagger();
        let rhs = b.dagger().matmul(&a.dagger());
        assert!(lhs.approx_eq(&rhs, 1e-13));
    }

    #[test]
    fn kron_dimensions_and_entries() {
        let x = pauli_x();
        let z = pauli_z();
        let xz = x.kron(&z);
        assert_eq!(xz.rows(), 4);
        assert_eq!(xz.cols(), 4);
        // (X ⊗ Z)[0,2] = X[0,1]·Z[0,0] = 1
        assert_eq!(xz[(0, 2)], Complex::ONE);
        // (X ⊗ Z)[1,3] = X[0,1]·Z[1,1] = -1
        assert_eq!(xz[(1, 3)], -Complex::ONE);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = pauli_x();
        let b = pauli_z();
        let c = pauli_z();
        let d = pauli_x();
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-14));
    }

    #[test]
    fn trace_is_diagonal_sum() {
        let z = pauli_z();
        assert!(z.trace().approx_eq(Complex::ZERO, 1e-15));
        assert!(CMatrix::identity(8).trace().approx_eq(c64(8.0, 0.0), 1e-15));
    }

    #[test]
    fn unitarity_check() {
        assert!(pauli_x().is_unitary(1e-14));
        assert!(pauli_z().is_unitary(1e-14));
        let not_unitary = CMatrix::from_rows(&[
            &[Complex::ONE, Complex::ONE],
            &[Complex::ZERO, Complex::ONE],
        ]);
        assert!(!not_unitary.is_unitary(1e-10));
        // Non-square is never unitary.
        assert!(!CMatrix::zeros(2, 3).is_unitary(1e-10));
    }

    #[test]
    fn matvec_matches_matmul() {
        let x = pauli_x();
        let v = vec![c64(0.6, 0.0), c64(0.0, 0.8)];
        let got = x.matvec(&v);
        assert!(got[0].approx_eq(c64(0.0, 0.8), 1e-15));
        assert!(got[1].approx_eq(c64(0.6, 0.0), 1e-15));
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((CMatrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = CMatrix::from_fn(3, 3, |r, c| c64(r as f64, c as f64));
        let b = CMatrix::from_fn(3, 3, |r, c| c64(c as f64, r as f64));
        let s = &a + &b;
        let back = &s - &b;
        assert!(back.approx_eq(&a, 1e-15));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let _ = CMatrix::zeros(2, 3).matmul(&CMatrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_length_mismatch_panics() {
        let _ = CMatrix::from_vec(2, 2, vec![Complex::ZERO; 3]);
    }

    #[test]
    fn get_returns_none_out_of_bounds() {
        let a = CMatrix::identity(2);
        assert_eq!(a.get(0, 0), Some(Complex::ONE));
        assert_eq!(a.get(2, 0), None);
        assert_eq!(a.get(0, 2), None);
    }

    #[test]
    fn transpose_vs_dagger_on_complex_entries() {
        let a = CMatrix::from_rows(&[
            &[c64(1.0, 1.0), c64(2.0, 0.0)],
            &[c64(0.0, -1.0), c64(3.0, 2.0)],
        ]);
        let t = a.transpose();
        let d = a.dagger();
        assert_eq!(t[(0, 1)], c64(0.0, -1.0));
        assert_eq!(d[(0, 1)], c64(0.0, 1.0));
    }
}
