//! Dense complex matrices for gate algebra and batched state evolution.
//!
//! Gates are at most 8×8 (three-qubit CSWAP), so a simple row-major
//! `Vec<C64>` representation is both adequate and cache-friendly. The type is
//! used for gate definitions, unitarity checks, transpiler verification,
//! Kraus-channel algebra and the test oracles. [`CMatrix::matmul`] is one
//! plain i–k–j loop: no scoring path multiplies matrices, since the
//! batched engines run the lane kernels in [`crate::kernel`] on their
//! sample blocks instead.
//! Single-state evolution uses specialised kernels in
//! [`crate::statevector`] and [`crate::density`].

use crate::complex::C64;
use crate::error::QsimError;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Columns per block of the column-blocked batch loops: the unit of
/// parallelism of [`CMatrix::matmul_threaded`]'s fan-out, of the
/// structured noisy engine's scoring blocks and of `fold_image`'s column
/// batches in `quorum-core`, and the lane count of the depolarizing
/// kernel's trace chunk
/// ([`crate::density::apply_depolarizing_2q_columns`]). A block is an
/// independent unit of work whose results depend only on its index, so
/// every one of these stays bit-identical across thread counts.
pub const GEMM_COL_BLOCK: usize = 64;

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use qsim::matrix::CMatrix;
/// use qsim::complex::C64;
///
/// let x = CMatrix::from_rows(&[
///     &[C64::ZERO, C64::ONE],
///     &[C64::ONE, C64::ZERO],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert!((&x * &x).approx_eq(&CMatrix::identity(2), 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Reshapes to `rows × cols` with every entry zero, reusing the
    /// backing allocation when its capacity suffices — the reset step for
    /// pooled scratch matrices on steady-state scoring paths.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, C64::ZERO);
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        CMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a square matrix from a flat row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] when `data.len()` is not a
    /// perfect square.
    pub fn from_flat(data: &[C64]) -> Result<Self, QsimError> {
        let n = (data.len() as f64).sqrt().round() as usize;
        if n * n != data.len() {
            return Err(QsimError::DimensionMismatch {
                expected: n * n,
                actual: data.len(),
            });
        }
        Ok(CMatrix {
            rows: n,
            cols: n,
            data: data.to_vec(),
        })
    }

    /// Builds a `dim × columns.len()` matrix whose `j`-th column is
    /// `columns[j]` — convenient when each column is a statevector to be
    /// pushed through [`CMatrix::matmul`] (hot paths that already own
    /// scratch buffers write columns in place instead).
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or the columns have inconsistent
    /// lengths.
    pub fn from_columns(columns: &[Vec<C64>]) -> Self {
        assert!(!columns.is_empty(), "matrix must have at least one column");
        let rows = columns[0].len();
        let mut m = CMatrix::zeros(rows, columns.len());
        for (j, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), rows, "inconsistent column length");
            for (i, &v) in col.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major backing storage.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable view of the row-major backing storage — the door for
    /// in-place kernels that update a matrix without reallocating it.
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Immutable view of row `i` (contiguous in the row-major layout).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[C64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` out of the row-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn column(&self, j: usize) -> Vec<C64> {
        assert!(j < self.cols, "column index out of range");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Conjugate transpose `A†`.
    pub fn dagger(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Matrix trace. Defined for square matrices only.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                for k in 0..other.rows {
                    for l in 0..other.cols {
                        out[(i * other.rows + k, j * other.cols + l)] = a * other[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Scales every entry by a complex factor.
    pub fn scaled(&self, k: C64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Matrix–vector product `A·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(v.len(), self.cols, "vector length must match columns");
        let mut out = vec![C64::ZERO; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (a, x) in row.iter().zip(v) {
                acc += *a * *x;
            }
            *slot = acc;
        }
        out
    }

    /// Matrix–matrix product `A·B`: for each row of `A`, every nonzero
    /// entry `a_ik` adds `a_ik · B[k, ·]` to the output row, in `k` order.
    /// Sequential convenience wrapper around [`CMatrix::matmul_threaded`].
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &CMatrix) -> Result<CMatrix, QsimError> {
        self.matmul_threaded(rhs, 1)
    }

    /// Matrix–matrix product `A·B`, with the output's column blocks of
    /// [`GEMM_COL_BLOCK`] fanned out over up to `threads` OS threads via
    /// [`crate::parallel::map_indexed`]. Every output entry accumulates
    /// the same terms in the same order whichever block computes it, so
    /// results are bit-for-bit those of [`CMatrix::matmul`] for every
    /// `threads`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`.
    pub fn matmul_threaded(&self, rhs: &CMatrix, threads: usize) -> Result<CMatrix, QsimError> {
        let mut out = CMatrix::zeros(0, 0);
        self.matmul_threaded_into(rhs, threads, &mut out)?;
        Ok(out)
    }

    /// [`CMatrix::matmul_threaded`] writing into a caller-owned output
    /// matrix: `out` is reshaped to `self.rows() × rhs.cols()` and
    /// overwritten, and its backing storage is reused across calls.
    /// Results are bit-identical to the allocating path (the output
    /// buffer never feeds back into the product).
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`; `out` is untouched on error.
    pub fn matmul_threaded_into(
        &self,
        rhs: &CMatrix,
        threads: usize,
        out: &mut CMatrix,
    ) -> Result<(), QsimError> {
        if self.cols != rhs.rows {
            return Err(QsimError::DimensionMismatch {
                expected: self.cols,
                actual: rhs.rows,
            });
        }
        out.resize_zeroed(self.rows, rhs.cols);
        if threads <= 1 {
            self.mul_columns(rhs, 0, rhs.cols, &mut out.data);
            return Ok(());
        }
        let num_blocks = rhs.cols.div_ceil(GEMM_COL_BLOCK);
        let blocks = crate::parallel::map_indexed(num_blocks, threads, |b| {
            let c0 = b * GEMM_COL_BLOCK;
            let c1 = (c0 + GEMM_COL_BLOCK).min(rhs.cols);
            let mut block = vec![C64::ZERO; self.rows * (c1 - c0)];
            self.mul_columns(rhs, c0, c1, &mut block);
            block
        });
        // Stitch the row-major blocks back into the row-major output.
        for (b, block) in blocks.iter().enumerate() {
            let c0 = b * GEMM_COL_BLOCK;
            let width = (c0 + GEMM_COL_BLOCK).min(rhs.cols) - c0;
            for (i, row) in block.chunks_exact(width).enumerate() {
                out.data[i * rhs.cols + c0..i * rhs.cols + c0 + width].copy_from_slice(row);
            }
        }
        Ok(())
    }

    /// Adds the row-major `self.rows() × (c1 − c0)` block of `self · rhs`
    /// covering output columns `c0..c1` into `block`, which starts zeroed.
    fn mul_columns(&self, rhs: &CMatrix, c0: usize, c1: usize, block: &mut [C64]) {
        let width = c1 - c0;
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut block[i * width..(i + 1) * width];
            for (k, &a) in a_row.iter().enumerate() {
                if a == C64::ZERO {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols + c0..k * rhs.cols + c1];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Returns `true` when every entry is within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns `true` when `self` equals `other` up to a global phase
    /// `e^{iφ}`. Used to validate transpiler rewrites, which are only
    /// required to preserve physics (global phase is unobservable).
    pub fn approx_eq_up_to_phase(&self, other: &CMatrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        // Find the entry of largest modulus in `other` to anchor the phase.
        let (idx, _) = other
            .data
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.norm_sqr().total_cmp(&b.norm_sqr()))
            .expect("matrix is non-empty");
        if other.data[idx].norm_sqr() < tol * tol {
            return self.approx_eq(other, tol);
        }
        let phase = self.data[idx] / other.data[idx];
        if (phase.abs() - 1.0).abs() > tol.max(1e-9) {
            return false;
        }
        self.approx_eq(&other.scaled(phase), tol)
    }

    /// Checks `A†A = I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let product = &self.dagger() * self;
        product.approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// Checks `A = A†` within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.rows == self.cols && self.approx_eq(&self.dagger(), tol)
    }
}

impl Default for CMatrix {
    /// The empty `0 × 0` matrix — the initial state of pooled scratch
    /// matrices that grow on first use.
    fn default() -> Self {
        CMatrix::zeros(0, 0)
    }
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        self.matmul(rhs).expect("dimensions checked above")
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
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

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
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

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> C64 {
        C64::new(re, im)
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = CMatrix::from_rows(&[&[c(1.0, 1.0), c(2.0, 0.0)], &[c(0.0, -1.0), c(3.0, 0.5)]]);
        let i = CMatrix::identity(2);
        assert!((&a * &i).approx_eq(&a, 1e-12));
        assert!((&i * &a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = CMatrix::from_rows(&[&[c(1.0, 0.0), c(2.0, 0.0)], &[c(3.0, 0.0), c(4.0, 0.0)]]);
        let b = CMatrix::from_rows(&[&[c(5.0, 0.0), c(6.0, 0.0)], &[c(7.0, 0.0), c(8.0, 0.0)]]);
        let p = &a * &b;
        assert!(p.approx_eq(
            &CMatrix::from_rows(&[&[c(19.0, 0.0), c(22.0, 0.0)], &[c(43.0, 0.0), c(50.0, 0.0)]]),
            1e-12
        ));
    }

    #[test]
    fn dagger_reverses_products() {
        let a = CMatrix::from_rows(&[&[c(1.0, 2.0), c(0.0, 1.0)], &[c(2.0, 0.0), c(1.0, -1.0)]]);
        let b = CMatrix::from_rows(&[&[c(0.5, 0.0), c(1.0, 1.0)], &[c(0.0, -2.0), c(3.0, 0.0)]]);
        let lhs = (&a * &b).dagger();
        let rhs = &b.dagger() * &a.dagger();
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn trace_is_sum_of_diagonal() {
        let a = CMatrix::from_rows(&[&[c(1.0, 2.0), c(9.0, 9.0)], &[c(9.0, 9.0), c(3.0, -1.0)]]);
        assert!(a.trace().approx_eq(c(4.0, 1.0), 1e-12));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = CMatrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let i = CMatrix::identity(2);
        let xi = x.kron(&i);
        assert_eq!(xi.rows(), 4);
        // X ⊗ I swaps the two-qubit basis blocks: |0a> <-> |1a>.
        let v = vec![c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0), c(4.0, 0.0)];
        let w = xi.mul_vec(&v);
        assert!(w[0].approx_eq(c(3.0, 0.0), 1e-12));
        assert!(w[1].approx_eq(c(4.0, 0.0), 1e-12));
        assert!(w[2].approx_eq(c(1.0, 0.0), 1e-12));
        assert!(w[3].approx_eq(c(2.0, 0.0), 1e-12));
    }

    #[test]
    fn unitarity_check_accepts_hadamard_rejects_scaled() {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let h = CMatrix::from_rows(&[&[c(s, 0.0), c(s, 0.0)], &[c(s, 0.0), c(-s, 0.0)]]);
        assert!(h.is_unitary(1e-12));
        assert!(!h.scaled(c(2.0, 0.0)).is_unitary(1e-9));
    }

    #[test]
    fn hermitian_check() {
        let a = CMatrix::from_rows(&[&[c(2.0, 0.0), c(1.0, 1.0)], &[c(1.0, -1.0), c(5.0, 0.0)]]);
        assert!(a.is_hermitian(1e-12));
        let b = CMatrix::from_rows(&[&[c(2.0, 0.0), c(1.0, 1.0)], &[c(1.0, 1.0), c(5.0, 0.0)]]);
        assert!(!b.is_hermitian(1e-9));
    }

    #[test]
    fn phase_insensitive_equality() {
        let a = CMatrix::identity(2);
        let b = a.scaled(C64::cis(0.7));
        assert!(b.approx_eq_up_to_phase(&a, 1e-12));
        assert!(!b.approx_eq(&a, 1e-9));
        let c_ = CMatrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        assert!(!c_.approx_eq_up_to_phase(&a, 1e-9));
    }

    #[test]
    fn from_flat_rejects_non_square() {
        assert!(CMatrix::from_flat(&[C64::ZERO; 3]).is_err());
        assert!(CMatrix::from_flat(&[C64::ZERO; 4]).is_ok());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = CMatrix::from_rows(&[&[c(1.0, 1.0), c(2.0, 2.0)], &[c(3.0, 3.0), c(4.0, 4.0)]]);
        let b = CMatrix::identity(2);
        let sum = &a + &b;
        let back = &sum - &b;
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 2);
        let _ = &a * &b;
    }

    /// Pseudo-random but deterministic dense test matrix.
    fn dense(rows: usize, cols: usize, salt: u64) -> CMatrix {
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let t = (i * cols + j) as f64 + salt as f64 * 0.37;
                m[(i, j)] = c((t * 0.7311).sin(), (t * 1.1931).cos());
            }
        }
        m
    }

    #[test]
    fn gemm_identity_law() {
        let m = dense(8, 40, 1);
        let i = CMatrix::identity(8);
        assert!(i.matmul(&m).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn gemm_composition_law() {
        // U·(V·M) = (U·V)·M through the fan-out, across two column-block
        // boundaries and into a ragged third block.
        let u = dense(8, 8, 2);
        let v = dense(8, 8, 3);
        let m = dense(8, 2 * GEMM_COL_BLOCK + 3, 4);
        let product = |a: &CMatrix, b: &CMatrix| a.matmul_threaded(b, 4).unwrap();
        let nested = product(&u, &product(&v, &m));
        let fused = product(&product(&u, &v), &m);
        assert!(nested.approx_eq(&fused, 1e-9));
    }

    #[test]
    fn gemm_agrees_with_repeated_apply_unitary_matvecs() {
        use crate::circuit::Circuit;
        use crate::statevector::Statevector;

        let mut qc = Circuit::new(3);
        qc.h(0).ry(0.8, 1).cx(0, 1).rz(1.3, 2).cx(1, 2);
        let u = qc.to_unitary().unwrap();

        // 37 unit-norm columns.
        let cols: Vec<Vec<C64>> = (0..37)
            .map(|j| {
                let raw: Vec<C64> = (0..8)
                    .map(|i| c(((i * 37 + j) as f64 * 0.51).sin(), 0.0))
                    .collect();
                let norm: f64 = raw.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
                raw.iter().map(|&a| a * c(1.0 / norm, 0.0)).collect()
            })
            .collect();
        let packed = CMatrix::from_columns(&cols);
        let product = u.matmul(&packed).unwrap();

        for (j, col) in cols.iter().enumerate() {
            let mut sv = Statevector::from_amplitudes(col.clone()).unwrap();
            sv.apply_unitary(&u).unwrap();
            for (i, &expected) in sv.amplitudes().iter().enumerate() {
                assert!(
                    product[(i, j)].approx_eq(expected, 1e-12),
                    "column {j} row {i}: {} vs {}",
                    product[(i, j)],
                    expected
                );
            }
        }
    }

    #[test]
    fn gemm_non_square_shapes() {
        let a = dense(3, 5, 7);
        let b = dense(5, 2, 8);
        let p = a.matmul(&b).unwrap();
        assert_eq!((p.rows(), p.cols()), (3, 2));
        // Spot-check one entry against the definition.
        let mut expected = C64::ZERO;
        for k in 0..5 {
            expected += a[(2, k)] * b[(k, 1)];
        }
        assert!(p[(2, 1)].approx_eq(expected, 1e-12));
    }

    #[test]
    fn gemm_shape_mismatch_is_an_error() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(QsimError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn gemm_threaded_matches_sequential_bit_for_bit() {
        let a = dense(16, 16, 11);
        let b = dense(16, 100, 12); // two column blocks, the second ragged
        let seq = a.matmul_threaded(&b, 1).unwrap();
        for threads in [2, 4, 8] {
            let par = a.matmul_threaded(&b, threads).unwrap();
            assert_eq!(seq.as_slice(), par.as_slice(), "threads = {threads}");
        }
    }

    #[test]
    fn matmul_handles_empty_operands() {
        // No rows, no inner dimension or no columns, sequential and
        // through the fan-out.
        for (m, k, n) in [(0, 4, 7), (3, 0, 5), (2, 3, 0), (3, 0, 2 * GEMM_COL_BLOCK)] {
            let (a, b) = (CMatrix::zeros(m, k), CMatrix::zeros(k, n));
            for p in [a.matmul(&b).unwrap(), a.matmul_threaded(&b, 4).unwrap()] {
                assert_eq!((p.rows(), p.cols()), (m, n));
                assert!(p.as_slice().iter().all(|&z| z == C64::ZERO));
            }
        }
    }

    #[test]
    fn gemm_matches_operator_mul() {
        let a = dense(6, 6, 21);
        let b = dense(6, 6, 22);
        assert!((&a * &b).approx_eq(&a.matmul(&b).unwrap(), 1e-15));
    }

    #[test]
    fn from_columns_round_trips_through_column() {
        let cols = vec![
            vec![c(1.0, 0.0), c(2.0, -1.0)],
            vec![c(0.0, 3.0), c(4.0, 0.5)],
            vec![c(5.0, 5.0), c(6.0, -6.0)],
        ];
        let m = CMatrix::from_columns(&cols);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(&m.column(j), col);
        }
        assert_eq!(m.row(0), &[cols[0][0], cols[1][0], cols[2][0]]);
    }
}
