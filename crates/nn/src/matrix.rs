//! Row-major dense matrix with the small set of kernels needed by dense layers.
//!
//! The matrix stores `f64` values contiguously in row-major order. All hot
//! loops iterate rows in the outer loop so memory access stays sequential, as
//! recommended by the Rust performance guidance used by this workspace.

use rand::Rng;

/// A dense, row-major `f64` matrix.
///
/// The default value is the empty `0x0` matrix, which makes `Matrix` usable
/// as a reusable scratch buffer: [`Matrix::reset`] reshapes it in place
/// without shrinking the backing allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length must equal rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// Build a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(
                r.len(),
                cols,
                "from_rows: all rows must have the same length"
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build a single-row matrix from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Build a single-column matrix from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Xavier/Glorot-uniform initialised matrix, the standard initialisation
    /// for the ReLU/sigmoid MLPs used by QPPNet and MSCN.
    pub fn xavier_uniform<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Matrix { rows, cols, data }
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Write one element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow a row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow a row as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow the flat row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the flat row-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshape in place to `rows x cols`, zero-filled. The backing allocation
    /// is kept (and grown only when needed), so a matrix reused as a scratch
    /// buffer stops allocating once it has seen its largest shape.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape in place to `rows x cols` leaving the element values
    /// unspecified (whatever the buffer previously held, zero where it has
    /// to grow). For scratch buffers whose every element the caller writes
    /// before reading — skips the full zero-fill of [`Matrix::reset`].
    pub fn reshape_unspecified(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape in place to a single row holding a copy of `values`.
    pub fn reset_from_row(&mut self, values: &[f64]) {
        self.rows = 1;
        self.cols = values.len();
        self.data.clear();
        self.data.extend_from_slice(values);
    }

    /// Matrix multiplication `self * other`.
    ///
    /// Thin allocate-then-[`Matrix::matmul_into`] wrapper, so the two can
    /// never drift apart.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix multiplication `self * other` written into a caller-owned
    /// output buffer (reshaped in place), so repeated inference passes do
    /// not allocate. Dispatches through the pluggable dense kernel layer
    /// ([`crate::kernel`]): AVX2+FMA when the CPU has it, a bit-exact
    /// portable unrolled loop otherwise, overridable with `QCFE_KERNEL`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul_into: inner dimensions must agree ({}x{} * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset(self.rows, other.cols);
        crate::kernel::matmul_f64(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// `self^T * other`, computed without materialising the transpose.
    ///
    /// Routes through the kernel module's shared sparsity-aware
    /// implementation ([`crate::kernel::t_matmul_sparse`]), which keeps the
    /// per-element zero skip: this is the training-side `Xᵀ·G` product
    /// where one-hot-ish design matrices make the skip a real win.
    ///
    /// Thin allocate-then-[`Matrix::t_matmul_into`] wrapper.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.t_matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::t_matmul`] written into a caller-owned buffer, reshaped
    /// and zero-filled in place first.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul: row counts must agree");
        out.reset(self.cols, other.cols);
        crate::kernel::t_matmul_sparse(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// `self * other^T`: the training-side `dZ·Wᵀ` product.
    ///
    /// Thin allocate-then-[`Matrix::matmul_t_rows_into`] wrapper over every
    /// row of `other`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let (mut other_t, mut out) = (Matrix::default(), Matrix::default());
        self.matmul_t_rows_into(other, 0..other.rows, &mut other_t, &mut out);
        out
    }

    /// `self * other[rows]^T` into `out` (reshaped in place): the columns
    /// `rows` of [`Matrix::matmul_t`], bit for bit.
    ///
    /// Copies the transposed row block of `other` into `other_t` (a
    /// caller-owned scratch) and runs the i-k-j loop of the *portable*
    /// kernel, never the active one: AVX2's FMA would change bits. Each
    /// output element adds its products from `0.0` in increasing `p`,
    /// exactly as a dot product of the two rows does, whatever
    /// `QCFE_KERNEL` says, while the inner loop runs along contiguous rows
    /// the compiler vectorises. An element's sum never depends on how many
    /// other columns are computed beside it, so any row block gives the
    /// same bits as the full product.
    pub fn matmul_t_rows_into(
        &self,
        other: &Matrix,
        rows: std::ops::Range<usize>,
        other_t: &mut Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, other.cols, "matmul_t: column counts must agree");
        assert!(rows.end <= other.rows, "matmul_t: row block out of range");
        let n = rows.len();
        other_t.reshape_unspecified(other.cols, n);
        for (j, r) in rows.enumerate() {
            for (p, &v) in other.row(r).iter().enumerate() {
                other_t.data[p * n + j] = v;
            }
        }
        out.reset(self.rows, n);
        crate::kernel::matmul_f64_with(
            crate::kernel::MatmulKernel::Portable,
            &self.data,
            self.rows,
            self.cols,
            &other_t.data,
            n,
            &mut out.data,
        );
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shapes must agree");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Broadcast-add a row vector to every row in place (bias addition).
    pub fn add_row_broadcast_assign(&mut self, row: &[f64]) {
        assert_eq!(
            self.cols,
            row.len(),
            "add_row_broadcast_assign: length must equal cols"
        );
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(row.iter()) {
                *v += *b;
            }
        }
    }

    /// Apply a function to every element in place.
    pub fn map_inplace<F: Fn(f64) -> f64>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|i| i as f64).collect());
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|i| i as f64 * 0.5).collect());
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn row_broadcast_adds_to_every_row() {
        let mut a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        a.add_row_broadcast_assign(&[10.0, 20.0, 30.0]);
        assert_eq!(a.row(0), &[11.0, 22.0, 33.0]);
        assert_eq!(a.row(1), &[14.0, 25.0, 36.0]);
    }

    #[test]
    fn xavier_initialisation_is_bounded_and_deterministic() {
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(42);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(42);
        let a = Matrix::xavier_uniform(8, 4, &mut rng1);
        let b = Matrix::xavier_uniform(8, 4, &mut rng2);
        assert_eq!(a, b, "same seed must give identical initialisation");
        let limit = (6.0 / 12.0_f64).sqrt();
        assert!(a.as_slice().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_matches_matmul_and_reuses_capacity() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // A second call into the same (now stale-shaped) buffer still agrees.
        let c = Matrix::from_vec(3, 4, (0..12).map(|i| i as f64 * 0.25).collect());
        a.matmul_into(&c, &mut out);
        assert_eq!(out, a.matmul(&c));
    }

    #[test]
    fn reset_reshapes_and_zeroes_in_place() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        m.reset(1, 3);
        assert_eq!(m.shape(), (1, 3));
        assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0]);
        m.reset_from_row(&[5.0, 6.0]);
        assert_eq!(m.shape(), (1, 2));
        assert_eq!(m.row(0), &[5.0, 6.0]);
    }
}
