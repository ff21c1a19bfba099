//! Small dense linear-algebra helpers: Gaussian elimination, ordinary least
//! squares and ridge regression.
//!
//! The feature-snapshot of the paper (Section III-A) fits the coefficients of
//! the logical cost formulas in Table I by least squares; those systems are
//! tiny (at most four columns), so a straightforward normal-equation solve
//! with partial pivoting is both sufficient and fast.
//!
//! # One normal-equation solve
//!
//! Every least-squares fit in the workspace ends in [`solve_normal_equations`]:
//! given `XᵀX` and `Xᵀy`, it solves `(XᵀX + λI) β = Xᵀy` and, when that
//! system is singular (collinear observations), retries once with
//! [`SINGULAR_RIDGE`] added to `λ`. [`least_squares`] (`λ = 0`) and
//! [`ridge_regression`] form the two products from a dense [`Matrix`] —
//! `XᵀX` through [`crate::kernel::t_matmul_sparse`], which skips the zero
//! entries of `X`, and `Xᵀy` row by row without a skip — and hand them over.
//!
//! The feature snapshot (`qcfe_core::snapshot`) never materialises `X`. It
//! streams its samples once and accumulates each operator's `XᵀX` and `Xᵀy`
//! in fixed arrays, performing exactly the additions those two products
//! perform, in sample order and with the same zero skip. Floating-point
//! addition is not associative, but the same operands added in the same
//! order give the same bits, so the streamed coefficients equal
//! [`least_squares`] on the materialised design matrix bit for bit.
//! `least_squares` stays the dense entry point and the oracle the property
//! tests hold the streamed fit to.

use crate::matrix::Matrix;

/// The ridge `λ` [`solve_normal_equations`] adds when the normal system is
/// singular (a template produced collinear observations).
pub const SINGULAR_RIDGE: f64 = 1e-6;

/// Errors from the linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinAlgError {
    /// The coefficient matrix is (numerically) singular.
    SingularMatrix,
    /// Input shapes are inconsistent with the requested operation.
    DimensionMismatch(String),
    /// The system has no rows (no observations to fit).
    EmptySystem,
}

impl std::fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinAlgError::SingularMatrix => write!(f, "matrix is singular"),
            LinAlgError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            LinAlgError::EmptySystem => write!(f, "empty system"),
        }
    }
}

impl std::error::Error for LinAlgError {}

/// Solve the square linear system `A x = b` by Gaussian elimination with
/// partial pivoting.
pub fn solve_linear_system(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinAlgError> {
    let n = a.rows();
    if n == 0 {
        return Err(LinAlgError::EmptySystem);
    }
    if a.cols() != n {
        return Err(LinAlgError::DimensionMismatch(format!(
            "expected square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    if b.len() != n {
        return Err(LinAlgError::DimensionMismatch(format!(
            "rhs has length {}, expected {n}",
            b.len()
        )));
    }
    eliminate(&mut augmented(a.as_slice(), b, 0.0), n)
}

/// The row-major `n × (n + 1)` augmented matrix `[A + λI | b]` of a square
/// row-major `A` (`n = b.len()`); `λ = 0` copies `A` untouched.
fn augmented(a: &[f64], b: &[f64], lambda: f64) -> Vec<f64> {
    let n = b.len();
    let mut aug = Vec::with_capacity(n * (n + 1));
    for (r, &br) in b.iter().enumerate() {
        aug.extend_from_slice(&a[r * n..(r + 1) * n]);
        if lambda != 0.0 {
            aug[r * (n + 1) + r] += lambda;
        }
        aug.push(br);
    }
    aug
}

/// Gaussian elimination with partial pivoting on a row-major `n × (n + 1)`
/// augmented matrix, then back substitution.
fn eliminate(aug: &mut [f64], n: usize) -> Result<Vec<f64>, LinAlgError> {
    let width = n + 1;
    for col in 0..n {
        // Partial pivot (the last row of equal magnitude wins).
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                aug[i * width + col]
                    .abs()
                    .partial_cmp(&aug[j * width + col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty pivot range");
        if aug[pivot_row * width + col].abs() < 1e-12 {
            return Err(LinAlgError::SingularMatrix);
        }
        if pivot_row != col {
            let (head, tail) = aug.split_at_mut(pivot_row * width);
            head[col * width..(col + 1) * width].swap_with_slice(&mut tail[..width]);
        }

        // Eliminate below.
        for row in (col + 1)..n {
            let factor = aug[row * width + col] / aug[col * width + col];
            if factor == 0.0 {
                continue;
            }
            let (head, tail) = aug.split_at_mut(row * width);
            let pivot = &head[col * width..(col + 1) * width];
            for (cell, &p) in tail[col..width].iter_mut().zip(&pivot[col..]) {
                *cell -= factor * p;
            }
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = aug[row * width + n];
        for (col, xv) in x.iter().enumerate().skip(row + 1) {
            acc -= aug[row * width + col] * xv;
        }
        x[row] = acc / aug[row * width + row];
    }
    Ok(x)
}

/// Solve the normal equations `(XᵀX + λI) β = Xᵀy` of an `n`-column fit
/// from `XᵀX` (row-major `n × n`) and `Xᵀy` (length `n`): the one solve
/// every least-squares fit here shares (see the module docs). A singular
/// system is retried once with `λ + SINGULAR_RIDGE` on the diagonal.
pub fn solve_normal_equations(
    xtx: &[f64],
    xty: &[f64],
    lambda: f64,
) -> Result<Vec<f64>, LinAlgError> {
    let n = xty.len();
    if n == 0 {
        return Err(LinAlgError::EmptySystem);
    }
    if xtx.len() != n * n {
        return Err(LinAlgError::DimensionMismatch(format!(
            "XᵀX has {} entries, expected {n}x{n}",
            xtx.len()
        )));
    }
    match eliminate(&mut augmented(xtx, xty, lambda), n) {
        Err(LinAlgError::SingularMatrix) => {
            eliminate(&mut augmented(xtx, xty, lambda + SINGULAR_RIDGE), n)
        }
        result => result,
    }
}

/// Ordinary least squares: find `beta` minimising `||X beta - y||^2` via the
/// normal equations `X^T X beta = X^T y`.
///
/// Falls back to a small ridge penalty ([`SINGULAR_RIDGE`]) if the normal
/// matrix is singular (which happens when a template produced collinear
/// observations).
pub fn least_squares(x: &Matrix, y: &[f64]) -> Result<Vec<f64>, LinAlgError> {
    ridge_regression(x, y, 0.0)
}

/// Ridge regression: solve `(X^T X + lambda I) beta = X^T y`, retrying with
/// `lambda + SINGULAR_RIDGE` if that system is singular.
pub fn ridge_regression(x: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>, LinAlgError> {
    if x.rows() == 0 {
        return Err(LinAlgError::EmptySystem);
    }
    if x.rows() != y.len() {
        return Err(LinAlgError::DimensionMismatch(format!(
            "{} rows but {} targets",
            x.rows(),
            y.len()
        )));
    }
    solve_normal_equations(x.t_matmul(x).as_slice(), &xt_vec(x, y), lambda)
}

/// `X^T y` as a vector.
fn xt_vec(x: &Matrix, y: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.cols()];
    for (r, &yr) in y.iter().enumerate().take(x.rows()) {
        let row = x.row(r);
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v * yr;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_simple_2x2_system() {
        // x + y = 3 ; 2x - y = 0 -> x = 1, y = 2
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 2.0, -1.0]);
        let x = solve_linear_system(&a, &[3.0, 0.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(
            solve_linear_system(&a, &[1.0, 2.0]),
            Err(LinAlgError::SingularMatrix)
        );
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Matrix::from_vec(2, 3, vec![0.0; 6]);
        assert!(matches!(
            solve_linear_system(&a, &[1.0, 2.0]),
            Err(LinAlgError::DimensionMismatch(_))
        ));
        let a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert!(matches!(
            solve_linear_system(&a, &[1.0]),
            Err(LinAlgError::DimensionMismatch(_))
        ));
        assert_eq!(
            solve_linear_system(&Matrix::zeros(0, 0), &[]),
            Err(LinAlgError::EmptySystem)
        );
    }

    #[test]
    fn least_squares_recovers_exact_linear_relationship() {
        // y = 3*n + 7 : the seq-scan logical formula of Table I.
        let ns = [10.0, 20.0, 50.0, 100.0, 500.0];
        let rows: Vec<Vec<f64>> = ns.iter().map(|&n| vec![n, 1.0]).collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = ns.iter().map(|&n| 3.0 * n + 7.0).collect();
        let beta = least_squares(&x, &y).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-8);
        assert!((beta[1] - 7.0).abs() < 1e-8);
    }

    #[test]
    fn least_squares_handles_noise() {
        let ns: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let rows: Vec<Vec<f64>> = ns.iter().map(|&n| vec![n, 1.0]).collect();
        let x = Matrix::from_rows(&rows);
        // alternate +1/-1 noise so it averages out
        let y: Vec<f64> = ns
            .iter()
            .enumerate()
            .map(|(i, &n)| 0.5 * n + 2.0 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let beta = least_squares(&x, &y).unwrap();
        assert!((beta[0] - 0.5).abs() < 0.01, "slope {}", beta[0]);
        assert!((beta[1] - 2.0).abs() < 1.5, "intercept {}", beta[1]);
    }

    #[test]
    fn collinear_design_falls_back_to_ridge() {
        // two identical columns: singular normal matrix
        let rows: Vec<Vec<f64>> = (1..=10).map(|i| vec![i as f64, i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = (1..=10).map(|i| 2.0 * i as f64).collect();
        let beta = least_squares(&x, &y).unwrap();
        // any split summing to ~2 is acceptable
        assert!((beta[0] + beta[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn least_squares_and_ridge_end_in_the_normal_equation_solve() {
        let bits = |beta: Vec<f64>| beta.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        // Collinear columns: the plain solve is singular, so the shared
        // solve retries with `SINGULAR_RIDGE`, exactly as least squares does.
        let rows: Vec<Vec<f64>> = (1..=10).map(|i| vec![i as f64, i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = (1..=10).map(|i| 2.0 * i as f64 + 0.5).collect();
        let xtx = x.t_matmul(&x);
        let xty = xt_vec(&x, &y);
        assert_eq!(
            solve_linear_system(&xtx, &xty),
            Err(LinAlgError::SingularMatrix)
        );
        let solved = bits(solve_normal_equations(xtx.as_slice(), &xty, 0.0).unwrap());
        assert_eq!(solved, bits(least_squares(&x, &y).unwrap()));
        assert_eq!(
            solved,
            bits(ridge_regression(&x, &y, SINGULAR_RIDGE).unwrap())
        );
        assert!(matches!(
            solve_normal_equations(&[1.0; 3], &[1.0, 2.0], 0.0),
            Err(LinAlgError::DimensionMismatch(_))
        ));
        assert_eq!(
            solve_normal_equations(&[], &[], 0.0),
            Err(LinAlgError::EmptySystem)
        );
    }

    #[test]
    fn ridge_shrinks_towards_zero_with_large_lambda() {
        let rows: Vec<Vec<f64>> = (1..=10).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = (1..=10).map(|i| 2.0 * i as f64).collect();
        let small = ridge_regression(&x, &y, 1e-9).unwrap()[0];
        let large = ridge_regression(&x, &y, 1e6).unwrap()[0];
        assert!((small - 2.0).abs() < 1e-3);
        assert!(large.abs() < small.abs());
    }
}
