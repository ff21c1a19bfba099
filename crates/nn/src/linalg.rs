//! Small dense linear-algebra helpers: Gaussian elimination, ordinary least
//! squares and ridge regression.
//!
//! The feature-snapshot of the paper (Section III-A) fits the coefficients of
//! the logical cost formulas in Table I by least squares; those design
//! matrices are tiny (a handful of columns), so a straightforward normal
//! equation solve with partial pivoting is both sufficient and fast.

use crate::matrix::Matrix;

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

    // Augmented matrix [A | b] stored as rows.
    let mut aug: Vec<Vec<f64>> = (0..n)
        .map(|r| {
            let mut row = a.row(r).to_vec();
            row.push(b[r]);
            row
        })
        .collect();

    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                aug[i][col]
                    .abs()
                    .partial_cmp(&aug[j][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty pivot range");
        if aug[pivot_row][col].abs() < 1e-12 {
            return Err(LinAlgError::SingularMatrix);
        }
        aug.swap(col, pivot_row);

        // Eliminate below.
        for row in (col + 1)..n {
            let factor = aug[row][col] / aug[col][col];
            if factor == 0.0 {
                continue;
            }
            let (pivot_row, elim_row) = {
                let (head, tail) = aug.split_at_mut(row);
                (&head[col], &mut tail[0])
            };
            for (k, cell) in elim_row.iter_mut().enumerate().take(n + 1).skip(col) {
                *cell -= factor * pivot_row[k];
            }
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = aug[row][n];
        for (col, xv) in x.iter().enumerate().skip(row + 1) {
            acc -= aug[row][col] * xv;
        }
        x[row] = acc / aug[row][row];
    }
    Ok(x)
}

/// Ordinary least squares: find `beta` minimising `||X beta - y||^2` via the
/// normal equations `X^T X beta = X^T y`.
///
/// Falls back to a small ridge penalty if the normal matrix is singular
/// (which happens when a template produced collinear observations).
pub fn least_squares(x: &Matrix, y: &[f64]) -> Result<Vec<f64>, LinAlgError> {
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
    let xtx = x.t_matmul(x);
    let xty = xt_vec(x, y);
    match solve_linear_system(&xtx, &xty) {
        Ok(beta) => Ok(beta),
        Err(LinAlgError::SingularMatrix) => ridge_regression(x, y, 1e-6),
        Err(e) => Err(e),
    }
}

/// Ridge regression: solve `(X^T X + lambda I) beta = X^T y`.
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
    let mut xtx = x.t_matmul(x);
    for i in 0..xtx.rows() {
        let v = xtx.get(i, i);
        xtx.set(i, i, v + lambda);
    }
    let xty = xt_vec(x, y);
    solve_linear_system(&xtx, &xty)
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
