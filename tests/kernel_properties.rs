//! Property-style tests over the pluggable matmul kernels (seeded loops,
//! same offline-proptest idiom as `properties.rs`).
//!
//! Acceptance bars:
//!
//! * the portable kernel is **bit-identical** to the scalar kernel on every
//!   tested shape (same fixed accumulation order);
//! * the AVX2 kernel (when the CPU has it) agrees with scalar within a
//!   documented FMA tolerance, never bit-garbage;
//! * the training-side `Matrix::matmul_t` is bit-identical to the
//!   dot-product loop it replaced, under every forced kernel.

use qcfe::nn::kernel::{force_kernel, matmul_f64_with, MatmulKernel};
use qcfe::nn::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Kernel-equivalence properties run the full acceptance count.
const CASES: usize = 1000;

/// Adversarial matmul shapes exercised before random sampling takes over:
/// degenerate 1×1, tall/skinny, single-row/column, and widths straddling
/// the 4-lane AVX2 boundary (n = 3, 4, 5, 7, 8, 9) plus the MR=4 row
/// blocking boundary (m = 3, 4, 5).
const ADVERSARIAL: [(usize, usize, usize); 14] = [
    (1, 1, 1),
    (1, 1, 8),
    (8, 1, 1),
    (1, 8, 1),
    (64, 2, 1),
    (1, 2, 64),
    (3, 5, 3),
    (4, 5, 4),
    (5, 5, 5),
    (4, 7, 7),
    (5, 3, 8),
    (3, 9, 9),
    (33, 17, 31),
    (32, 24, 32),
];

fn case_shape(case: usize, rng: &mut StdRng) -> (usize, usize, usize) {
    if case < ADVERSARIAL.len() {
        ADVERSARIAL[case]
    } else {
        (
            rng.gen_range(1usize..=33),
            rng.gen_range(1usize..=40),
            rng.gen_range(1usize..=33),
        )
    }
}

fn random_activations(rng: &mut StdRng, m: usize, k: usize) -> Vec<f64> {
    (0..m * k).map(|_| rng.gen_range(-2.0f64..2.0)).collect()
}

/// The portable kernel promises the *same* fixed accumulation order as the
/// scalar kernel, so it must match bit for bit on every shape — including
/// the shapes whose k-remainder and column tails exercise every unroll
/// branch.
#[test]
fn portable_kernel_is_bit_identical_to_scalar() {
    let mut rng = StdRng::seed_from_u64(0x5EED_51D0);
    for case in 0..CASES {
        let (m, k, n) = case_shape(case, &mut rng);
        let a = random_activations(&mut rng, m, k);
        let b: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-2.0f64..2.0)).collect();
        let mut scalar = vec![0.0; m * n];
        let mut portable = vec![0.0; m * n];
        matmul_f64_with(MatmulKernel::Scalar, &a, m, k, &b, n, &mut scalar);
        matmul_f64_with(MatmulKernel::Portable, &a, m, k, &b, n, &mut portable);
        for (i, (s, p)) in scalar.iter().zip(&portable).enumerate() {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "case {case} ({m}x{k}x{n}) element {i}: portable {p} != scalar {s}"
            );
        }
    }
}

/// The AVX2 kernel fuses each multiply-add into one rounding, so it cannot
/// be bit-identical — but it must stay within an accumulated-FMA bound of
/// the scalar result on every adversarial shape. On machines without AVX2
/// the request falls back to the portable kernel, which makes this test a
/// second (free) bit-identity check there.
#[test]
fn avx2_kernel_matches_scalar_within_fma_tolerance() {
    let mut rng = StdRng::seed_from_u64(0x5EED_51D1);
    let native = MatmulKernel::Avx2.is_supported();
    for case in 0..CASES {
        let (m, k, n) = case_shape(case, &mut rng);
        let a = random_activations(&mut rng, m, k);
        let b: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-2.0f64..2.0)).collect();
        let mut scalar = vec![0.0; m * n];
        let mut simd = vec![0.0; m * n];
        matmul_f64_with(MatmulKernel::Scalar, &a, m, k, &b, n, &mut scalar);
        matmul_f64_with(MatmulKernel::Avx2, &a, m, k, &b, n, &mut simd);
        // Each of the k steps can shift by ~1 ulp of the running partials,
        // all bounded by k * max|a| * max|b| = 4k here.
        let tol = 1e-12 * (1.0 + 4.0 * k as f64);
        for (i, (s, v)) in scalar.iter().zip(&simd).enumerate() {
            if native {
                assert!(
                    (s - v).abs() <= tol,
                    "case {case} ({m}x{k}x{n}) element {i}: avx2 {v} vs scalar {s} (tol {tol})"
                );
            } else {
                assert_eq!(
                    s.to_bits(),
                    v.to_bits(),
                    "case {case}: fallback must be exact"
                );
            }
        }
    }
}

/// The dot-product loop `Matrix::matmul_t` used to run: one accumulator
/// per output element, starting from `0.0`, summed in increasing `p`.
fn dot_product_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for j in 0..b.rows() {
            let b_row = b.row(j);
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                acc += x * y;
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// `dZ·Wᵀ` runs the portable i-k-j loop over `Wᵀ`, never the active
/// kernel, so it must equal the old dot-product loop bit for bit whichever
/// kernel is forced. k spans 1–9 so every shape of the 4-way unroll tail
/// is covered.
#[test]
fn matmul_t_is_bit_identical_to_the_dot_product_loop_under_every_kernel() {
    let mut rng = StdRng::seed_from_u64(0x5EED_51D2);
    for kernel in MatmulKernel::ALL {
        if !force_kernel(Some(kernel)) {
            continue;
        }
        for case in 0..CASES {
            let rows = rng.gen_range(1usize..=5);
            let k = rng.gen_range(1usize..=9);
            let n = rng.gen_range(1usize..=7);
            let a = Matrix::from_vec(rows, k, random_activations(&mut rng, rows, k));
            let b = Matrix::from_vec(n, k, random_activations(&mut rng, n, k));
            let got = a.matmul_t(&b);
            let want = dot_product_matmul_t(&a, &b);
            assert_eq!(got.shape(), want.shape());
            for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{kernel:?} case {case} ({rows}x{k} * ({n}x{k})^T) element {i}: {g} != {w}"
                );
            }
        }
    }
    force_kernel(None);
}
