//! Pluggable dense matmul kernels behind [`crate::matrix::Matrix`].
//!
//! Every estimate the serving layer produces bottoms out in a handful of
//! dense `f64` matrix multiplies (one per MLP layer per micro-batch). This
//! module owns those inner loops and picks an implementation at runtime:
//!
//! # The dispatch ladder
//!
//! 1. **Forced kernel** ([`force_kernel`]): an in-process override used by
//!    benchmarks and equivalence tests to sweep kernels inside one run.
//! 2. **`QCFE_KERNEL` environment variable**: `scalar`, `portable` or
//!    `avx2`, read once on first use. An unsupported or unrecognised value
//!    falls back to auto-detection with a one-time diagnostic on stderr —
//!    a typo must never change results silently *and* must never abort a
//!    serving process.
//! 3. **Auto-detection**: on x86/x86_64 with AVX2+FMA available (checked
//!    via `is_x86_feature_detected!`), the [`MatmulKernel::Avx2`]
//!    microkernel; otherwise [`MatmulKernel::Portable`].
//!
//! The detected default is computed once and cached in a [`OnceLock`]; the
//! per-call cost of dispatch is one relaxed atomic load.
//!
//! # The accumulation-order contract
//!
//! All kernels compute `out[i][j] = Σ_p a[i][p] * b[p][j]` with the sum
//! taken in increasing `p`. Two tiers of agreement are guaranteed:
//!
//! * **Scalar ↔ portable: bit-identical.** The scalar kernel is the
//!   ground truth (the plain i-k-j loop). The portable kernel unrolls the
//!   `p` loop by four but keeps each output element's additions in exactly
//!   the same order (`((((o + a₀b₀) + a₁b₁) + a₂b₂) + a₃b₃)`), and Rust
//!   never contracts separate mul/add into FMA, so the two produce
//!   identical bits on every input. Non-x86 builds therefore keep the
//!   x86 scalar results exactly.
//! * **AVX2 vs scalar: documented tolerance, not bit-identity.** The AVX2
//!   kernel accumulates with `_mm256_fmadd_pd`; a fused multiply-add
//!   rounds once where mul-then-add rounds twice, so each of the `k`
//!   accumulation steps can differ by ≤ ½ ulp. Relative error versus the
//!   scalar kernel is bounded by ~`k * ε` (`ε = 2⁻⁵²`) for
//!   well-conditioned sums; the test suite enforces `1e-12` relative on
//!   adversarial shapes, orders of magnitude below the estimators'
//!   q-error budget.
//!
//! Every kernel is additionally **batch-invariant per row**: row `i` of a
//! batched product is computed with the identical operation sequence as a
//! 1-row product of that row (row-blocking in the AVX2 kernel keeps one
//! private accumulator per row). This is what keeps batched and scalar
//! tree-walk QPPNet inference bit-identical *within* any one kernel.
//!
//! The former per-element `a == 0.0` skip of the dense loops is gone — on
//! dense MLP weights it branch-predicts poorly and defeats vectorisation.
//! It survives only in [`t_matmul_sparse`], the training-side
//! `Xᵀ·dZ` kernel, where one-hot-ish design matrices make the skip a real
//! win.
//!
//! # Training and the kernel choice
//!
//! Only the two backward products are kernel-independent: `Xᵀ·dZ`
//! ([`t_matmul_sparse`], through `Matrix::t_matmul_into`) and `dZ·Wᵀ`
//! (`Matrix::matmul_t_rows_into`) run the same code under every dispatch
//! choice. `matmul_t_rows_into` copies the transposed block of the weight
//! rows a caller asks for and runs the portable i-k-j loop over it
//! whatever the active kernel is: it vectorises like the forward, yet each
//! output element adds its products from `0.0` in increasing `p`, bit for
//! bit a row-by-row dot product, so any block of input columns equals
//! those columns of the full product. The training forward
//! (`DenseLayer::forward_train_into`) multiplies through
//! `Matrix::matmul_into`, i.e. through the active kernel. So training is
//! bit-identical across scalar and portable, and under AVX2 it differs
//! from them by FMA rounding: the same seed trains different low bits of
//! the weights, and so different `QCFW` bytes.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A dense-kernel implementation choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulKernel {
    /// The plain i-k-j loop: the bit-exact ground truth.
    Scalar,
    /// k-unrolled loop, bit-identical to [`MatmulKernel::Scalar`] on every
    /// input; the default on targets without AVX2.
    Portable,
    /// Hand-rolled AVX2+FMA microkernel (x86/x86_64 only); agrees with
    /// scalar to the documented tolerance.
    Avx2,
}

impl MatmulKernel {
    /// All kernels, in dispatch-ladder order.
    pub const ALL: [MatmulKernel; 3] = [
        MatmulKernel::Scalar,
        MatmulKernel::Portable,
        MatmulKernel::Avx2,
    ];

    /// The name accepted by the `QCFE_KERNEL` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            MatmulKernel::Scalar => "scalar",
            MatmulKernel::Portable => "portable",
            MatmulKernel::Avx2 => "avx2",
        }
    }

    /// Parse a `QCFE_KERNEL` value (case-insensitive).
    pub fn from_name(name: &str) -> Option<MatmulKernel> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(MatmulKernel::Scalar),
            "portable" => Some(MatmulKernel::Portable),
            "avx2" => Some(MatmulKernel::Avx2),
            _ => None,
        }
    }

    /// Whether this kernel can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            MatmulKernel::Scalar | MatmulKernel::Portable => true,
            MatmulKernel::Avx2 => avx2_available(),
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn avx2_available() -> bool {
    std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
fn avx2_available() -> bool {
    false
}

/// In-process kernel override; 0 = none, else 1 + index into
/// [`MatmulKernel::ALL`]. Read with one relaxed load on the hot path.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The env-var/auto-detected default, computed once.
static DEFAULT: OnceLock<MatmulKernel> = OnceLock::new();

fn detect_default() -> MatmulKernel {
    if let Ok(value) = std::env::var("QCFE_KERNEL") {
        match MatmulKernel::from_name(&value) {
            Some(kernel) if kernel.is_supported() => return kernel,
            Some(kernel) => eprintln!(
                "qcfe-nn: QCFE_KERNEL={} requested but unsupported on this CPU; auto-detecting",
                kernel.name()
            ),
            None => eprintln!(
                "qcfe-nn: QCFE_KERNEL={value:?} not recognised \
                 (expected scalar|portable|avx2); auto-detecting"
            ),
        }
    }
    if avx2_available() {
        MatmulKernel::Avx2
    } else {
        MatmulKernel::Portable
    }
}

/// The kernel every dense matmul currently dispatches to.
pub fn active_kernel() -> MatmulKernel {
    match FORCED.load(Ordering::Relaxed) {
        1 => MatmulKernel::Scalar,
        2 => MatmulKernel::Portable,
        3 => MatmulKernel::Avx2,
        _ => *DEFAULT.get_or_init(detect_default),
    }
}

/// Force a specific kernel process-wide (benchmarks and equivalence tests
/// sweep kernels this way), or clear the override with `None`. Returns
/// `false` — leaving the current choice untouched — when the requested
/// kernel is not supported on this CPU.
pub fn force_kernel(kernel: Option<MatmulKernel>) -> bool {
    match kernel {
        None => {
            FORCED.store(0, Ordering::Relaxed);
            true
        }
        Some(k) if !k.is_supported() => false,
        Some(MatmulKernel::Scalar) => {
            FORCED.store(1, Ordering::Relaxed);
            true
        }
        Some(MatmulKernel::Portable) => {
            FORCED.store(2, Ordering::Relaxed);
            true
        }
        Some(MatmulKernel::Avx2) => {
            FORCED.store(3, Ordering::Relaxed);
            true
        }
    }
}

fn check_shapes(a_len: usize, m: usize, k: usize, b_len: usize, n: usize, out_len: usize) {
    assert_eq!(a_len, m * k, "matmul kernel: a must be {m}x{k}");
    assert_eq!(b_len, k * n, "matmul kernel: b must be {k}x{n}");
    assert_eq!(out_len, m * n, "matmul kernel: out must be {m}x{n}");
}

/// `out += a (m×k) * b (k×n)` through the active kernel. `out` must be
/// zero-filled on entry (the kernels are free to either accumulate into it
/// or overwrite it with the full sum).
pub fn matmul_f64(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    matmul_f64_with(active_kernel(), a, m, k, b, n, out);
}

/// [`matmul_f64`] with an explicit kernel choice (equivalence tests).
/// Falls back to the portable kernel if AVX2 is requested on a CPU or
/// target without it.
pub fn matmul_f64_with(
    kernel: MatmulKernel,
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    check_shapes(a.len(), m, k, b.len(), n, out.len());
    debug_assert!(
        out.iter().all(|&v| v == 0.0),
        "matmul kernel: out must be zeroed on entry"
    );
    match kernel {
        MatmulKernel::Scalar => scalar_f64(a, m, k, b, n, out),
        MatmulKernel::Portable => portable_f64(a, m, k, b, n, out),
        MatmulKernel::Avx2 => {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            if avx2_available() {
                // SAFETY: shapes were checked above and AVX2+FMA are
                // present on this CPU.
                unsafe { x86::matmul_f64_avx2(a, m, k, b, n, out) };
                return;
            }
            portable_f64(a, m, k, b, n, out)
        }
    }
}

/// Training-side `aᵀ (rows×a_cols)ᵀ · b (rows×b_cols)` accumulating into
/// `out (a_cols×b_cols)`, with the per-element `a == 0.0` skip *kept*: the
/// design matrices flowing through backprop (`Xᵀ·dZ` on one-hot-ish node
/// encodings) are genuinely sparse, so the branch wins there. One shared
/// implementation serves every kernel choice, so this product does not
/// depend on `QCFE_KERNEL`; the training forward does (see the module
/// docs).
pub fn t_matmul_sparse(
    a: &[f64],
    rows: usize,
    a_cols: usize,
    b: &[f64],
    b_cols: usize,
    out: &mut [f64],
) {
    assert_eq!(a.len(), rows * a_cols, "t_matmul kernel: a shape");
    assert_eq!(b.len(), rows * b_cols, "t_matmul kernel: b shape");
    assert_eq!(out.len(), a_cols * b_cols, "t_matmul kernel: out shape");
    for r in 0..rows {
        let a_row = &a[r * a_cols..(r + 1) * a_cols];
        let b_row = &b[r * b_cols..(r + 1) * b_cols];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[i * b_cols..(i + 1) * b_cols];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// The ground-truth i-k-j loop (dense: no zero skip).
fn scalar_f64(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// k-unrolled portable kernel. Per output element the four products are
/// added left-associatively, which is the exact same addition sequence as
/// four scalar `+=` steps — bit-identical to [`scalar_f64`], but with 4×
/// fewer passes over the output row and an inner loop the autovectoriser
/// can chew on.
fn portable_f64(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut p = 0;
        while p + 4 <= k {
            let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
            let b0 = &b[p * n..(p + 1) * n];
            let b1 = &b[(p + 1) * n..(p + 2) * n];
            let b2 = &b[(p + 2) * n..(p + 3) * n];
            let b3 = &b[(p + 3) * n..(p + 4) * n];
            for j in 0..n {
                out_row[j] = out_row[j] + a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
            p += 4;
        }
        while p < k {
            let av = a_row[p];
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
            p += 1;
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    //! The AVX2+FMA microkernel.
    //!
    //! Shape: 4-row × 4-lane register blocks, `k` innermost. Each row of a
    //! block owns a private `__m256d` accumulator, so the per-row operation
    //! sequence — and therefore the result bits — is identical whether the
    //! row is computed in a 4-row block, the 1-row remainder loop, or a
    //! batch of one (the batch-invariance the estimators' bit-identity
    //! tests rely on). Columns beyond the last full 4-lane chunk run the
    //! scalar accumulation order.

    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    const LANES: usize = 4;

    /// # Safety
    /// Caller must ensure AVX2+FMA are available and that
    /// `a.len() == m*k`, `b.len() == k*n`, `out.len() == m*n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_f64_avx2(
        a: &[f64],
        m: usize,
        k: usize,
        b: &[f64],
        n: usize,
        out: &mut [f64],
    ) {
        let nv = n / LANES * LANES;
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= m {
            let a0 = &a[i * k..(i + 1) * k];
            let a1 = &a[(i + 1) * k..(i + 2) * k];
            let a2 = &a[(i + 2) * k..(i + 3) * k];
            let a3 = &a[(i + 3) * k..(i + 4) * k];
            let mut j = 0;
            while j < nv {
                let mut acc0 = _mm256_setzero_pd();
                let mut acc1 = _mm256_setzero_pd();
                let mut acc2 = _mm256_setzero_pd();
                let mut acc3 = _mm256_setzero_pd();
                for p in 0..k {
                    let bv = _mm256_loadu_pd(bp.add(p * n + j));
                    acc0 = _mm256_fmadd_pd(_mm256_set1_pd(*a0.get_unchecked(p)), bv, acc0);
                    acc1 = _mm256_fmadd_pd(_mm256_set1_pd(*a1.get_unchecked(p)), bv, acc1);
                    acc2 = _mm256_fmadd_pd(_mm256_set1_pd(*a2.get_unchecked(p)), bv, acc2);
                    acc3 = _mm256_fmadd_pd(_mm256_set1_pd(*a3.get_unchecked(p)), bv, acc3);
                }
                _mm256_storeu_pd(op.add(i * n + j), acc0);
                _mm256_storeu_pd(op.add((i + 1) * n + j), acc1);
                _mm256_storeu_pd(op.add((i + 2) * n + j), acc2);
                _mm256_storeu_pd(op.add((i + 3) * n + j), acc3);
                j += LANES;
            }
            if nv < n {
                scalar_cols_f64(a0, k, b, n, nv, &mut out[i * n..(i + 1) * n]);
                scalar_cols_f64(a1, k, b, n, nv, &mut out[(i + 1) * n..(i + 2) * n]);
                scalar_cols_f64(a2, k, b, n, nv, &mut out[(i + 2) * n..(i + 3) * n]);
                scalar_cols_f64(a3, k, b, n, nv, &mut out[(i + 3) * n..(i + 4) * n]);
            }
            i += 4;
        }
        while i < m {
            let a0 = &a[i * k..(i + 1) * k];
            let mut j = 0;
            while j < nv {
                let mut acc0 = _mm256_setzero_pd();
                for p in 0..k {
                    let bv = _mm256_loadu_pd(bp.add(p * n + j));
                    acc0 = _mm256_fmadd_pd(_mm256_set1_pd(*a0.get_unchecked(p)), bv, acc0);
                }
                _mm256_storeu_pd(op.add(i * n + j), acc0);
                j += LANES;
            }
            if nv < n {
                scalar_cols_f64(a0, k, b, n, nv, &mut out[i * n..(i + 1) * n]);
            }
            i += 1;
        }
    }

    /// Tail columns `nv..n` of one output row, scalar accumulation order.
    #[inline]
    fn scalar_cols_f64(
        a_row: &[f64],
        k: usize,
        b: &[f64],
        n: usize,
        nv: usize,
        out_row: &mut [f64],
    ) {
        for j in nv..n {
            let mut acc = 0.0;
            for (p, &av) in a_row.iter().enumerate().take(k) {
                acc += av * b[p * n + j];
            }
            out_row[j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn random_f64(rng: &mut rand::rngs::StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    #[test]
    fn kernel_names_roundtrip() {
        for kernel in MatmulKernel::ALL {
            assert_eq!(MatmulKernel::from_name(kernel.name()), Some(kernel));
        }
        assert_eq!(MatmulKernel::from_name(" AVX2 "), Some(MatmulKernel::Avx2));
        assert_eq!(MatmulKernel::from_name("sse"), None);
        assert!(MatmulKernel::Scalar.is_supported());
        assert!(MatmulKernel::Portable.is_supported());
    }

    #[test]
    fn force_kernel_round_trips_and_rejects_unsupported() {
        // Portable is always supported; forcing and clearing must stick.
        assert!(force_kernel(Some(MatmulKernel::Portable)));
        assert_eq!(active_kernel(), MatmulKernel::Portable);
        assert!(force_kernel(None));
        if !MatmulKernel::Avx2.is_supported() {
            assert!(!force_kernel(Some(MatmulKernel::Avx2)));
        }
    }

    #[test]
    fn portable_is_bit_identical_to_scalar() {
        let mut r = rng(0xBEEF);
        for _ in 0..200 {
            let m = r.gen_range(1usize..9);
            let k = r.gen_range(1usize..17);
            let n = r.gen_range(1usize..13);
            let a = random_f64(&mut r, m * k);
            let b = random_f64(&mut r, k * n);
            let mut scalar = vec![0.0; m * n];
            let mut portable = vec![0.0; m * n];
            matmul_f64_with(MatmulKernel::Scalar, &a, m, k, &b, n, &mut scalar);
            matmul_f64_with(MatmulKernel::Portable, &a, m, k, &b, n, &mut portable);
            for (s, p) in scalar.iter().zip(&portable) {
                assert_eq!(s.to_bits(), p.to_bits());
            }
        }
    }

    #[test]
    fn avx2_agrees_with_scalar_within_tolerance() {
        if !MatmulKernel::Avx2.is_supported() {
            return;
        }
        let mut r = rng(0xCAFE);
        for _ in 0..200 {
            let m = r.gen_range(1usize..9);
            let k = r.gen_range(1usize..17);
            let n = r.gen_range(1usize..13);
            let a = random_f64(&mut r, m * k);
            let b = random_f64(&mut r, k * n);
            let mut scalar = vec![0.0; m * n];
            let mut avx2 = vec![0.0; m * n];
            matmul_f64_with(MatmulKernel::Scalar, &a, m, k, &b, n, &mut scalar);
            matmul_f64_with(MatmulKernel::Avx2, &a, m, k, &b, n, &mut avx2);
            for (s, v) in scalar.iter().zip(&avx2) {
                let tol = 1e-12 * s.abs().max(1.0);
                assert!((s - v).abs() <= tol, "scalar {s} vs avx2 {v}");
            }
        }
    }

    #[test]
    fn avx2_rows_are_batch_invariant() {
        // Row i of a tall product must be bit-identical to a 1-row product
        // of the same row — the property batched-vs-scalar estimator
        // equality rests on.
        if !MatmulKernel::Avx2.is_supported() {
            return;
        }
        let mut r = rng(0xF00D);
        let (m, k, n) = (9usize, 11usize, 7usize);
        let a = random_f64(&mut r, m * k);
        let b = random_f64(&mut r, k * n);
        let mut batched = vec![0.0; m * n];
        matmul_f64_with(MatmulKernel::Avx2, &a, m, k, &b, n, &mut batched);
        for i in 0..m {
            let mut single = vec![0.0; n];
            matmul_f64_with(
                MatmulKernel::Avx2,
                &a[i * k..(i + 1) * k],
                1,
                k,
                &b,
                n,
                &mut single,
            );
            for (x, y) in batched[i * n..(i + 1) * n].iter().zip(&single) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn t_matmul_sparse_matches_dense_transpose_product() {
        let mut r = rng(0xACED);
        for _ in 0..50 {
            let rows = r.gen_range(1usize..8);
            let a_cols = r.gen_range(1usize..8);
            let b_cols = r.gen_range(1usize..8);
            // Half the entries exactly zero: the skip path must not change
            // results.
            let a: Vec<f64> = (0..rows * a_cols)
                .map(|_| {
                    if r.gen_range(0.0..1.0) < 0.5 {
                        0.0
                    } else {
                        r.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            let b = random_f64(&mut r, rows * b_cols);
            let mut sparse = vec![0.0; a_cols * b_cols];
            t_matmul_sparse(&a, rows, a_cols, &b, b_cols, &mut sparse);
            // Dense reference: transpose then scalar matmul.
            let mut at = vec![0.0; a_cols * rows];
            for rr in 0..rows {
                for cc in 0..a_cols {
                    at[cc * rows + rr] = a[rr * a_cols + cc];
                }
            }
            let mut dense = vec![0.0; a_cols * b_cols];
            matmul_f64_with(
                MatmulKernel::Scalar,
                &at,
                a_cols,
                rows,
                &b,
                b_cols,
                &mut dense,
            );
            for (s, d) in sparse.iter().zip(&dense) {
                assert!((s - d).abs() <= 1e-12 * d.abs().max(1.0));
            }
        }
    }
}
