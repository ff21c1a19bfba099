//! Property-style tests over the core invariants of the reproduction.
//!
//! The original proptest harness is unavailable offline, so each property is
//! checked over a seeded random sample of its input domain (64 cases per
//! property, mirroring the old `ProptestConfig::with_cases(64)`).

use qcfe::core::cost_model::{CostModel, PlanEncoding};
use qcfe::core::encoding::FeatureEncoder;
use qcfe::core::estimators::{QppNetEstimator, MAX_CHILDREN};
use qcfe::core::metrics::{pearson, percentile, q_error, q_errors};
use qcfe::core::pipeline::{prepare_context, ContextConfig};
use qcfe::core::reduction::diffprop_reduction;
use qcfe::core::snapshot::{FeatureSnapshot, OperatorSample};
use qcfe::db::data::ColumnVector;
use qcfe::db::expr::{ColumnRef, CompareOp, Predicate};
use qcfe::db::plan::{OperatorKind, PhysicalOp, PlanNode};
use qcfe::db::stats::ColumnStats;
use qcfe::db::types::Value;
use qcfe::nn::codec::{
    WeightsCodecError, FRAME_HEADER_LEN, WEIGHTS_CODEC_MIN_VERSION, WEIGHTS_CODEC_VERSION,
};
use qcfe::nn::{
    least_squares, solve_linear_system, Activation, Dataset, LinAlgError, Loss, Matrix, Mlp,
    MlpCache, Optimizer, TrainConfig,
};
use qcfe::workloads::BenchmarkKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

const CASES: usize = 64;

/// The `QCFW` weight-codec properties run many more cases: the acceptance
/// bar for model persistence is "any shape, any activation, bit-exact".
const QCFW_CASES: usize = 1000;

/// Q-error is symmetric, at least 1, and 1 exactly for perfect predictions.
#[test]
fn q_error_properties() {
    let mut rng = StdRng::seed_from_u64(0xA0);
    for _ in 0..CASES {
        let actual = rng.gen_range(0.001f64..1e6);
        let predicted = rng.gen_range(0.001f64..1e6);
        let q = q_error(actual, predicted);
        assert!(q >= 1.0 - 1e-12);
        assert!((q - q_error(predicted, actual)).abs() < 1e-9);
        assert!((q_error(actual, actual) - 1.0).abs() < 1e-12);
    }
}

/// Pearson correlation is bounded by [-1, 1] and invariant to affine
/// rescaling of the predictions.
#[test]
fn pearson_bounds_and_affine_invariance() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let n = rng.gen_range(3usize..40);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1f64..1e4)).collect();
        let noisy: Vec<f64> = values
            .iter()
            .enumerate()
            .map(|(i, v)| v * (1.0 + 0.01 * (i % 5) as f64))
            .collect();
        let r = pearson(&values, &noisy);
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        let rescaled: Vec<f64> = noisy.iter().map(|v| 3.0 * v + 10.0).collect();
        assert!((pearson(&values, &noisy) - pearson(&values, &rescaled)).abs() < 1e-9);
    }
}

/// Percentiles are monotone in p and bounded by the extremes.
#[test]
fn percentile_monotone() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..60);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0f64..1e5)).collect();
        let p25 = percentile(&values, 25.0);
        let p50 = percentile(&values, 50.0);
        let p95 = percentile(&values, 95.0);
        assert!(p25 <= p50 + 1e-9);
        assert!(p50 <= p95 + 1e-9);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(p25 >= min - 1e-9 && p95 <= max + 1e-9);
    }
}

/// Mean q-error of identical vectors is exactly 1.
#[test]
fn identical_predictions_have_unit_q_error() {
    let mut rng = StdRng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..50);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01f64..1e4)).collect();
        let qs = q_errors(&values, &values);
        assert!(qs.iter().all(|q| (q - 1.0).abs() < 1e-9));
    }
}

/// The feature snapshot recovers linear coefficients from noise-free
/// operator samples for any positive slope/intercept.
#[test]
fn snapshot_recovers_linear_coefficients() {
    let mut rng = StdRng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let c0 = rng.gen_range(0.0001f64..0.1);
        let c1 = rng.gen_range(0.0f64..10.0);
        let samples: Vec<OperatorSample> = (1..=40)
            .map(|i| {
                let n = (i * 25) as f64;
                OperatorSample {
                    kind: OperatorKind::SeqScan,
                    n1: n,
                    n2: 0.0,
                    self_ms: c0 * n + c1,
                }
            })
            .collect();
        let snap = FeatureSnapshot::fit(&samples);
        let c = snap.coefficients(OperatorKind::SeqScan);
        assert!(
            (c[0] - c0).abs() < 1e-6 * (1.0 + c0),
            "c0 {} vs {}",
            c[0],
            c0
        );
        assert!(
            (c[1] - c1).abs() < 1e-4 * (1.0 + c1),
            "c1 {} vs {}",
            c[1],
            c1
        );
    }
}

/// Draw a random fitted snapshot: 1–4 operator kinds, each with 4–40
/// samples following that operator's formula shape at random coefficients
/// (plus deterministic per-sample jitter so least squares has real work).
fn random_snapshot_samples(rng: &mut StdRng) -> Vec<OperatorSample> {
    let kind_count = rng.gen_range(1usize..=4);
    let mut samples = Vec::new();
    for _ in 0..kind_count {
        let kind = OperatorKind::ALL[rng.gen_range(0..OperatorKind::ALL.len())];
        let c0 = rng.gen_range(0.0001f64..0.05);
        let c1 = rng.gen_range(0.0f64..5.0);
        let count = rng.gen_range(4usize..=40);
        for i in 1..=count {
            let n1 = (i * rng.gen_range(5usize..50)) as f64;
            let n2 = if kind == OperatorKind::NestedLoop {
                (i * 7) as f64
            } else {
                0.0
            };
            let jitter = 1.0 + 0.01 * ((i % 7) as f64 - 3.0);
            samples.push(OperatorSample {
                kind,
                n1,
                n2,
                self_ms: (c0 * (n1 + n2) + c1) * jitter,
            });
        }
    }
    samples
}

/// Satellite acceptance (≥1000 seeded cases): `FeatureSnapshot` under
/// refinement — `fit(samples)` → `to_bytes` → `from_bytes` is bit-identical
/// (including the refined provenance bit), and refitting a snapshot on the
/// very samples it was fitted from is idempotent on the coefficients.
#[test]
fn snapshot_refit_and_codec_properties() {
    let mut rng = StdRng::seed_from_u64(0x05AF_EF17);
    for case in 0..QCFW_CASES {
        let samples = random_snapshot_samples(&mut rng);
        let mut snap = FeatureSnapshot::fit(&samples);
        snap.collection_cost_ms = rng.gen_range(0.0f64..1e6);

        // Codec round-trip: bit-identical, coefficient by coefficient.
        let back = FeatureSnapshot::from_bytes(&snap.to_bytes())
            .unwrap_or_else(|e| panic!("case {case}: valid buffer rejected: {e}"));
        assert_eq!(back, snap, "case {case}");
        assert!(!back.refined, "case {case}: fit output is unrefined");
        for (kind, coeffs) in snap.entries() {
            for (a, b) in coeffs.iter().zip(back.coefficients(kind).iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}: {kind:?} bits");
            }
        }

        // Refit idempotence: refitting on the fitting set keeps every
        // coefficient bit-stable and only flips the provenance bit — and
        // that bit survives its own codec round-trip.
        let refit = snap.refit_with(&samples);
        assert!(refit.refined, "case {case}");
        assert_eq!(refit.collection_cost_ms, snap.collection_cost_ms);
        assert_eq!(refit.entries().len(), snap.entries().len(), "case {case}");
        for (kind, coeffs) in snap.entries() {
            for (a, b) in coeffs.iter().zip(refit.coefficients(kind).iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}: {kind:?} refit");
            }
        }
        let refit_back = FeatureSnapshot::from_bytes(&refit.to_bytes())
            .unwrap_or_else(|e| panic!("case {case}: refit buffer rejected: {e}"));
        assert!(refit_back.refined, "case {case}: refined bit must persist");
        assert_eq!(refit_back, refit, "case {case}");
    }
}

/// The dense oracle for [`FeatureSnapshot::fit`], built the way the fit
/// was before it streamed: group the samples per operator in sample order,
/// materialise each group's design matrix (Table I's formula, truncated to
/// its arity) and call `least_squares` on it. Undersampled groups and
/// failed solves give zeros. Also reports the kinds whose plain normal
/// matrix was singular, so `least_squares` took its ridge fallback.
type DenseFit = (Vec<(OperatorKind, [f64; 4])>, Vec<OperatorKind>);

fn dense_snapshot_oracle(samples: &[OperatorSample]) -> DenseFit {
    let mut ridge_fallbacks = Vec::new();
    let mut fitted = Vec::new();
    for kind in OperatorKind::ALL {
        let group: Vec<&OperatorSample> = samples.iter().filter(|s| s.kind == kind).collect();
        if group.is_empty() {
            continue;
        }
        let rows: Vec<Vec<f64>> = group
            .iter()
            .map(|s| match kind {
                OperatorKind::Sort => {
                    let n = s.n1.max(0.0);
                    vec![n * (n + 1.0).log2(), 1.0]
                }
                OperatorKind::NestedLoop => vec![s.n1 * s.n2, s.n1, s.n2, 1.0],
                _ => vec![s.n1 + s.n2, 1.0],
            })
            .collect();
        let arity = rows[0].len();
        let mut packed = [0.0; 4];
        if group.len() >= arity {
            let x = Matrix::from_rows(&rows);
            let y: Vec<f64> = group.iter().map(|s| s.self_ms).collect();
            let xty: Vec<f64> = (0..arity)
                .map(|c| (0..x.rows()).fold(0.0, |acc, r| acc + x.get(r, c) * y[r]))
                .collect();
            if solve_linear_system(&x.t_matmul(&x), &xty) == Err(LinAlgError::SingularMatrix) {
                ridge_fallbacks.push(kind);
            }
            if let Ok(beta) = least_squares(&x, &y) {
                packed[..arity].copy_from_slice(&beta);
            }
        }
        fitted.push((kind, packed));
    }
    (fitted, ridge_fallbacks)
}

/// One seeded feedback-style window for the streamed-fit oracle: every
/// operator kind, interleaved, with 0–60 samples each (so some kinds have
/// fewer samples than their formula's arity), cardinalities that are
/// sometimes 0 (so design entries hit `t_matmul_sparse`'s zero skip), and,
/// when `collinear`, a Nested Loop group whose inner cardinality never
/// varies, which makes its normal matrix singular.
fn random_fit_window(rng: &mut StdRng, collinear: bool) -> Vec<OperatorSample> {
    let mut samples = Vec::new();
    for kind in OperatorKind::ALL {
        let count = match rng.gen_range(0usize..6) {
            0 => 0,
            1 => rng.gen_range(1usize..4),
            _ => rng.gen_range(4usize..=60),
        };
        let fixed_inner = rng.gen_range(1.0f64..50.0).round();
        for _ in 0..count {
            let cardinality = |rng: &mut StdRng| {
                if rng.gen_bool(0.15) {
                    0.0
                } else {
                    rng.gen_range(1.0f64..1e5).round()
                }
            };
            let n1 = cardinality(rng);
            let n2 = match kind {
                OperatorKind::NestedLoop if collinear => fixed_inner,
                OperatorKind::NestedLoop | OperatorKind::HashJoin | OperatorKind::MergeJoin => {
                    cardinality(rng)
                }
                _ => 0.0,
            };
            samples.push(OperatorSample {
                kind,
                n1,
                n2,
                self_ms: rng.gen_range(0.001f64..500.0),
            });
        }
    }
    // Interleave the kinds, as a feedback window does.
    for i in (1..samples.len()).rev() {
        samples.swap(i, rng.gen_range(0..=i));
    }
    samples
}

/// The streamed one-pass `FeatureSnapshot::fit` equals the dense per-kind
/// `least_squares(&Matrix::from_rows(..))` oracle bit for bit on seeded
/// windows covering all nine operator kinds, Sort and Nested Loop rows,
/// undersampled kinds (zeroed), zero design entries and collinear Nested
/// Loop windows that force the ridge fallback. `refit_with` keeps the
/// previous coefficients of every kind the window leaves uncovered or
/// undersampled.
#[test]
fn streamed_snapshot_fit_matches_the_dense_least_squares_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x0F17_B175);
    let (mut kinds_fitted, mut kinds_zeroed, mut zero_entries, mut nested_loop_fallbacks) =
        ([0usize; 9], [0usize; 9], 0usize, 0usize);
    let warm = FeatureSnapshot::fit(&random_fit_window(&mut rng, false));
    for case in 0..256 {
        let window = random_fit_window(&mut rng, case % 4 == 3);
        zero_entries += window
            .iter()
            .filter(|s| s.n1 == 0.0 || (s.kind == OperatorKind::NestedLoop && s.n2 == 0.0))
            .count();
        let (oracle, ridge_fallbacks) = dense_snapshot_oracle(&window);
        nested_loop_fallbacks += usize::from(ridge_fallbacks.contains(&OperatorKind::NestedLoop));
        let snap = FeatureSnapshot::fit(&window);
        let entries = snap.entries();
        assert_eq!(
            entries.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            oracle.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            "case {case}: covered kinds"
        );
        for ((kind, streamed), (_, dense)) in entries.iter().zip(&oracle) {
            let bits = |c: &[f64; 4]| c.map(f64::to_bits);
            assert_eq!(bits(streamed), bits(dense), "case {case}: {kind:?}");
            if *dense == [0.0; 4] {
                kinds_zeroed[kind.index()] += 1;
            } else {
                kinds_fitted[kind.index()] += 1;
            }
        }

        let refit = warm.refit_with(&window);
        for kind in OperatorKind::ALL {
            let fitted = oracle.iter().find(|(k, _)| *k == kind).map(|(_, c)| *c);
            let expected = match fitted {
                Some(c) if c != [0.0; 4] => c,
                _ => warm.coefficients(kind),
            };
            assert_eq!(
                refit.coefficients(kind).map(f64::to_bits),
                expected.map(f64::to_bits),
                "case {case}: refit {kind:?}"
            );
        }
    }
    for kind in OperatorKind::ALL {
        let i = kind.index();
        assert!(kinds_fitted[i] > 0, "{kind:?} never fitted");
        assert!(kinds_zeroed[i] > 0, "{kind:?} never undersampled");
    }
    assert!(zero_entries > 0, "no zero design entries drawn");
    assert!(
        nested_loop_fallbacks > 0,
        "no Nested Loop window forced the ridge fallback"
    );
}

/// Build a random small network: 1–3 hidden layers, dims 1–10, random
/// hidden and output activations drawn from the full supported set.
fn random_mlp(rng: &mut StdRng) -> Mlp {
    let layer_count = rng.gen_range(2usize..=4);
    let sizes: Vec<usize> = (0..=layer_count)
        .map(|_| rng.gen_range(1usize..=10))
        .collect();
    let hidden = Activation::ALL[rng.gen_range(0..Activation::ALL.len())];
    let output = Activation::ALL[rng.gen_range(0..Activation::ALL.len())];
    Mlp::with_output_activation(&sizes, hidden, output, rng)
}

/// The `QCFW` codec round-trips random `Mlp` shapes and activations
/// bit-identically: every weight, bias, dimension and activation — and
/// therefore every prediction — survives persistence exactly.
#[test]
fn qcfw_roundtrip_is_bit_identical_for_random_mlps() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for case in 0..QCFW_CASES {
        let mlp = random_mlp(&mut rng);
        let bytes = mlp.to_weight_bytes();
        let back = Mlp::from_weight_bytes(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: valid buffer rejected: {e}"));
        assert_eq!(back.layer_count(), mlp.layer_count(), "case {case}");
        for (la, lb) in mlp.layers().iter().zip(back.layers()) {
            assert_eq!(la.input_dim(), lb.input_dim(), "case {case}");
            assert_eq!(la.output_dim(), lb.output_dim(), "case {case}");
            assert_eq!(la.activation(), lb.activation(), "case {case}");
            for (wa, wb) in la.weights().as_slice().iter().zip(lb.weights().as_slice()) {
                assert_eq!(wa.to_bits(), wb.to_bits(), "case {case}: weight bits");
            }
            for (ba, bb) in la.biases().iter().zip(lb.biases()) {
                assert_eq!(ba.to_bits(), bb.to_bits(), "case {case}: bias bits");
            }
        }
        let input: Vec<f64> = (0..mlp.input_dim())
            .map(|_| rng.gen_range(-3.0f64..3.0))
            .collect();
        assert_eq!(
            mlp.predict_one(&input).to_bits(),
            back.predict_one(&input).to_bits(),
            "case {case}: prediction must be bit-identical"
        );
        // Serialization is deterministic: same network, same bytes.
        assert_eq!(back.to_weight_bytes(), bytes, "case {case}");
    }
}

/// `QCFW` decode rejects truncation, flipped magic, unknown versions and
/// arbitrary single-byte corruption with *typed* errors — never a panic,
/// never silently different weights. Every supported version decodes the
/// same frame to the same weights.
#[test]
fn qcfw_decode_rejects_corruption_with_typed_errors() {
    // The version-field offsets below rely on this header layout.
    assert_eq!(FRAME_HEADER_LEN, 21, "frame header layout changed");
    let supported = WEIGHTS_CODEC_MIN_VERSION..=WEIGHTS_CODEC_VERSION;
    let mut rng = StdRng::seed_from_u64(0xBAD5EED);
    for case in 0..QCFW_CASES {
        let mlp = random_mlp(&mut rng);
        let bytes = mlp.to_weight_bytes();
        match case % 4 {
            0 => {
                // Truncation at every kind of boundary.
                let cut = rng.gen_range(0..bytes.len());
                let err = Mlp::from_weight_bytes(&bytes[..cut])
                    .expect_err("truncated buffer must not decode");
                assert!(
                    matches!(
                        err,
                        WeightsCodecError::Truncated | WeightsCodecError::BadMagic
                    ),
                    "case {case}: cut {cut} gave {err:?}"
                );
            }
            1 => {
                // Flipped magic byte.
                let mut corrupt = bytes.clone();
                let index = rng.gen_range(0usize..4);
                corrupt[index] ^= 0xFF;
                assert_eq!(
                    Mlp::from_weight_bytes(&corrupt).expect_err("bad magic must not decode"),
                    WeightsCodecError::BadMagic,
                    "case {case}"
                );
            }
            2 => {
                // Unknown version: anything outside the supported range.
                let version = loop {
                    let v = rng.gen_range(0u32..=u32::MAX);
                    if !supported.contains(&v) {
                        break v;
                    }
                };
                let mut corrupt = bytes.clone();
                corrupt[4..8].copy_from_slice(&version.to_le_bytes());
                assert_eq!(
                    Mlp::from_weight_bytes(&corrupt).expect_err("unknown version must not decode"),
                    WeightsCodecError::UnsupportedVersion(version),
                    "case {case}"
                );
                // Every supported version (the CRC covers kind + payload,
                // not the version) decodes to bit-identical weights.
                for version in supported.clone() {
                    let mut older = bytes.clone();
                    older[4..8].copy_from_slice(&version.to_le_bytes());
                    let back = Mlp::from_weight_bytes(&older).unwrap_or_else(|e| {
                        panic!("case {case}: version {version} frame rejected: {e}")
                    });
                    assert_eq!(back.to_weight_bytes(), bytes, "case {case}: v{version}");
                }
            }
            _ => {
                // A single flipped byte anywhere in the frame: magic,
                // version, kind, length, CRC or payload — typed rejections
                // (the CRC catches everything the header validators
                // don't), with one exception: a version-field flip that
                // lands on another supported version decodes, and must
                // then yield bit-identical weights.
                let mut corrupt = bytes.clone();
                let index = rng.gen_range(0..corrupt.len());
                let mask = rng.gen_range(1u8..=255);
                corrupt[index] ^= mask;
                match Mlp::from_weight_bytes(&corrupt) {
                    // Any variant is acceptable; what matters is a typed
                    // error (and no panic). Exercise Display while at it.
                    Err(err) => assert!(!err.to_string().is_empty(), "case {case}"),
                    Ok(back) => {
                        assert!((4..8).contains(&index), "case {case}: flip at {index}");
                        let version = u32::from_le_bytes(corrupt[4..8].try_into().unwrap());
                        assert!(supported.contains(&version), "case {case}: v{version}");
                        assert_eq!(
                            back.to_weight_bytes(),
                            bytes,
                            "case {case}: flip at {index}"
                        );
                    }
                }
            }
        }
    }
}

/// Least squares reproduces exact solutions of well-conditioned systems.
#[test]
fn least_squares_exact_fit() {
    let mut rng = StdRng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let a = rng.gen_range(-5.0f64..5.0);
        let b = rng.gen_range(-5.0f64..5.0);
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, 1.0]).collect();
        let ys: Vec<f64> = (0..30).map(|i| a * i as f64 + b).collect();
        let beta = least_squares(&Matrix::from_rows(&xs), &ys).unwrap();
        assert!((beta[0] - a).abs() < 1e-6);
        assert!((beta[1] - b).abs() < 1e-6);
    }
}

/// Histogram selectivity estimates of uniform integer columns track the
/// true fraction within a loose tolerance.
#[test]
fn selectivity_tracks_truth_on_uniform_data() {
    let mut rng = StdRng::seed_from_u64(0xA6);
    let column = ColumnVector::Int((0..1000).collect());
    let stats = ColumnStats::analyze(&column);
    for _ in 0..CASES {
        let cutoff = rng.gen_range(50i64..950);
        let pred = Predicate::Compare {
            column: ColumnRef::new("t", "c"),
            op: CompareOp::Lt,
            value: Value::Int(cutoff),
        };
        let est = stats.selectivity(&pred);
        let truth = cutoff as f64 / 1000.0;
        assert!((est - truth).abs() < 0.08, "est {est} truth {truth}");
    }
}

/// Predicate evaluation agrees with selection-bitmap counting.
#[test]
fn bitmap_count_matches_direct_evaluation() {
    let mut rng = StdRng::seed_from_u64(0xA7);
    let column = ColumnVector::Int((0..100).collect());
    for _ in 0..CASES {
        let threshold = rng.gen_range(0i64..100);
        let pred = Predicate::Compare {
            column: ColumnRef::new("t", "c"),
            op: CompareOp::Ge,
            value: Value::Int(threshold),
        };
        let matches = column.evaluate(&pred).iter().filter(|b| **b).count() as i64;
        assert_eq!(matches, 100 - threshold);
    }
}

// ---------------------------------------------------------------------------
// Bit identity of the training workspace and of the DiffProp column scan
// ---------------------------------------------------------------------------

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

/// `a · bᵀ` as one dot product per output element, each summed from `0.0`
/// in increasing `p`: the `dZ·Wᵀ` arithmetic every input gradient must
/// reproduce.
fn dot_product_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0;
            for (x, y) in a.row(i).iter().zip(b.row(j)) {
                acc += x * y;
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// One layer of the allocating reference network below: its parameters,
/// accumulated gradients and Adam moments.
struct ReferenceLayer {
    weights: Matrix,
    biases: Vec<f64>,
    activation: Activation,
    grad_weights: Matrix,
    grad_biases: Vec<f64>,
    m_weights: Matrix,
    v_weights: Matrix,
    m_biases: Vec<f64>,
    v_biases: Vec<f64>,
}

impl ReferenceLayer {
    fn of(mlp: &Mlp) -> Vec<ReferenceLayer> {
        mlp.layers()
            .iter()
            .map(|l| {
                let (i, o) = l.weights().shape();
                ReferenceLayer {
                    weights: l.weights().clone(),
                    biases: l.biases().to_vec(),
                    activation: l.activation(),
                    grad_weights: Matrix::zeros(i, o),
                    grad_biases: vec![0.0; o],
                    m_weights: Matrix::zeros(i, o),
                    v_weights: Matrix::zeros(i, o),
                    m_biases: vec![0.0; o],
                    v_biases: vec![0.0; o],
                }
            })
            .collect()
    }

    /// The allocating training forward: `(pre, out)`.
    fn forward(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut pre = x.matmul(&self.weights);
        for r in 0..pre.rows() {
            for (v, b) in pre.row_mut(r).iter_mut().zip(&self.biases) {
                *v += *b;
            }
        }
        let mut out = pre.clone();
        for v in out.as_mut_slice() {
            *v = self.activation.apply(*v);
        }
        (pre, out)
    }

    /// The allocating backward: `dW += Xᵀ·dZ` as one `t_matmul` added
    /// whole, `db += colsum(dZ)`, and the full `dL/dX = dZ·Wᵀ`.
    fn backward(&mut self, x: &Matrix, pre: &Matrix, grad_out: &Matrix) -> Matrix {
        let mut grad_pre = grad_out.clone();
        for (g, z) in grad_pre.as_mut_slice().iter_mut().zip(pre.as_slice()) {
            *g *= self.activation.derivative(*z);
        }
        self.grad_weights.add_assign(&x.t_matmul(&grad_pre));
        let mut sums = vec![0.0; grad_pre.cols()];
        for r in 0..grad_pre.rows() {
            for (s, v) in sums.iter_mut().zip(grad_pre.row(r)) {
                *s += *v;
            }
        }
        for (gb, s) in self.grad_biases.iter_mut().zip(sums) {
            *gb += s;
        }
        dot_product_matmul_t(&grad_pre, &self.weights)
    }

    /// One Adam step (default betas) from a cloned gradient, then zeroed
    /// gradients.
    fn adam(&mut self, lr: f64, step: u64) {
        let (beta1, beta2, epsilon) = (0.9f64, 0.999f64, 1e-8);
        let t = step as f64;
        let (bc1, bc2) = (1.0 - beta1.powf(t), 1.0 - beta2.powf(t));
        let grad_w = self.grad_weights.clone();
        let grad_b = self.grad_biases.clone();
        let params = [
            (
                self.weights.as_mut_slice(),
                self.m_weights.as_mut_slice(),
                self.v_weights.as_mut_slice(),
                grad_w.as_slice(),
            ),
            (
                self.biases.as_mut_slice(),
                self.m_biases.as_mut_slice(),
                self.v_biases.as_mut_slice(),
                grad_b.as_slice(),
            ),
        ];
        for (w, m, v, g) in params {
            for ((mv, vv), gv) in m.iter_mut().zip(v.iter_mut()).zip(g) {
                *mv = beta1 * *mv + (1.0 - beta1) * *gv;
                *vv = beta2 * *vv + (1.0 - beta2) * *gv * *gv;
            }
            for ((wv, mv), vv) in w.iter_mut().zip(m.iter()).zip(v.iter()) {
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *wv -= lr * m_hat / (v_hat.sqrt() + epsilon);
            }
        }
        self.grad_weights = Matrix::zeros(self.weights.rows(), self.weights.cols());
        self.grad_biases = vec![0.0; self.biases.len()];
    }
}

/// The flat training loop as it ran before the reusable workspace: clone
/// the dataset, shuffle it through an index copy every epoch, cut batches,
/// run the allocating forward and backward down to the network input, and
/// take a cloning Adam step per batch. Returns the trained layers and the
/// epoch losses.
fn reference_train(
    mlp: &Mlp,
    data: &Dataset,
    cfg: &TrainConfig,
    lr: f64,
    rng: &mut StdRng,
) -> (Vec<ReferenceLayer>, Vec<f64>) {
    let mut layers = ReferenceLayer::of(mlp);
    let mut features = data.features().to_vec();
    let mut targets = data.targets().to_vec();
    let mut step = 0;
    let mut epoch_losses = Vec::new();
    for _ in 0..cfg.epochs {
        if cfg.shuffle {
            let mut indices: Vec<usize> = (0..features.len()).collect();
            indices.shuffle(rng);
            features = indices.iter().map(|&i| features[i].clone()).collect();
            targets = indices.iter().map(|&i| targets[i]).collect();
        }
        let (mut epoch_loss, mut batches) = (0.0, 0usize);
        let mut start = 0;
        while start < features.len() {
            let end = (start + cfg.batch_size).min(features.len());
            let x = Matrix::from_rows(&features[start..end]);
            let y = targets[start..end].to_vec();
            let mut inputs = vec![x];
            let mut pres = Vec::new();
            for layer in &layers {
                let (pre, out) = layer.forward(inputs.last().expect("input"));
                pres.push(pre);
                inputs.push(out);
            }
            let out = inputs.pop().expect("output");
            let preds: Vec<f64> = (0..out.rows()).map(|r| out.get(r, 0)).collect();
            epoch_loss += cfg.loss.value(&preds, &y);
            batches += 1;
            let mut grads = vec![0.0; preds.len()];
            cfg.loss.gradient_into(&preds, &y, &mut grads);
            let mut grad = Matrix::col_vector(&grads);
            for (idx, layer) in layers.iter_mut().enumerate().rev() {
                grad = layer.backward(&inputs[idx], &pres[idx], &grad);
            }
            step += 1;
            for layer in &mut layers {
                layer.adam(lr, step);
            }
            start = end;
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f64);
    }
    (layers, epoch_losses)
}

/// A design matrix with the column kinds training and reduction meet:
/// continuous, one-hot (mostly exact zeros), all-zero, all −0.0, mixed
/// ±0.0, and a non-zero constant. Targets are positive costs.
fn mixed_dataset(rng: &mut StdRng, rows: usize) -> Dataset {
    let xs: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            let hot = rng.gen_range(0..3usize);
            vec![
                rng.gen_range(-2.0f64..2.0),
                (hot == 0) as u8 as f64,
                0.0,
                (hot == 1) as u8 as f64,
                -0.0,
                if rng.gen_range(0.0f64..1.0) < 0.5 {
                    0.0
                } else {
                    -0.0
                },
                rng.gen_range(0.0f64..5.0),
                (hot == 2) as u8 as f64,
                0.75,
            ]
        })
        .collect();
    let ys = xs
        .iter()
        .map(|x| 1.0 + 3.0 * x[0].abs() + 2.0 * x[1] + x[6])
        .collect();
    Dataset::new(xs, ys).expect("non-empty rectangular dataset")
}

/// `Mlp::train` on its reusable workspace trains bit for bit what the
/// allocating loop it replaced trained: every weight, bias and epoch loss,
/// and the same random draws. Covers 2- and 3-layer nets, a ragged last
/// batch, a batch larger than the dataset, shuffle on and off, both losses,
/// and all-zero, −0.0 and mixed ±0.0 input columns.
#[test]
fn mlp_train_matches_the_allocating_training_loop_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x7EA1);
    let shapes: [&[usize]; 2] = [&[9, 16, 1], &[9, 8, 5, 1]];
    let mut case = 0;
    for shape in shapes {
        for (rows, batch_size) in [(37, 8), (20, 64), (32, 32)] {
            for shuffle in [true, false] {
                case += 1;
                let data = mixed_dataset(&mut rng, rows);
                let hidden = [Activation::Relu, Activation::Tanh][case % 2];
                let mlp = Mlp::new(shape, hidden, &mut rng);
                let lr = [0.01, 0.05][case % 2];
                let cfg = TrainConfig {
                    epochs: 4,
                    batch_size,
                    optimizer: Optimizer::adam(lr),
                    loss: [Loss::LogMse, Loss::Mse][(case / 2) % 2],
                    shuffle,
                };
                let seed = rng.next_u64();
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut trained = mlp.clone();
                let history = trained.train(&data, &cfg, &mut a);
                let (want, want_losses) = reference_train(&mlp, &data, &cfg, lr, &mut b);
                let what = format!("case {case} ({shape:?}, {rows} rows, batch {batch_size})");
                assert_bits_eq(
                    &history.epoch_losses,
                    &want_losses,
                    &format!("{what} losses"),
                );
                for (l, (got, want)) in trained.layers().iter().zip(&want).enumerate() {
                    let w = format!("{what} layer {l} weights");
                    assert_bits_eq(got.weights().as_slice(), want.weights.as_slice(), &w);
                    assert_bits_eq(
                        got.biases(),
                        &want.biases,
                        &format!("{what} layer {l} biases"),
                    );
                }
                assert_eq!(a.next_u64(), b.next_u64(), "{what}: random draws");
            }
        }
    }
}

/// `Mlp::backward_cached` accumulates parameter gradients over several
/// backward passes into one network exactly as the allocating
/// `t_matmul` + `add_assign` products did (QPPNet adds several buckets into
/// one unit per step), and the network-input gradient it computes for any
/// column range equals those columns of the full `dZ·Wᵀ`, bit for bit.
#[test]
fn backward_cached_matches_the_allocating_products_for_any_input_columns() {
    let mut rng = StdRng::seed_from_u64(0x7EA2);
    let mut cache = MlpCache::default();
    for case in 0..CASES {
        let mut mlp = random_mlp(&mut rng);
        let mut reference = ReferenceLayer::of(&mlp);
        let (in_dim, out_dim) = (mlp.input_dim(), mlp.output_dim());
        for pass in 0..rng.gen_range(1usize..=4) {
            let rows = rng.gen_range(1usize..=9);
            let x = Matrix::from_vec(
                rows,
                in_dim,
                (0..rows * in_dim)
                    .map(|_| {
                        if rng.gen_range(0.0f64..1.0) < 0.4 {
                            0.0
                        } else {
                            rng.gen_range(-2.0..2.0)
                        }
                    })
                    .collect(),
            );
            let seed: Vec<f64> = (0..rows * out_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let cols = match rng.gen_range(0..3) {
                0 => None,
                1 => Some(0..in_dim),
                _ => {
                    let start = rng.gen_range(0..in_dim);
                    Some(start..rng.gen_range(start..=in_dim))
                }
            };
            *cache.input_mut() = x.clone();
            mlp.forward_cached(&mut cache);
            cache
                .output_and_grad_mut()
                .1
                .as_mut_slice()
                .copy_from_slice(&seed);
            mlp.backward_cached(&mut cache, cols.clone());

            let mut inputs = vec![x];
            let mut pres = Vec::new();
            for layer in &reference {
                let (pre, out) = layer.forward(inputs.last().expect("input"));
                pres.push(pre);
                inputs.push(out);
            }
            let mut grad = Matrix::from_vec(rows, out_dim, seed);
            for (idx, layer) in reference.iter_mut().enumerate().rev() {
                grad = layer.backward(&inputs[idx], &pres[idx], &grad);
            }
            if let Some(cols) = cols {
                let got = cache.grad_input();
                assert_eq!(got.shape(), (rows, cols.len()), "case {case} pass {pass}");
                for r in 0..rows {
                    let what = format!("case {case} pass {pass} row {r} input gradient {cols:?}");
                    assert_bits_eq(got.row(r), &grad.row(r)[cols.clone()], &what);
                }
            }
        }
        for (l, (got, want)) in mlp.layers().iter().zip(&reference).enumerate() {
            let what = format!("case {case} layer {l}");
            assert_bits_eq(
                got.grad_weights().as_slice(),
                want.grad_weights.as_slice(),
                &what,
            );
            assert_bits_eq(got.grad_biases(), &want.grad_biases, &what);
        }
    }
}

/// Difference propagation as it ran before the column scan: every one of
/// the `dim` columns visited in every (point, reference) pair, each pair
/// adding to a score only where `|Δx| > 1e-12`. Returns `(scores, kept)`.
fn reference_diffprop(
    model: &Mlp,
    data: &Dataset,
    reference_count: usize,
    rng: &mut StdRng,
) -> (Vec<f64>, Vec<usize>) {
    let dim = data.dim();
    let reference = data.subsample(reference_count.max(1), rng);
    let d_out: Vec<f64> = data
        .features()
        .iter()
        .map(|x| model.predict_one(x))
        .collect();
    let d_hidden: Vec<Vec<f64>> = data
        .features()
        .iter()
        .map(|x| model.first_hidden_activations(x))
        .collect();
    let r_out: Vec<f64> = reference
        .features()
        .iter()
        .map(|x| model.predict_one(x))
        .collect();
    let r_hidden: Vec<Vec<f64>> = reference
        .features()
        .iter()
        .map(|x| model.first_hidden_activations(x))
        .collect();
    let mut scores = vec![0.0; dim];
    let mut pair_count = 0u64;
    for (i, xi) in data.features().iter().enumerate() {
        for (j, xj) in reference.features().iter().enumerate() {
            let delta_m = d_out[i] - r_out[j];
            let active_units = d_hidden[i]
                .iter()
                .zip(&r_hidden[j])
                .filter(|(a, b)| (*a - *b).abs() > 1e-12)
                .count() as f64;
            if active_units == 0.0 {
                pair_count += 1;
                continue;
            }
            for k in 0..dim {
                let dx = xi[k] - xj[k];
                if dx.abs() > 1e-12 {
                    scores[k] += (active_units * delta_m / dx).abs();
                }
            }
            pair_count += 1;
        }
    }
    for s in &mut scores {
        *s /= pair_count as f64;
    }
    let max_score = scores.iter().cloned().fold(0.0_f64, f64::max);
    let kept: Vec<usize> = (0..dim).filter(|&f| scores[f] > max_score * 1e-6).collect();
    let kept = if kept.is_empty() {
        (0..dim).collect()
    } else {
        kept
    };
    (scores, kept)
}

/// `diffprop_reduction`, which scans only the columns that vary, scores
/// and keeps bit for bit what the all-columns loop did, over constant,
/// all-zero, mixed ±0.0, sub-1e-12 and NaN columns, and over a dataset in
/// which no column varies at all.
#[test]
fn diffprop_column_scan_matches_the_all_columns_loop_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x7EA3);
    for case in 0..24 {
        let rows = rng.gen_range(1usize..=40);
        let all_constant = case == 0;
        let xs: Vec<Vec<f64>> = (0..rows)
            .map(|r| {
                let hot = rng.gen_range(0..3usize);
                if all_constant {
                    return vec![0.5, 0.0, -0.0, if r % 2 == 0 { 0.0 } else { -0.0 }];
                }
                vec![
                    rng.gen_range(-3.0f64..3.0),
                    (hot == 0) as u8 as f64,
                    2.5,
                    0.0,
                    if r % 3 == 0 { -0.0 } else { 0.0 },
                    // Varies, but never by more than 1e-12.
                    1.0 + (r % 4) as f64 * 2e-13,
                    // NaN in some rows, in every row, or nowhere.
                    match case % 3 {
                        0 if r % 5 == 0 => f64::NAN,
                        1 => f64::NAN,
                        _ => rng.gen_range(0.0f64..1.0),
                    },
                    (hot == 1) as u8 as f64,
                    if rng.gen_range(0.0f64..1.0) < 0.2 {
                        rng.gen_range(1.0f64..9.0)
                    } else {
                        0.0
                    },
                ]
            })
            .collect();
        let ys = (0..rows).map(|r| 1.0 + r as f64).collect();
        let data = Dataset::new(xs, ys).expect("non-empty rectangular dataset");
        let model = Mlp::new(
            &[data.dim(), rng.gen_range(1usize..=16), 1],
            Activation::Relu,
            &mut rng,
        );
        let reference_count = rng.gen_range(1usize..=rows + 3);
        let seed = rng.next_u64();
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let got = diffprop_reduction(&model, &data, reference_count, &mut a);
        let (scores, kept) = reference_diffprop(&model, &data, reference_count, &mut b);
        assert_bits_eq(&got.scores, &scores, &format!("case {case} scores"));
        assert_eq!(got.kept, kept, "case {case} kept");
        assert_eq!(a.next_u64(), b.next_u64(), "case {case}: random draws");
    }
}

/// A scan node with distinct estimates.
fn scan_node(table: &str, rows: f64) -> PlanNode {
    let mut node = PlanNode::new(
        PhysicalOp::SeqScan {
            table: table.into(),
        },
        Vec::new(),
    );
    node.est_rows = rows;
    node.est_cost = rows * 0.7 + 2.0;
    node.est_width = 24.0;
    node
}

/// Random batches of QPPNet encodings, each plan's taken either from a
/// cache made once or freshly encoded, predict every plan with the bits of
/// its scalar tree walk, whatever shares the batch: a plan repeated inside
/// the batch, one-node plans, and a node with one child more than a unit
/// reads. Units see random reduced masks, so the gather runs off the
/// identity path.
#[test]
fn qppnet_encoded_batches_match_the_scalar_walk_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x7EA4);
    let kind = BenchmarkKind::Sysbench;
    let ctx = prepare_context(
        kind,
        &ContextConfig {
            environments: 2,
            queries_per_env: 30,
            template_scale: 1,
            seed: 5,
            data_scale: kind.quick_scale(),
        },
    );
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let masks: HashMap<OperatorKind, Vec<usize>> = OperatorKind::ALL
        .iter()
        .map(|&op| {
            let mask = (0..encoder.node_dim())
                .filter(|_| rng.gen_bool(0.7))
                .collect();
            (op, mask)
        })
        .collect();
    let qpp = QppNetEstimator::new(encoder, Some(masks), &mut rng);

    let table = ctx.benchmark.catalog.table_names()[0].to_string();
    let children: Vec<PlanNode> = (0..=MAX_CHILDREN)
        .map(|i| scan_node(&table, 40.0 * (i + 1) as f64))
        .collect();
    let mut wide = PlanNode::new(
        PhysicalOp::Aggregate {
            group_by: Vec::new(),
            functions: Vec::new(),
        },
        children,
    );
    wide.est_rows = 3.0;
    wide.est_cost = 90.0;
    let mut plans: Vec<PlanNode> = ctx
        .workload
        .queries
        .iter()
        .map(|q| q.executed.root.clone())
        .collect();
    plans.push(scan_node(&table, 7.0));
    plans.push(scan_node(&table, 900.0));
    plans.push(wide);

    for snapshot in [None, ctx.snapshots_fso[0].as_ref()] {
        let cached: Vec<PlanEncoding> =
            plans.iter().map(|p| qpp.encode_plan(p, snapshot)).collect();
        let scalar: Vec<u64> = plans
            .iter()
            .map(|p| qpp.predict_scalar(p, snapshot).to_bits())
            .collect();
        for case in 0..CASES {
            let mut picks: Vec<usize> = (0..rng.gen_range(1..=24usize))
                .map(|_| rng.gen_range(0..plans.len()))
                .collect();
            // One plan twice in the batch, and every hand-built plan once
            // in a while.
            picks.push(picks[0]);
            if case % 4 == 0 {
                picks.extend(plans.len() - 3..plans.len());
            }
            picks.shuffle(&mut rng);
            let fresh: Vec<Option<PlanEncoding>> = picks
                .iter()
                .map(|&i| {
                    rng.gen_bool(0.5)
                        .then(|| qpp.encode_plan(&plans[i], snapshot))
                })
                .collect();
            let batch: Vec<&PlanEncoding> = picks
                .iter()
                .zip(&fresh)
                .map(|(&i, fresh)| fresh.as_ref().unwrap_or(&cached[i]))
                .collect();
            let got = qpp.predict_encoded(&batch);
            assert_eq!(got.len(), picks.len(), "case {case}");
            for (&i, g) in picks.iter().zip(&got) {
                assert_eq!(g.to_bits(), scalar[i], "case {case}: plan {i}");
            }
        }
    }
}
