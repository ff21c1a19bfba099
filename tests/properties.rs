//! Property-style tests over the core invariants of the reproduction.
//!
//! The original proptest harness is unavailable offline, so each property is
//! checked over a seeded random sample of its input domain (64 cases per
//! property, mirroring the old `ProptestConfig::with_cases(64)`).

use qcfe::core::metrics::{pearson, percentile, q_error, q_errors};
use qcfe::core::snapshot::{FeatureSnapshot, OperatorSample};
use qcfe::db::data::ColumnVector;
use qcfe::db::expr::{ColumnRef, CompareOp, Predicate};
use qcfe::db::plan::OperatorKind;
use qcfe::db::stats::ColumnStats;
use qcfe::db::types::Value;
use qcfe::nn::codec::{
    WeightsCodecError, FRAME_HEADER_LEN, WEIGHTS_CODEC_MIN_VERSION, WEIGHTS_CODEC_VERSION,
};
use qcfe::nn::{least_squares, solve_linear_system, Activation, LinAlgError, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// (including the refined provenance bit), refitting a snapshot on the very
/// samples it was fitted from is idempotent on the coefficients, and
/// `relative_difference` is symmetric, non-negative and exactly zero on
/// self.
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

        // relative_difference: zero on self (exactly), non-negative and
        // symmetric against an independently drawn snapshot.
        assert_eq!(snap.relative_difference(&snap), 0.0, "case {case}");
        let other = FeatureSnapshot::fit(&random_snapshot_samples(&mut rng));
        let ab = snap.relative_difference(&other);
        let ba = other.relative_difference(&snap);
        assert!(ab >= 0.0, "case {case}: negative difference {ab}");
        assert!(
            (ab - ba).abs() < 1e-12 * (1.0 + ab),
            "case {case}: asymmetric difference {ab} vs {ba}"
        );
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
