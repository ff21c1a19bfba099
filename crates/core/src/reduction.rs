//! Feature reduction (Section IV of the paper).
//!
//! Three methods are implemented against the same interface (a trained MLP
//! cost model plus its labeled operator dataset):
//!
//! * [`greedy_reduction`] — Algorithm 2: repeatedly drop the single feature
//!   whose removal lowers the mean q-error, until no drop helps (O(n²)
//!   model evaluations, and blind to feature co-relationships);
//! * [`gradient_reduction`] — the GD baseline: keep features whose average
//!   absolute input gradient is non-zero; suffers from one-hot dimensions
//!   and ReLU gradient vanishing exactly as the paper describes;
//! * [`diffprop_reduction`] — Algorithm 3 + Equation 1: the
//!   difference-propagation importance score computed against a sampled
//!   reference set, which handles discrete inputs and dead ReLUs.

use crate::metrics;
use qcfe_nn::{Dataset, Mlp};
use rand::Rng;
use std::time::Instant;

/// Which feature-reduction strategy to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ReductionMethod {
    /// Keep every feature.
    None,
    /// Approximate greedy search (Algorithm 2).
    Greedy,
    /// Gradient-based importance (the GD baseline).
    Gradient,
    /// Difference propagation (Algorithm 3, the paper's FR).
    DiffProp,
}

impl ReductionMethod {
    /// All methods, in the order used by the ablation figures.
    pub const ALL: [ReductionMethod; 4] = [
        ReductionMethod::None,
        ReductionMethod::Greedy,
        ReductionMethod::Gradient,
        ReductionMethod::DiffProp,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            ReductionMethod::None => "none",
            ReductionMethod::Greedy => "Greedy",
            ReductionMethod::Gradient => "GD",
            ReductionMethod::DiffProp => "FR",
        }
    }
}

/// Outcome of running one reduction method.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionOutcome {
    /// Indices of the features to keep, in ascending order.
    pub kept: Vec<usize>,
    /// Importance score per original feature (semantics depend on the
    /// method; for Greedy it is 1.0 for kept features and 0.0 for dropped).
    pub scores: Vec<f64>,
    /// Wall-clock runtime of the reduction, in milliseconds.
    pub runtime_ms: f64,
    /// Total number of original features.
    pub original_dim: usize,
}

impl ReductionOutcome {
    /// Fraction of features removed.
    pub fn reduction_ratio(&self) -> f64 {
        if self.original_dim == 0 {
            return 0.0;
        }
        1.0 - self.kept.len() as f64 / self.original_dim as f64
    }

    /// Number of features removed.
    pub fn removed_count(&self) -> usize {
        self.original_dim - self.kept.len()
    }
}

/// An outcome that keeps everything (the `None` method).
pub fn keep_all(dim: usize) -> ReductionOutcome {
    ReductionOutcome {
        kept: (0..dim).collect(),
        scores: vec![1.0; dim],
        runtime_ms: 0.0,
        original_dim: dim,
    }
}

/// Dispatch a reduction method.
pub fn reduce<R: Rng + ?Sized>(
    method: ReductionMethod,
    model: &Mlp,
    data: &Dataset,
    reference_count: usize,
    rng: &mut R,
) -> ReductionOutcome {
    match method {
        ReductionMethod::None => keep_all(data.dim()),
        ReductionMethod::Greedy => greedy_reduction(model, data),
        ReductionMethod::Gradient => gradient_reduction(model, data),
        ReductionMethod::DiffProp => diffprop_reduction(model, data, reference_count, rng),
    }
}

/// Mean q-error of the model on the dataset with the features listed in
/// `zeroed` masked to zero (the "D.X.reduce(f)" of Algorithm 2).
fn masked_q_error(model: &Mlp, data: &Dataset, zeroed: &[usize]) -> f64 {
    let mut qs = Vec::with_capacity(data.len());
    let mut buffer = vec![0.0; data.dim()];
    for (x, y) in data.features().iter().zip(data.targets()) {
        buffer.copy_from_slice(x);
        for &z in zeroed {
            buffer[z] = 0.0;
        }
        let pred = metrics::floor_ms(model.predict_one(&buffer));
        qs.push(metrics::q_error(*y, pred));
    }
    metrics::mean(&qs)
}

/// Algorithm 2: the approximate greedy feature reduction.
pub fn greedy_reduction(model: &Mlp, data: &Dataset) -> ReductionOutcome {
    let start = Instant::now();
    let dim = data.dim();
    let mut dropped: Vec<usize> = Vec::new();
    let mut best = masked_q_error(model, data, &dropped);

    loop {
        let mut best_candidate: Option<(usize, f64)> = None;
        for f in 0..dim {
            if dropped.contains(&f) {
                continue;
            }
            let mut trial = dropped.clone();
            trial.push(f);
            let q = masked_q_error(model, data, &trial);
            if q < best && best_candidate.map(|(_, bq)| q < bq).unwrap_or(true) {
                best_candidate = Some((f, q));
            }
        }
        match best_candidate {
            Some((f, q)) => {
                dropped.push(f);
                best = q;
            }
            None => break,
        }
    }

    let kept: Vec<usize> = (0..dim).filter(|f| !dropped.contains(f)).collect();
    let scores = (0..dim)
        .map(|f| if dropped.contains(&f) { 0.0 } else { 1.0 })
        .collect();
    ReductionOutcome {
        kept,
        scores,
        runtime_ms: start.elapsed().as_secs_f64() * 1000.0,
        original_dim: dim,
    }
}

/// The gradient (GD) baseline: average absolute input gradient per feature.
pub fn gradient_reduction(model: &Mlp, data: &Dataset) -> ReductionOutcome {
    let start = Instant::now();
    let dim = data.dim();
    let mut scores = vec![0.0; dim];
    for x in data.features() {
        let g = model.input_gradient(x);
        for (s, gi) in scores.iter_mut().zip(&g) {
            *s += gi.abs();
        }
    }
    let n = data.len().max(1) as f64;
    for s in &mut scores {
        *s /= n;
    }
    let max_score = scores.iter().cloned().fold(0.0_f64, f64::max);
    let threshold = max_score * 1e-6;
    let kept: Vec<usize> = (0..dim).filter(|&f| scores[f] > threshold).collect();
    let kept = if kept.is_empty() {
        (0..dim).collect()
    } else {
        kept
    };
    ReductionOutcome {
        kept,
        scores,
        runtime_ms: start.elapsed().as_secs_f64() * 1000.0,
        original_dim: dim,
    }
}

/// Algorithm 3: difference-propagation feature reduction.
///
/// For each labelled point `x_i` and reference point `x_j`, Equation 1
/// scores dimension `k` as the summed per-hidden-unit product
/// `(ΔM/Δh) · (Δh/Δx_k)`; units whose activation does not change contribute
/// nothing (which is what rescues dead-ReLU and one-hot dimensions). The
/// expectation over pairs is the importance score, and features with a
/// (relatively) non-zero score are kept.
///
/// A pair adds to feature `k` only where `|Δx_k| > 1e-12`, so a column
/// with one value in every row of the data and reference sets (an unused
/// one-hot slot, say) has `Δx_k = 0` in every pair and never scores: its
/// score is `0.0`, and it is dropped unless nothing scores at all. Only the
/// columns that vary are scanned, on compact copies of the rows.
pub fn diffprop_reduction<R: Rng + ?Sized>(
    model: &Mlp,
    data: &Dataset,
    reference_count: usize,
    rng: &mut R,
) -> ReductionOutcome {
    let start = Instant::now();
    let dim = data.dim();
    let reference = data.subsample(reference_count.max(1), rng);

    // Pre-compute outputs and first-hidden activations for both sets.
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

    // The columns whose value differs somewhere across both sets; a column
    // equal (`==`) to one value everywhere gives every pair a Δx of ±0, or
    // NaN for an infinite value, and neither passes the 1e-12 test.
    let varying: Vec<usize> = (0..dim)
        .filter(|&k| {
            let first = data.features()[0][k];
            let mut rows = data.features().iter().chain(reference.features());
            rows.any(|x| x[k] != first)
        })
        .collect();
    let compact = |set: &Dataset| -> Vec<f64> {
        set.features()
            .iter()
            .flat_map(|x| varying.iter().map(move |&k| x[k]))
            .collect()
    };
    let (d_rows, r_rows) = (compact(data), compact(&reference));

    // With no varying column the compact rows are empty and no pair runs.
    let width = varying.len().max(1);
    let mut varying_scores = vec![0.0; varying.len()];
    for (i, xi) in d_rows.chunks_exact(width).enumerate() {
        for (j, xj) in r_rows.chunks_exact(width).enumerate() {
            let delta_m = d_out[i] - r_out[j];
            // Number of first-hidden units whose activation differs between
            // the two points; each contributes one (ΔM/Δh)·(Δh/Δx_k) term,
            // and the terms telescope to ΔM/Δx_k per active unit.
            let active_units = d_hidden[i]
                .iter()
                .zip(&r_hidden[j])
                .filter(|(a, b)| (*a - *b).abs() > 1e-12)
                .count() as f64;
            if active_units == 0.0 {
                continue;
            }
            let change = active_units * delta_m;
            for ((score, &a), &b) in varying_scores.iter_mut().zip(xi).zip(xj) {
                let dx = a - b;
                // Branch-free select: a score starts at +0.0 and only grows
                // by absolute values, so it is never −0.0 and adding +0.0
                // leaves its bits as skipping the pair would.
                *score += if dx.abs() > 1e-12 {
                    (change / dx).abs()
                } else {
                    0.0
                };
            }
        }
    }
    let pair_count = (data.len() * reference.len()) as f64;
    let mut scores = vec![0.0; dim];
    for (&k, &score) in varying.iter().zip(&varying_scores) {
        scores[k] = score / pair_count;
    }

    let max_score = scores.iter().cloned().fold(0.0_f64, f64::max);
    let threshold = max_score * 1e-6;
    let kept: Vec<usize> = (0..dim).filter(|&f| scores[f] > threshold).collect();
    let kept = if kept.is_empty() {
        (0..dim).collect()
    } else {
        kept
    };
    ReductionOutcome {
        kept,
        scores,
        runtime_ms: start.elapsed().as_secs_f64() * 1000.0,
        original_dim: dim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcfe_nn::{Activation, Loss, Optimizer, TrainConfig};
    use rand::SeedableRng;

    /// Dataset where the target depends only on features 0 and 1; features
    /// 2 and 3 are pure noise / constant.
    fn synthetic() -> (Mlp, Dataset, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..400 {
            let a = (i % 20) as f64 / 20.0;
            let b = ((i / 20) % 20) as f64 / 20.0;
            let noise = if i % 2 == 0 { 1.0 } else { 0.0 };
            let constant = 0.5;
            xs.push(vec![a, b, noise, constant]);
            ys.push(3.0 * a + 7.0 * b + 0.5);
        }
        let data = Dataset::new(xs, ys).unwrap();
        let mut mlp = Mlp::new(&[4, 16, 1], Activation::Relu, &mut rng);
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 32,
            optimizer: Optimizer::adam(0.01),
            loss: Loss::Mse,
            shuffle: true,
        };
        mlp.train(&data, &cfg, &mut rng);
        (mlp, data, rng)
    }

    #[test]
    fn keep_all_keeps_everything() {
        let out = keep_all(5);
        assert_eq!(out.kept, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.reduction_ratio(), 0.0);
        assert_eq!(out.removed_count(), 0);
    }

    #[test]
    fn diffprop_keeps_informative_features_and_drops_constant_ones() {
        let (mlp, data, mut rng) = synthetic();
        let out = diffprop_reduction(&mlp, &data, 50, &mut rng);
        assert!(out.kept.contains(&0), "feature 0 is informative");
        assert!(out.kept.contains(&1), "feature 1 is informative");
        assert!(!out.kept.contains(&3), "constant feature must be dropped");
        assert!(out.runtime_ms >= 0.0);
        assert!(out.reduction_ratio() > 0.0);
        // informative features should score higher than the noise feature
        assert!(out.scores[0] > out.scores[2] * 0.5);
    }

    #[test]
    fn gradient_reduction_drops_constant_feature_but_scores_via_gradients() {
        let (mlp, data, _) = synthetic();
        let out = gradient_reduction(&mlp, &data);
        assert_eq!(out.original_dim, 4);
        assert!(out.kept.contains(&0));
        assert!(out.kept.contains(&1));
        // the constant feature may or may not be dropped by gradients (dead
        // ReLUs can hide it) — but scores must be finite and non-negative
        assert!(out.scores.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn greedy_reduction_never_increases_q_error() {
        let (mlp, data, _) = synthetic();
        let before = masked_q_error(&mlp, &data, &[]);
        let out = greedy_reduction(&mlp, &data);
        let dropped: Vec<usize> = (0..data.dim()).filter(|f| !out.kept.contains(f)).collect();
        let after = masked_q_error(&mlp, &data, &dropped);
        assert!(
            after <= before + 1e-9,
            "greedy must not hurt training q-error"
        );
        assert!(!out.kept.is_empty());
    }

    #[test]
    fn reduce_dispatches_every_method() {
        let (mlp, data, mut rng) = synthetic();
        for method in ReductionMethod::ALL {
            let out = reduce(method, &mlp, &data, 20, &mut rng);
            assert!(!out.kept.is_empty(), "{method:?}");
            assert_eq!(out.original_dim, data.dim());
            if method == ReductionMethod::None {
                assert_eq!(out.kept.len(), data.dim());
            }
        }
        assert_eq!(ReductionMethod::DiffProp.name(), "FR");
        assert_eq!(ReductionMethod::Gradient.name(), "GD");
    }
}
