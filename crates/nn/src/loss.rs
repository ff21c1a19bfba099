//! Loss functions for scalar-output regression models.
//!
//! Query cost spans several orders of magnitude, so besides the plain MSE the
//! crate offers a log-space MSE (`LogMse`) which is the loss actually used by
//! the QPPNet/MSCN reimplementations: minimising squared error between
//! `ln(1 + predicted)` and `ln(1 + actual)` closely tracks the q-error metric
//! reported by the paper.

use serde::{Deserialize, Serialize};

/// Supported scalar regression losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error in linear space.
    Mse,
    /// Mean squared error between `ln(1 + pred)` and `ln(1 + actual)`.
    LogMse,
}

impl Loss {
    /// Loss value for a batch of (prediction, target) pairs.
    pub fn value(&self, predictions: &[f64], targets: &[f64]) -> f64 {
        assert_eq!(predictions.len(), targets.len(), "loss: length mismatch");
        if predictions.is_empty() {
            return 0.0;
        }
        let n = predictions.len() as f64;
        match self {
            Loss::Mse => {
                predictions
                    .iter()
                    .zip(targets)
                    .map(|(p, t)| (p - t).powi(2))
                    .sum::<f64>()
                    / n
            }
            Loss::LogMse => {
                predictions
                    .iter()
                    .zip(targets)
                    .map(|(p, t)| (log1p_clamped(*p) - log1p_clamped(*t)).powi(2))
                    .sum::<f64>()
                    / n
            }
        }
    }

    /// Per-sample gradient `dL/dprediction` (already divided by the batch
    /// size), written into `out`, one entry per prediction.
    pub fn gradient_into(&self, predictions: &[f64], targets: &[f64], out: &mut [f64]) {
        assert_eq!(
            predictions.len(),
            targets.len(),
            "loss gradient: length mismatch"
        );
        assert_eq!(predictions.len(), out.len(), "loss gradient: output length");
        let n = predictions.len().max(1) as f64;
        let pairs = predictions.iter().zip(targets).zip(out.iter_mut());
        match self {
            Loss::Mse => {
                for ((p, t), g) in pairs {
                    *g = 2.0 * (p - t) / n;
                }
            }
            Loss::LogMse => {
                for ((p, t), g) in pairs {
                    let lp = log1p_clamped(*p);
                    let lt = log1p_clamped(*t);
                    // d/dp (lp - lt)^2 = 2 (lp - lt) * 1/(1 + max(p, 0))
                    *g = 2.0 * (lp - lt) / (1.0 + p.max(0.0)) / n;
                }
            }
        }
    }
}

/// `ln(1 + max(x, 0))`, guarding against negative intermediate predictions.
#[inline]
fn log1p_clamped(x: f64) -> f64 {
    (1.0 + x.max(0.0)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(loss: Loss, predictions: &[f64], targets: &[f64]) -> Vec<f64> {
        let mut g = vec![f64::NAN; predictions.len()];
        loss.gradient_into(predictions, targets, &mut g);
        g
    }

    #[test]
    fn mse_value_and_gradient() {
        let preds = vec![1.0, 2.0];
        let targets = vec![0.0, 4.0];
        assert!((Loss::Mse.value(&preds, &targets) - (1.0 + 4.0) / 2.0).abs() < 1e-12);
        let g = gradient(Loss::Mse, &preds, &targets);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_predictions_give_zero_loss() {
        let v = vec![1.5, 200.0, 0.01];
        for loss in [Loss::Mse, Loss::LogMse] {
            assert_eq!(loss.value(&v, &v), 0.0, "{loss:?}");
            assert!(gradient(loss, &v, &v).iter().all(|g| g.abs() < 1e-12));
        }
    }

    #[test]
    fn logmse_compresses_large_errors() {
        let preds = vec![10_000.0];
        let targets = vec![1_000.0];
        let lin = Loss::Mse.value(&preds, &targets);
        let log = Loss::LogMse.value(&preds, &targets);
        assert!(
            log < lin,
            "log-space loss must be far smaller for large costs"
        );
        assert!(log > 0.0);
    }

    #[test]
    fn logmse_gradient_sign_matches_error_direction() {
        let g_over = gradient(Loss::LogMse, &[100.0], &[10.0]);
        assert!(
            g_over[0] > 0.0,
            "over-prediction should push the output down"
        );
        let g_under = gradient(Loss::LogMse, &[10.0], &[100.0]);
        assert!(
            g_under[0] < 0.0,
            "under-prediction should push the output up"
        );
    }

    #[test]
    fn empty_batch_is_zero_loss() {
        assert_eq!(Loss::Mse.value(&[], &[]), 0.0);
        assert!(gradient(Loss::Mse, &[], &[]).is_empty());
    }
}
