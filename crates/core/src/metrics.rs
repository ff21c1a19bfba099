//! Evaluation metrics: q-error, Pearson correlation, percentiles.
//!
//! These are the metrics of Section V-A (Equations 2 and 3) of the paper.

/// Clamp a latency (ms) up to `1e-6`, the floor every estimator applies
/// to its predictions and [`q_error`] to both of its sides.
///
/// Unlike `x.max(1e-6)`, which returns `1e-6` for a NaN `x`, this keeps
/// NaN, so a diverged model reads as a NaN q-error instead of a finite one.
/// For every other value the two agree bit for bit.
pub fn floor_ms(x: f64) -> f64 {
    if x < 1e-6 {
        1e-6
    } else {
        x
    }
}

/// Q-error of a single prediction: `max(actual/pred, pred/actual)`, with both
/// sides clamped away from zero by [`floor_ms`]. A perfect prediction has
/// q-error 1.0; a NaN prediction has q-error NaN.
pub fn q_error(actual: f64, predicted: f64) -> f64 {
    let a = floor_ms(actual);
    let p = floor_ms(predicted);
    (a / p).max(p / a)
}

/// Q-errors of a batch of (actual, predicted) pairs.
pub fn q_errors(actuals: &[f64], predictions: &[f64]) -> Vec<f64> {
    assert_eq!(actuals.len(), predictions.len(), "length mismatch");
    actuals
        .iter()
        .zip(predictions)
        .map(|(a, p)| q_error(*a, *p))
        .collect()
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance of a slice (0 when empty).
pub fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64
}

/// The `p`-th percentile (0–100) using nearest-rank on a sorted copy.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Pearson correlation coefficient between actual and predicted values
/// (Equation 3). Returns 0 for degenerate inputs.
pub fn pearson(actuals: &[f64], predictions: &[f64]) -> f64 {
    assert_eq!(actuals.len(), predictions.len(), "length mismatch");
    if actuals.len() < 2 {
        return 0.0;
    }
    let ma = mean(actuals);
    let mp = mean(predictions);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vp = 0.0;
    for (a, p) in actuals.iter().zip(predictions) {
        cov += (a - ma) * (p - mp);
        va += (a - ma).powi(2);
        vp += (p - mp).powi(2);
    }
    if va < 1e-12 || vp < 1e-12 {
        return 0.0;
    }
    cov / (va.sqrt() * vp.sqrt())
}

/// Summary of an estimator's accuracy on a test set, matching the columns of
/// Table IV / Figure 5 of the paper.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AccuracyReport {
    /// Pearson correlation between actual and predicted cost.
    pub pearson: f64,
    /// Mean q-error.
    pub mean_q_error: f64,
    /// Median (50th percentile) q-error.
    pub median_q_error: f64,
    /// 90th percentile q-error.
    pub p90_q_error: f64,
    /// 95th percentile q-error.
    pub p95_q_error: f64,
    /// 25th percentile q-error (for the box plots of Figure 5).
    pub p25_q_error: f64,
    /// 75th percentile q-error (for the box plots of Figure 5).
    pub p75_q_error: f64,
    /// Variance of the q-error.
    pub q_error_variance: f64,
    /// Number of test samples.
    pub samples: usize,
}

impl AccuracyReport {
    /// Compute the report from actual and predicted costs.
    pub fn compute(actuals: &[f64], predictions: &[f64]) -> Self {
        let qs = q_errors(actuals, predictions);
        AccuracyReport {
            pearson: pearson(actuals, predictions),
            mean_q_error: mean(&qs),
            median_q_error: percentile(&qs, 50.0),
            p90_q_error: percentile(&qs, 90.0),
            p95_q_error: percentile(&qs, 95.0),
            p25_q_error: percentile(&qs, 25.0),
            p75_q_error: percentile(&qs, 75.0),
            q_error_variance: variance(&qs),
            samples: actuals.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(10.0, 5.0), 2.0);
        assert_eq!(q_error(5.0, 10.0), 2.0);
        assert!(
            q_error(1.0, 0.0) > 1000.0,
            "zero prediction is clamped, not infinite"
        );
        assert!(q_error(0.0, 0.0).is_finite());
    }

    #[test]
    fn a_nan_prediction_has_a_nan_q_error() {
        assert!(q_error(10.0, f64::NAN).is_nan());
        assert!(q_error(f64::NAN, 10.0).is_nan());
        assert!(floor_ms(f64::NAN).is_nan());
        // Every other value floors exactly as `max(1e-6)` did.
        for x in [
            f64::NEG_INFINITY,
            -3.0,
            -0.0,
            0.0,
            1e-300,
            9.99e-7,
            1e-6,
            1.0000001e-6,
            0.5,
            1e12,
            f64::INFINITY,
        ] {
            assert_eq!(floor_ms(x).to_bits(), x.max(1e-6).to_bits(), "{x}");
        }
    }

    #[test]
    fn mean_variance_percentile() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(mean(&v), 3.0);
        assert_eq!(variance(&v), 2.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn pearson_correlation_extremes() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let perfect: Vec<f64> = a.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((pearson(&a, &perfect) - 1.0).abs() < 1e-12);
        let inverse: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((pearson(&a, &inverse) + 1.0).abs() < 1e-12);
        let constant = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(pearson(&a, &constant), 0.0);
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn accuracy_report_summarises_distribution() {
        let actual: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // predictions off by a factor of 1.1
        let preds: Vec<f64> = actual.iter().map(|a| a * 1.1).collect();
        let rep = AccuracyReport::compute(&actual, &preds);
        assert!((rep.mean_q_error - 1.1).abs() < 1e-9);
        assert!((rep.median_q_error - 1.1).abs() < 1e-9);
        assert!(rep.pearson > 0.999);
        assert_eq!(rep.samples, 100);
        assert!(rep.p95_q_error >= rep.p90_q_error);
        assert!(rep.p25_q_error <= rep.p75_q_error);
        assert!(rep.q_error_variance < 1e-9);
    }
}
