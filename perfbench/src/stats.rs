//! Order statistics for the benchmark's reports.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (0 < p < 100) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a tail that thin is
/// one outlier away from a different number.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a small set of repeated measurements (mean of the middle two
/// for an even count). Unlike [`percentile`] it asks for no tail, so it
/// summarises a handful of repeats such as set-up times.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Arithmetic mean (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100: rank 90, ten samples beyond — accepted.
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        // p91: rank 91, nine beyond — refused.
        assert_eq!(percentile(&values, 91.0), None);
        assert_eq!(percentile(&values, 99.0), None);
        // p99 needs at least 1000 samples.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&big[..999], 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut values: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&values, 50.0);
        values.reverse();
        assert_eq!(a, percentile(&values, 50.0));
        assert_eq!(a, Some(99.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
