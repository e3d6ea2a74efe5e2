//! Order statistics over timing samples.
//!
//! Every reported timing is a median; a tail percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it, so a "p99" of a
//! hundred samples (one sample beyond) is never printed as if it meant
//! something.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending (NaN-safe total order).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of ascending samples (mean of the two middle ones for an even
/// count); 0 for no samples.
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile of ascending samples, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method, which extrapolates past the ends on tiny samples).
/// `None` below two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len() as i64;
    if n < 2 {
        return None;
    }
    let at = |k: i64| {
        let index = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1) - index * 4) as f64;
        let (low, high) = (sorted[index as usize - 1], sorted[index as usize]);
        (low * (4.0 - delta) + high * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the benchmark's bounds are judged against.  `None` below two samples or
/// at a zero median.
pub fn spread(sorted: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(sorted)?;
    let middle = median(sorted);
    (middle != 0.0).then(|| (q3 - q1) / middle.abs())
}

/// The 1-based nearest rank of the `p`-th percentile among `n` ascending
/// samples (1 for no samples).
pub fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// The `p`-th percentile (nearest rank) of ascending samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let rank = rank(sorted.len(), p);
    (sorted.len() >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The `p`-th percentile (nearest rank) of ascending samples whatever
/// their count; the default (0) for no samples.  For statistics whose
/// percentile is fixed per workload so that it means the same thing on
/// every run.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    sorted
        .get(rank(sorted.len(), p) - 1)
        .copied()
        .unwrap_or_default()
}

/// F-measure from true positives, false positives and false negatives
/// (0 when nothing was found and nothing was expected to be).
pub fn f_measure(true_positives: usize, false_positives: usize, false_negatives: usize) -> f64 {
    let denominator = 2 * true_positives + false_positives + false_negatives;
    if denominator == 0 {
        0.0
    } else {
        2.0 * true_positives as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 10.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 10.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(percentile(&thousand, 99.9), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), None);
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
    }

    #[test]
    fn nearest_rank_works_on_any_sample_count() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&thousand, 99.0), 990.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0, 5.0], 75.0), 4.0);
        assert_eq!(nearest_rank(&[7.0], 75.0), 7.0);
        assert_eq!(nearest_rank::<f64>(&[], 99.0), 0.0);
        // integer samples (nanoseconds) rank the same way
        assert_eq!(nearest_rank(&[10u64, 20, 30, 40], 50.0), 20);
        assert_eq!(
            percentile(&(1..=100u64).collect::<Vec<_>>(), 90.0),
            Some(90)
        );
    }

    #[test]
    fn f_measure_balances_precision_and_recall() {
        assert_eq!(f_measure(0, 0, 0), 0.0);
        assert_eq!(f_measure(10, 0, 0), 1.0);
        assert!((f_measure(8, 2, 2) - 0.8).abs() < 1e-12);
    }
}
