//! Exact order statistics over latency samples.

/// Exact nearest-rank quantile: the smallest sample with at least a
/// `q` share of the samples at or below it. 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples a run needs before the `q` percentile has at least ten
/// samples beyond it: 200 for p95, 1000 for p99.
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.5], 0.99), 7.5);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        // With exactly that many samples, ten lie strictly above the
        // reported value.
        let v: Vec<f64> = (0..samples_needed(0.95)).map(|i| i as f64).collect();
        let p95 = quantile(&v, 0.95);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
