//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile. A tail percentile is trusted when this is at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The highest whole percentile of `n` samples that still has at least ten
/// samples beyond it, if any percentile from the median up does.
pub fn highest_trusted_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| samples_beyond(n, f64::from(p)) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_of_passes_ignores_one_slow_pass() {
        // Five pass walls, one of them hit by a noisy neighbour.
        assert_eq!(median(&[1.00, 1.02, 9.0, 0.99, 1.01]), 1.01);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_to_have_ten_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(68, 90.0), 6);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn trusted_percentile_is_the_highest_rank_with_ten_samples_beyond() {
        assert_eq!(highest_trusted_percentile(19), None);
        assert_eq!(highest_trusted_percentile(20), Some(50));
        assert_eq!(highest_trusted_percentile(68), Some(85));
        assert_eq!(highest_trusted_percentile(100), Some(90));
        assert_eq!(highest_trusted_percentile(1000), Some(99));
        for n in [20, 68, 100, 437] {
            let p = highest_trusted_percentile(n).unwrap();
            assert!(samples_beyond(n, f64::from(p)) >= 10);
            assert!(p == 99 || samples_beyond(n, f64::from(p + 1)) < 10);
        }
    }
}
