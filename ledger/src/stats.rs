//! Order statistics over small samples: the median, and the highest
//! percentile that still has ten samples beyond it.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples, as a float.
pub fn median_u64(xs: &[u64]) -> f64 {
    let v: Vec<f64> = xs.iter().map(|x| *x as f64).collect();
    median(&v)
}

/// The tail statistic of choosing-metrics §1: the highest percentile
/// with at least ten samples beyond it. Returns `(percentile, value)`;
/// with fewer than eleven samples no percentile qualifies and the
/// result is `None`.
pub fn hi_percentile(xs: &[u64]) -> Option<(f64, u64)> {
    const BEYOND: usize = 10;
    if xs.len() <= BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let idx = v.len() - 1 - BEYOND;
    let pct = 100.0 * (idx + 1) as f64 / v.len() as f64;
    Some((pct, v[idx]))
}

/// Spread of block times: `(max − min) / median`, in percent.
pub fn spread_pct(xs: &[f64]) -> f64 {
    let m = median(xs);
    if xs.is_empty() || m == 0.0 {
        return 0.0;
    }
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    100.0 * (hi - lo) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_u64(&[9, 1, 5]), 5.0);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[10.0, 11.0, 10.5, 900.0, 10.2]), 10.5);
    }

    #[test]
    fn hi_percentile_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: ten beyond ⇒ the 90th value, p90.
        let xs: Vec<u64> = (1..=100).rev().collect();
        let (pct, v) = hi_percentile(&xs).unwrap();
        assert_eq!(v, 90);
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|x| **x > v).count(), 10);
        // 1000 samples ⇒ p99.
        let xs: Vec<u64> = (1..=1000).collect();
        let (pct, v) = hi_percentile(&xs).unwrap();
        assert_eq!(v, 990);
        assert!((pct - 99.0).abs() < 1e-9);
    }

    #[test]
    fn hi_percentile_needs_eleven_samples() {
        assert_eq!(hi_percentile(&[1; 10]), None);
        let xs: Vec<u64> = (1..=11).collect();
        assert_eq!(hi_percentile(&xs).map(|(_, v)| v), Some(1));
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_pct(&[100.0, 110.0, 90.0]), 20.0);
        assert_eq!(spread_pct(&[]), 0.0);
    }
}
