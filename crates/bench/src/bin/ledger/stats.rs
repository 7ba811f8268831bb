//! Order statistics shared by the workloads, the run record and `compare`.

/// The percentiles a tail is reported at, lowest first.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_SUPPORT: f64 = 10.0;

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `p`-quantile of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    cut(xs, 1, 2)
}

/// The `i`-th of the `n - 1` cut points dividing `xs` into `n` groups,
/// exactly as Python's `statistics.quantiles(xs, n=n)[i - 1]` computes it
/// (the default exclusive method), so the spreads in a run record match the
/// ones computed from its values with Python.
pub fn cut(xs: &[f64], i: usize, n: usize) -> f64 {
    debug_assert!(0 < i && i < n);
    let data = sorted(xs);
    match data.len() {
        0 => 0.0,
        1 => data[0],
        len => {
            let m = len + 1;
            let j = (i * m / n).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        }
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(xs, n=4)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    (cut(xs, 1, 4), cut(xs, 2, 4), cut(xs, 3, 4))
}

/// The highest percentile of the ladder with at least [`TAIL_SUPPORT`]
/// samples beyond it, or `None` when even the median lacks support.
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().rev().find(|p| samples as f64 * (1.0 - p) >= TAIL_SUPPORT - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[7.0]), 7.0);
        // statistics.quantiles([1..=10], n=10) == [1.1, 2.2, …, 9.9]
        assert!((cut(&xs, 1, 10) - 1.1).abs() < 1e-12);
        assert!((cut(&xs, 9, 10) - 9.9).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(40_000), Some(0.999));
        assert_eq!(supported_tail(100_000), Some(0.9999));
    }
}
