//! Order statistics over measured samples.
//!
//! Percentiles use the nearest-rank rule. A percentile is *supported*
//! only when at least [`MIN_BEYOND`] samples lie strictly beyond it:
//! below that a tail number is one or two outliers, not a percentile.
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so the quartiles this harness
//! records match the ones used to judge run-to-run spread.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` (0 < p ≤ 100) in `n`
/// sorted samples.
fn rank_index(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// True iff `n` samples support percentile `p`.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Sort a copy of `values` ascending.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`None` if there are no samples).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[rank_index(v.len(), p)])
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them. With fewer than
/// two samples every quartile is the single value.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        _ => {
            let m = n as f64 + 1.0;
            let q = |i: f64| {
                let pos = i * m / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let delta = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            Some((q(1.0), q(2.0), q(3.0)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1,000 samples sits at rank 990: exactly 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        // p95 needs 200 samples, p50 needs 20.
        assert!(supported(200, 95.0));
        assert!(!supported(199, 95.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        // A 2 s open-loop window (2,000 requests) supports its p99; a
        // window with 900 answers does not, and is left out.
        assert!(supported(2_000, 99.0));
        assert!(!supported(900, 99.0));
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        let (q1, q2, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((q1, q2, q3), (1.5, 3.0, 4.5));
    }
}
