//! Order statistics over samples.

/// Samples sorted ascending (NaNs are never produced by the callers).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated quantile of already-sorted samples; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, i.e. the order statistic with
/// exactly that many samples above. Returns `(value, level)` where
/// `level` is the percentile as a fraction. With too few samples for
/// any such percentile the maximum is reported at level 1.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return (0.0, 1.0);
    }
    if n <= TAIL_BEYOND {
        return (s[n - 1], 1.0);
    }
    (s[n - 1 - TAIL_BEYOND], (n - TAIL_BEYOND) as f64 / n as f64)
}

/// Window length, in samples, of [`windowed_tail`].
pub const TAIL_WINDOW: usize = 1000;

/// Tail of a sample in completion order: with at least two complete
/// windows of [`TAIL_WINDOW`] consecutive samples, the median over
/// windows of each window's [`tail`] (its p99); otherwise the [`tail`]
/// of the whole sample. A burst of host noise then moves one window's
/// tail, not the reported one. Returns `(value, level)`.
pub fn windowed_tail(v: &[f64]) -> (f64, f64) {
    if v.len() < 2 * TAIL_WINDOW {
        return tail(v);
    }
    let tails: Vec<f64> = v.chunks_exact(TAIL_WINDOW).map(|w| tail(w).0).collect();
    (median(&tails), tail(&v[..TAIL_WINDOW]).1)
}

/// One-line summary of a sample for the run log.
pub fn describe(v: &[f64]) -> String {
    let s = sorted(v);
    let (t, level) = windowed_tail(v);
    format!(
        "n={} p50={:.4} p90={:.4} p99={:.4} p99.9={:.4} tail=p{:.2}:{:.4}",
        s.len(),
        quantile(&s, 0.5),
        quantile(&s, 0.9),
        quantile(&s, 0.99),
        quantile(&s, 0.999),
        level * 100.0,
        t
    )
}

/// Mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Relative energy difference, with the same scale floor the
/// repository's own checks use.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (t, level) = tail(&v);
        assert_eq!(t, 90.0);
        assert!((level - 0.9).abs() < 1e-12);
        assert_eq!(tail(&v[..5]), (5.0, 1.0));
        let long: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        assert_eq!(windowed_tail(&long), (989.0, 0.99));
        assert_eq!(windowed_tail(&v), tail(&v));
    }

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
