//! Order statistics the benchmark reports: percentiles of latency
//! samples and the median/quartiles of per-slice values.

/// Median and quartiles of a set of per-slice (or per-run) values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quartiles by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here
/// and by whoever judges the documents agree. One value is its own
/// quartiles.
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        // Exclusive method: position p·(n+1) on 1-based ranks, clamped.
        let pos = p * (n as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    Quartiles { q1: at(0.25), median: at(0.5), q3: at(0.75), n }
}

/// The `p`-th percentile (0 ≤ p ≤ 1) of an ascending sample, linearly
/// interpolated between the two nearest ranks.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = pos - lo as f64;
    f64::from(sorted[lo]) + (f64::from(sorted[hi]) - f64::from(sorted[lo])) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method_on_known_samples() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        let q = quartiles(&[80.0, 10.0, 40.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (12.5, 30.0, 70.0));
        let one = quartiles(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s: Vec<u32> = (0..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[10, 20], 0.5), 15.0);
        assert_eq!(percentile_sorted(&[10, 20, 40], 0.75), 30.0);
        assert_eq!(percentile_sorted(&[5], 0.99), 5.0);
    }
}
