//! Order statistics: the median/min/max summary every metric is
//! reported with, the "ten samples beyond" percentile rule, and the
//! quartile spread the acceptance check uses.

/// `values` sorted ascending (NaN-free by construction: every sample is
/// a measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median, minimum, maximum and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarize `values`; `None` when there are none.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    Some(Summary {
        median: median(&v)?,
        min: *v.first()?,
        max: *v.last()?,
        n: v.len(),
    })
}

/// The `p`-th percentile (`0 < p < 100`) of `sorted_ns`, reported only
/// when at least ten samples lie beyond it — otherwise the tail is
/// anecdote, not a percentile — so p99 needs 1 000 samples and p50
/// needs 20.
pub fn percentile(sorted_ns: &[u64], p: f64) -> Option<u64> {
    let n = sorted_ns.len();
    let idx = ((n as f64) * p / 100.0).ceil() as usize;
    let idx = idx.clamp(1, n.max(1)) - 1;
    (n > idx && n - 1 - idx >= 10).then(|| sorted_ns[idx])
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// computes them, so a spread printed here is the spread the acceptance
/// check sees. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The quartile of `values` on the undisturbed side: the first where
/// lower is better, the third where higher is. What disturbs a shared
/// box only ever slows a repetition, so as long as a quarter of the
/// repetitions ran in peace this reads the same, where the median
/// follows however many were hit. The value itself for a single one.
pub fn quiet_quartile(values: &[f64], lower_is_better: bool) -> Option<f64> {
    match quartiles(values) {
        Some((q1, q3)) => Some(if lower_is_better { q1 } else { q3 }),
        None => values.first().copied(),
    }
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // 990 is the p99; exactly ten samples (991..=1000) lie beyond.
        assert_eq!(percentile(&v, 99.0), Some(990));
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(500));
        let small: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&small, 50.0), Some(10));
        assert_eq!(percentile(&small[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quiet_quartile(&v, true), Some(2.75));
        assert_eq!(quiet_quartile(&v, false), Some(8.25));
        assert_eq!(quiet_quartile(&[7.0], false), Some(7.0));
        assert_eq!(quiet_quartile(&[], true), None);
    }
}
