//! Order statistics used by every workload.
//!
//! Percentiles are nearest-rank over the sorted sample. A percentile is
//! printed only when at least [`MIN_TAIL`] samples lie strictly beyond its
//! rank; otherwise the sample cannot support it and the caller gets `None`.

/// Samples that must lie beyond a percentile's rank before it is reported.
pub const MIN_TAIL: usize = 10;

/// Sorts `values` in place (NaNs last) and returns them for chaining.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Nearest-rank `p`-quantile of an ascending sample, `p` in `(0, 1]`, or
/// `None` when fewer than [`MIN_TAIL`] samples lie beyond the rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// Median, over consecutive windows of `window` time units, of each
/// window's `p`-quantile. `samples` are `(time, value)` pairs in any
/// order; windows too small to support `p` are skipped, and `None` means
/// no window could. A run's rare stalls move one window, not the median.
pub fn windowed(samples: &[(u64, f64)], window: u64, p: f64) -> Option<f64> {
    let mut buckets: std::collections::BTreeMap<u64, Vec<f64>> = std::collections::BTreeMap::new();
    for (t, v) in samples {
        buckets.entry(t / window.max(1)).or_default().push(*v);
    }
    let per_window: Vec<f64> = buckets
        .into_values()
        .filter_map(|b| percentile(&sorted(b), p))
        .collect();
    median(&per_window)
}

/// Median of an unsorted sample (upper median for even counts, which is
/// the nearest-rank 0.5 quantile); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let s = sorted(values.to_vec());
    Some(s[s.len().div_ceil(2) - 1])
}

/// Arithmetic mean, 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn median_follows_the_same_rule() {
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
        assert_eq!(percentile(&ramp(100), 1.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn windowed_percentile_is_the_median_over_windows() {
        // Three windows of 1000 samples; the middle one holds a stall.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..1000u64 {
                let stall = if w == 1 { 100.0 } else { 0.0 };
                samples.push((w * 1000 + i, (i + 1) as f64 + stall + w as f64));
            }
        }
        assert_eq!(windowed(&samples, 1000, 0.99), Some(992.0));
        assert_eq!(windowed(&samples, 1000, 0.5), Some(502.0));
        // Windows of 100 samples cannot support a p99.
        assert_eq!(windowed(&samples, 100, 0.99), None);
    }

    #[test]
    fn sorting_is_total() {
        assert_eq!(sorted(vec![2.0, -1.0, 0.5]), vec![-1.0, 0.5, 2.0]);
    }
}
