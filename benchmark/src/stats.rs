//! Sample statistics and the regression-bound rule.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// subtraction keeps a product such as `0.9 * 100.0` that lands a hair above
/// a whole number from rounding up to the next rank.
fn rank_of(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` of the samples at or below it. `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank_of(sorted.len(), p) - 1]
}

/// Percentile of an ascending slice of durations with each sample weighted by
/// its own duration: the smallest sample such that samples up to it took at
/// least `p` of the total time. `p` in `(0, 1]`.
pub fn percentile_by_time(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let total: f64 = sorted.iter().sum();
    let mut taken = 0.0;
    for &v in sorted {
        taken += v;
        if taken >= p * total - 1e-9 {
            return v;
        }
    }
    sorted[sorted.len() - 1]
}

/// A percentile is reported only when at least ten samples lie beyond it;
/// with fewer, it is one of the few largest samples and does not repeat.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n >= rank_of(n, p) + 10
}

/// The highest of p99, p95, p90 that `n` samples support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&p| percentile_supported(n, p))
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Median of an unordered sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// By how much `new` is worse than `base`, as a share of `base`; negative
/// when it is better.
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// The regression rule of `BENCHMARK.json`: `new` may be worse than `base`
/// by at most `bound` of `base`.
pub fn within_bound(better: Better, base: f64, new: f64, bound: f64) -> bool {
    worse_by(better, base, new) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_by_time_weights_each_sample_by_its_duration() {
        // Ten queries of 1 ms and one of 10 ms: by count the median is 1 ms,
        // but half the time was spent in the slow one.
        let mut s = vec![1.0; 10];
        s.push(10.0);
        assert_eq!(percentile(&s, 0.50), 1.0);
        assert_eq!(percentile_by_time(&s, 0.50), 1.0);
        assert_eq!(percentile_by_time(&s, 0.51), 10.0);
        // Equal durations: the same as by count.
        let e = [2.0; 8];
        assert_eq!(percentile_by_time(&e, 0.5), 2.0);
        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        // Time up to k is k(k+1)/2 of 5050: half is reached at k = 71.
        assert_eq!(percentile_by_time(&ramp, 0.50), 71.0);
        assert_eq!(percentile_by_time(&ramp, 1.0), 100.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is the 90th; exactly ten lie beyond.
        assert!(percentile_supported(100, 0.90));
        assert!(!percentile_supported(99, 0.90));
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(20, 0.50));
        assert!(!percentile_supported(19, 0.50));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(150), Some(0.90));
        assert_eq!(highest_supported_percentile(50), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn bound_follows_the_direction() {
        // A latency may rise by 10%, not 11%.
        assert!(within_bound(Better::Lower, 100.0, 110.0, 0.10));
        assert!(!within_bound(Better::Lower, 100.0, 111.0, 0.10));
        assert!(within_bound(Better::Lower, 100.0, 50.0, 0.0));
        // A rate may fall by 10%, not 11%.
        assert!(within_bound(Better::Higher, 100.0, 90.0, 0.10));
        assert!(!within_bound(Better::Higher, 100.0, 89.0, 0.10));
        assert!(within_bound(Better::Higher, 100.0, 200.0, 0.0));
        // A zero bound accepts an identical count only.
        assert!(within_bound(Better::Lower, 42.0, 42.0, 0.0));
        assert!(!within_bound(Better::Lower, 42.0, 43.0, 0.0));
        assert!((worse_by(Better::Higher, 200.0, 150.0) - 0.25).abs() < 1e-12);
    }
}
