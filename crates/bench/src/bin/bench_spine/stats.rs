//! Order statistics for timing samples.
//!
//! Quartiles use the same rule as Python's `statistics.quantiles(values,
//! n=4)` (the "exclusive" method), because that is what the benchmark
//! driver applies to the values this harness prints.

/// Sorted copy of `xs`; panics on NaN, which would make every order
/// statistic meaningless.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so an all-failed workload still prints.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of `xs`, 0 for an empty slice: the reading of a timing
/// whose every sample is the same computation plus whatever the host added.
pub fn fastest(xs: &[f64]) -> f64 {
    let least = xs.iter().copied().fold(f64::INFINITY, f64::min);
    if least.is_finite() {
        least
    } else {
        0.0
    }
}

/// First and third quartile, Python `statistics.quantiles(xs, n=4)` rule.
/// With fewer than two samples both quartiles are the single value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, clamped into the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile `p` in (0, 100]: the smallest sample with at
/// least `p` percent of the data at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when even p90 has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0].into_iter().find(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// The samples behind a reported value, as a reader needs them to judge it.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Interquartile range as a share of the median.
    pub spread: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        let (q1, q3) = quartiles(&v);
        Summary {
            n: v.len(),
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
            q1,
            median: median(&v),
            q3,
            spread: spread(&v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_follow_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the harness
        // clamps into the data instead of extrapolating.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((1.0..=2.0).contains(&q1) && (1.0..=2.0).contains(&q3));
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 120.0);
        assert_eq!(percentile(&xs, 95.0), 228.0);
        assert_eq!(percentile(&xs, 100.0), 240.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 240 jobs: p95 leaves 12 beyond, p99 only 2.
        assert_eq!(highest_supported_percentile(240), Some(95.0));
        // 100 samples: p90 leaves exactly ten.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(20_000), Some(99.9));
    }
}
