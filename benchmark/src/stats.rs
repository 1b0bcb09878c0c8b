//! Order statistics for the benchmark's reports: medians, nearest-rank
//! percentiles, the supported-tail rule and the quartile spread the
//! repeatability criterion is stated in.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, so a missing sample can never read as a time.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The tail percentile a sample of `n` supports: the highest of p99, p95,
/// p90 and p75 that leaves at least ten samples beyond it. Below forty
/// samples none does; the report then falls back to the upper quartile and
/// says so (`supported == false`).
pub fn tail_percentile(n: usize) -> (u32, bool) {
    for p in [99u32, 95, 90, 75] {
        if n * (100 - p as usize) / 100 >= 10 {
            return (p, true);
        }
    }
    (75, false)
}

/// A latency sample reduced to what the reports print.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    /// Value at [`Latency::tail_p`].
    pub tail: f64,
    pub tail_p: u32,
    /// Whether `tail_p` has at least ten samples beyond it.
    pub tail_supported: bool,
}

impl Latency {
    pub fn of(values: &[f64]) -> Latency {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail_p, tail_supported) = tail_percentile(sorted.len());
        Latency {
            samples: sorted.len(),
            p50: median(&sorted),
            tail: percentile(&sorted, tail_p),
            tail_p,
            tail_supported,
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method), which is what the
/// repeatability criterion is stated in. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4, 1-based, clamped like the reference.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 50.0);
        assert_eq!(percentile(&sorted, 99), 99.0);
        assert_eq!(percentile(&sorted, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly ten beyond.
        assert_eq!(tail_percentile(1000), (99, true));
        assert_eq!(tail_percentile(999), (95, true));
        // ~200 update samples: p95 leaves ten beyond, p99 only two.
        assert_eq!(tail_percentile(200), (95, true));
        assert_eq!(tail_percentile(199), (90, true));
        assert_eq!(tail_percentile(100), (90, true));
        assert_eq!(tail_percentile(40), (75, true));
        // Too few for any tail: upper quartile, flagged unsupported.
        assert_eq!(tail_percentile(39), (75, false));
        assert_eq!(tail_percentile(8), (75, false));
    }

    #[test]
    fn latency_summary_uses_the_supported_tail() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let l = Latency::of(&values);
        assert_eq!((l.samples, l.tail_p, l.tail_supported), (200, 95, true));
        assert_eq!(l.p50, 100.5);
        assert_eq!(l.tail, 190.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&ten).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "spread {s}");
    }
}
