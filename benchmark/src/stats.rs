//! The harness's own arithmetic: medians, quartiles and the percentile
//! a sample count can support.

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The figure reported: the median, except where a metric says otherwise.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single observation (counts, one-off timings): all three
    /// quantiles coincide.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a copy and summarize it.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        value: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).value
}

/// Whether `n` samples leave at least ten beyond the `pct`-th
/// percentile — the rule for reporting a tail at all.
pub fn supports_percentile(n: usize, pct: f64) -> bool {
    n as f64 * (100.0 - pct) / 100.0 >= 10.0
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 / 99.99 with
/// at least ten samples beyond it; `None` below twenty samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supports_percentile(n, p))
}

/// The `pct`-th percentile of `samples` if the count supports it.
pub fn tail(samples: &[f64], pct: f64) -> Option<f64> {
    if !supports_percentile(samples.len(), pct) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(quantile(&s, pct / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(summarize(&[1.0, 2.0]).value, 1.5);
        assert_eq!(Summary::single(7.0).q3, 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(
            highest_supported_percentile(40),
            Some(50.0),
            "40 reps: no p90 (4 beyond)"
        );
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(20_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn unsupported_tail_is_not_reported() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&samples, 99.0), None);
        assert!(tail(&samples, 90.0).is_some());
    }
}
