//! Running execution-time statistics for one task version.

use std::time::Duration;

/// How the mean execution time is updated.
///
/// The paper uses the arithmetic mean of all executions and notes
/// (footnote 3) that "optionally, we could try computing a weighted mean
/// to give more weight to recent execution information" — implemented
/// here as an exponentially weighted moving average and ablated in the
/// benchmark suite.
#[derive(Clone, Copy, PartialEq, Debug)]
#[derive(Default)]
pub enum MeanPolicy {
    /// Arithmetic mean of all samples (the paper's choice).
    #[default]
    Arithmetic,
    /// Exponentially weighted moving average with smoothing factor
    /// `alpha` in `(0, 1]`: `mean ← alpha·sample + (1−alpha)·mean`.
    Ewma {
        /// Weight of the newest sample.
        alpha: f64,
    },
}


/// Mean execution time and execution count of one task version within one
/// size group — one `<VersionId, ExecTime, #Exec>` row of paper Table I.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningMean {
    count: u64,
    mean_ns: f64,
}

impl RunningMean {
    /// A pre-seeded statistic (profile hints / warm start).
    pub(crate) fn seeded(mean: Duration, count: u64) -> RunningMean {
        RunningMean { count, mean_ns: mean.as_nanos() as f64 }
    }

    /// Number of recorded executions.
    #[inline]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Mean execution time, or `None` if nothing was recorded.
    #[inline]
    pub(crate) fn mean(&self) -> Option<Duration> {
        if self.count == 0 {
            None
        } else {
            Some(Duration::from_nanos(self.mean_ns.max(0.0) as u64))
        }
    }

    /// Record one execution time.
    pub(crate) fn record(&mut self, sample: Duration, policy: MeanPolicy) {
        let sample_ns = sample.as_nanos() as f64;
        self.count += 1;
        match policy {
            MeanPolicy::Arithmetic => {
                // Incremental arithmetic mean: m += (x - m) / n.
                self.mean_ns += (sample_ns - self.mean_ns) / self.count as f64;
            }
            MeanPolicy::Ewma { alpha } => {
                assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
                if self.count == 1 {
                    self.mean_ns = sample_ns;
                } else {
                    self.mean_ns = alpha * sample_ns + (1.0 - alpha) * self.mean_ns;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_mean_is_none() {
        let m = RunningMean::default();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), None);
    }

    #[test]
    fn arithmetic_mean_matches_definition() {
        let mut m = RunningMean::default();
        for sample in [10, 20, 30, 40] {
            m.record(ms(sample), MeanPolicy::Arithmetic);
        }
        assert_eq!(m.count(), 4);
        let mean = m.mean().unwrap();
        assert!((mean.as_secs_f64() - 0.025).abs() < 1e-9, "mean = {mean:?}");
    }

    #[test]
    fn ewma_tracks_recent_samples() {
        let mut arith = RunningMean::default();
        let mut ewma = RunningMean::default();
        // 50 slow runs then 50 fast runs: the EWMA should end much closer
        // to the fast regime than the arithmetic mean.
        for _ in 0..50 {
            arith.record(ms(100), MeanPolicy::Arithmetic);
            ewma.record(ms(100), MeanPolicy::Ewma { alpha: 0.3 });
        }
        for _ in 0..50 {
            arith.record(ms(10), MeanPolicy::Arithmetic);
            ewma.record(ms(10), MeanPolicy::Ewma { alpha: 0.3 });
        }
        let a = arith.mean().unwrap().as_secs_f64();
        let e = ewma.mean().unwrap().as_secs_f64();
        assert!((a - 0.055).abs() < 1e-9);
        assert!(e < 0.012, "EWMA should converge to the recent regime, got {e}");
    }

    #[test]
    fn ewma_first_sample_initializes() {
        let mut m = RunningMean::default();
        m.record(ms(42), MeanPolicy::Ewma { alpha: 0.1 });
        assert_eq!(m.mean().unwrap(), ms(42));
    }

    #[test]
    fn seeded_statistics() {
        let m = RunningMean::seeded(ms(18), 350);
        assert_eq!(m.count(), 350);
        assert_eq!(m.mean().unwrap(), ms(18));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let mut m = RunningMean::default();
        m.record(ms(1), MeanPolicy::Ewma { alpha: 0.0 });
    }
}
