//! Execution-time cost models.
//!
//! Each (template, version) pair gets a duration model as a function of
//! the task's data set size. Applications calibrate these to the ratios
//! the paper reports (e.g. "SMP task duration is about 60 times the GPU
//! task duration" for the matmul tile, §V-B1). A seeded multiplicative
//! [`NoiseModel`] adds run-to-run variation so the scheduler's running
//! means actually have something to average.

use std::sync::Arc;
use std::time::Duration;
use versa_core::{TemplateId, VersionId};
use versa_mem::IdMap;

/// Duration model of one task version: data set size (bytes) → base
/// execution time.
pub(crate) type CostFn = Arc<dyn Fn(u64) -> Duration + Send + Sync>;

/// Per-(template, version) execution-time models for the simulated
/// platform. The scheduler never reads this table; it is the simulator's
/// ground truth.
#[derive(Default, Clone)]
pub struct CostTable {
    entries: IdMap<(TemplateId, VersionId), CostFn>,
}

impl CostTable {
    /// Empty table.
    pub fn new() -> CostTable {
        CostTable::default()
    }

    /// Register a size-dependent duration model.
    pub fn set_fn(
        &mut self,
        template: TemplateId,
        version: VersionId,
        f: impl Fn(u64) -> Duration + Send + Sync + 'static,
    ) {
        self.entries.insert((template, version), Arc::new(f));
    }

    /// Base (noise-free) duration of one execution.
    ///
    /// # Panics
    /// Panics if no model is registered for the pair — every version that
    /// can be scheduled in a simulation must have a cost model.
    pub fn duration(&self, template: TemplateId, version: VersionId, size: u64) -> Duration {
        let f = self
            .entries
            .get(&(template, version))
            .unwrap_or_else(|| panic!("no cost model for ({template:?}, {version:?})"));
        f(size)
    }
}

impl std::fmt::Debug for CostTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CostTable({} models)", self.entries.len())
    }
}

/// Seeded multiplicative execution-time noise: each sampled duration is
/// `base × U(1 − sigma, 1 + sigma)`.
#[derive(Debug)]
pub struct NoiseModel {
    sigma: f64,
    state: u64,
}

impl NoiseModel {
    /// Noise with relative half-width `sigma` (e.g. `0.05` for ±5%).
    ///
    /// # Panics
    /// Panics unless `0 ≤ sigma < 1`.
    pub fn new(sigma: f64, seed: u64) -> NoiseModel {
        assert!((0.0..1.0).contains(&sigma), "sigma must be in [0, 1)");
        NoiseModel { sigma, state: seed }
    }

    /// Sample a concrete duration for one execution.
    pub fn sample(&mut self, base: Duration) -> Duration {
        if self.sigma == 0.0 {
            return base;
        }
        // splitmix64 step: deterministic per seed, dependency-free.
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - self.sigma + unit * 2.0 * self.sigma;
        Duration::from_secs_f64(base.as_secs_f64() * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TPL: TemplateId = TemplateId(0);
    const V0: VersionId = VersionId(0);
    const V1: VersionId = VersionId(1);

    #[test]
    fn fixed_and_fn_models() {
        let mut t = CostTable::new();
        t.set_fn(TPL, V0, |_| Duration::from_millis(7));
        t.set_fn(TPL, V1, |size| Duration::from_nanos(size * 2));
        assert_eq!(t.duration(TPL, V0, 123), Duration::from_millis(7));
        assert_eq!(t.duration(TPL, V1, 500), Duration::from_micros(1));
        assert_eq!(t.entries.len(), 2);
    }

    #[test]
    #[should_panic(expected = "no cost model")]
    fn missing_model_panics() {
        let t = CostTable::new();
        let _ = t.duration(TPL, V0, 1);
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let base = Duration::from_millis(100);
        let mut a = NoiseModel::new(0.1, 42);
        let mut b = NoiseModel::new(0.1, 42);
        for _ in 0..1000 {
            let sa = a.sample(base);
            let sb = b.sample(base);
            assert_eq!(sa, sb, "same seed must reproduce exactly");
            let secs = sa.as_secs_f64();
            assert!(secs > 0.09 && secs < 0.11, "sample {secs} out of ±10%");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let base = Duration::from_millis(100);
        let mut a = NoiseModel::new(0.1, 1);
        let mut b = NoiseModel::new(0.1, 2);
        let same = (0..100).filter(|_| a.sample(base) == b.sample(base)).count();
        assert!(same < 5, "independent seeds should rarely collide");
    }

    #[test]
    fn zero_sigma_is_exact() {
        let mut n = NoiseModel::new(0.0, 0);
        assert_eq!(n.sample(Duration::from_millis(3)), Duration::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn sigma_one_rejected() {
        let _ = NoiseModel::new(1.0, 0);
    }
}
