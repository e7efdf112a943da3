//! Reference helpers for the kernel test suites: deterministic matrix
//! generators and tolerance-based comparisons.

/// Deterministic splitmix64 stream: full 2⁶⁴ period from any seed, no
/// external dependency. Only used to synthesize reproducible test data.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn next_signed_unit(&mut self) -> f64 {
        2.0 * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) - 1.0
    }
}

/// Deterministic random row-major `n × n` matrix with entries in
/// `[-1, 1)`.
pub fn random_matrix_f64(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    (0..n * n).map(|_| rng.next_signed_unit()).collect()
}

/// `f32` variant of [`random_matrix_f64`].
pub fn random_matrix_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix(seed);
    (0..n * n).map(|_| rng.next_signed_unit() as f32).collect()
}

/// Deterministic symmetric positive-definite matrix: `M·Mᵀ + n·I`.
pub fn spd_matrix_f64(n: usize, seed: u64) -> Vec<f64> {
    let m = random_matrix_f64(n, seed);
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut dot = 0.0;
            for k in 0..n {
                dot += m[i * n + k] * m[j * n + k];
            }
            a[i * n + j] = dot;
        }
        a[i * n + i] += n as f64;
    }
    a
}

/// `f32` variant of [`spd_matrix_f64`].
pub fn spd_matrix_f32(n: usize, seed: u64) -> Vec<f32> {
    spd_matrix_f64(n, seed).into_iter().map(|v| v as f32).collect()
}

/// Largest absolute element-wise difference between two slices.
///
/// # Panics
/// Panics if lengths differ.
pub fn max_abs_diff_f64(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// `f32` variant of [`max_abs_diff_f64`].
#[cfg(test)]
pub(crate) fn max_abs_diff_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// Assert element-wise closeness within `tol`.
///
/// # Panics
/// Panics (with the max deviation) if any element differs by more than
/// `tol`, or if lengths differ.
pub fn assert_close_f64(a: &[f64], b: &[f64], tol: f64) {
    let d = max_abs_diff_f64(a, b);
    assert!(d <= tol, "max abs diff {d} exceeds tolerance {tol}");
}

/// `f32` variant of [`assert_close_f64`].
#[cfg(test)]
pub(crate) fn assert_close_f32(a: &[f32], b: &[f32], tol: f32) {
    let d = max_abs_diff_f32(a, b);
    assert!(d <= tol, "max abs diff {d} exceeds tolerance {tol}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_matrix_f64(10, 1), random_matrix_f64(10, 1));
        assert_ne!(random_matrix_f64(10, 1), random_matrix_f64(10, 2));
    }

    #[test]
    fn spd_matrix_is_symmetric_with_dominant_diagonal() {
        let n = 12;
        let a = spd_matrix_f64(n, 9);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(a[i * n + j], a[j * n + i]);
            }
            assert!(a[i * n + i] >= n as f64, "diagonal boosted by n");
        }
    }

    #[test]
    fn diff_helpers() {
        assert_eq!(max_abs_diff_f64(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert_close_f64(&[1.0], &[1.0 + 1e-12], 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds tolerance")]
    fn assert_close_fails_loudly() {
        assert_close_f32(&[1.0], &[2.0], 0.5);
    }
}
