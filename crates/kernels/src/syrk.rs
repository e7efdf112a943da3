//! Symmetric rank-k update: `C ← C − A·Aᵀ` (lower triangle) — the
//! diagonal-tile update of the tiled Cholesky.
//!
//! Above the small-tile threshold the update runs through the packed
//! register-blocked core: `A` is packed once *transposed* (so the core
//! computes `A·Aᵀ`), then driven over row bands — at least `MC`-granular —
//! with the column count clipped to each band's trailing edge. The
//! computed region is the lower trapezoid rounded up to band boundaries,
//! and a final mirror pass restores the full-symmetric-tile contract.

use crate::exec::{LaneExec, SerialExec};
use crate::microkernel::{drive, par_bands};
use crate::pack::PackedB;

/// Below this dimension the dot-product loop beats packing. Re-measured
/// against the SIMD tiers: the packed core wins from n = 16 up (0.9 vs
/// 1.9 µs/call) and is ~5× faster by n = 48, so the old 64 cutoff left
/// mid-size Cholesky diagonal tiles on the slow path.
const PACK_MIN_N: usize = 16;

macro_rules! syrk_impl {
    ($t:ty, $name:ident, $par_on:ident, $legacy:ident, $kernel:path) => {
        /// Dot-product rank-k update of the lower triangle (small tiles).
        fn $legacy(a: &[$t], c: &mut [$t], n: usize) {
            for i in 0..n {
                for j in 0..=i {
                    let mut dot: $t = 0.0;
                    for k in 0..n {
                        dot += a[i * n + k] * a[j * n + k];
                    }
                    c[i * n + j] -= dot;
                }
            }
        }

        /// `C ← C − A·Aᵀ`, updating only the lower triangle (the upper
        /// triangle mirrors it so the tile stays a full symmetric matrix,
        /// which keeps downstream `potrf`/reference checks simple).
        /// Dispatches to the packed register-blocked core above the
        /// small-tile threshold.
        ///
        /// # Panics
        /// Panics if either slice is shorter than `n * n`.
        pub fn $name(a: &[$t], c: &mut [$t], n: usize) {
            $par_on(&SerialExec, a, c, n)
        }

        /// Rank-k update banded over `exec`'s lanes: each lane owns a row
        /// band of the lower trapezoid (columns clipped to the band's
        /// trailing edge), sharing one transposed packing of `A`; the
        /// mirror pass runs serially afterwards. Per-element accumulation
        /// order never depends on the banding, so any lane count produces
        /// bitwise-identical tiles.
        ///
        /// # Panics
        /// Panics if either slice is shorter than `n * n`.
        pub fn $par_on(exec: &dyn LaneExec, a: &[$t], c: &mut [$t], n: usize) {
            assert!(a.len() >= n * n && c.len() >= n * n);
            if n < PACK_MIN_N {
                // Dot-product tier; banding it isn't worth a wake-up.
                $legacy(a, c, n);
            } else {
                let mk = $kernel();
                let pa = PackedB::pack(a, n, true, n, n, mk.nr);
                let pa = &pa;
                let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
                let mut rest: &mut [$t] = &mut c[..n * n];
                let mut consumed = 0usize;
                // MC-granular bands whenever work is plentiful, so the
                // column clip skips the upper triangle's work even on a
                // single lane and the pool load-balances ragged bands.
                for band in par_bands(n, exec.lanes(), mk.mr) {
                    let rows = band.len();
                    let (mine, r) = rest.split_at_mut(rows * n);
                    rest = r;
                    let a_band = &a[band.start * n..];
                    let ncols = band.end;
                    jobs.push(Box::new(move || {
                        drive(mk, a_band, n, mine, n, rows, ncols, pa, true)
                    }));
                    consumed += rows;
                }
                debug_assert_eq!(consumed, n);
                exec.run_batch(jobs);
            }
            // Mirror the lower triangle to the upper.
            for i in 0..n {
                for j in 0..i {
                    c[j * n + i] = c[i * n + j];
                }
            }
        }
    };
}

syrk_impl!(f32, ssyrk_lower, ssyrk_lower_par_on, ssyrk_rows, crate::simd::kernel_f32);
syrk_impl!(f64, dsyrk_lower, dsyrk_lower_par_on, dsyrk_rows, crate::simd::kernel_f64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::LanePool;
    use crate::verify::{assert_close_f64, random_matrix_f64};

    /// Reference: full `C − A·Aᵀ` via gemm with B = Aᵀ.
    fn reference(a: &[f64], c0: &[f64], n: usize) -> Vec<f64> {
        let mut out = c0.to_vec();
        for i in 0..n {
            for j in 0..n {
                let mut dot = 0.0;
                for k in 0..n {
                    dot += a[i * n + k] * a[j * n + k];
                }
                out[i * n + j] -= dot;
            }
        }
        out
    }

    fn symmetric_matrix(n: usize, seed: u64) -> Vec<f64> {
        let mut m = random_matrix_f64(n, seed);
        for i in 0..n {
            for j in 0..i {
                m[j * n + i] = m[i * n + j];
            }
        }
        m
    }

    #[test]
    fn matches_reference() {
        // 1..4 take the dot-product tier, 17..130 the packed tier.
        for n in [1usize, 4, 15, 17, 50, 64, 80, 130] {
            let a = random_matrix_f64(n, 1);
            let c0 = symmetric_matrix(n, 2);
            let mut c = c0.clone();
            dsyrk_lower(&a, &mut c, n);
            assert_close_f64(&c, &reference(&a, &c0, n), 1e-9);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let n = 100;
        let a = random_matrix_f64(n, 3);
        let c0 = symmetric_matrix(n, 4);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        dsyrk_lower(&a, &mut c1, n);
        dsyrk_lower_par_on(&LanePool::new(4), &a, &mut c2, n);
        assert_close_f64(&c1, &c2, 1e-12);
        // Banding must not change per-element accumulation order.
        assert_eq!(c1, c2);
    }

    #[test]
    fn result_stays_symmetric() {
        for n in [12usize, 96] {
            let a = random_matrix_f64(n, 5);
            let mut c = symmetric_matrix(n, 6);
            dsyrk_lower(&a, &mut c, n);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(c[i * n + j], c[j * n + i]);
                }
            }
        }
    }

    #[test]
    fn f32_smoke() {
        let a = vec![1.0f32, 0.0, 0.0, 1.0];
        let mut c = vec![5.0f32, 0.0, 0.0, 5.0];
        ssyrk_lower(&a, &mut c, 2);
        assert_eq!(c, vec![4.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn f32_packed_matches_dot_tier() {
        let n = 72;
        let a: Vec<f32> = random_matrix_f64(n, 7).iter().map(|&v| v as f32).collect();
        let c0: Vec<f32> = symmetric_matrix(n, 8).iter().map(|&v| v as f32).collect();
        let mut got = c0.clone();
        ssyrk_lower(&a, &mut got, n);
        let expect64 = reference(
            &a.iter().map(|&v| v as f64).collect::<Vec<_>>(),
            &c0.iter().map(|&v| v as f64).collect::<Vec<_>>(),
            n,
        );
        for i in 0..n {
            for j in 0..=i {
                let e = expect64[i * n + j] as f32;
                assert!((got[i * n + j] - e).abs() <= 1e-2 * e.abs().max(1.0));
            }
        }
    }
}
