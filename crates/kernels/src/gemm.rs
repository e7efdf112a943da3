//! Dense matrix multiplication: `C += A · B` on square row-major tiles.
//!
//! The implementation tiers mirror (and now widen) the paper's matmul
//! task versions (§V-B1):
//!
//! 1. **naive** (`dgemm_naive`) — a straightforward triple loop; the
//!    "CBLAS on one core" stand-in and the small-tile dispatch target.
//! 2. **packed scalar** (`dgemm_packed_scalar`) — the portable
//!    register-blocked, panel-packed core from [`crate::microkernel`],
//!    preserved bit-for-bit as the pre-SIMD tier.
//! 3. **packed SIMD** (`dgemm_blocked` / `dgemm_packed`) — the same core
//!    driven by the [`crate::simd`] runtime-dispatched AVX2/AVX-512
//!    micro-kernel (scalar where unavailable).
//! 4. **packed multi-lane** (`dgemm_parallel` / `dgemm_parallel_on`) —
//!    the same core with its `MC` loop parallelized over a [`LaneExec`]'s
//!    lanes: `B` is packed once and shared, each lane packs the `A`
//!    panels of its own row band, and bands are `MC`-granular so the lane
//!    pool's queue load-balances them dynamically.
//!
//! Whatever the tier or banding, per-element accumulation order is
//! identical (see `crate::microkernel`'s bitwise contract), so every
//! packed variant agrees **bitwise** with every other.

use crate::exec::{LaneExec, ScopedExec};
use crate::microkernel::{drive, par_bands};
use crate::pack::PackedB;
use crate::simd::{self, Tier};

/// Below this dimension the packed core's packing overhead outweighs its
/// register blocking and the plain triple loop wins. Measured against the
/// SIMD tiers with `perf_baseline --crossover` (avx512): naive wins
/// through n = 8 (0.22 vs 0.27 µs/call), the two tie at n = 10 (0.42 vs
/// 0.40) and packed is ~2× naive by n = 16.
const PACK_MIN_N: usize = 10;

/// Below this dimension banding across lanes costs more than it saves.
const PAR_MIN_N: usize = 128;

macro_rules! gemm_impls {
    ($t:ty, $naive:ident, $blocked:ident, $packed:ident, $packed_scalar:ident,
     $packed_tier:ident, $parallel:ident, $parallel_on:ident, $kernel:path, $kernel_for:path) => {
        /// `C += A · B`, naive i-k-j triple loop.
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $naive(a: &[$t], b: &[$t], c: &mut [$t], n: usize) {
            assert!(a.len() >= n * n && b.len() >= n * n && c.len() >= n * n);
            for i in 0..n {
                for k in 0..n {
                    let aik = a[i * n + k];
                    let (brow, crow) = (&b[k * n..k * n + n], &mut c[i * n..i * n + n]);
                    for j in 0..n {
                        crow[j] += aik * brow[j];
                    }
                }
            }
        }

        /// `C += A · B` through the packed register-blocked core with the
        /// runtime-dispatched (SIMD where available) micro-kernel,
        /// regardless of size.
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $packed(a: &[$t], b: &[$t], c: &mut [$t], n: usize) {
            assert!(a.len() >= n * n && b.len() >= n * n && c.len() >= n * n);
            let mk = $kernel();
            let pb = PackedB::pack(b, n, false, n, n, mk.nr);
            drive(mk, a, n, c, n, n, n, &pb, false);
        }

        /// `C += A · B` through the packed core with the **portable
        /// scalar** micro-kernel, regardless of CPU features or override
        /// knobs — the pre-SIMD tier, exposed as its own task version and
        /// as the reference the equivalence tests compare bitwise against.
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $packed_scalar(a: &[$t], b: &[$t], c: &mut [$t], n: usize) {
            assert!(a.len() >= n * n && b.len() >= n * n && c.len() >= n * n);
            let mk = $kernel_for(Tier::Scalar).expect("scalar kernel always available");
            let pb = PackedB::pack(b, n, false, n, n, mk.nr);
            drive(mk, a, n, c, n, n, n, &pb, false);
        }

        /// `C += A · B` through the packed core with an explicitly chosen
        /// SIMD tier. Returns `false` (leaving `C` untouched) if this CPU
        /// does not support the tier. For benches and equivalence tests;
        /// production callers use the auto-dispatched entry points.
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $packed_tier(tier: Tier, a: &[$t], b: &[$t], c: &mut [$t], n: usize) -> bool {
            assert!(a.len() >= n * n && b.len() >= n * n && c.len() >= n * n);
            match $kernel_for(tier) {
                Some(mk) => {
                    let pb = PackedB::pack(b, n, false, n, n, mk.nr);
                    drive(mk, a, n, c, n, n, n, &pb, false);
                    true
                }
                None => false,
            }
        }

        /// `C += A · B`, single-core blocked tier: the packed SIMD core,
        /// falling back to the triple loop for tiles too small to
        /// amortize packing (cutoff measured, not guessed — see
        /// `PACK_MIN_N`).
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $blocked(a: &[$t], b: &[$t], c: &mut [$t], n: usize) {
            if n < PACK_MIN_N {
                $naive(a, b, c, n)
            } else {
                $packed(a, b, c, n)
            }
        }

        /// `C += A · B` with the packed core's `MC` loop parallelized
        /// over `exec`'s lanes (this is what an emulated GPU runs). `B`
        /// is packed once and shared by every lane; each band packs its
        /// own `A` panels and bands are `MC`-granular, so the pool's
        /// queue balances them dynamically. The result is bitwise
        /// identical to the serial packed tier.
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $parallel_on(exec: &dyn LaneExec, a: &[$t], b: &[$t], c: &mut [$t], n: usize) {
            assert!(a.len() >= n * n && b.len() >= n * n && c.len() >= n * n);
            if exec.lanes() <= 1 || n < PAR_MIN_N {
                return $blocked(a, b, c, n);
            }
            let mk = $kernel();
            let pb = PackedB::pack(b, n, false, n, n, mk.nr);
            let pb = &pb;
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            let mut rest: &mut [$t] = &mut c[..n * n];
            for band in par_bands(n, exec.lanes(), mk.mr) {
                let rows = band.len();
                let (mine, r) = rest.split_at_mut(rows * n);
                rest = r;
                let a_band = &a[band.start * n..band.end * n];
                jobs.push(Box::new(move || drive(mk, a_band, n, mine, n, rows, n, pb, false)));
            }
            exec.run_batch(jobs);
        }

        /// `C += A · B` over `lanes` ad-hoc scoped threads — the legacy
        /// entry point for callers without a persistent lane pool.
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $parallel(a: &[$t], b: &[$t], c: &mut [$t], n: usize, lanes: usize) {
            $parallel_on(&ScopedExec::new(lanes), a, b, c, n)
        }
    };
}

gemm_impls!(
    f64,
    dgemm_naive,
    dgemm_blocked,
    dgemm_packed,
    dgemm_packed_scalar,
    dgemm_packed_tier,
    dgemm_parallel,
    dgemm_parallel_on,
    simd::kernel_f64,
    simd::kernel_f64_for
);
gemm_impls!(
    f32,
    sgemm_naive,
    sgemm_blocked,
    sgemm_packed,
    sgemm_packed_scalar,
    sgemm_packed_tier,
    sgemm_parallel,
    sgemm_parallel_on,
    simd::kernel_f32,
    simd::kernel_f32_for
);

macro_rules! gemm_nt_sub_impls {
    ($t:ty, $serial:ident, $packed:ident, $par:ident, $par_on:ident, $rect:ident,
     $kernel:path) => {
        /// Rectangular dot-product core: `C[rows×n] −= A[rows×n] · Bᵀ`.
        fn $rect(a: &[$t], b: &[$t], c: &mut [$t], rows: usize, n: usize) {
            assert!(a.len() >= rows * n && b.len() >= n * n && c.len() >= rows * n);
            for i in 0..rows {
                for j in 0..n {
                    let mut dot: $t = 0.0;
                    for k in 0..n {
                        dot += a[i * n + k] * b[j * n + k];
                    }
                    c[i * n + j] -= dot;
                }
            }
        }

        /// `C ← C − A·Bᵀ` through the packed core (`B` packed
        /// transposed), regardless of size.
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $packed(a: &[$t], b: &[$t], c: &mut [$t], n: usize) {
            assert!(a.len() >= n * n && b.len() >= n * n && c.len() >= n * n);
            let mk = $kernel();
            let pb = PackedB::pack(b, n, true, n, n, mk.nr);
            drive(mk, a, n, c, n, n, n, &pb, true);
        }

        /// `C ← C − A·Bᵀ` — the trailing update of the tiled Cholesky
        /// (`A[i][j] −= A[i][k]·A[j][k]ᵀ`). Dispatches to the packed core
        /// above the small-tile threshold.
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $serial(a: &[$t], b: &[$t], c: &mut [$t], n: usize) {
            if n < PACK_MIN_N {
                $rect(a, b, c, n, n)
            } else {
                $packed(a, b, c, n)
            }
        }

        /// Multi-lane NT update with the `MC` loop banded over `exec`'s
        /// lanes; `B` is packed once (transposed) and shared.
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $par_on(exec: &dyn LaneExec, a: &[$t], b: &[$t], c: &mut [$t], n: usize) {
            assert!(a.len() >= n * n && b.len() >= n * n && c.len() >= n * n);
            if exec.lanes() <= 1 || n < PAR_MIN_N {
                return $serial(a, b, c, n);
            }
            let mk = $kernel();
            let pb = PackedB::pack(b, n, true, n, n, mk.nr);
            let pb = &pb;
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            let mut rest: &mut [$t] = &mut c[..n * n];
            for band in par_bands(n, exec.lanes(), mk.mr) {
                let rows = band.len();
                let (mine, r) = rest.split_at_mut(rows * n);
                rest = r;
                let a_band = &a[band.start * n..band.end * n];
                jobs.push(Box::new(move || drive(mk, a_band, n, mine, n, rows, n, pb, true)));
            }
            exec.run_batch(jobs);
        }

        /// Multi-lane NT update over `lanes` ad-hoc scoped threads.
        ///
        /// # Panics
        /// Panics if any slice is shorter than `n * n`.
        pub fn $par(a: &[$t], b: &[$t], c: &mut [$t], n: usize, lanes: usize) {
            $par_on(&ScopedExec::new(lanes), a, b, c, n)
        }
    };
}

gemm_nt_sub_impls!(
    f32,
    sgemm_nt_sub,
    sgemm_nt_sub_packed,
    sgemm_nt_sub_par,
    sgemm_nt_sub_par_on,
    sgemm_nt_rect,
    simd::kernel_f32
);
gemm_nt_sub_impls!(
    f64,
    dgemm_nt_sub,
    dgemm_nt_sub_packed,
    dgemm_nt_sub_par,
    dgemm_nt_sub_par_on,
    dgemm_nt_rect,
    simd::kernel_f64
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_close_f32, assert_close_f64, random_matrix_f32, random_matrix_f64};

    #[test]
    fn naive_matches_hand_example() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50], starting from C = I.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [1.0, 0.0, 0.0, 1.0];
        dgemm_naive(&a, &b, &mut c, 2);
        assert_eq!(c, [20.0, 22.0, 43.0, 51.0]);
    }

    #[test]
    fn blocked_matches_naive_f64() {
        for n in [1usize, 7, 23, 24, 63, 64, 65, 130] {
            let a = random_matrix_f64(n, 1);
            let b = random_matrix_f64(n, 2);
            let mut c1 = random_matrix_f64(n, 3);
            let mut c2 = c1.clone();
            dgemm_naive(&a, &b, &mut c1, n);
            dgemm_blocked(&a, &b, &mut c2, n);
            assert_close_f64(&c1, &c2, 1e-10);
        }
    }

    #[test]
    fn packed_scalar_matches_naive_f64() {
        for n in [8usize, 65, 130] {
            let a = random_matrix_f64(n, 51);
            let b = random_matrix_f64(n, 52);
            let mut c1 = random_matrix_f64(n, 53);
            let mut c2 = c1.clone();
            dgemm_naive(&a, &b, &mut c1, n);
            dgemm_packed_scalar(&a, &b, &mut c2, n);
            assert_close_f64(&c1, &c2, 1e-10);
        }
    }

    #[test]
    fn forced_tier_matches_packed_scalar_bitwise() {
        let n = 100;
        let a = random_matrix_f64(n, 54);
        let b = random_matrix_f64(n, 55);
        let c0 = random_matrix_f64(n, 56);
        let mut reference = c0.clone();
        dgemm_packed_scalar(&a, &b, &mut reference, n);
        for tier in crate::simd::detected_tiers() {
            let mut c = c0.clone();
            if dgemm_packed_tier(tier, &a, &b, &mut c, n) {
                assert_eq!(c, reference, "tier {tier} diverged bitwise");
            }
        }
        // An unavailable tier must leave C untouched. (On x86-64 CPUs all
        // tiers may be available; the scalar tier at least always is.)
        assert!(dgemm_packed_tier(Tier::Scalar, &a, &b, &mut c0.clone(), n));
    }

    #[test]
    fn parallel_matches_naive_f64() {
        for lanes in [1usize, 2, 3, 4, 8] {
            let n = 150;
            let a = random_matrix_f64(n, 4);
            let b = random_matrix_f64(n, 5);
            let mut c1 = random_matrix_f64(n, 6);
            let mut c2 = c1.clone();
            dgemm_naive(&a, &b, &mut c1, n);
            dgemm_parallel(&a, &b, &mut c2, n, lanes);
            assert_close_f64(&c1, &c2, 1e-10);
        }
    }

    #[test]
    fn parallel_is_bitwise_equal_to_packed() {
        // Same microkernel, same k-order per element — banding must not
        // change a single bit, including with MC-granular bands (n large
        // enough for several MC blocks).
        for (n, lanes) in [(200usize, 3usize), (300, 2), (520, 4)] {
            let a = random_matrix_f64(n, 40);
            let b = random_matrix_f64(n, 41);
            let mut c1 = random_matrix_f64(n, 42);
            let mut c2 = c1.clone();
            dgemm_packed(&a, &b, &mut c1, n);
            dgemm_parallel(&a, &b, &mut c2, n, lanes);
            assert_eq!(c1, c2, "n={n} lanes={lanes}");
        }
    }

    #[test]
    fn blocked_matches_naive_f32() {
        let n = 90;
        let a = random_matrix_f32(n, 7);
        let b = random_matrix_f32(n, 8);
        let mut c1 = vec![0.0f32; n * n];
        let mut c2 = vec![0.0f32; n * n];
        sgemm_naive(&a, &b, &mut c1, n);
        sgemm_blocked(&a, &b, &mut c2, n);
        assert_close_f32(&c1, &c2, 1e-3);
    }

    #[test]
    fn packed_scalar_and_tiers_match_naive_f32() {
        let n = 70;
        let a = random_matrix_f32(n, 17);
        let b = random_matrix_f32(n, 18);
        let mut expect = vec![0.25f32; n * n];
        sgemm_naive(&a, &b, &mut expect, n);
        let mut scalar = vec![0.25f32; n * n];
        sgemm_packed_scalar(&a, &b, &mut scalar, n);
        assert_close_f32(&expect, &scalar, 1e-3);
        for tier in crate::simd::detected_tiers() {
            let mut c = vec![0.25f32; n * n];
            if sgemm_packed_tier(tier, &a, &b, &mut c, n) {
                assert_eq!(c, scalar, "f32 tier {tier} diverged bitwise");
            }
        }
    }

    #[test]
    fn parallel_matches_naive_f32() {
        let n = 140;
        let a = random_matrix_f32(n, 9);
        let b = random_matrix_f32(n, 10);
        let mut c1 = vec![0.5f32; n * n];
        let mut c2 = vec![0.5f32; n * n];
        sgemm_naive(&a, &b, &mut c1, n);
        sgemm_parallel(&a, &b, &mut c2, n, 4);
        assert_close_f32(&c1, &c2, 1e-3);
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let n = 8;
        let a = random_matrix_f64(n, 11);
        let b = random_matrix_f64(n, 12);
        let mut c = vec![0.0; n * n];
        dgemm_naive(&a, &b, &mut c, n);
        let after_one = c.clone();
        dgemm_naive(&a, &b, &mut c, n);
        for i in 0..n * n {
            assert!((c[i] - 2.0 * after_one[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_dimension_is_a_noop() {
        let mut c: [f64; 0] = [];
        dgemm_naive(&[], &[], &mut c, 0);
        dgemm_blocked(&[], &[], &mut c, 0);
        dgemm_packed(&[], &[], &mut c, 0);
        dgemm_packed_scalar(&[], &[], &mut c, 0);
        dgemm_parallel(&[], &[], &mut c, 0, 4);
    }

    #[test]
    fn nt_sub_matches_manual_transpose() {
        let n = 40;
        let a = random_matrix_f64(n, 20);
        let b = random_matrix_f64(n, 21);
        let c0 = random_matrix_f64(n, 22);
        // Reference: C -= A * B^T via naive gemm on transposed B.
        let mut bt = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                bt[i * n + j] = b[j * n + i];
            }
        }
        let mut expect = c0.clone();
        let mut prod = vec![0.0; n * n];
        dgemm_naive(&a, &bt, &mut prod, n);
        for i in 0..n * n {
            expect[i] -= prod[i];
        }
        for f in [dgemm_nt_sub, dgemm_nt_sub_packed] {
            let mut got = c0.clone();
            f(&a, &b, &mut got, n);
            assert_close_f64(&expect, &got, 1e-10);
        }
    }

    #[test]
    fn nt_sub_parallel_matches_serial() {
        let n = 160;
        let a = random_matrix_f64(n, 23);
        let b = random_matrix_f64(n, 24);
        let mut c1 = random_matrix_f64(n, 25);
        let mut c2 = c1.clone();
        dgemm_nt_sub(&a, &b, &mut c1, n);
        dgemm_nt_sub_par(&a, &b, &mut c2, n, 5);
        assert_close_f64(&c1, &c2, 1e-12);
        // f32 variant smoke.
        let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let mut cf1 = vec![0.0f32; n * n];
        let mut cf2 = vec![0.0f32; n * n];
        sgemm_nt_sub(&af, &bf, &mut cf1, n);
        sgemm_nt_sub_par(&af, &bf, &mut cf2, n, 3);
        crate::verify::assert_close_f32(&cf1, &cf2, 1e-4);
    }

    #[test]
    #[should_panic]
    fn short_slice_panics() {
        let mut c = vec![0.0f64; 3];
        dgemm_naive(&[0.0; 4], &[0.0; 4], &mut c, 2);
    }
}
