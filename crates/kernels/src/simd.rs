//! Runtime SIMD feature dispatch and the explicit `std::arch`
//! micro-kernels.
//!
//! The packed GEMM core (the private `microkernel` module) is driven
//! through a `MicroKernel` chosen **once per process** and cached: the
//! first call probes the CPU with `is_x86_feature_detected!` (honoring
//! the override knobs below) and every subsequent call costs one atomic
//! load. Three tiers exist:
//!
//! | tier | f64 tile | f32 tile | requires |
//! |---|---|---|---|
//! | `scalar` | 8×4 | 8×16 | nothing — the portable pre-SIMD tier |
//! | `avx2` | 4×8 | 4×16 | AVX2 + FMA |
//! | `avx512` | 8×16 | 8×32 | AVX-512F |
//!
//! The SIMD tiles are *row-oriented*: each tile row keeps two
//! accumulator vectors spanning the tile's columns, so each `k` step is
//! two packed-`B` vector loads, one broadcast of each row's packed-`A`
//! value and two FMAs per row — 8 independent accumulator chains on
//! AVX2, 16 on AVX-512, enough to keep both FMA ports busy. A full tile
//! is written back straight from its registers, one vector load, `±`
//! and store per accumulator; only a ragged corner spills to a row
//! buffer. Each tile prefetches the rows of its `C` tile on entry, so
//! the write-back does not stall on a `C` that lives in L3 or DRAM.
//! Every tier preserves the bitwise contract of the `microkernel` module:
//! per-element fused multiply-add in ascending `k` order, so **all tiers
//! produce bitwise-identical results** and tests can compare them with
//! `==`.
//!
//! # Override knobs
//!
//! * `VERSA_SIMD=scalar|avx2|avx512|auto` — pin the dispatch to one tier
//!   (used by the forced-scalar CI leg and the equivalence tests). A tier
//!   the CPU lacks falls back to the best available one with a warning.
//! * `VERSA_FORCE_SCALAR=1` — shorthand for `VERSA_SIMD=scalar`.
//!
//! Both are read once, at first kernel use.

use crate::microkernel::{MicroKernel, SCALAR_F32, SCALAR_F64};
use std::sync::OnceLock;

/// A SIMD dispatch tier. `Ord` follows capability: wider is greater.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Tier {
    /// Portable scalar micro-kernels (auto-vectorized by LLVM).
    Scalar,
    /// Explicit AVX2 + FMA micro-kernels.
    Avx2,
    /// Explicit AVX-512F micro-kernels.
    Avx512,
}

impl Tier {
    /// The tier's name as used by `VERSA_SIMD`, benches and docs.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tiers the running CPU supports, widest first. Always ends with
/// [`Tier::Scalar`].
pub fn detected_tiers() -> Vec<Tier> {
    let mut tiers = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            tiers.push(Tier::Avx512);
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            tiers.push(Tier::Avx2);
        }
    }
    tiers.push(Tier::Scalar);
    tiers
}

/// What the environment asked for: a pinned tier, or auto-detection.
fn requested() -> Option<Tier> {
    if let Ok(v) = std::env::var("VERSA_SIMD") {
        return match v.to_ascii_lowercase().as_str() {
            "scalar" => Some(Tier::Scalar),
            "avx2" => Some(Tier::Avx2),
            "avx512" => Some(Tier::Avx512),
            "" | "auto" => None,
            other => {
                eprintln!("versa-kernels: unknown VERSA_SIMD value {other:?}; using auto");
                None
            }
        };
    }
    match std::env::var("VERSA_FORCE_SCALAR") {
        Ok(v) if matches!(v.as_str(), "1" | "true" | "yes" | "on") => Some(Tier::Scalar),
        _ => None,
    }
}

/// The tier dispatch settles on: the widest detected tier, clamped to a
/// `VERSA_SIMD`/`VERSA_FORCE_SCALAR` request. Cached after the first call.
pub fn active_tier() -> Tier {
    static ACTIVE: OnceLock<Tier> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let available = detected_tiers();
        let best = available[0];
        match requested() {
            None => best,
            Some(want) if available.contains(&want) => want,
            Some(want) => {
                eprintln!(
                    "versa-kernels: VERSA_SIMD={} not supported by this CPU; using {}",
                    want.name(),
                    best.name()
                );
                best
            }
        }
    })
}

/// The `f64` micro-kernel for an explicit tier, if this CPU supports it.
pub(crate) fn kernel_f64_for(tier: Tier) -> Option<&'static MicroKernel<f64>> {
    match tier {
        Tier::Scalar => Some(&SCALAR_F64),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") => {
            Some(&x86::AVX2_F64)
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 if is_x86_feature_detected!("avx512f") => Some(&x86::AVX512_F64),
        _ => None,
    }
}

/// The `f32` micro-kernel for an explicit tier, if this CPU supports it.
pub(crate) fn kernel_f32_for(tier: Tier) -> Option<&'static MicroKernel<f32>> {
    match tier {
        Tier::Scalar => Some(&SCALAR_F32),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") => {
            Some(&x86::AVX2_F32)
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 if is_x86_feature_detected!("avx512f") => Some(&x86::AVX512_F32),
        _ => None,
    }
}

/// The dispatched `f64` micro-kernel (cached function pointer).
pub(crate) fn kernel_f64() -> &'static MicroKernel<f64> {
    static ACTIVE: OnceLock<&'static MicroKernel<f64>> = OnceLock::new();
    ACTIVE.get_or_init(|| kernel_f64_for(active_tier()).unwrap_or(&SCALAR_F64))
}

/// The dispatched `f32` micro-kernel (cached function pointer).
pub(crate) fn kernel_f32() -> &'static MicroKernel<f32> {
    static ACTIVE: OnceLock<&'static MicroKernel<f32>> = OnceLock::new();
    ACTIVE.get_or_init(|| kernel_f32_for(active_tier()).unwrap_or(&SCALAR_F32))
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The explicit x86-64 micro-kernels.
    //!
    //! Each tile is generated by [`row_tile!`] as a `#[target_feature]`
    //! function, so LLVM emits the wide instructions regardless of the
    //! crate's base target. `make_driver!` wraps it in its own
    //! monomorphized BLIS loop nest, and the dispatch table stores that
    //! *driver* — calling a kernel whose features the CPU lacks is the
    //! driver's safety precondition, which dispatch upholds by only
    //! handing out kernels after `is_x86_feature_detected!` confirms the
    //! features.

    use crate::microkernel::{apply_rows, make_driver, MicroKernel};
    use std::arch::x86_64::*;

    /// Prefetch the live `rows × cols` corner of a `C` tile into L1 at
    /// micro-kernel entry, so the write-back after the `k` loop finds it
    /// there instead of waiting on L3 or DRAM. Touches every cache line
    /// of each live row (its first byte, every 64 bytes, its last byte).
    #[inline(always)]
    fn prefetch_c<T>(c: *const T, ldc: usize, rows: usize, cols: usize) {
        debug_assert!(cols > 0);
        let bytes = cols * std::mem::size_of::<T>();
        for r in 0..rows {
            let row = c.wrapping_add(r * ldc).cast::<i8>();
            for off in (0..bytes).step_by(64).chain([bytes - 1]) {
                // SAFETY: a prefetch is a hint that never faults, and
                // `wrapping_add` keeps the address computation defined.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(row.wrapping_add(off)) }
            }
        }
    }

    /// Generate one row-oriented SIMD tile, its driver and its
    /// [`MicroKernel`]. Row `r` of the `MR × NR` tile keeps two
    /// accumulator vectors of `NR / 2` lanes, so each `k` step loads two
    /// vectors of packed `B`, broadcasts each of the `MR` packed `A`
    /// values once and issues `2 · MR` independent FMAs. A full tile is
    /// written back straight from the registers, one load, `±` and store
    /// per vector; a ragged corner spills the tile row-major and goes
    /// through [`apply_rows`].
    macro_rules! row_tile {
        ($kernel:ident, $micro:ident, $driver:ident, $t:ty, $tier:literal, $feature:literal,
         $mr:literal, $nr:literal,
         $zero:ident, $load:ident, $store:ident, $set1:ident, $fmadd:ident,
         $add:ident, $sub:ident) => {
            #[doc = concat!("The ", $tier, " `", stringify!($t), "` tile, ", stringify!($mr), "×",
                stringify!($nr), ".")]
            // The 8-argument signature is the shared micro-kernel ABI.
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $feature)]
            unsafe fn $micro(
                kc: usize,
                ap: &[$t],
                bp: &[$t],
                c: *mut $t,
                ldc: usize,
                rows: usize,
                cols: usize,
                sub: bool,
            ) {
                const LANES: usize = $nr / 2;
                debug_assert!(ap.len() >= kc * $mr && bp.len() >= kc * $nr);
                debug_assert!(rows <= $mr && cols <= $nr);
                prefetch_c(c, ldc, rows, cols);
                let mut acc = [[$zero(); 2]; $mr];
                let (mut a, mut b) = (ap.as_ptr(), bp.as_ptr());
                // SAFETY: the panel lengths checked above bound every
                // load of `a` and `b`; the driver guarantees the rows ×
                // cols corner at `c` with row stride `ldc` is writable,
                // and the full-tile path runs only when that corner is
                // the whole tile.
                unsafe {
                    for _ in 0..kc {
                        let (b0, b1) = ($load(b), $load(b.add(LANES)));
                        for (r, [v0, v1]) in acc.iter_mut().enumerate() {
                            let ar = $set1(*a.add(r));
                            *v0 = $fmadd(ar, b0, *v0);
                            *v1 = $fmadd(ar, b1, *v1);
                        }
                        a = a.add($mr);
                        b = b.add($nr);
                    }
                    if rows == $mr && cols == $nr {
                        for (r, row) in acc.iter().enumerate() {
                            for (h, &v) in row.iter().enumerate() {
                                let dst = c.add(r * ldc + h * LANES);
                                let cv = $load(dst);
                                $store(dst, if sub { $sub(cv, v) } else { $add(cv, v) });
                            }
                        }
                    } else {
                        let mut spill = [0.0 as $t; $mr * $nr];
                        for (r, row) in acc.iter().enumerate() {
                            for (h, &v) in row.iter().enumerate() {
                                $store(spill.as_mut_ptr().add(r * $nr + h * LANES), v);
                            }
                        }
                        apply_rows(&spill, $nr, c, ldc, rows, cols, sub);
                    }
                }
            }

            make_driver!($t, $driver, $micro, $mr, $nr);

            pub(crate) static $kernel: MicroKernel<$t> =
                MicroKernel { mr: $mr, nr: $nr, drive: $driver };
        };
    }

    // AVX2 has 16 vector registers: 4 rows × 2 accumulators leave room
    // for the two `B` vectors and the broadcast. 4×8/4×16 measured at
    // least as fast as 8×4/8×8 with one accumulator per row.
    row_tile!(AVX2_F64, avx2_f64_tile, drive_avx2_f64, f64, "avx2", "avx2,fma", 4, 8,
        _mm256_setzero_pd, _mm256_loadu_pd, _mm256_storeu_pd, _mm256_set1_pd, _mm256_fmadd_pd,
        _mm256_add_pd, _mm256_sub_pd);
    row_tile!(AVX2_F32, avx2_f32_tile, drive_avx2_f32, f32, "avx2", "avx2,fma", 4, 16,
        _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_fmadd_ps,
        _mm256_add_ps, _mm256_sub_ps);
    row_tile!(AVX512_F64, avx512_f64_tile, drive_avx512_f64, f64, "avx512", "avx512f", 8, 16,
        _mm512_setzero_pd, _mm512_loadu_pd, _mm512_storeu_pd, _mm512_set1_pd, _mm512_fmadd_pd,
        _mm512_add_pd, _mm512_sub_pd);
    row_tile!(AVX512_F32, avx512_f32_tile, drive_avx512_f32, f32, "avx512", "avx512f", 8, 32,
        _mm512_setzero_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_fmadd_ps,
        _mm512_add_ps, _mm512_sub_ps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::drive;
    use crate::pack::PackedB;
    use crate::verify::{random_matrix_f32, random_matrix_f64};

    #[test]
    fn detection_always_offers_scalar_last() {
        let tiers = detected_tiers();
        assert_eq!(*tiers.last().unwrap(), Tier::Scalar);
        // Widest first.
        let mut sorted = tiers.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(tiers, sorted);
    }

    #[test]
    fn scalar_kernel_is_always_available() {
        assert!(kernel_f64_for(Tier::Scalar).is_some());
        assert!(kernel_f32_for(Tier::Scalar).is_some());
    }

    /// Every available tier must produce *bitwise* the same result as the
    /// portable scalar kernel — the contract documented in
    /// `crate::microkernel`.
    #[test]
    fn every_tier_is_bitwise_equal_to_scalar_f64() {
        // Odd shape: ragged MR/NR edges and a second KC panel.
        let (rows, k, n) = (29usize, 300usize, 21usize);
        let a = random_matrix_f64(rows.max(k), 1)[..rows * k].to_vec();
        let b = random_matrix_f64(k.max(n), 2)[..k * n].to_vec();
        let c0: Vec<f64> = (0..rows * n).map(|v| (v % 13) as f64 - 6.0).collect();
        let reference = {
            let mk = kernel_f64_for(Tier::Scalar).unwrap();
            let pb = PackedB::pack(&b, n, false, k, n, mk.nr);
            let mut c = c0.clone();
            drive(mk, &a, k, &mut c, n, rows, n, &pb, false);
            c
        };
        for tier in detected_tiers() {
            let Some(mk) = kernel_f64_for(tier) else { continue };
            let pb = PackedB::pack(&b, n, false, k, n, mk.nr);
            let mut c = c0.clone();
            drive(mk, &a, k, &mut c, n, rows, n, &pb, false);
            assert_eq!(c, reference, "tier {} diverged bitwise (f64)", tier.name());
        }
    }

    #[test]
    fn every_tier_is_bitwise_equal_to_scalar_f32() {
        let (rows, k, n) = (19usize, 70usize, 11usize);
        let a = random_matrix_f32(rows.max(k), 3)[..rows * k].to_vec();
        let b = random_matrix_f32(k.max(n), 4)[..k * n].to_vec();
        let c0: Vec<f32> = (0..rows * n).map(|v| (v % 7) as f32 - 3.0).collect();
        let reference = {
            let mk = kernel_f32_for(Tier::Scalar).unwrap();
            let pb = PackedB::pack(&b, n, false, k, n, mk.nr);
            let mut c = c0.clone();
            drive(mk, &a, k, &mut c, n, rows, n, &pb, true);
            c
        };
        for tier in detected_tiers() {
            let Some(mk) = kernel_f32_for(tier) else { continue };
            let pb = PackedB::pack(&b, n, false, k, n, mk.nr);
            let mut c = c0.clone();
            drive(mk, &a, k, &mut c, n, rows, n, &pb, true);
            assert_eq!(c, reference, "tier {} diverged bitwise (f32)", tier.name());
        }
    }
}
