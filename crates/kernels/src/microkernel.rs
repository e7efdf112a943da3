//! Register-blocked GEMM micro-kernels and the packed block driver.
//!
//! A micro-kernel computes one `mr × nr` tile of `C` as a sum over the
//! packed k-major micro-panels produced by [`crate::pack`]: per `k` step
//! it reads one `mr`-vector of `A` and one `nr`-vector of `B` and updates
//! an `mr × nr` accumulator held in registers. Several micro-kernels
//! exist — the portable scalar tiles below plus the explicit AVX2/AVX-512
//! tiles in [`crate::simd`] — and each is wrapped by [`make_driver!`]
//! into a **monomorphized driver**: the full BLIS loop nest (`KC`-deep
//! panels outermost, `MC`-tall packed blocks of `A`, then `nr`-wide
//! micro-panels of `B` and `mr`-tall micro-panels of `A` innermost) with
//! a *direct* call to its micro-kernel, so the hot tile loop inlines.
//! Dispatch (see [`crate::simd`]) is a single cached function pointer at
//! the whole-driver level — paid once per GEMM band, not once per
//! micro-tile, which measurably matters for the scalar tier.
//!
//! # The bitwise contract
//!
//! Every micro-kernel — scalar or SIMD, whatever its `mr × nr` shape —
//! accumulates each `C[i][j]` element as a chain of *fused* multiply-adds
//! in ascending `k` order (`KC`-panel split first, then `k` within the
//! panel), and applies the finished accumulator to `C` with a single
//! `±`. Tile shape only changes *which* elements share a register tile,
//! never the per-element operation sequence, so **all micro-kernels
//! produce bitwise-identical results** — and so does any row banding a
//! parallel caller applies on top. The scalar tiles are the portable
//! fallback.
//!
//! # Memory traffic
//!
//! The driver's packed `A` block is a [`crate::pack::Scratch`] buffer
//! from the calling thread's pool, like the [`PackedB`] it is driven
//! with, so repeated GEMMs of one shape allocate nothing. Pooled storage
//! is reused without clearing; packing overwrites every element a
//! micro-kernel reads. The SIMD tiles prefetch their `C` tile at entry,
//! so the single `±` write-back after the `k` loop hits L1 even when a
//! task's `C` arrives cold from L3 or DRAM.

use crate::pack::{PackedB, Pooled, MC};

/// Micro-tile height of the portable scalar `f64` kernel.
pub(crate) const MR_F64: usize = 8;
/// Micro-tile width of the portable scalar `f64` kernel.
pub(crate) const NR_F64: usize = 4;
/// Micro-tile height of the portable scalar `f32` kernel.
pub(crate) const MR_F32: usize = 8;
/// Micro-tile width of the portable scalar `f32` kernel.
pub(crate) const NR_F32: usize = 16;

/// A monomorphized packed-block driver produced by [`make_driver!`]:
/// `C[rows × ncols] ±= A[rows × k] · B` with `B` prepacked for the
/// driver's micro-tile width.
///
/// # Safety
/// `pb` must have been packed with the driver's `nr`; `a` must hold
/// `rows × pb.k` at row stride `lda` and `c` must hold `rows × ncols` at
/// row stride `ldc` (the shared [`drive`] wrapper asserts both). SIMD
/// drivers additionally require the CPU features their micro-kernel was
/// compiled for — guaranteed by [`crate::simd`]'s dispatch, which only
/// hands out a kernel after `is_x86_feature_detected!` confirms them.
pub(crate) type DriveFn<T> = unsafe fn(
    a: &[T],
    lda: usize,
    c: &mut [T],
    ldc: usize,
    rows: usize,
    ncols: usize,
    pb: &PackedB<T>,
    sub: bool,
);

/// A micro-kernel implementation: its tile shape and monomorphized driver.
///
/// The packing layer uses `mr`/`nr` to shape the micro-panels, so a
/// [`PackedB`] is only valid for drivers using the same `nr`.
pub(crate) struct MicroKernel<T: Pooled> {
    /// Micro-tile height (rows of `A` per register tile).
    pub mr: usize,
    /// Micro-tile width (columns of `B` per register tile).
    pub nr: usize,
    /// The full loop nest around this micro-kernel; see [`DriveFn`].
    pub drive: DriveFn<T>,
}

/// Generate the BLIS loop-nest driver for one micro-kernel.
///
/// `$micro` is an `unsafe fn(kc, ap, bp, c, ldc, rows, cols, sub)` that
/// accumulates `kc` steps of the packed micro-panels `ap` (`kc × mr`,
/// k-major) and `bp` (`kc × nr`, k-major) and applies the `rows × cols`
/// corner of the accumulator to `c` (row stride `ldc`), adding or
/// subtracting per `sub`. The call is direct, so a plain-Rust micro
/// kernel inlines into the nest.
macro_rules! make_driver {
    ($t:ty, $name:ident, $micro:path, $mr:expr, $nr:expr) => {
        /// See `DriveFn` for the contract; shape is
        #[doc = concat!("`", stringify!($mr), "×", stringify!($nr), "` `", stringify!($t), "`.")]
        #[allow(clippy::too_many_arguments)]
        pub(crate) unsafe fn $name(
            a: &[$t],
            lda: usize,
            c: &mut [$t],
            ldc: usize,
            rows: usize,
            ncols: usize,
            pb: &$crate::pack::PackedB<$t>,
            sub: bool,
        ) {
            const MR: usize = $mr;
            const NR: usize = $nr;
            debug_assert_eq!(pb.nr, NR, "PackedB packed for a different micro-kernel shape");
            let k = pb.k;
            let apack_rows = $crate::pack::MC.min(rows.next_multiple_of(MR));
            let mut apack = $crate::pack::Scratch::<$t>::take(
                apack_rows * $crate::pack::KC.min(k.max(1)),
            );
            let mut p0 = 0;
            while p0 < k {
                let kc = $crate::pack::KC.min(k - p0);
                let panel = pb.panel(p0, kc);
                let mut i0 = 0;
                while i0 < rows {
                    let mc = $crate::pack::MC.min(rows - i0);
                    let mc_round = mc.next_multiple_of(MR);
                    let apack = &mut apack[..mc_round * kc];
                    $crate::pack::pack_a::<$t, MR>(a, lda, i0, mc, p0, kc, apack);
                    let mut jr = 0;
                    while jr < ncols {
                        let cols = NR.min(ncols - jr);
                        let bmicro = &panel[(jr / NR) * (kc * NR)..][..kc * NR];
                        let mut ir = 0;
                        while ir < mc {
                            let rrows = MR.min(mc - ir);
                            let amicro = &apack[(ir / MR) * (kc * MR)..][..kc * MR];
                            // SAFETY: the micro-kernel writes only the
                            // rrows × cols corner at this offset with row
                            // stride ldc, which `drive`'s length asserts
                            // keep inside `c`; the packed panels hold kc
                            // full micro-panels; and any CPU features the
                            // micro-kernel needs are this driver's own
                            // safety precondition (see `DriveFn`).
                            unsafe {
                                $micro(
                                    kc,
                                    amicro,
                                    bmicro,
                                    c.as_mut_ptr().add((i0 + ir) * ldc + jr),
                                    ldc,
                                    rrows,
                                    cols,
                                    sub,
                                );
                            }
                            ir += MR;
                        }
                        jr += NR;
                    }
                    i0 += $crate::pack::MC;
                }
                p0 += $crate::pack::KC;
            }
        }
    };
}
pub(crate) use make_driver;

macro_rules! scalar_micro {
    ($t:ty, $micro:ident, $mr:expr, $nr:expr) => {
        /// Portable micro-tile: `acc[r][c] += Σ_p ap[p·mr + r] · bp[p·nr + c]`
        /// over `kc` steps, then `C ±= acc` on the live corner. `mul_add`
        /// is a fused multiply-add on every target this repo builds for,
        /// which is what keeps scalar and SIMD tiers bitwise identical.
        /// `#[inline]` so the driver's direct call folds it into the nest
        /// and LLVM auto-vectorizes the fixed-shape loops.
        // The 8-argument signature is the shared micro-kernel ABI every
        // tier implements; bundling it into a struct would cost the hot
        // path for style.
        #[allow(clippy::too_many_arguments)]
        #[inline]
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
            let mut acc = [[0.0 as $t; $nr]; $mr];
            for (av, bv) in ap.chunks_exact($mr).zip(bp.chunks_exact($nr)).take(kc) {
                for r in 0..$mr {
                    let ar = av[r];
                    for j in 0..$nr {
                        acc[r][j] = ar.mul_add(bv[j], acc[r][j]);
                    }
                }
            }
            // SAFETY: the caller guarantees the rows × cols corner at `c`
            // with row stride `ldc` is writable.
            unsafe { apply_rows(acc.as_flattened(), $nr, c, ldc, rows, cols, sub) }
        }
    };
}

/// `C ±= acc` on the `rows × cols` corner of `c`, with the accumulator
/// tile spilled row-major to `acc` (row `r` at `acc[r · nr]`). The
/// write-back of the scalar tiles and of the SIMD tiles' ragged corners.
///
/// # Safety
/// The `rows × cols` corner at `c` with row stride `ldc` must be
/// writable, and `acc` must hold `rows` rows of `nr ≥ cols` elements.
#[inline]
pub(crate) unsafe fn apply_rows<T>(
    acc: &[T],
    nr: usize,
    c: *mut T,
    ldc: usize,
    rows: usize,
    cols: usize,
    sub: bool,
) where
    T: Copy + std::ops::SubAssign + std::ops::AddAssign,
{
    for (r, src) in acc.chunks_exact(nr).take(rows).enumerate() {
        // SAFETY: row `r < rows` of the corner is writable (caller).
        let crow = unsafe { std::slice::from_raw_parts_mut(c.add(r * ldc), cols) };
        if sub {
            for (dst, v) in crow.iter_mut().zip(src) {
                *dst -= *v;
            }
        } else {
            for (dst, v) in crow.iter_mut().zip(src) {
                *dst += *v;
            }
        }
    }
}

scalar_micro!(f64, micro_scalar_f64, MR_F64, NR_F64);
scalar_micro!(f32, micro_scalar_f32, MR_F32, NR_F32);
make_driver!(f64, drive_scalar_f64, micro_scalar_f64, 8, 4);
make_driver!(f32, drive_scalar_f32, micro_scalar_f32, 8, 16);

/// The portable scalar `f64` kernel — the pre-SIMD packed tier, kept as
/// the fallback and as its own task version.
pub(crate) static SCALAR_F64: MicroKernel<f64> =
    MicroKernel { mr: MR_F64, nr: NR_F64, drive: drive_scalar_f64 };

/// The portable scalar `f32` kernel.
pub(crate) static SCALAR_F32: MicroKernel<f32> =
    MicroKernel { mr: MR_F32, nr: NR_F32, drive: drive_scalar_f32 };

/// Packed-block driver entry point: `C[rows × ncols] ±= A[rows × k] · B`,
/// where `B` is prepacked (`pb`, logical `k × ≥ncols`, packed with `mk`'s
/// `nr`), `a` is row-major with row stride `lda` and `c` row-major with
/// row stride `ldc`. `sub` selects `-=` (the Cholesky NT update) instead
/// of `+=`. Asserts the slice geometry, then runs `mk`'s monomorphized
/// loop nest.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<T: Pooled>(
    mk: &MicroKernel<T>,
    a: &[T],
    lda: usize,
    c: &mut [T],
    ldc: usize,
    rows: usize,
    ncols: usize,
    pb: &PackedB<T>,
    sub: bool,
) {
    assert_eq!(pb.nr, mk.nr, "PackedB was packed for a different micro-kernel shape");
    assert!(ncols <= pb.n_round);
    if rows > 0 && ncols > 0 {
        assert!(c.len() >= (rows - 1) * ldc + ncols, "C too short for rows × ncols at ldc");
        assert!(a.len() >= (rows - 1) * lda + pb.k, "A too short for rows × k at lda");
    }
    // SAFETY: geometry asserted above; `mk` is either a scalar kernel
    // (no CPU requirements) or was handed out by `crate::simd` only
    // after feature detection confirmed its requirements.
    unsafe { (mk.drive)(a, lda, c, ldc, rows, ncols, pb, sub) }
}

/// Row bands for parallelizing the `MC` loop of a packed GEMM across
/// lanes. When there is enough work, every band is exactly one `MC`
/// row-block, so a lane pool's queue load-balances the `MC` loop
/// dynamically (more bands than lanes); otherwise rows are split
/// lanes-ways rounded up to the micro-tile height so no band creates a
/// padded micro-panel in the middle of the matrix.
pub(crate) fn par_bands(
    n: usize,
    lanes: usize,
    granule: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    let lanes = lanes.max(1);
    let granule = granule.max(1);
    let per = if n >= lanes * MC { MC } else { n.div_ceil(lanes).next_multiple_of(granule) };
    let per = per.max(granule);
    (0..n).step_by(per).map(move |s| s..(s + per).min(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::KC;

    #[test]
    fn driver_matches_triple_loop_on_odd_shapes() {
        // rows=13, k=KC+3, ncols=6: exercises ragged MR/NR/KC edges.
        let (rows, k, n) = (13usize, KC + 3, 6usize);
        let a: Vec<f64> = (0..rows * k).map(|v| ((v * 31 % 17) as f64) - 8.0).collect();
        let b: Vec<f64> = (0..k * n).map(|v| ((v * 13 % 11) as f64) - 5.0).collect();
        let pb = PackedB::pack(&b, n, false, k, n, NR_F64);
        let mut c = vec![1.0; rows * n];
        drive(&SCALAR_F64, &a, k, &mut c, n, rows, n, &pb, false);
        for i in 0..rows {
            for j in 0..n {
                let mut expect = 1.0;
                for p in 0..k {
                    expect += a[i * k + p] * b[p * n + j];
                }
                let got = c[i * n + j];
                assert!(
                    (got - expect).abs() < 1e-9 * expect.abs().max(1.0),
                    "({i},{j}): {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn sub_mode_subtracts() {
        let (rows, k, n) = (3usize, 4usize, 3usize);
        let a = vec![1.0f32; rows * k];
        let b = vec![2.0f32; k * n];
        let pb = PackedB::pack(&b, n, false, k, n, NR_F32);
        let mut c = vec![10.0f32; rows * n];
        drive(&SCALAR_F32, &a, k, &mut c, n, rows, n, &pb, true);
        assert!(c.iter().all(|&v| v == 10.0 - 8.0));
    }

    #[test]
    #[should_panic(expected = "different micro-kernel shape")]
    fn mismatched_packing_is_rejected() {
        // Packed with nr=8, driven by the nr=4 scalar f64 kernel.
        let b = vec![0.0f64; 16];
        let pb = PackedB::pack(&b, 4, false, 4, 4, 8);
        let mut c = vec![0.0f64; 16];
        drive(&SCALAR_F64, &[0.0; 16], 4, &mut c, 4, 4, 4, &pb, false);
    }

    #[test]
    fn par_bands_cover_rows_exactly_once() {
        for n in [0usize, 7, 64, 127, 128, 300, 1024, 1025] {
            for lanes in [1usize, 2, 4, 8] {
                let mut next = 0;
                for band in par_bands(n, lanes, 8) {
                    assert_eq!(band.start, next);
                    assert!(!band.is_empty());
                    next = band.end;
                }
                assert_eq!(next, n, "gap for n={n} lanes={lanes}");
            }
        }
    }

    #[test]
    fn par_bands_are_mc_blocks_when_work_is_plentiful() {
        let bands: Vec<_> = par_bands(1024, 4, 8).collect();
        assert_eq!(bands.len(), 1024 / MC);
        assert!(bands.iter().all(|b| b.len() == MC));
    }

    #[test]
    fn par_bands_split_small_problems_lanes_ways_on_granule() {
        let bands: Vec<_> = par_bands(256, 4, 8).collect();
        assert_eq!(bands.len(), 4);
        assert!(bands.iter().all(|b| b.len() == 64));
        // Non-multiple sizes round the band to the granule.
        let bands: Vec<_> = par_bands(150, 4, 8).collect();
        assert!(bands.iter().all(|b| b.len().is_multiple_of(8) || b.end == 150));
    }
}
