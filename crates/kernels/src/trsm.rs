//! Triangular solve: `A ← A · L⁻ᵀ` (right side, lower triangular,
//! transposed) — the panel-update task of the tiled Cholesky.
//!
//! After `potrf` factors the diagonal tile `A_kk = L·Lᵀ`, every tile
//! below it is updated as `A_ik ← A_ik · L⁻ᵀ`, which is exactly BLAS
//! `trsm(side=R, uplo=L, trans=T, diag=N)`.
//!
//! # Blocked algorithm
//!
//! From `n = 24` up, the solve is left-looking over column blocks `J`.
//! Each block is `NB` = 64 columns, a multiple of every micro-tile's
//! `mr` and `nr`. For each block:
//!
//! 1. `A[:, J] −= X[:, <J] · L[J, <J]ᵀ` runs on the packed SIMD core
//!    (the GEMM loop nest, `microkernel::drive`, with `sub`).
//!    `L[J, <J]ᵀ` is packed once per call and shared by every row band.
//! 2. The `NB × NB` diagonal solve `X[:, J] · L[J, J]ᵀ = A[:, J]` is the
//!    unblocked forward substitution. It runs on a transposed copy of
//!    the band's block, so each step is a vector loop over all rows of
//!    the band. Each element gets the same operations in the same order.
//!
//! Solved blocks are also copied into a row-band scratch. `drive` reads
//! that scratch as its `A` operand, because it reads `A` and writes `C`
//! through separate slices.
//!
//! The original row loop stays as `*_unblocked`. It is the oracle the
//! tests compare against and the dispatch target below `n = 24`, where
//! it is faster.
//!
//! # Bitwise guarantee
//!
//! The packed update follows the micro-kernel bitwise contract and the
//! diagonal solve is the same scalar code whatever the tier, so every
//! SIMD tier and the forced-scalar core give bit-identical `X`. Rows are
//! independent, so `*_par_on` is bit-identical at any lane count.
//!
//! A zero on the diagonal of `L` panics *before* any row of `A` is
//! written.

use crate::chunk_ranges;
use crate::exec::{LaneExec, ScopedExec, SerialExec};
use crate::microkernel::{drive, MicroKernel};
use crate::pack::{PackedB, Pooled, MC};
use crate::simd::{self, Tier};
use std::ops::{Div, Mul, Sub};

/// Column-block width of the blocked `trsm` and `potrf`: a multiple of
/// every micro-tile's `mr` (4, 8) and `nr` (4, 8, 16, 32).
pub(crate) const NB: usize = 64;

/// Below this dimension banding rows across lanes costs more than it
/// saves.
const PAR_MIN_N: usize = 64;

/// Below this dimension `trsm` and `potrf` dispatch to their unblocked
/// loops. Measured at f32 on avx512: the blocked solve wins from n = 16
/// (3.5 vs 2.4 GFLOP/s) and the blocked factorization from n = 24 (2.2
/// vs 2.2, then 2.5 vs 2.3 at n = 32).
pub(crate) const BLOCKED_MIN_N: usize = 24;

/// The element arithmetic the panel kernels are generic over.
pub(crate) trait Real:
    Pooled
    + PartialOrd
    + Send
    + Sync
    + Mul<Output = Self>
    + Sub<Output = Self>
    + Div<Output = Self>
{
    /// Square root (the `potrf` pivot).
    fn sqrt(self) -> Self;
}

impl Real for f32 {
    fn sqrt(self) -> f32 {
        f32::sqrt(self)
    }
}

impl Real for f64 {
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
}

/// Panic with `"singular triangular factor"` if the `n × n` factor at
/// row stride `ldl` has a zero on its diagonal.
fn check_diagonal<T: Real>(l: &[T], ldl: usize, n: usize) {
    assert!((0..n).all(|j| l[j * ldl + j] != T::default()), "singular triangular factor");
}

/// Solve one row: `x · Lᵀ = a` i.e. forward substitution in j.
fn trsm_row<T: Real>(l: &[T], row: &mut [T], n: usize) {
    for j in 0..n {
        let mut v = row[j];
        for k in 0..j {
            v = v - row[k] * l[j * n + k];
        }
        row[j] = v / l[j * n + j];
    }
}

/// Forward substitution on one column block, stored transposed: row
/// `j` of `t` (`jb` rows of `m`) is column `j` of `X[band, J]`, and `l`
/// is `L[J, J]` (`jb × jb`, row-major). [`trsm_row`]'s arithmetic —
/// each element subtracts `x[k]·L[j][k]` in ascending `k`, then divides
/// by the pivot — in an order that streams whole columns of the band.
fn diagonal_solve<T: Real>(l: &[T], jb: usize, t: &mut [T], m: usize) {
    for j in 0..jb {
        let (head, tail) = t.split_at_mut((j + 1) * m);
        let x = &mut head[j * m..];
        let d = l[j * jb + j];
        for v in x.iter_mut() {
            *v = *v / d;
        }
        for (i, col) in tail.chunks_exact_mut(m).enumerate() {
            let lij = l[(j + 1 + i) * jb + j];
            for (c, &xv) in col.iter_mut().zip(x.iter()) {
                *c = *c - xv * lij;
            }
        }
    }
}

/// One column block `J = j0..j0 + jb` of `L`, prepared once per solve.
struct Block<T: Pooled> {
    j0: usize,
    jb: usize,
    /// `L[J, J]`, row-major `jb × jb`.
    diag: Vec<T>,
    /// `L[J, <J]ᵀ` packed for the micro-kernel; `None` for the first block.
    off: Option<PackedB<T>>,
}

/// An `n × n` lower factor cut into `NB`-wide column blocks, shared
/// read-only by every row band of a solve.
pub(crate) struct Panels<T: Pooled> {
    blocks: Vec<Block<T>>,
}

impl<T: Real> Panels<T> {
    /// Prepare the lower `n × n` factor at `l` (row stride `ldl`) for
    /// micro-kernels of width `nr`.
    pub(crate) fn new(l: &[T], ldl: usize, n: usize, nr: usize) -> Self {
        let blocks = (0..n)
            .step_by(NB)
            .map(|j0| {
                let jb = NB.min(n - j0);
                let mut diag = Vec::with_capacity(jb * jb);
                for i in 0..jb {
                    diag.extend_from_slice(&l[(j0 + i) * ldl + j0..][..jb]);
                }
                let off = (j0 > 0).then(|| PackedB::pack(&l[j0 * ldl..], ldl, true, j0, jb, nr));
                Block { j0, jb, diag, off }
            })
            .collect();
        Panels { blocks }
    }

    /// Solve `X · Lᵀ = A` in place for the first `rows` rows of `a`
    /// (row stride `lda`, as many columns as `L`), `MC` rows at a time.
    pub(crate) fn solve(&self, mk: &MicroKernel<T>, a: &mut [T], lda: usize, rows: usize) {
        // Every block but the last is read back by a later update.
        let ldx = self.blocks.last().map_or(0, |b| b.j0);
        let mut xs = vec![T::default(); MC.min(rows) * ldx];
        let mut t = vec![T::default(); MC.min(rows) * NB];
        for r0 in (0..rows).step_by(MC) {
            let m = MC.min(rows - r0);
            let band = &mut a[r0 * lda..];
            for b in &self.blocks {
                if let Some(pb) = &b.off {
                    drive(mk, &xs, ldx, &mut band[b.j0..], lda, m, b.jb, pb, true);
                }
                let t = &mut t[..b.jb * m];
                for r in 0..m {
                    for (j, &v) in band[r * lda + b.j0..][..b.jb].iter().enumerate() {
                        t[j * m + r] = v;
                    }
                }
                diagonal_solve(&b.diag, b.jb, t, m);
                for r in 0..m {
                    let seg = &mut band[r * lda + b.j0..][..b.jb];
                    for (j, v) in seg.iter_mut().enumerate() {
                        *v = t[j * m + r];
                    }
                    if b.j0 < ldx {
                        xs[r * ldx + b.j0..][..b.jb].copy_from_slice(seg);
                    }
                }
            }
        }
    }
}

/// Run `f(band, rows)` over contiguous row bands of the `n × n` tile
/// `a`, one per lane of `exec` (serially in place when `lanes <= 1`).
fn for_row_bands<T: Send>(
    exec: &dyn LaneExec,
    a: &mut [T],
    n: usize,
    f: &(dyn Fn(&mut [T], usize) + Sync),
) {
    if exec.lanes() <= 1 || n < PAR_MIN_N {
        return f(&mut a[..n * n], n);
    }
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    let mut rest: &mut [T] = &mut a[..n * n];
    for band in chunk_ranges(n, exec.lanes()) {
        let rows = band.len();
        let (mine, r) = rest.split_at_mut(rows * n);
        rest = r;
        jobs.push(Box::new(move || f(mine, rows)));
    }
    exec.run_batch(jobs);
}

/// The whole solve with micro-kernel `mk`, rows banded over `exec`.
fn solve_on<T: Real>(exec: &dyn LaneExec, mk: &MicroKernel<T>, l: &[T], a: &mut [T], n: usize) {
    assert!(l.len() >= n * n && a.len() >= n * n);
    check_diagonal(l, n, n);
    if n < BLOCKED_MIN_N {
        for_row_bands(exec, a, n, &|band, rows| {
            for i in 0..rows {
                trsm_row(l, &mut band[i * n..i * n + n], n);
            }
        });
    } else {
        let panels = Panels::new(l, n, n, mk.nr);
        for_row_bands(exec, a, n, &|band, rows| panels.solve(mk, band, n, rows));
    }
}

macro_rules! trsm_impl {
    ($t:ty, $name:ident, $par:ident, $par_on:ident, $tier:ident, $unblocked:ident,
     $kernel:path, $kernel_for:path) => {
        /// Solve `X · Lᵀ = A` in place (`A ← A · L⁻ᵀ`) for a row-major
        /// `n × n` tile `A` and lower-triangular `L`: the blocked solve
        /// on the dispatched micro-kernel (unblocked below n = 24).
        ///
        /// # Panics
        /// Panics if either slice is shorter than `n * n` or `L` has a
        /// zero diagonal element; `A` is untouched in that case.
        pub fn $name(l: &[$t], a: &mut [$t], n: usize) {
            $par_on(&SerialExec, l, a, n)
        }

        /// Multi-lane variant of the same solve: rows of `A` are
        /// independent, so they are banded over `exec`'s lanes. Bitwise
        /// identical to the serial solve at any lane count.
        ///
        /// # Panics
        /// As the serial variant.
        pub fn $par_on(exec: &dyn LaneExec, l: &[$t], a: &mut [$t], n: usize) {
            solve_on(exec, $kernel(), l, a, n)
        }

        /// Multi-lane solve over `lanes` ad-hoc scoped threads — the
        /// legacy entry point for callers without a persistent lane pool.
        ///
        /// # Panics
        /// As the serial variant.
        pub fn $par(l: &[$t], a: &mut [$t], n: usize, lanes: usize) {
            $par_on(&ScopedExec::new(lanes), l, a, n)
        }

        /// The serial solve on an explicitly chosen SIMD tier. Returns
        /// `false` (leaving `A` untouched) if this CPU lacks the tier.
        /// For benches and equivalence tests.
        ///
        /// # Panics
        /// As the serial variant.
        pub fn $tier(tier: Tier, l: &[$t], a: &mut [$t], n: usize) -> bool {
            match $kernel_for(tier) {
                Some(mk) => {
                    solve_on(&SerialExec, mk, l, a, n);
                    true
                }
                None => false,
            }
        }

        /// The original row-by-row forward substitution, kept as the
        /// oracle for the blocked solve.
        ///
        /// # Panics
        /// As the serial variant.
        pub fn $unblocked(l: &[$t], a: &mut [$t], n: usize) {
            assert!(l.len() >= n * n && a.len() >= n * n);
            check_diagonal(l, n, n);
            for i in 0..n {
                trsm_row(l, &mut a[i * n..i * n + n], n);
            }
        }
    };
}

trsm_impl!(
    f32,
    strsm_right_lower_trans,
    strsm_right_lower_trans_par,
    strsm_right_lower_trans_par_on,
    strsm_right_lower_trans_tier,
    strsm_right_lower_trans_unblocked,
    simd::kernel_f32,
    simd::kernel_f32_for
);
trsm_impl!(
    f64,
    dtrsm_right_lower_trans,
    dtrsm_right_lower_trans_par,
    dtrsm_right_lower_trans_par_on,
    dtrsm_right_lower_trans_tier,
    dtrsm_right_lower_trans_unblocked,
    simd::kernel_f64,
    simd::kernel_f64_for
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_close_f64, random_matrix_f64, spd_matrix_f64};
    use crate::potrf::dpotrf;

    /// Check `X · Lᵀ == A` after the solve.
    fn check_solution(l: &[f64], x: &[f64], a: &[f64], n: usize, tol: f64) {
        let mut recon = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    recon[i * n + j] += x[i * n + k] * l[j * n + k]; // (Lᵀ)[k][j] = L[j][k]
                }
            }
        }
        assert_close_f64(&recon, a, tol);
    }

    fn lower_factor(n: usize, seed: u64) -> Vec<f64> {
        let mut l = spd_matrix_f64(n, seed);
        dpotrf(&mut l, n).unwrap();
        l
    }

    #[test]
    fn solves_against_identity() {
        let n = 8;
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            l[i * n + i] = 2.0;
        }
        let a: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        let mut x = a.clone();
        dtrsm_right_lower_trans(&l, &mut x, n);
        for i in 0..n * n {
            assert!((x[i] - a[i] / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn solution_satisfies_the_equation() {
        for n in [1usize, 3, 10, 40] {
            let l = lower_factor(n, 5);
            let a = random_matrix_f64(n, 6);
            let mut x = a.clone();
            dtrsm_right_lower_trans(&l, &mut x, n);
            check_solution(&l, &x, &a, n, 1e-8);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let n = 96;
        let l = lower_factor(n, 8);
        let a = random_matrix_f64(n, 9);
        let mut x1 = a.clone();
        let mut x2 = a.clone();
        dtrsm_right_lower_trans(&l, &mut x1, n);
        dtrsm_right_lower_trans_par(&l, &mut x2, n, 4);
        assert_close_f64(&x1, &x2, 1e-12);
    }

    #[test]
    fn f32_variant_solves() {
        let n = 4;
        let mut l = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..=i {
                l[i * n + j] = if i == j { 3.0 } else { 1.0 };
            }
        }
        let a = vec![1.0f32; n * n];
        let mut x = a.clone();
        strsm_right_lower_trans(&l, &mut x, n);
        // Verify X · Lᵀ = A.
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0f32;
                for k in 0..n {
                    v += x[i * n + k] * l[j * n + k];
                }
                assert!((v - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn blocked_solution_satisfies_the_equation() {
        for n in [2 * NB - 1, 2 * NB + 3, 3 * NB] {
            let l = lower_factor(n, 12);
            let a = random_matrix_f64(n, 13);
            let mut x = a.clone();
            dtrsm_right_lower_trans(&l, &mut x, n);
            check_solution(&l, &x, &a, n, 1e-8);
        }
    }

    #[test]
    fn singular_factor_panics_before_touching_a() {
        for n in [3usize, 2 * NB + 1] {
            let mut l = lower_factor(n, 14);
            l[(n - 1) * n + n - 1] = 0.0;
            let a0 = random_matrix_f64(n, 15);
            let mut a = a0.clone();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dtrsm_right_lower_trans_par(&l, &mut a, n, 2)
            }));
            let msg = caught.expect_err("zero pivot must panic");
            assert!(msg.downcast_ref::<&str>().is_some_and(|m| m.contains("singular")));
            assert_eq!(a, a0, "A must be unchanged (n={n})");
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn zero_diagonal_panics() {
        let l = vec![0.0f64; 4];
        let mut a = vec![1.0f64; 4];
        dtrsm_right_lower_trans(&l, &mut a, 2);
    }
}
