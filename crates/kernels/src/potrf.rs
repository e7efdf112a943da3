//! Cholesky factorization of one tile: `A = L·Lᵀ` (lower triangular).
//!
//! `potrf` is the Cholesky bottleneck task of the paper's §V-B2: "there
//! are some points where all the following tasks depend on the potrf
//! task", which is why the paper gives it both an SMP (CBLAS) and a GPU
//! (MAGMA) version.
//!
//! # Blocked algorithm
//!
//! From `n = 24` up, the tile is factored right-looking over column
//! blocks `J` of `NB` = 64 columns (shared with [`crate::trsm`]):
//!
//! 1. The diagonal block `A[J, J]` is factored by the unblocked column
//!    loop's arithmetic. It runs on a transposed copy, so each column
//!    update is a vector loop.
//! 2. The panel below it is solved,
//!    `A[>J, J] ← A[>J, J] · L[J, J]⁻ᵀ`, by the blocked `trsm`'s
//!    diagonal solve.
//! 3. The trailing lower trapezoid takes the SYRK-shaped update
//!    `A[>J, >J] −= P·Pᵀ`, with `P` the solved panel. It runs on the
//!    packed SIMD core in `NB`-row bands, with the columns clipped to
//!    each band's trailing edge.
//!
//! The strict upper triangle is zeroed at the end. The original column
//! loop stays as `*_unblocked`. It is the oracle the tests compare
//! against and the dispatch target below `n = 24`.
//!
//! # Bitwise guarantee
//!
//! The packed updates follow the micro-kernel bitwise contract and the
//! diagonal work is the same scalar code whatever the tier, so every
//! SIMD tier and the forced-scalar core give bit-identical factors.

use crate::microkernel::{drive, MicroKernel};
use crate::pack::PackedB;
use crate::simd::{self, Tier};
use crate::trsm::{Panels, Real, BLOCKED_MIN_N, NB};

/// Error returned when the input tile is not positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Index of the failing diagonal element.
    pub at: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite (pivot {} <= 0)", self.at)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Whether `pivot` is usable: `> 0`, so NaN is rejected too.
fn positive<T: Real>(pivot: T) -> bool {
    pivot > T::default()
}

/// The unblocked column loop on the `n × n` block at `a` (row stride
/// `lda`). A pivot that is not `> 0` — including NaN — fails with its
/// block-local column.
fn factor_unblocked<T: Real>(a: &mut [T], lda: usize, n: usize) -> Result<(), NotPositiveDefinite> {
    for j in 0..n {
        let mut diag = a[j * lda + j];
        for k in 0..j {
            diag = diag - a[j * lda + k] * a[j * lda + k];
        }
        if !positive(diag) {
            return Err(NotPositiveDefinite { at: j });
        }
        let ljj = diag.sqrt();
        a[j * lda + j] = ljj;
        for i in (j + 1)..n {
            let mut v = a[i * lda + j];
            for k in 0..j {
                v = v - a[i * lda + k] * a[j * lda + k];
            }
            a[i * lda + j] = v / ljj;
        }
        for i in 0..j {
            a[i * lda + j] = T::default(); // zero the strict upper triangle
        }
    }
    Ok(())
}

/// Factor the `jb × jb` diagonal block at `a` (row stride `lda`) on a
/// transposed copy, so column `j` of `L` is a contiguous row. The
/// arithmetic of [`factor_unblocked`] — each element subtracts
/// `L[i][k]·L[j][k]` in ascending `k`, then divides by the pivot — but
/// applied right-looking, one whole column at a time.
fn factor_diagonal<T: Real>(a: &mut [T], lda: usize, jb: usize) -> Result<(), NotPositiveDefinite> {
    let mut t = vec![T::default(); jb * jb];
    for i in 0..jb {
        for (j, &v) in a[i * lda..][..=i].iter().enumerate() {
            t[j * jb + i] = v;
        }
    }
    for j in 0..jb {
        let (head, tail) = t.split_at_mut((j + 1) * jb);
        let col = &mut head[j * jb..];
        if !positive(col[j]) {
            return Err(NotPositiveDefinite { at: j });
        }
        let ljj = col[j].sqrt();
        col[j] = ljj;
        for v in &mut col[j + 1..] {
            *v = *v / ljj;
        }
        for (k, dst) in tail.chunks_exact_mut(jb).enumerate() {
            let i0 = j + 1 + k;
            let lkj = col[i0];
            for (d, &v) in dst[i0..].iter_mut().zip(&col[i0..]) {
                *d = *d - v * lkj;
            }
        }
    }
    for i in 0..jb {
        for (j, v) in a[i * lda..][..jb].iter_mut().enumerate() {
            *v = if j <= i { t[j * jb + i] } else { T::default() };
        }
    }
    Ok(())
}

/// The blocked factorization with micro-kernel `mk`.
fn factor<T: Real>(mk: &MicroKernel<T>, a: &mut [T], n: usize) -> Result<(), NotPositiveDefinite> {
    assert!(a.len() >= n * n);
    if n < BLOCKED_MIN_N {
        return factor_unblocked(a, n, n);
    }
    for j0 in (0..n).step_by(NB) {
        let jb = NB.min(n - j0);
        let j1 = j0 + jb;
        factor_diagonal(&mut a[j0 * n + j0..], n, jb)
            .map_err(|e| NotPositiveDefinite { at: j0 + e.at })?;
        if j1 == n {
            break;
        }
        let m = n - j1;
        let diag = Panels::new(&a[j0 * n + j0..], n, jb, mk.nr);
        diag.solve(mk, &mut a[j1 * n + j0..], n, m);
        // `drive` reads `P` and writes `A` through separate slices.
        let mut p = vec![T::default(); m * jb];
        for (r, dst) in p.chunks_exact_mut(jb).enumerate() {
            dst.copy_from_slice(&a[(j1 + r) * n + j0..][..jb]);
        }
        let pt = PackedB::pack(&p, jb, true, jb, m, mk.nr);
        for r0 in (0..m).step_by(NB) {
            let rows = NB.min(m - r0);
            let c = &mut a[(j1 + r0) * n + j1..];
            drive(mk, &p[r0 * jb..], jb, c, n, rows, r0 + rows, &pt, true);
        }
    }
    for i in 0..n {
        a[i * n + i + 1..(i + 1) * n].fill(T::default());
    }
    Ok(())
}

macro_rules! potrf_impl {
    ($t:ty, $name:ident, $tier:ident, $unblocked:ident, $kernel:path, $kernel_for:path) => {
        /// In-place lower Cholesky of a row-major `n × n` tile: the
        /// blocked factorization on the dispatched micro-kernel
        /// (unblocked below n = 24). On return the lower triangle
        /// (including diagonal) holds `L`; the strict upper triangle is
        /// zeroed.
        ///
        /// # Errors
        /// [`NotPositiveDefinite`] if a pivot is not positive (or is
        /// NaN), with the tile's global column index; the tile is left
        /// partially factored in that case.
        ///
        /// # Panics
        /// Panics if `a.len() < n * n`.
        pub fn $name(a: &mut [$t], n: usize) -> Result<(), NotPositiveDefinite> {
            factor($kernel(), a, n)
        }

        /// The blocked factorization on an explicitly chosen SIMD tier;
        /// `None` (leaving `A` untouched) if this CPU lacks the tier. For
        /// benches and equivalence tests.
        ///
        /// # Panics
        /// Panics if `a.len() < n * n`.
        pub fn $tier(tier: Tier, a: &mut [$t], n: usize) -> Option<Result<(), NotPositiveDefinite>> {
            $kernel_for(tier).map(|mk| factor(mk, a, n))
        }

        /// The original column-by-column factorization, kept as the
        /// oracle for the blocked one. Same contract as the blocked entry.
        ///
        /// # Errors
        /// As the blocked entry.
        ///
        /// # Panics
        /// Panics if `a.len() < n * n`.
        pub fn $unblocked(a: &mut [$t], n: usize) -> Result<(), NotPositiveDefinite> {
            assert!(a.len() >= n * n);
            factor_unblocked(a, n, n)
        }
    };
}

potrf_impl!(f32, spotrf, spotrf_tier, spotrf_unblocked, simd::kernel_f32, simd::kernel_f32_for);
potrf_impl!(f64, dpotrf, dpotrf_tier, dpotrf_unblocked, simd::kernel_f64, simd::kernel_f64_for);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trsm::NB;
    use crate::verify::{assert_close_f32, assert_close_f64, spd_matrix_f32, spd_matrix_f64};

    fn reconstruct_f64(l: &[f64], n: usize) -> Vec<f64> {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    a[i * n + j] += l[i * n + k] * l[j * n + k];
                }
            }
        }
        a
    }

    #[test]
    fn factorization_reconstructs_the_input_f64() {
        for n in [1usize, 2, 5, 16, 33] {
            let a = spd_matrix_f64(n, 42);
            let mut l = a.clone();
            dpotrf(&mut l, n).unwrap();
            assert_close_f64(&reconstruct_f64(&l, n), &a, 1e-8);
        }
    }

    #[test]
    fn factorization_reconstructs_the_input_f32() {
        let n = 24;
        let a = spd_matrix_f32(n, 7);
        let mut l = a.clone();
        spotrf(&mut l, n).unwrap();
        let mut recon = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    recon[i * n + j] += l[i * n + k] * l[j * n + k];
                }
            }
        }
        assert_close_f32(&recon, &a, 1e-2);
    }

    #[test]
    fn result_is_lower_triangular() {
        let n = 10;
        let mut l = spd_matrix_f64(n, 3);
        dpotrf(&mut l, n).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(l[i * n + j], 0.0, "upper triangle must be zeroed");
            }
            assert!(l[i * n + i] > 0.0, "diagonal must be positive");
        }
    }

    #[test]
    fn identity_factors_to_identity() {
        let n = 6;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        dpotrf(&mut a, n).unwrap();
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_eq!(a[i * n + j], expect);
            }
        }
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut a = vec![1.0, 0.0, 0.0, -1.0]; // eigenvalues 1, -1
        let err = dpotrf(&mut a, 2).unwrap_err();
        assert_eq!(err.at, 1);
        assert!(err.to_string().contains("not positive definite"));
    }

    #[test]
    fn blocked_factorization_reconstructs_the_input() {
        // 2·NB ± 1 and a ragged last block.
        for n in [2 * NB - 1, 2 * NB + 1, 3 * NB + 5] {
            let a = spd_matrix_f64(n, 11);
            let mut l = a.clone();
            dpotrf(&mut l, n).unwrap();
            assert_close_f64(&reconstruct_f64(&l, n), &a, 1e-8);
            for i in 0..n {
                assert!(l[i * n + i + 1..(i + 1) * n].iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn nan_pivot_is_rejected() {
        let mut a = vec![f64::NAN, 0.0, 0.0, 1.0];
        assert_eq!(dpotrf(&mut a, 2).unwrap_err().at, 0);
        // A NaN below the diagonal poisons the next pivot.
        let n = 3 * NB;
        let mut a = spd_matrix_f32(n, 5);
        a[(NB + 1) * n] = f32::NAN;
        assert_eq!(spotrf(&mut a, n).unwrap_err().at, NB + 1);
        let mut a = spd_matrix_f32(n, 5);
        a[(NB + 1) * n] = f32::NAN;
        assert_eq!(spotrf_unblocked(&mut a, n).unwrap_err().at, NB + 1);
    }

    #[test]
    fn indefinite_pivot_in_a_later_block_reports_the_global_column() {
        // Pivot `at` depends only on the leading (at+1)² submatrix, so a
        // hugely negative A[at][at] in block 2 of 3 fails exactly there.
        let n = 3 * NB;
        let at = NB + 5;
        let mut a = spd_matrix_f64(n, 9);
        a[at * n + at] = -1e6;
        assert_eq!(dpotrf(&mut a.clone(), n).unwrap_err().at, at);
        assert_eq!(dpotrf_unblocked(&mut a, n).unwrap_err().at, at);
    }

    #[test]
    fn zero_matrix_is_rejected_at_first_pivot() {
        let mut a = vec![0.0f32; 9];
        assert_eq!(spotrf(&mut a, 3).unwrap_err().at, 0);
    }
}
