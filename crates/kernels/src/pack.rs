//! Panel packing for the register-blocked GEMM core.
//!
//! The packed GEMM (see [`crate::microkernel`]) follows the classic
//! BLIS/GotoBLAS decomposition: the `k` dimension is cut into `KC`-deep
//! panels, rows of `A` into `MC`-tall blocks, and within a block/panel
//! pair the data is rearranged once into the exact streaming order the
//! micro-kernel consumes:
//!
//! * An **A micro-panel** holds `MR` rows k-major: element `(r, p)` lives
//!   at `p·MR + r`, so each step of the micro-kernel's `k` loop reads one
//!   contiguous `MR`-vector.
//! * A **B micro-panel** holds `NR` columns k-major: element `(p, c)`
//!   lives at `p·NR + c`.
//!
//! Ragged edges are zero-padded to the full `MR`/`NR` width, so the
//! micro-kernel never branches on tile shape; the driver simply writes
//! back only the `rows × cols` corner that exists.
//!
//! # Reused storage
//!
//! Packed operands live in [`Scratch`] buffers taken from a small
//! per-thread pool (at most [`POOL_BUFFERS`] per element type) and handed
//! back on drop, so a steady stream of same-sized GEMMs allocates nothing
//! after its first call. Reused storage is *not* cleared: every pack
//! writes every element the micro-kernels read, padding included.
//! Full-width micro-panels are copied without any per-element branch; only
//! a ragged edge pays for its explicit zero fill.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

/// Depth (`k` extent) of one packed panel. Sized so an A block
/// (`MC × KC` f64) and the B panel rows stay cache-resident.
pub(crate) const KC: usize = 256;

/// Row-block height of packed `A`. A multiple of every micro-tile height.
pub(crate) const MC: usize = 128;

/// Buffers each thread keeps per element type: a packed `B` and the
/// driver's `A` block. At bs = 256 f64 that is 512 + 256 KB.
const POOL_BUFFERS: usize = 2;

/// Storage longer than this many elements (8 MB of f64) goes back to the
/// allocator instead of the pool, so one huge call cannot pin its
/// buffers to a thread for good.
const POOL_MAX_LEN: usize = 1 << 20;

/// Element types with a per-thread pool of packing buffers.
pub(crate) trait Pooled: Copy + Default + 'static {
    /// This thread's pool of idle buffers of this element type.
    fn pool() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>>;
}

thread_local! {
    static POOL_F32: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    static POOL_F64: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

impl Pooled for f32 {
    fn pool() -> &'static LocalKey<RefCell<Vec<Vec<f32>>>> {
        &POOL_F32
    }
}

impl Pooled for f64 {
    fn pool() -> &'static LocalKey<RefCell<Vec<Vec<f64>>>> {
        &POOL_F64
    }
}

/// A packing buffer of `len` elements borrowed from the calling thread's
/// pool and returned to it on drop. Its contents start out unspecified
/// (whatever the previous user left): callers overwrite every element
/// they later read.
pub(crate) struct Scratch<T: Pooled> {
    buf: Vec<T>,
    len: usize,
}

impl<T: Pooled> Scratch<T> {
    /// Take the smallest pooled buffer that holds `len` elements; if none
    /// does, replace the largest with fresh storage of exactly `len`.
    pub(crate) fn take(len: usize) -> Scratch<T> {
        let pooled = T::pool().with(|pool| {
            let mut pool = pool.borrow_mut();
            let fits = (0..pool.len())
                .filter(|&i| pool[i].len() >= len)
                .min_by_key(|&i| pool[i].len());
            let pick = fits.or_else(|| (0..pool.len()).max_by_key(|&i| pool[i].len()));
            pick.map(|i| pool.swap_remove(i))
        });
        let buf = match pooled {
            Some(buf) if buf.len() >= len => buf,
            _ => vec![T::default(); len],
        };
        Scratch { buf, len }
    }
}

impl<T: Pooled> Deref for Scratch<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T: Pooled> DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }
}

impl<T: Pooled> Drop for Scratch<T> {
    fn drop(&mut self) {
        if self.buf.len() > POOL_MAX_LEN {
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        // `try_with`: a buffer dropped during thread teardown is freed.
        let _ = T::pool().try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_BUFFERS {
                pool.push(buf);
            }
        });
    }
}

/// Pack `kc` steps of `live ≤ W` lines into one k-major micro-panel of
/// width `W`: `out[p·W + i] = src[i·ld + p]`, and lines `live..W` are
/// zero. This is the transposing copy both `A` (lines are rows) and a
/// transposed `B` (lines are columns of the logical operand) need. A
/// full-width panel moves 8 × 8 blocks: contiguous runs of 8 `p` from up
/// to 8 lines in, contiguous runs of 8 lines out.
fn pack_lines<T: Copy + Default, const W: usize>(
    src: &[T],
    ld: usize,
    live: usize,
    kc: usize,
    out: &mut [T],
) {
    const B: usize = 8;
    let out = &mut out[..kc * W];
    if live < W {
        for (p, step) in out.chunks_exact_mut(W).enumerate() {
            for (i, dst) in step.iter_mut().enumerate() {
                *dst = if i < live { src[i * ld + p] } else { T::default() };
            }
        }
        return;
    }
    let body = kc - kc % B;
    let (head, tail) = out.split_at_mut(body * W);
    for (p0, dst) in (0..body).step_by(B).zip(head.chunks_exact_mut(B * W)) {
        for i0 in (0..W).step_by(B) {
            let ib = B.min(W - i0);
            let mut blk = [[T::default(); B]; B];
            for (r, run) in blk.iter_mut().enumerate().take(ib) {
                run.copy_from_slice(&src[(i0 + r) * ld + p0..][..B]);
            }
            for (q, step) in dst.chunks_exact_mut(W).enumerate() {
                for (r, run) in blk.iter().enumerate().take(ib) {
                    step[i0 + r] = run[q];
                }
            }
        }
    }
    for (p, step) in (body..kc).zip(tail.chunks_exact_mut(W)) {
        for (i, dst) in step.iter_mut().enumerate() {
            *dst = src[i * ld + p];
        }
    }
}

/// Pack `kc` rows of `live ≤ W` contiguous elements (row `p` at
/// `src[p·ld]`) into one k-major micro-panel of width `W`, zero-padding
/// columns `live..W`: the non-transposed `B` copy.
fn pack_rows<T: Copy + Default, const W: usize>(
    src: &[T],
    ld: usize,
    live: usize,
    kc: usize,
    out: &mut [T],
) {
    let steps = out[..kc * W].chunks_exact_mut(W).enumerate();
    if live == W {
        for (p, step) in steps {
            step.copy_from_slice(&src[p * ld..][..W]);
        }
    } else {
        for (p, step) in steps {
            step[..live].copy_from_slice(&src[p * ld..][..live]);
            step[live..].fill(T::default());
        }
    }
}

/// Pack the `mc × kc` block of `a` starting at `(i0, p0)` into `MR`-row
/// k-major micro-panels, zero-padding the last panel to `MR` rows.
/// `a` is row-major with row stride `lda`; `out` must hold at least
/// `mc.next_multiple_of(MR) * kc` elements.
pub(crate) fn pack_a<T: Copy + Default, const MR: usize>(
    a: &[T],
    lda: usize,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    out: &mut [T],
) {
    for (ir, panel) in (0..mc).step_by(MR).zip(out.chunks_exact_mut(kc * MR)) {
        pack_lines::<T, MR>(&a[(i0 + ir) * lda + p0..], lda, MR.min(mc - ir), kc, panel);
    }
}

/// Pack the `kc × nc` block of the *logical* matrix `B` starting at
/// `(p0, j0)` into `NR`-column k-major micro-panels, zero-padded to `NR`
/// columns. When `trans` is false the logical `B[p][j]` is
/// `b[p * ldb + j]`; when true it is `b[j * ldb + p]` (i.e. the packed
/// operand is `bᵀ`, which is how the `C −= A·Bᵀ` Cholesky update and
/// `syrk` reuse the same core).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b<T: Copy + Default, const NR: usize>(
    b: &[T],
    ldb: usize,
    trans: bool,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    out: &mut [T],
) {
    for (jr, panel) in (0..nc).step_by(NR).zip(out.chunks_exact_mut(kc * NR)) {
        let cols = NR.min(nc - jr);
        if trans {
            pack_lines::<T, NR>(&b[(j0 + jr) * ldb + p0..], ldb, cols, kc, panel);
        } else {
            pack_rows::<T, NR>(&b[p0 * ldb + j0 + jr..], ldb, cols, kc, panel);
        }
    }
}

/// A whole `k × n` operand packed once up front: consecutive `KC`-deep
/// panels, each `kc × n_round` (`n` rounded up to a multiple of `nr`).
/// Sharable across row-band workers, so a parallel GEMM packs `B`
/// exactly once.
pub(crate) struct PackedB<T: Pooled> {
    data: Scratch<T>,
    /// Total `k` extent.
    pub k: usize,
    /// Micro-panel width the data was packed with.
    pub nr: usize,
    /// `n` rounded up to a multiple of `nr`.
    pub n_round: usize,
}

impl<T: Pooled> PackedB<T> {
    /// Pack all of logical `B` (`k × n`, see [`pack_b`] for `trans`).
    ///
    /// # Panics
    /// Panics if `nr` is not the width of one of the micro-tiles (4, 8,
    /// 16 or 32).
    pub(crate) fn pack(
        b: &[T],
        ldb: usize,
        trans: bool,
        k: usize,
        n: usize,
        nr: usize,
    ) -> PackedB<T> {
        let pack_panel = match nr {
            4 => pack_b::<T, 4>,
            8 => pack_b::<T, 8>,
            16 => pack_b::<T, 16>,
            32 => pack_b::<T, 32>,
            _ => panic!("no micro-tile is {nr} columns wide"),
        };
        let n_round = n.div_ceil(nr) * nr;
        let mut data = Scratch::take(k * n_round);
        let mut p0 = 0;
        while p0 < k {
            let kc = KC.min(k - p0);
            pack_panel(b, ldb, trans, p0, kc, 0, n, &mut data[p0 * n_round..(p0 + kc) * n_round]);
            p0 += KC;
        }
        PackedB { data, k, nr, n_round }
    }

    /// The packed panel covering depth `p0..p0 + kc` (`p0` a multiple of
    /// `KC`). Within it, the micro-panel for columns `jr..jr + nr` starts
    /// at `(jr / nr) * (kc * nr)`.
    pub(crate) fn panel(&self, p0: usize, kc: usize) -> &[T] {
        debug_assert!(p0.is_multiple_of(KC) && kc <= KC);
        &self.data[p0 * self.n_round..(p0 + kc) * self.n_round]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_is_k_major_with_zero_padding() {
        // 3×2 block of a 4×4 matrix, MR = 2: two micro-panels, the
        // second padded with a zero row.
        let a: Vec<f64> = (0..16).map(|v| v as f64).collect();
        let mut out = vec![-1.0; 4 * 2];
        pack_a::<_, 2>(&a, 4, 1, 3, 2, 2, &mut out);
        // Micro-panel 0: rows 1,2 of cols 2,3 → (p=0: a[1][2], a[2][2]), (p=1: a[1][3], a[2][3]).
        // Micro-panel 1: row 3 + pad     → (p=0: a[3][2], 0), (p=1: a[3][3], 0).
        assert_eq!(out, vec![6.0, 10.0, 7.0, 11.0, 14.0, 0.0, 15.0, 0.0]);
    }

    #[test]
    fn pack_b_normal_and_transposed() {
        // 2×3 logical block of a 4×4 matrix, NR = 2.
        let b: Vec<f64> = (0..16).map(|v| v as f64).collect();
        let mut out = vec![-1.0; 2 * 4];
        pack_b::<_, 2>(&b, 4, false, 1, 2, 0, 3, &mut out);
        // Cols {0,1} k-major, then col {2} zero-padded.
        assert_eq!(out, vec![4.0, 5.0, 8.0, 9.0, 6.0, 0.0, 10.0, 0.0]);

        let mut out_t = vec![-1.0; 2 * 4];
        pack_b::<_, 2>(&b, 4, true, 1, 2, 0, 3, &mut out_t);
        // Logical B[p][j] = b[j][p]: col j at depth p is b[j*4+p].
        assert_eq!(out_t, vec![1.0, 5.0, 2.0, 6.0, 9.0, 0.0, 10.0, 0.0]);
    }

    #[test]
    fn packed_b_panels_tile_the_depth() {
        let k = KC + 7;
        let n = 5;
        let b: Vec<f32> = (0..k * n).map(|v| (v % 97) as f32).collect();
        let pb = PackedB::pack(&b, n, false, k, n, 4);
        assert_eq!(pb.n_round, 8);
        let head = pb.panel(0, KC);
        let tail = pb.panel(KC, 7);
        assert_eq!(head.len(), KC * 8);
        assert_eq!(tail.len(), 7 * 8);
        // Spot-check: element (p, j) of the first micro-panel (<= NR cols)
        // sits at p*nr + j.
        assert_eq!(head[3 * 4 + 2], b[3 * n + 2]);
        assert_eq!(tail[2 * 4 + 1], b[(KC + 2) * n + 1]);
        // Padding columns are zero.
        let second_micro = &head[KC * 4..];
        assert_eq!(second_micro[0], b[4]); // (p=0, j=4)
        assert_eq!(second_micro[1], 0.0); // (p=0, j=5) — padded
    }

    #[test]
    fn empty_operand_packs_to_nothing() {
        let pb = PackedB::<f64>::pack(&[], 1, false, 0, 0, 4);
        assert_eq!(pb.k, 0);
        assert_eq!(pb.n_round, 0);
    }

    #[test]
    fn scratch_is_reused_per_thread_and_bounded() {
        let first = Scratch::<f64>::take(1000);
        let addr = first.as_ptr();
        drop(first);
        // The smallest fitting buffer comes back, uncleared.
        let mut again = Scratch::<f64>::take(10);
        assert_eq!(again.as_ptr(), addr);
        again[0] = 7.0;
        drop(again);
        assert_eq!(Scratch::<f64>::take(1)[0], 7.0);
        // More live buffers than the pool keeps: the extras are freed.
        let held: Vec<_> = (0..POOL_BUFFERS + 2).map(|_| Scratch::<f64>::take(64)).collect();
        drop(held);
        assert_eq!(f64::pool().with(|p| p.borrow().len()), POOL_BUFFERS);
    }
}
