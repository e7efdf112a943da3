//! # versa-kernels — pure-Rust computational kernels
//!
//! The kernels behind the paper's three applications, implemented from
//! scratch so the native engine executes real work:
//!
//! * [`gemm`] — dense matrix multiply (`C += A·B`) in naive, cache-blocked
//!   and multi-lane parallel variants, `f32` and `f64`. The variants play
//!   the roles of the paper's CBLAS / hand-coded CUDA / CUBLAS versions:
//!   only their *relative speeds* matter to the scheduler.
//! * [`potrf`], [`trsm`], [`syrk`] — the four building blocks of the tiled
//!   right-looking Cholesky factorization (paper §V-B2). `syrk` and the
//!   `gemm` NT update run on the packed core. `potrf` and `trsm` are
//!   blocked onto it: `NB`-wide column blocks, a scalar diagonal step and
//!   packed updates. The original loops stay as the `*_unblocked` oracles.
//!   Results are bitwise identical across tiers and lane counts.
//! * [`pbpi`] — the three computational loops of the PBPI Bayesian
//!   phylogenetic inference application (paper §V-B3): per-site partial
//!   likelihood propagation, partial combination, and the log-likelihood
//!   reduction.
//! * [`verify`] — reference implementations, matrix generators and
//!   comparison helpers used by the test suite.
//!
//! All matrices are dense, square, **row-major** tiles of dimension `n`.

#![warn(missing_docs)]

pub mod exec;
pub mod gemm;
pub(crate) mod microkernel;
pub(crate) mod pack;
pub mod pbpi;
pub mod potrf;
pub mod simd;
pub mod syrk;
pub mod trsm;
pub mod verify;

/// Split `0..n` into at most `lanes` contiguous chunks, one per lane of a
/// parallel kernel. Every element is covered exactly once, empty chunks
/// are skipped, and `lanes == 0` is treated as 1, so the result is never
/// empty for `n > 0` and chunk sizes differ by at most one.
pub fn chunk_ranges(n: usize, lanes: usize) -> Vec<std::ops::Range<usize>> {
    let lanes = lanes.max(1).min(n.max(1));
    let base = n / lanes;
    let extra = n % lanes;
    let mut out = Vec::with_capacity(lanes);
    let mut start = 0;
    for i in 0..lanes {
        let len = base + usize::from(i < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_once() {
        for n in [0usize, 1, 5, 16, 17, 100] {
            for lanes in [1usize, 2, 3, 4, 7, 200] {
                let ranges = chunk_ranges(n, lanes);
                let mut covered = vec![false; n];
                for r in &ranges {
                    for i in r.clone() {
                        assert!(!covered[i], "index {i} covered twice (n={n}, lanes={lanes})");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap in coverage (n={n}, lanes={lanes})");
                assert!(ranges.len() <= lanes.max(1));
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        let ranges = chunk_ranges(10, 3);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn more_lanes_than_elements_yields_singletons() {
        let ranges = chunk_ranges(3, 8);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn zero_lanes_behaves_like_one() {
        assert_eq!(chunk_ranges(5, 0), vec![0..5]);
        assert_eq!(chunk_ranges(0, 0), Vec::<std::ops::Range<usize>>::new());
    }

    #[test]
    fn exact_partition_when_lanes_divide_n() {
        let ranges = chunk_ranges(12, 4);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..12]);
    }
}
