//! Cost calibration for the simulated MinoTauro node.
//!
//! The simulator needs a duration model per (kernel, device). These
//! constants are calibrated to the ratios the paper reports, not to
//! absolute hardware truth — the reproduction targets the *shape* of the
//! results:
//!
//! * matmul tile (1024² f64): "SMP task duration is about 60 times the
//!   GPU task duration" (§V-B1) — CUBLAS ≈ 7 ms vs CBLAS ≈ 420 ms, with
//!   the hand-coded CUDA kernel somewhat slower than CUBLAS.
//! * one SMP core < 1% of node peak, one GPU ≈ 45% (§V-B1).
//! * PBPI loops: "the task itself is between three and four times slower
//!   for the SMP versions" (§V-B3).
//!
//! All models are expressed as *rates* (FLOP/s or bytes/s) so that task
//! durations scale correctly when an application is run at non-paper
//! sizes.

use std::time::Duration;

/// Sustained f64 GEMM rate of the emulated GPU running CUBLAS (FLOP/s).
/// 2·1024³ FLOP in ≈ 7 ms.
pub(crate) const GPU_DGEMM_CUBLAS: f64 = 306.0e9;

/// Sustained f64 GEMM rate of the hand-coded CUDA kernel (FLOP/s);
/// clearly slower than CUBLAS so the versioning scheduler abandons it
/// after the learning phase (paper Fig. 8).
pub(crate) const GPU_DGEMM_CUDA: f64 = 214.0e9;

/// Sustained f64 GEMM rate of one SMP core running CBLAS (FLOP/s);
/// ≈ 60× slower than CUBLAS per tile.
pub(crate) const SMP_DGEMM_CBLAS: f64 = 5.1e9;

/// Sustained f64 GEMM rate of one SMP core running the explicit-SIMD
/// packed kernel (the `mm-wide` variant's extra CPU version): ~4× the
/// CBLAS stand-in — mirroring the measured avx512-vs-scalar gap of the
/// native kernels — yet still ~15× off CUBLAS, so a learning scheduler
/// should prefer it over CBLAS without ever preferring it over the GPU.
pub(crate) const SMP_DGEMM_SIMD: f64 = 20.4e9;

/// Sustained f64 GEMM rate of one SMP core running the naive triple
/// loop — the deliberately bad version in the `mm-wide` version space;
/// a scheduler that can't learn pays ~190× per task for picking it.
pub(crate) const SMP_DGEMM_NAIVE: f64 = 1.6e9;

/// Sustained f32 GEMM rate of the GPU (CUBLAS sgemm).
pub(crate) const GPU_SGEMM: f64 = 550.0e9;

/// Sustained f32 SYRK rate of the GPU (CUBLAS ssyrk).
pub(crate) const GPU_SSYRK: f64 = 460.0e9;

/// Sustained f32 TRSM rate of the GPU (CUBLAS strsm).
pub(crate) const GPU_STRSM: f64 = 380.0e9;

/// Sustained f32 POTRF rate of the GPU (MAGMA spotrf) — much lower than
/// GEMM-class kernels: the panel factorization is poorly suited to GPUs.
pub(crate) const GPU_SPOTRF: f64 = 100.0e9;

/// Sustained f32 POTRF rate of one SMP core (reference CBLAS spotrf, no
/// vendor tuning) — slow enough that the GPU stays the earliest executor
/// for potrf even behind a queue of trailing updates (paper Fig. 11).
pub(crate) const SMP_SPOTRF: f64 = 2.0e9;

/// PBPI loop-1 (partial propagation) GPU throughput in sites/second.
/// The propagation is dense 4×4 linear algebra — very GPU-friendly, so
/// the versioning scheduler sends loop 1 "most of the times to the GPU"
/// (paper Fig. 14).
pub(crate) const GPU_PBPI_LOOP1: f64 = 180.0e6;

/// PBPI loop-1 SMP throughput.
pub(crate) const SMP_PBPI_LOOP1: f64 = 36.0e6;

/// PBPI loop-2 (partial combination) GPU throughput in sites/second.
pub(crate) const GPU_PBPI_LOOP2: f64 = 160.0e6;

/// PBPI loop-2 SMP throughput (≈ 3.5× slower).
pub(crate) const SMP_PBPI_LOOP2: f64 = 46.0e6;

/// PBPI loop-3 (log-likelihood reduction) SMP throughput in
/// sites/second.
pub(crate) const SMP_PBPI_LOOP3: f64 = 120.0e6;

/// Duration of `flops` floating-point operations at `rate` FLOP/s (also
/// used for site-rate models).
pub(crate) fn duration_at(flops: f64, rate: f64) -> Duration {
    Duration::from_secs_f64(flops / rate)
}

#[cfg(test)]
// The calibration constants are compile-time values; asserting on them is
// the point of these tests (they pin the paper's ratios), so the
// constant-assertion lint does not apply.
#[allow(clippy::assertions_on_constants)]
mod tests {
    use super::*;

    #[test]
    fn matmul_tile_ratio_matches_paper() {
        // 2·1024³ FLOP per tile.
        let flops = 2.0 * (1024.0f64).powi(3);
        let gpu = duration_at(flops, GPU_DGEMM_CUBLAS);
        let smp = duration_at(flops, SMP_DGEMM_CBLAS);
        let ratio = smp.as_secs_f64() / gpu.as_secs_f64();
        assert!((55.0..65.0).contains(&ratio), "SMP/GPU ratio {ratio}, paper says ~60");
        assert!((0.006..0.009).contains(&gpu.as_secs_f64()), "CUBLAS tile ≈ 7 ms");
    }

    #[test]
    fn wide_version_space_is_strictly_ordered() {
        // mm-wide relies on an unambiguous quality ordering of its five
        // versions: CUBLAS > CUDA > SMP-SIMD > SMP-CBLAS > SMP-naive.
        assert!(GPU_DGEMM_CUBLAS > GPU_DGEMM_CUDA);
        assert!(GPU_DGEMM_CUDA > SMP_DGEMM_SIMD);
        assert!(SMP_DGEMM_SIMD > SMP_DGEMM_CBLAS);
        assert!(SMP_DGEMM_CBLAS > SMP_DGEMM_NAIVE);
        // SIMD is ~4× CBLAS (the measured avx512/scalar kernel gap).
        let r = SMP_DGEMM_SIMD / SMP_DGEMM_CBLAS;
        assert!((3.0..5.0).contains(&r), "SIMD/CBLAS ratio {r} drifted");
    }

    #[test]
    fn cuda_hand_kernel_is_slower_than_cublas() {
        assert!(GPU_DGEMM_CUDA < GPU_DGEMM_CUBLAS);
        assert!(GPU_DGEMM_CUDA > 0.5 * GPU_DGEMM_CUBLAS, "but same order of magnitude");
    }

    #[test]
    fn potrf_is_the_weak_gpu_kernel() {
        assert!(GPU_SPOTRF < GPU_SGEMM / 5.0);
        assert!(GPU_SPOTRF > SMP_SPOTRF, "GPU potrf still beats one core in compute");
    }

    #[test]
    fn pbpi_smp_gpu_ratio_matches_paper() {
        // Loop 2 carries the paper's quoted "three and four times slower"
        // SMP/GPU ratio; loop 1 is more GPU-friendly (Fig. 14 shows it
        // almost entirely on the GPU).
        let l2 = GPU_PBPI_LOOP2 / SMP_PBPI_LOOP2;
        assert!((3.0..4.0).contains(&l2), "loop2 ratio {l2} out of paper's 3–4×");
        let l1 = GPU_PBPI_LOOP1 / SMP_PBPI_LOOP1;
        assert!(l1 > l2, "loop1 must be more GPU-biased than loop2");
    }

    #[test]
    fn duration_at_is_linear() {
        let d1 = duration_at(1e9, 1e9);
        assert!((d1.as_secs_f64() - 1.0).abs() < 1e-12);
        let d2 = duration_at(2e9, 1e9);
        assert_eq!(d2, d1 * 2);
    }
}
