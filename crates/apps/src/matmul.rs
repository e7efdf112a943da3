//! Tiled dense matrix multiplication (paper §V-B1).
//!
//! `C[i][j] += A[i][k] · B[k][j]` over `nb × nb` tiles of `bs × bs`
//! elements; each tile product is one task. Three application versions:
//!
//! * **mm-gpu** — a single CUBLAS (GPU) implementation of the task.
//! * **mm-hyb** — three implementations: CUBLAS (main), hand-coded CUDA,
//!   and CBLAS on the SMP, joined via `implements` so only the versioning
//!   scheduler can exploit them all.
//! * **mm-wide** — five implementations spanning the full kernel-tier
//!   spread: the two GPU versions plus SMP-SIMD (the runtime-dispatched
//!   packed kernel), SMP-CBLAS (the forced-scalar packed kernel) and
//!   SMP-naive. The wider, strictly ordered version space is the
//!   multiversioning setting of Luo et al. — it gives the versioning
//!   scheduler's learning phase real performance gaps to discover.

use crate::calib;
use versa_core::{DeviceKind, SchedulerKind, TemplateId, VersionId};
use versa_kernels::gemm;
use versa_mem::DataId;
use versa_runtime::{NativeConfig, RunReport, Runtime, RuntimeConfig};
use versa_sim::PlatformConfig;

/// Which task versions the application exposes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatmulVariant {
    /// `mm-gpu`: only the CUBLAS version.
    Gpu,
    /// `mm-hyb`: CUBLAS + hand-CUDA + CBLAS versions.
    Hybrid,
    /// `mm-wide`: CUBLAS + hand-CUDA + SMP-SIMD + SMP-CBLAS + SMP-naive.
    Wide,
}

impl MatmulVariant {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            MatmulVariant::Gpu => "mm-gpu",
            MatmulVariant::Hybrid => "mm-hyb",
            MatmulVariant::Wide => "mm-wide",
        }
    }
}

/// Problem dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatmulConfig {
    /// Matrix dimension in elements (square).
    pub n: usize,
    /// Tile dimension in elements (square); must divide `n`.
    pub bs: usize,
}

impl MatmulConfig {
    /// The paper's dimensions: 16384² f64 elements (2 GB per matrix),
    /// 1024² tiles (8 MB) — 16³ = 4096 tasks.
    pub fn paper() -> MatmulConfig {
        MatmulConfig { n: 16384, bs: 1024 }
    }

    /// A reduced size with the same tile-count structure for fast tests.
    pub fn quick() -> MatmulConfig {
        MatmulConfig { n: 4096, bs: 512 }
    }

    /// Tiles per matrix dimension.
    pub fn nb(&self) -> usize {
        assert!(self.bs > 0 && self.n.is_multiple_of(self.bs), "tile size must divide matrix size");
        self.n / self.bs
    }

    /// Bytes of one f64 tile.
    pub fn tile_bytes(&self) -> u64 {
        (self.bs * self.bs * 8) as u64
    }

    /// Useful FLOPs of the whole multiplication (2·n³).
    pub fn flops(&self) -> f64 {
        2.0 * (self.n as f64).powi(3)
    }

    /// Number of gemm tasks (nb³).
    pub fn task_count(&self) -> usize {
        self.nb().pow(3)
    }
}

/// Template + tile handles of a built matmul instance.
pub struct MatmulApp {
    /// The `matmul_tile` task version set.
    pub template: TemplateId,
    /// Problem dimensions.
    pub config: MatmulConfig,
    /// `A` tiles, row-major `nb × nb`.
    pub a: Vec<DataId>,
    /// `B` tiles.
    pub b: Vec<DataId>,
    /// `C` tiles.
    pub c: Vec<DataId>,
}

/// Register the `matmul_tile` template (versions per variant) and bind
/// simulation costs. GEMM durations scale as `flops / rate`, with FLOPs
/// recovered from the task's data set size (3 tiles of `bs²` f64 each).
pub fn register(rt: &mut Runtime, variant: MatmulVariant) -> TemplateId {
    let template = match variant {
        MatmulVariant::Gpu => rt
            .template("matmul_tile")
            .main("matmul_tile_cublas", &[DeviceKind::Cuda])
            .register(),
        MatmulVariant::Hybrid => rt
            .template("matmul_tile")
            .main("matmul_tile_cublas", &[DeviceKind::Cuda])
            .version("matmul_tile_cuda", &[DeviceKind::Cuda])
            .version("matmul_tile_cblas", &[DeviceKind::Smp])
            .register(),
        MatmulVariant::Wide => rt
            .template("matmul_tile")
            .main("matmul_tile_cublas", &[DeviceKind::Cuda])
            .version("matmul_tile_cuda", &[DeviceKind::Cuda])
            .version("matmul_tile_simd", &[DeviceKind::Smp])
            .version("matmul_tile_cblas", &[DeviceKind::Smp])
            .version("matmul_tile_naive", &[DeviceKind::Smp])
            .register(),
    };

    let gemm_flops = |data_set_size: u64| {
        // data_set_size = 3 tiles × bs² × 8 bytes → bs² = size / 24.
        let bs2 = data_set_size as f64 / 24.0;
        2.0 * bs2.powf(1.5)
    };
    // Per-version rate table, in VersionId order for the variant.
    let rates: &[f64] = match variant {
        MatmulVariant::Gpu => &[calib::GPU_DGEMM_CUBLAS],
        MatmulVariant::Hybrid => {
            &[calib::GPU_DGEMM_CUBLAS, calib::GPU_DGEMM_CUDA, calib::SMP_DGEMM_CBLAS]
        }
        MatmulVariant::Wide => &[
            calib::GPU_DGEMM_CUBLAS,
            calib::GPU_DGEMM_CUDA,
            calib::SMP_DGEMM_SIMD,
            calib::SMP_DGEMM_CBLAS,
            calib::SMP_DGEMM_NAIVE,
        ],
    };
    for (v, &rate) in rates.iter().enumerate() {
        rt.bind_cost(template, VersionId(v as u16), move |s| {
            calib::duration_at(gemm_flops(s), rate)
        });
    }
    template
}

/// Allocate tiles and submit the `nb³` gemm tasks.
pub fn build(rt: &mut Runtime, config: MatmulConfig, variant: MatmulVariant) -> MatmulApp {
    let template = register(rt, variant);
    let nb = config.nb();
    let bytes = config.tile_bytes();
    let alloc_tiles = |rt: &mut Runtime| (0..nb * nb).map(|_| rt.alloc_bytes(bytes)).collect();
    let a: Vec<DataId> = alloc_tiles(rt);
    let b: Vec<DataId> = alloc_tiles(rt);
    let c: Vec<DataId> = alloc_tiles(rt);
    submit_tasks(rt, template, nb, &a, &b, &c);
    MatmulApp { template, config, a, b, c }
}

/// Submit the task graph over existing tiles (used by both engines).
pub fn submit_tasks(
    rt: &mut Runtime,
    template: TemplateId,
    nb: usize,
    a: &[DataId],
    b: &[DataId],
    c: &[DataId],
) {
    for i in 0..nb {
        for j in 0..nb {
            for k in 0..nb {
                rt.task(template)
                    .read(a[i * nb + k])
                    .read(b[k * nb + j])
                    .read_write(c[i * nb + j])
                    .submit();
            }
        }
    }
}

/// One-call simulated run: build, execute, report.
pub fn run_sim(
    config: MatmulConfig,
    variant: MatmulVariant,
    scheduler: SchedulerKind,
    platform: PlatformConfig,
) -> RunReport {
    run_sim_with(RuntimeConfig::with_scheduler(scheduler), config, variant, platform)
}

/// [`run_sim`] with full control over the [`RuntimeConfig`] — for
/// benchmarks and tests that toggle tracing or other runtime knobs.
pub fn run_sim_with(
    runtime_config: RuntimeConfig,
    config: MatmulConfig,
    variant: MatmulVariant,
    platform: PlatformConfig,
) -> RunReport {
    let mut rt = Runtime::simulated(runtime_config, platform);
    let _app = build(&mut rt, config, variant);
    rt.run().expect("run failed")
}

/// Register the matmul template *and* bind its native kernels for
/// `variant` with tile dimension `bs`. Shared by [`run_native_with`]
/// and the cluster binaries (`versa-worker`, `versa-cluster`): a
/// coordinator and its remote workers call this with identical
/// arguments so template *names* resolve to the same kernels on every
/// process — closures never cross the wire.
pub fn register_native(rt: &mut Runtime, variant: MatmulVariant, bs: usize) -> TemplateId {
    let template = register(rt, variant);

    let cublas = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        let exec = ctx.exec();
        let (reads, c) = ctx.f64_reads_and_mut(&[0, 1], 2);
        gemm::dgemm_parallel_on(exec, reads[0], reads[1], c, bs);
    };
    let blocked = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        let (reads, c) = ctx.f64_reads_and_mut(&[0, 1], 2);
        gemm::dgemm_blocked(reads[0], reads[1], c, bs);
    };
    let naive = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        let (reads, c) = ctx.f64_reads_and_mut(&[0, 1], 2);
        gemm::dgemm_naive(reads[0], reads[1], c, bs);
    };
    let packed = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        let (reads, c) = ctx.f64_reads_and_mut(&[0, 1], 2);
        gemm::dgemm_packed(reads[0], reads[1], c, bs);
    };
    let packed_scalar = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        let (reads, c) = ctx.f64_reads_and_mut(&[0, 1], 2);
        gemm::dgemm_packed_scalar(reads[0], reads[1], c, bs);
    };
    rt.bind_native(template, VersionId(0), cublas);
    match variant {
        MatmulVariant::Gpu => {}
        MatmulVariant::Hybrid => {
            rt.bind_native(template, VersionId(1), blocked);
            rt.bind_native(template, VersionId(2), naive);
        }
        MatmulVariant::Wide => {
            // V1 hand-CUDA stand-in: dispatched packed, single-lane.
            rt.bind_native(template, VersionId(1), packed);
            // V2 SMP-SIMD: the runtime-dispatched packed kernel.
            rt.bind_native(template, VersionId(2), packed);
            // V3 SMP-CBLAS stand-in: the same core, forced-scalar tier.
            rt.bind_native(template, VersionId(3), packed_scalar);
            // V4 SMP-naive: the deliberately bad triple loop.
            rt.bind_native(template, VersionId(4), naive);
        }
    }
    template
}

/// Native-engine matmul: real f64 tiles, real kernels (parallel-blocked
/// for the emulated GPU versions, naive for the CBLAS stand-in). Returns
/// the report and the computed `C` tiles for verification.
pub fn run_native(
    config: MatmulConfig,
    variant: MatmulVariant,
    scheduler: SchedulerKind,
    native: NativeConfig,
    seed: u64,
) -> (RunReport, NativeMatmulData) {
    run_native_with(RuntimeConfig::with_scheduler(scheduler), config, variant, native, seed)
}

/// [`run_native`] with full control over the [`RuntimeConfig`] — for
/// benchmarks and tests that set the staging depth (`lookahead_depth`)
/// or other runtime knobs.
pub fn run_native_with(
    runtime_config: RuntimeConfig,
    config: MatmulConfig,
    variant: MatmulVariant,
    native: NativeConfig,
    seed: u64,
) -> (RunReport, NativeMatmulData) {
    let mut rt = Runtime::native(runtime_config, native);
    let template = register_native(&mut rt, variant, config.bs);
    let bs = config.bs;

    let nb = config.nb();
    let mut mk_tiles = |seed_off: u64| -> Vec<DataId> {
        (0..nb * nb)
            .map(|t| {
                let tile =
                    versa_kernels::verify::random_matrix_f64(bs, seed + seed_off + t as u64);
                rt.alloc_from_f64(&tile)
            })
            .collect()
    };
    let a = mk_tiles(1000);
    let b = mk_tiles(2000);
    let c: Vec<DataId> =
        (0..nb * nb).map(|_| rt.alloc_from_f64(&vec![0.0; bs * bs])).collect();

    submit_tasks(&mut rt, template, nb, &a, &b, &c);
    let report = rt.run().expect("run failed");
    let c_tiles = c.iter().map(|&t| rt.read_f64(t)).collect();
    let a_tiles = a.iter().map(|&t| rt.read_f64(t)).collect();
    let b_tiles = b.iter().map(|&t| rt.read_f64(t)).collect();
    (report, NativeMatmulData { nb, bs, a: a_tiles, b: b_tiles, c: c_tiles })
}

/// Tile data read back from a native run, for verification.
pub struct NativeMatmulData {
    /// Tiles per dimension.
    pub nb: usize,
    /// Tile dimension.
    pub bs: usize,
    /// `A` tile contents.
    pub a: Vec<Vec<f64>>,
    /// `B` tile contents.
    pub b: Vec<Vec<f64>>,
    /// Computed `C` tile contents.
    pub c: Vec<Vec<f64>>,
}

impl NativeMatmulData {
    /// Recompute `C` serially with the naive kernel and return the
    /// largest deviation from the runtime's result.
    pub fn max_error(&self) -> f64 {
        let (nb, bs) = (self.nb, self.bs);
        let mut worst = 0.0f64;
        for i in 0..nb {
            for j in 0..nb {
                let mut expect = vec![0.0; bs * bs];
                for k in 0..nb {
                    gemm::dgemm_naive(&self.a[i * nb + k], &self.b[k * nb + j], &mut expect, bs);
                }
                let got = &self.c[i * nb + j];
                let err = versa_kernels::verify::max_abs_diff_f64(&expect, got);
                worst = worst.max(err);
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_v() {
        let c = MatmulConfig::paper();
        assert_eq!(c.nb(), 16);
        assert_eq!(c.task_count(), 4096);
        assert_eq!(c.tile_bytes(), 8 * 1024 * 1024, "8 MB tiles");
        // 2 GB per matrix.
        assert_eq!(c.tile_bytes() * (c.nb() * c.nb()) as u64, 2 * 1024 * 1024 * 1024);
    }

    #[test]
    fn variant_labels() {
        assert_eq!(MatmulVariant::Gpu.label(), "mm-gpu");
        assert_eq!(MatmulVariant::Hybrid.label(), "mm-hyb");
        assert_eq!(MatmulVariant::Wide.label(), "mm-wide");
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn tile_must_divide_matrix() {
        let _ = MatmulConfig { n: 100, bs: 33 }.nb();
    }

    #[test]
    fn wide_sim_learns_to_prefer_cublas() {
        let cfg = MatmulConfig { n: 2048, bs: 256 };
        let report = run_sim(
            cfg,
            MatmulVariant::Wide,
            SchedulerKind::versioning(),
            PlatformConfig::minotauro(4, 2),
        );
        assert_eq!(report.tasks_executed, cfg.task_count() as u64);
        // All executions come from the five registered versions…
        let total: u64 = report.version_counts.values().sum();
        assert_eq!(total, report.tasks_executed);
        assert!(report.version_counts.keys().all(|&(_, v)| v.0 < 5));
        // …and once the learning phase is over, CUBLAS dominates.
        let cublas = report
            .version_counts
            .iter()
            .filter(|((_, v), _)| v.0 == 0)
            .map(|(_, &c)| c)
            .sum::<u64>();
        assert!(
            cublas * 2 > report.tasks_executed,
            "cublas ran {cublas}/{} tasks — versioning failed to learn",
            report.tasks_executed
        );
    }

    #[test]
    fn wide_native_run_is_correct() {
        let cfg = MatmulConfig { n: 128, bs: 32 };
        let (report, data) = run_native(
            cfg,
            MatmulVariant::Wide,
            SchedulerKind::versioning(),
            NativeConfig::new(2, 1),
            99,
        );
        assert_eq!(report.tasks_executed, cfg.task_count() as u64);
        assert!(data.max_error() < 1e-9, "native mm-wide error {}", data.max_error());
    }
}
