//! Tiled Cholesky factorization (paper §V-B2).
//!
//! Right-looking factorization over `nb × nb` tiles of `bs × bs` f32
//! elements with four task types: `potrf`, `trsm`, `syrk`, `gemm`. The
//! paper gives GPU-only implementations for the last three and varies
//! `potrf`:
//!
//! * **potrf-smp** — only the SMP (CBLAS) potrf.
//! * **potrf-gpu** — only the GPU (MAGMA) potrf.
//! * **potrf-hyb** — both, joined via `implements`.
//!
//! `potrf` sits on the critical path ("it acts like a bottleneck"), and
//! with only `nb` potrf instances, the versioning scheduler's learning
//! phase is clearly visible — exactly the paper's point.

use crate::calib;
use versa_core::{DeviceKind, SchedulerKind, TemplateId, VersionId};
use versa_kernels::{gemm, potrf, syrk, trsm};
use versa_mem::DataId;
use versa_runtime::{NativeConfig, RunReport, Runtime, RuntimeConfig};
use versa_sim::PlatformConfig;

/// Which potrf implementations the application exposes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CholeskyVariant {
    /// `potrf-smp`: SMP-only potrf (other tasks on GPU).
    PotrfSmp,
    /// `potrf-gpu`: GPU-only potrf.
    PotrfGpu,
    /// `potrf-hyb`: SMP + GPU potrf versions.
    PotrfHybrid,
}

impl CholeskyVariant {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CholeskyVariant::PotrfSmp => "potrf-smp",
            CholeskyVariant::PotrfGpu => "potrf-gpu",
            CholeskyVariant::PotrfHybrid => "potrf-hyb",
        }
    }
}

/// Problem dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CholeskyConfig {
    /// Matrix dimension in f32 elements.
    pub n: usize,
    /// Tile dimension; must divide `n`.
    pub bs: usize,
}

impl CholeskyConfig {
    /// The paper's dimensions: 32768² f32 (4 GB), 2048² tiles (16 MB),
    /// 16×16 tiles → 16 potrf instances.
    pub fn paper() -> CholeskyConfig {
        CholeskyConfig { n: 32768, bs: 2048 }
    }

    /// Reduced size for fast tests (same 16×16 tile structure).
    pub fn quick() -> CholeskyConfig {
        CholeskyConfig { n: 2048, bs: 128 }
    }

    /// Tiles per dimension.
    pub fn nb(&self) -> usize {
        assert!(self.bs > 0 && self.n.is_multiple_of(self.bs), "tile size must divide matrix size");
        self.n / self.bs
    }

    /// Bytes of one f32 tile.
    pub(crate) fn tile_bytes(&self) -> u64 {
        (self.bs * self.bs * 4) as u64
    }

    /// Useful FLOPs of the factorization (n³/3).
    pub fn flops(&self) -> f64 {
        (self.n as f64).powi(3) / 3.0
    }
}

/// The four templates of a built Cholesky instance.
pub struct CholeskyApp {
    /// `potrf` version set (the variant-dependent one).
    pub potrf: TemplateId,
    /// `trsm` (GPU-only).
    pub trsm: TemplateId,
    /// `syrk` (GPU-only).
    pub syrk: TemplateId,
    /// `gemm` (GPU-only).
    pub gemm: TemplateId,
    /// Problem dimensions.
    pub config: CholeskyConfig,
    /// Lower-triangle tiles (row-major `nb × nb`; only `j ≤ i` used).
    pub tiles: Vec<DataId>,
}

/// Register the four templates and bind simulation costs.
///
/// Cost models recover the tile dimension from each task's data set size
/// (potrf/syrk/gemm touch 1/2/3 f32 tiles respectively) and charge the
/// kernel's FLOPs at the calibrated device rate.
pub fn register(rt: &mut Runtime, variant: CholeskyVariant) -> (TemplateId, TemplateId, TemplateId, TemplateId) {
    let potrf = match variant {
        CholeskyVariant::PotrfSmp => rt
            .template("potrf")
            .main("potrf_cblas", &[DeviceKind::Smp])
            .register(),
        CholeskyVariant::PotrfGpu => rt
            .template("potrf")
            .main("potrf_magma", &[DeviceKind::Cuda])
            .register(),
        CholeskyVariant::PotrfHybrid => rt
            .template("potrf")
            .main("potrf_magma", &[DeviceKind::Cuda])
            .version("potrf_cblas", &[DeviceKind::Smp])
            .register(),
    };
    let trsm = rt.template("trsm").main("trsm_cublas", &[DeviceKind::Cuda]).register();
    let syrk = rt.template("syrk").main("syrk_cublas", &[DeviceKind::Cuda]).register();
    let gemm = rt.template("gemm").main("gemm_cublas", &[DeviceKind::Cuda]).register();

    // Tile dimension from data set size: k tiles × bs² × 4 bytes.
    let bs_from = |size: u64, tiles: u64| ((size / tiles / 4) as f64).sqrt();
    // potrf touches 1 tile; flops = bs³/3.
    let potrf_flops = move |s: u64| bs_from(s, 1).powi(3) / 3.0;
    // trsm touches 2 tiles; flops = bs³.
    let trsm_flops = move |s: u64| bs_from(s, 2).powi(3);
    // syrk touches 2 tiles; flops = bs³.
    let syrk_flops = move |s: u64| bs_from(s, 2).powi(3);
    // gemm touches 3 tiles; flops = 2·bs³.
    let gemm_flops = move |s: u64| 2.0 * bs_from(s, 3).powi(3);

    match variant {
        CholeskyVariant::PotrfSmp => {
            rt.bind_cost(potrf, VersionId(0), move |s| {
                calib::duration_at(potrf_flops(s), calib::SMP_SPOTRF)
            });
        }
        CholeskyVariant::PotrfGpu => {
            rt.bind_cost(potrf, VersionId(0), move |s| {
                calib::duration_at(potrf_flops(s), calib::GPU_SPOTRF)
            });
        }
        CholeskyVariant::PotrfHybrid => {
            rt.bind_cost(potrf, VersionId(0), move |s| {
                calib::duration_at(potrf_flops(s), calib::GPU_SPOTRF)
            });
            rt.bind_cost(potrf, VersionId(1), move |s| {
                calib::duration_at(potrf_flops(s), calib::SMP_SPOTRF)
            });
        }
    }
    rt.bind_cost(trsm, VersionId(0), move |s| {
        calib::duration_at(trsm_flops(s), calib::GPU_STRSM)
    });
    rt.bind_cost(syrk, VersionId(0), move |s| {
        calib::duration_at(syrk_flops(s), calib::GPU_SSYRK)
    });
    rt.bind_cost(gemm, VersionId(0), move |s| {
        calib::duration_at(gemm_flops(s), calib::GPU_SGEMM)
    });
    (potrf, trsm, syrk, gemm)
}

/// Submit the right-looking tiled factorization over existing tiles.
pub fn submit_tasks(
    rt: &mut Runtime,
    (potrf, trsm, syrk, gemm): (TemplateId, TemplateId, TemplateId, TemplateId),
    nb: usize,
    tiles: &[DataId],
) {
    let t = |i: usize, j: usize| tiles[i * nb + j];
    for k in 0..nb {
        rt.task(potrf).read_write(t(k, k)).submit();
        for i in (k + 1)..nb {
            rt.task(trsm).read(t(k, k)).read_write(t(i, k)).submit();
        }
        for i in (k + 1)..nb {
            rt.task(syrk).read(t(i, k)).read_write(t(i, i)).submit();
            for j in (k + 1)..i {
                rt.task(gemm).read(t(i, k)).read(t(j, k)).read_write(t(i, j)).submit();
            }
        }
    }
}

/// Allocate tiles and submit the factorization graph (simulated data).
pub fn build(rt: &mut Runtime, config: CholeskyConfig, variant: CholeskyVariant) -> CholeskyApp {
    let templates = register(rt, variant);
    let nb = config.nb();
    let bytes = config.tile_bytes();
    let tiles: Vec<DataId> = (0..nb * nb).map(|_| rt.alloc_bytes(bytes)).collect();
    submit_tasks(rt, templates, nb, &tiles);
    CholeskyApp {
        potrf: templates.0,
        trsm: templates.1,
        syrk: templates.2,
        gemm: templates.3,
        config,
        tiles,
    }
}

/// One-call simulated run.
pub fn run_sim(
    config: CholeskyConfig,
    variant: CholeskyVariant,
    scheduler: SchedulerKind,
    platform: PlatformConfig,
) -> RunReport {
    run_sim_with(RuntimeConfig::with_scheduler(scheduler), config, variant, platform)
}

/// [`run_sim`] with full control over the [`RuntimeConfig`] — for
/// benchmarks and tests that toggle tracing or other runtime knobs.
pub fn run_sim_with(
    runtime_config: RuntimeConfig,
    config: CholeskyConfig,
    variant: CholeskyVariant,
    platform: PlatformConfig,
) -> RunReport {
    let mut rt = Runtime::simulated(runtime_config, platform);
    let _app = build(&mut rt, config, variant);
    rt.run().expect("run failed")
}

/// Bind the f32 tile kernels for `bs × bs` tiles to the templates
/// [`register`] returned for `variant` — one kernel per registered
/// version, since a version with no native kernel fails a native run.
/// `ctx.exec()` carries the emulated GPU's persistent lane pool; read
/// arguments are borrowed in place (no copies).
pub(crate) fn bind_native(
    rt: &mut Runtime,
    (potrf_t, trsm_t, syrk_t, gemm_t): (TemplateId, TemplateId, TemplateId, TemplateId),
    variant: CholeskyVariant,
    bs: usize,
) {
    let potrf_kernel = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        potrf::spotrf(ctx.f32_mut(0), bs).expect("tile not positive definite");
    };
    rt.bind_native(potrf_t, VersionId(0), potrf_kernel);
    if variant == CholeskyVariant::PotrfHybrid {
        rt.bind_native(potrf_t, VersionId(1), potrf_kernel);
    }
    rt.bind_native(trsm_t, VersionId(0), move |ctx| {
        let exec = ctx.exec();
        let (reads, a) = ctx.f32_reads_and_mut(&[0], 1);
        trsm::strsm_right_lower_trans_par_on(exec, reads[0], a, bs);
    });
    rt.bind_native(syrk_t, VersionId(0), move |ctx| {
        let exec = ctx.exec();
        let (reads, c) = ctx.f32_reads_and_mut(&[0], 1);
        syrk::ssyrk_lower_par_on(exec, reads[0], c, bs);
    });
    rt.bind_native(gemm_t, VersionId(0), move |ctx| {
        let exec = ctx.exec();
        let (reads, c) = ctx.f32_reads_and_mut(&[0, 1], 2);
        gemm::sgemm_nt_sub_par_on(exec, reads[0], reads[1], c, bs);
    });
}

/// Native-engine Cholesky on a real SPD matrix. Returns the report, the
/// input matrix and the computed factor tiles for verification.
pub fn run_native(
    config: CholeskyConfig,
    variant: CholeskyVariant,
    scheduler: SchedulerKind,
    native: NativeConfig,
    seed: u64,
) -> (RunReport, NativeCholeskyData) {
    run_native_with(RuntimeConfig::with_scheduler(scheduler), config, variant, native, seed)
}

/// [`run_native`] with full control over the [`RuntimeConfig`] — for
/// benchmarks and tests that set the staging depth (`lookahead_depth`)
/// or other runtime knobs.
pub fn run_native_with(
    runtime_config: RuntimeConfig,
    config: CholeskyConfig,
    variant: CholeskyVariant,
    native: NativeConfig,
    seed: u64,
) -> (RunReport, NativeCholeskyData) {
    let mut rt = Runtime::native(runtime_config, native);
    let templates = register(&mut rt, variant);
    let bs = config.bs;
    let n = config.n;
    let nb = config.nb();

    bind_native(&mut rt, templates, variant, bs);

    // Build a full SPD matrix, cut into tiles.
    let full = versa_kernels::verify::spd_matrix_f32(n, seed);
    let tile_of = |ti: usize, tj: usize| -> Vec<f32> {
        let mut t = vec![0.0f32; bs * bs];
        for r in 0..bs {
            let src = (ti * bs + r) * n + tj * bs;
            t[r * bs..r * bs + bs].copy_from_slice(&full[src..src + bs]);
        }
        t
    };
    let tiles: Vec<DataId> = (0..nb * nb)
        .map(|idx| {
            let t = tile_of(idx / nb, idx % nb);
            rt.alloc_from_f32(&t)
        })
        .collect();

    submit_tasks(&mut rt, templates, nb, &tiles);
    let report = rt.run().expect("run failed");
    let factor: Vec<Vec<f32>> = tiles.iter().map(|&t| rt.read_f32(t)).collect();
    (report, NativeCholeskyData { n, bs, nb, input: full, factor })
}

/// Data read back from a native Cholesky run.
pub struct NativeCholeskyData {
    /// Matrix dimension.
    pub n: usize,
    /// Tile dimension.
    pub bs: usize,
    /// Tiles per dimension.
    pub nb: usize,
    /// The original SPD matrix.
    pub input: Vec<f32>,
    /// Tile contents after factorization (lower triangle holds `L`).
    pub factor: Vec<Vec<f32>>,
}

impl NativeCholeskyData {
    /// Assemble `L` from the tiles (lower triangle only) and return the
    /// largest deviation of `L·Lᵀ` from the input.
    pub fn max_error(&self) -> f32 {
        let (n, bs, nb) = (self.n, self.bs, self.nb);
        let mut l = vec![0.0f32; n * n];
        for ti in 0..nb {
            for tj in 0..=ti {
                let tile = &self.factor[ti * nb + tj];
                for r in 0..bs {
                    for c in 0..bs {
                        let (gi, gj) = (ti * bs + r, tj * bs + c);
                        if gj <= gi {
                            l[gi * n + gj] = tile[r * bs + c];
                        }
                    }
                }
            }
        }
        let mut worst = 0.0f32;
        for i in 0..n {
            for j in 0..n {
                let mut dot = 0.0f64;
                for k in 0..=i.min(j) {
                    dot += l[i * n + k] as f64 * l[j * n + k] as f64;
                }
                worst = worst.max((dot as f32 - self.input[i * n + j]).abs());
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
        let c = CholeskyConfig::paper();
        assert_eq!(c.nb(), 16);
        assert_eq!(c.tile_bytes(), 16 * 1024 * 1024, "16 MB tiles");
        // 4 GB matrix.
        assert_eq!(c.tile_bytes() * (c.nb() * c.nb()) as u64, 4 * 1024 * 1024 * 1024);
    }

    #[test]
    fn task_counts_follow_the_tiled_algorithm() {
        // nb potrf, nb(nb-1)/2 trsm + syrk each, nb(nb-1)(nb-2)/6 gemm.
        let cfg = CholeskyConfig { n: 512, bs: 64 };
        let nb = cfg.nb();
        let mut rt = Runtime::simulated(
            RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
            PlatformConfig::minotauro(1, 1),
        );
        let app = build(&mut rt, cfg, CholeskyVariant::PotrfGpu);
        let expected = nb + nb * (nb - 1) + nb * (nb - 1) * (nb - 2) / 6;
        // Count submitted tasks via the report after running.
        let report = rt.run().expect("run failed");
        assert_eq!(report.tasks_executed as usize, expected);
        assert_eq!(report.version_counts[&(app.potrf, VersionId(0))] as usize, nb);
    }

    #[test]
    fn variant_labels() {
        assert_eq!(CholeskyVariant::PotrfSmp.label(), "potrf-smp");
        assert_eq!(CholeskyVariant::PotrfGpu.label(), "potrf-gpu");
        assert_eq!(CholeskyVariant::PotrfHybrid.label(), "potrf-hyb");
    }
}
