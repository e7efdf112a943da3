//! `chol_native_link` — native engine, tiled Cholesky `PotrfHybrid`, f32
//! n=2048 bs=256 (nb=8, 120 tasks, 4 templates), 1 SMP + 1 emulated GPU,
//! `link_bandwidth = 100 MB/s`, a fresh `Runtime` per rep.
//!
//! Dependency wavefronts, and every cross-space tile pays the link, so
//! `mem::staging`, lookahead, the native drive loop and locality-aware
//! bids decide the solve time; kernels matter less. Same native loop as
//! `mm_native`, used the opposite way.
//!
//! The benchmark binds its own closures to the public kernels and builds
//! a diagonally dominant SPD matrix in O(n²): `cholesky::run_native`
//! spends seconds per call generating its input at this size.

use super::mm_native::runtime_config;
use super::native::{self, NativeWorkload, Rep};
use super::{conclude, rss_mb, Ctx};
use crate::check::cholesky_max_residual;
use crate::gen::{derive, spd_tile_f32};
use crate::metrics::Outcome;
use crate::spans::{Layer, Recorder};
use std::time::Instant;
use versa_apps::cholesky::{self, CholeskyConfig, CholeskyVariant};
use versa_core::VersionId;
use versa_kernels::{gemm, potrf, syrk, trsm};
use versa_mem::DataId;
use versa_runtime::{KernelCtx, NativeConfig, Runtime};

/// `|L·Lᵀ − A|` gate on the sampled entries: f32 rounding on a matrix
/// whose diagonal is `n` leaves residuals around 1e-3.
const MAX_RESIDUAL: f64 = 5e-2;

struct CholNativeLink {
    config: CholeskyConfig,
    tiles: Vec<Vec<f32>>,
    seed: u64,
}

/// Bind the public kernels to the four templates, as `versa_apps` does.
fn bind_kernels(
    rt: &mut Runtime,
    (potrf_t, trsm_t, syrk_t, gemm_t): (
        versa_core::TemplateId,
        versa_core::TemplateId,
        versa_core::TemplateId,
        versa_core::TemplateId,
    ),
    bs: usize,
) {
    let potrf_kernel = move |ctx: &mut KernelCtx<'_>| {
        potrf::spotrf(ctx.f32_mut(0), bs).expect("tile not positive definite");
    };
    rt.bind_native(potrf_t, VersionId(0), potrf_kernel);
    rt.bind_native(potrf_t, VersionId(1), potrf_kernel);
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

impl NativeWorkload for CholNativeLink {
    const NAME: &'static str = "chol_native_link";

    fn flops(&self) -> f64 {
        self.config.flops()
    }

    fn tolerance(&self) -> f64 {
        MAX_RESIDUAL
    }

    fn rep(&mut self, traced: bool, rec: &mut Recorder, req: u64, verify: bool) -> Rep {
        let (n, bs, nb) = (self.config.n, self.config.bs, self.config.nb());
        let rep_span = rec.begin("rep", Layer::Bench, req);
        let t_setup = Instant::now();
        let s = rec.begin("Runtime::native", Layer::Runtime, req);
        let workers = NativeConfig {
            smp_workers: 1,
            gpus: 1,
            gpu_lanes: 1,
            link_bandwidth: Some(100_000_000),
        };
        let mut rt = Runtime::native(runtime_config(traced), workers);
        rec.end(s);
        let s = rec.begin("cholesky::register", Layer::Apps, req);
        let templates = cholesky::register(&mut rt, CholeskyVariant::PotrfHybrid);
        bind_kernels(&mut rt, templates, bs);
        rec.end(s);
        let s = rec.begin("Runtime::alloc_from_f32", Layer::Runtime, req);
        let tiles: Vec<DataId> = self.tiles.iter().map(|t| rt.alloc_from_f32(t)).collect();
        rec.end(s);
        let setup_s = t_setup.elapsed().as_secs_f64();

        let solve_span = rec.begin("solve", Layer::Bench, req);
        let t_solve = Instant::now();
        let s = rec.begin("cholesky::submit_tasks", Layer::Runtime, req);
        cholesky::submit_tasks(&mut rt, templates, nb, &tiles);
        rec.end(s);
        let run_span = rec.begin("Runtime::run", Layer::Runtime, req);
        let report = rt.run().expect("chol_native_link: run failed");
        rec.end(run_span);
        let solve_s = t_solve.elapsed().as_secs_f64();
        rec.end(solve_span);
        let rss_mb = rss_mb();

        let error = verify.then(|| {
            let s = rec.begin("verify", Layer::Bench, req);
            let factor: Vec<Vec<f32>> = tiles.iter().map(|&t| rt.read_f32(t)).collect();
            let e =
                cholesky_max_residual(n, bs, derive(self.seed, 1), &factor, derive(self.seed, 2));
            rec.end(s);
            e
        });
        rec.end(rep_span);
        Rep {
            setup_s,
            solve_s,
            rss_mb,
            report,
            run_span,
            error,
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let config = if ctx.quick {
        CholeskyConfig { n: 1024, bs: 256 }
    } else {
        CholeskyConfig { n: 2048, bs: 256 }
    };
    let nb = config.nb();
    let tiles = (0..nb * nb)
        .map(|t| spd_tile_f32(config.n, config.bs, derive(ctx.seed, 1), t / nb, t % nb))
        .collect();
    let mut w = CholNativeLink {
        config,
        tiles,
        seed: ctx.seed,
    };
    let r = native::run(ctx, &mut w);
    conclude(ctx, r.samples, r.attempted, r.failed, r.correct)
}
