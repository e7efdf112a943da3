//! `mm_native` — native engine, `MatmulVariant::Wide` (5 versions),
//! n=2048 bs=256 f64 (512 tasks, 512 KB tiles), no link throttle, a
//! fresh `Runtime` per rep so the learning phase sits inside every solve.
//!
//! Kernel-bound: > 80 % of worker time in a solve is kernel time, so
//! kernel, SIMD-tier and version-selection/learning-cost changes show
//! here; `mem`, `serve` and `net` do almost nothing.

use super::native::{self, NativeWorkload, Rep};
use super::{conclude, rss_mb, Ctx};
use crate::check::matmul_max_error;
use crate::gen::{derive, tile_f64};
use crate::metrics::Outcome;
use crate::spans::{Layer, Recorder};
use std::time::Instant;
use versa_apps::matmul::{self, MatmulConfig, MatmulVariant};
use versa_core::SchedulerKind;
use versa_mem::DataId;
use versa_runtime::{NativeConfig, Runtime, RuntimeConfig};
use versa_trace::TraceConfig;

/// The verification gate shared with the repo's cluster CLIs.
pub const MAX_ERROR: f64 = 1e-9;

/// Versioning scheduler, everything else default; runtime tracing on in
/// the traced segment only.
pub fn runtime_config(traced: bool) -> RuntimeConfig {
    let mut rc = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
    if traced {
        rc.tracing = TraceConfig::on();
    }
    rc
}

/// Seeded A and B tiles, shared with `cluster_mm_loopback`.
pub struct Tiles {
    pub config: MatmulConfig,
    pub a: Vec<Vec<f64>>,
    pub b: Vec<Vec<f64>>,
    seed: u64,
}

impl Tiles {
    pub fn new(config: MatmulConfig, seed: u64) -> Tiles {
        let nb = config.nb();
        let tiles = |stream: u64| -> Vec<Vec<f64>> {
            (0..nb * nb)
                .map(|t| tile_f64(config.bs, derive(seed, stream + t as u64)))
                .collect()
        };
        Tiles {
            config,
            a: tiles(1 << 20),
            b: tiles(2 << 20),
            seed,
        }
    }

    /// Allocate A, B and a zeroed C in `rt`.
    pub fn alloc(&self, rt: &mut Runtime) -> (Vec<DataId>, Vec<DataId>, Vec<DataId>) {
        let a = self.a.iter().map(|t| rt.alloc_from_f64(t)).collect();
        let b = self.b.iter().map(|t| rt.alloc_from_f64(t)).collect();
        let zero = vec![0.0; self.config.bs * self.config.bs];
        let c = (0..self.a.len())
            .map(|_| rt.alloc_from_f64(&zero))
            .collect();
        (a, b, c)
    }

    /// Read `C` back and compare with a serial recomputation.
    pub fn max_error(&self, rt: &mut Runtime, c: &[DataId]) -> f64 {
        let c: Vec<Vec<f64>> = c.iter().map(|&t| rt.read_f64(t)).collect();
        matmul_max_error(
            self.config.nb(),
            self.config.bs,
            &self.a,
            &self.b,
            &c,
            derive(self.seed, 3),
        )
    }

    /// The timed part of a rep plus the optional check: `submit_tasks` +
    /// `run()` through the final flush.
    pub fn solve(
        &self,
        rt: &mut Runtime,
        template: versa_core::TemplateId,
        setup_s: f64,
        rec: &mut Recorder,
        req: u64,
        verify: bool,
    ) -> Rep {
        let s = rec.begin("Runtime::alloc_from_f64", Layer::Runtime, req);
        let t_alloc = Instant::now();
        let (a, b, c) = self.alloc(rt);
        let setup_s = setup_s + t_alloc.elapsed().as_secs_f64();
        rec.end(s);

        let solve_span = rec.begin("solve", Layer::Bench, req);
        let t_solve = Instant::now();
        let s = rec.begin("matmul::submit_tasks", Layer::Runtime, req);
        matmul::submit_tasks(rt, template, self.config.nb(), &a, &b, &c);
        rec.end(s);
        let run_span = rec.begin("Runtime::run", Layer::Runtime, req);
        let report = rt.run().expect("matmul run failed");
        rec.end(run_span);
        let solve_s = t_solve.elapsed().as_secs_f64();
        rec.end(solve_span);
        let rss_mb = rss_mb();

        let error = verify.then(|| {
            let s = rec.begin("verify", Layer::Bench, req);
            let e = self.max_error(rt, &c);
            rec.end(s);
            e
        });
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

struct MmNative(Tiles);

impl NativeWorkload for MmNative {
    const NAME: &'static str = "mm_native";

    fn flops(&self) -> f64 {
        self.0.config.flops()
    }

    fn tolerance(&self) -> f64 {
        MAX_ERROR
    }

    fn rep(&mut self, traced: bool, rec: &mut Recorder, req: u64, verify: bool) -> Rep {
        let rep_span = rec.begin("rep", Layer::Bench, req);
        let t_setup = Instant::now();
        let s = rec.begin("Runtime::native", Layer::Runtime, req);
        // 1 SMP + 1 emulated GPU × 1 lane: two compute threads = nproc here.
        let workers = NativeConfig {
            smp_workers: 1,
            gpus: 1,
            gpu_lanes: 1,
            link_bandwidth: None,
        };
        let mut rt = Runtime::native(runtime_config(traced), workers);
        rec.end(s);
        let s = rec.begin("matmul::register_native", Layer::Apps, req);
        let template = matmul::register_native(&mut rt, MatmulVariant::Wide, self.0.config.bs);
        rec.end(s);
        let rep = self.0.solve(
            &mut rt,
            template,
            t_setup.elapsed().as_secs_f64(),
            rec,
            req,
            verify,
        );
        rec.end(rep_span);
        rep
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let config = if ctx.quick {
        MatmulConfig { n: 1024, bs: 256 }
    } else {
        MatmulConfig { n: 2048, bs: 256 }
    };
    let mut w = MmNative(Tiles::new(config, ctx.seed));
    let r = native::run(ctx, &mut w);
    conclude(ctx, r.samples, r.attempted, r.failed, r.correct)
}
