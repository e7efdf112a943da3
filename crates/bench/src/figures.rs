//! Regeneration of every table and figure in the paper's §V.

use crate::{sweep, Cell, FigureResult, Scale, SweepPoint};
use versa_apps::cholesky::{self, CholeskyConfig, CholeskyVariant};
use versa_apps::matmul::{self, MatmulConfig, MatmulVariant};
use versa_apps::pbpi::{self, PbpiConfig, PbpiVariant};
use versa_core::{SchedulerKind, TemplateId, VersionId};
use versa_runtime::{RunReport, Runtime, RuntimeConfig};
use versa_sim::PlatformConfig;

fn matmul_cfg(scale: Scale) -> MatmulConfig {
    match scale {
        Scale::Paper => MatmulConfig::paper(),
        Scale::Quick => MatmulConfig::quick(),
    }
}

fn cholesky_cfg(scale: Scale) -> CholeskyConfig {
    match scale {
        Scale::Paper => CholeskyConfig::paper(),
        Scale::Quick => CholeskyConfig { n: 8192, bs: 1024 },
    }
}

fn pbpi_cfg(scale: Scale) -> PbpiConfig {
    match scale {
        Scale::Paper => PbpiConfig::paper(),
        Scale::Quick => PbpiConfig { chunks: 16, sites_per_chunk: 16384, generations: 20 },
    }
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1.0e6
}

// ---------------------------------------------------------------------
// Matmul (Figs. 6, 7, 8)
// ---------------------------------------------------------------------

/// All matmul runs for one sweep point.
pub struct MatmulPoint {
    /// The resource configuration.
    pub point: SweepPoint,
    /// mm-gpu under the dependency-aware scheduler.
    pub gpu_dep: RunReport,
    /// mm-gpu under the affinity scheduler.
    pub gpu_aff: RunReport,
    /// mm-hyb under the versioning scheduler.
    pub hyb_ver: RunReport,
    /// The hybrid run's `matmul_tile` template.
    pub template: TemplateId,
}

/// Execute the full matmul sweep (the backing runs of Figs. 6–8).
pub fn matmul_matrix(scale: Scale) -> (MatmulConfig, Vec<MatmulPoint>) {
    let cfg = matmul_cfg(scale);
    let points = sweep()
        .into_iter()
        .map(|p| {
            let platform = || PlatformConfig::minotauro(p.smp, p.gpus);
            let gpu_dep =
                matmul::run_sim(cfg, MatmulVariant::Gpu, SchedulerKind::DepAware, platform());
            let gpu_aff =
                matmul::run_sim(cfg, MatmulVariant::Gpu, SchedulerKind::Affinity, platform());
            let mut rt = Runtime::simulated(
                RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
                platform(),
            );
            let app = matmul::build(&mut rt, cfg, MatmulVariant::Hybrid);
            let hyb_ver = rt.run().expect("run failed");
            MatmulPoint { point: p, gpu_dep, gpu_aff, hyb_ver, template: app.template }
        })
        .collect();
    (cfg, points)
}

/// Fig. 6 — matmul performance (GFLOP/s) per scheduler and resource mix.
pub fn fig6(cfg: &MatmulConfig, points: &[MatmulPoint]) -> FigureResult {
    let mut out = FigureResult::new(
        "fig6",
        "Matrix multiplication performance (GFLOP/s)",
        &["config", "mm-gpu-dep", "mm-gpu-aff", "mm-hyb-ver"],
    );
    let f = cfg.flops();
    for p in points {
        out.push_row(vec![
            Cell::text(p.point.label()),
            Cell::num(p.gpu_dep.gflops(f)),
            Cell::num(p.gpu_aff.gflops(f)),
            Cell::num(p.hyb_ver.gflops(f)),
        ]);
    }
    out.note("paper: dep ≈ aff for mm-gpu; linear 1→2 GPU scaling; SMP count irrelevant for mm-gpu");
    out.note("paper: mm-hyb-ver slightly lower at few SMP workers, overtakes as SMP workers grow");
    out
}

/// Fig. 7 — matmul bytes transferred per category (GA / GD / HV).
pub fn fig7(points: &[MatmulPoint]) -> FigureResult {
    let mut out = FigureResult::new(
        "fig7",
        "Data transferred for matrix multiplication (MB)",
        &["config", "series", "input", "output", "device"],
    );
    for p in points {
        for (series, rep) in
            [("GA", &p.gpu_aff), ("GD", &p.gpu_dep), ("HV", &p.hyb_ver)]
        {
            out.push_row(vec![
                Cell::text(format!("{} {}", p.point.label(), series)),
                Cell::text(series),
                Cell::num(mb(rep.transfers.input_bytes)),
                Cell::num(mb(rep.transfers.output_bytes)),
                Cell::num(mb(rep.transfers.device_bytes)),
            ]);
        }
    }
    out.note("paper: HV transfers exceed GA/GD and grow with SMP workers; HV shows device-device traffic");
    out
}

/// Fig. 8 — matmul per-version execution shares under the versioning
/// scheduler.
pub fn fig8(points: &[MatmulPoint]) -> FigureResult {
    let mut out = FigureResult::new(
        "fig8",
        "Matmul task statistics for versioning scheduler (% of executions)",
        &["config", "cublas", "cuda", "cblas"],
    );
    for p in points {
        let shares = p.hyb_ver.version_shares(p.template, 3);
        out.push_row(vec![
            Cell::text(p.point.label()),
            Cell::num(100.0 * shares[0]),
            Cell::num(100.0 * shares[1]),
            Cell::num(100.0 * shares[2]),
        ]);
    }
    out.note("paper: CUBLAS dominates; hand-CUDA only runs during learning (almost invisible)");
    out.note("paper: SMP share ≈10%, grows with SMP workers, larger with 1 GPU than with 2");
    out
}

// ---------------------------------------------------------------------
// Cholesky (Figs. 9, 10, 11)
// ---------------------------------------------------------------------

/// All Cholesky runs for one sweep point.
pub struct CholeskyPoint {
    /// The resource configuration.
    pub point: SweepPoint,
    /// potrf-smp under the affinity scheduler.
    pub smp_aff: RunReport,
    /// potrf-gpu under the dependency-aware scheduler.
    pub gpu_dep: RunReport,
    /// potrf-gpu under the affinity scheduler.
    pub gpu_aff: RunReport,
    /// potrf-hyb under the versioning scheduler.
    pub hyb_ver: RunReport,
    /// The hybrid run's `potrf` template.
    pub potrf: TemplateId,
}

/// Execute the full Cholesky sweep (the backing runs of Figs. 9–11).
pub fn cholesky_matrix(scale: Scale) -> (CholeskyConfig, Vec<CholeskyPoint>) {
    let cfg = cholesky_cfg(scale);
    let points = sweep()
        .into_iter()
        .map(|p| {
            let platform = || PlatformConfig::minotauro(p.smp, p.gpus);
            let smp_aff = cholesky::run_sim(
                cfg,
                CholeskyVariant::PotrfSmp,
                SchedulerKind::Affinity,
                platform(),
            );
            let gpu_dep = cholesky::run_sim(
                cfg,
                CholeskyVariant::PotrfGpu,
                SchedulerKind::DepAware,
                platform(),
            );
            let gpu_aff = cholesky::run_sim(
                cfg,
                CholeskyVariant::PotrfGpu,
                SchedulerKind::Affinity,
                platform(),
            );
            let mut rt = Runtime::simulated(
                RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
                platform(),
            );
            let app = cholesky::build(&mut rt, cfg, CholeskyVariant::PotrfHybrid);
            let hyb_ver = rt.run().expect("run failed");
            CholeskyPoint { point: p, smp_aff, gpu_dep, gpu_aff, hyb_ver, potrf: app.potrf }
        })
        .collect();
    (cfg, points)
}

/// Fig. 9 — Cholesky performance (GFLOP/s).
pub fn fig9(cfg: &CholeskyConfig, points: &[CholeskyPoint]) -> FigureResult {
    let mut out = FigureResult::new(
        "fig9",
        "Cholesky factorization performance (GFLOP/s)",
        &["config", "potrf-smp-aff", "potrf-gpu-dep", "potrf-gpu-aff", "potrf-hyb-ver"],
    );
    let f = cfg.flops();
    for p in points {
        out.push_row(vec![
            Cell::text(p.point.label()),
            Cell::num(p.smp_aff.gflops(f)),
            Cell::num(p.gpu_dep.gflops(f)),
            Cell::num(p.gpu_aff.gflops(f)),
            Cell::num(p.hyb_ver.gflops(f)),
        ]);
    }
    out.note("paper: potrf-smp is worst everywhere (transfers + slow SMP potrf)");
    out.note("paper: potrf-hyb-ver close to potrf-gpu; learning phase visible (only 16 potrf instances)");
    out
}

/// Fig. 10 — Cholesky bytes transferred per category.
pub fn fig10(points: &[CholeskyPoint]) -> FigureResult {
    let mut out = FigureResult::new(
        "fig10",
        "Data transferred for Cholesky (MB)",
        &["config", "series", "input", "output", "device"],
    );
    for p in points {
        for (series, rep) in [
            ("SA", &p.smp_aff),
            ("GD", &p.gpu_dep),
            ("GA", &p.gpu_aff),
            ("HV", &p.hyb_ver),
        ] {
            out.push_row(vec![
                Cell::text(format!("{} {}", p.point.label(), series)),
                Cell::text(series),
                Cell::num(mb(rep.transfers.input_bytes)),
                Cell::num(mb(rep.transfers.output_bytes)),
                Cell::num(mb(rep.transfers.device_bytes)),
            ]);
        }
    }
    out.note("paper: potrf-smp forces extra host round-trips; 2-GPU runs add device-device traffic");
    out
}

/// Fig. 11 — Cholesky potrf version shares under the versioning
/// scheduler.
pub fn fig11(points: &[CholeskyPoint]) -> FigureResult {
    let mut out = FigureResult::new(
        "fig11",
        "Cholesky task statistics for versioning scheduler (% of potrf executions)",
        &["config", "potrf-gpu", "potrf-smp"],
    );
    for p in points {
        let shares = p.hyb_ver.version_shares(p.potrf, 2);
        out.push_row(vec![
            Cell::text(p.point.label()),
            Cell::num(100.0 * shares[0]),
            Cell::num(100.0 * shares[1]),
        ]);
    }
    out.note("paper: not enough look-ahead to hide a slow SMP potrf — the GPUs are the earliest executors, so nearly all potrf work goes to the GPU (SMP gets only the λ forced learning runs)");
    out
}

// ---------------------------------------------------------------------
// PBPI (Figs. 12, 13, 14, 15)
// ---------------------------------------------------------------------

/// All PBPI runs for one sweep point.
pub struct PbpiPoint {
    /// The resource configuration.
    pub point: SweepPoint,
    /// pbpi-smp (dependency-aware; SMP-only tasks).
    pub smp: RunReport,
    /// pbpi-gpu under the dependency-aware scheduler.
    pub gpu_dep: RunReport,
    /// pbpi-gpu under the affinity scheduler.
    pub gpu_aff: RunReport,
    /// pbpi-hyb under the versioning scheduler.
    pub hyb_ver: RunReport,
    /// The hybrid run's loop-1 template.
    pub loop1: TemplateId,
    /// The hybrid run's loop-2 template.
    pub loop2: TemplateId,
}

/// Execute the full PBPI sweep (the backing runs of Figs. 12–15).
pub fn pbpi_matrix(scale: Scale) -> (PbpiConfig, Vec<PbpiPoint>) {
    let cfg = pbpi_cfg(scale);
    let points = sweep()
        .into_iter()
        .map(|p| {
            let platform = || PlatformConfig::minotauro(p.smp, p.gpus);
            let smp =
                pbpi::run_sim(cfg, PbpiVariant::Smp, SchedulerKind::DepAware, platform());
            let gpu_dep =
                pbpi::run_sim(cfg, PbpiVariant::Gpu, SchedulerKind::DepAware, platform());
            let gpu_aff =
                pbpi::run_sim(cfg, PbpiVariant::Gpu, SchedulerKind::Affinity, platform());
            let mut rt = Runtime::simulated(
                RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
                platform(),
            );
            let app = pbpi::build(&mut rt, cfg, PbpiVariant::Hybrid);
            let hyb_ver = rt.run().expect("run failed");
            PbpiPoint {
                point: p,
                smp,
                gpu_dep,
                gpu_aff,
                hyb_ver,
                loop1: app.loop1,
                loop2: app.loop2,
            }
        })
        .collect();
    (cfg, points)
}

/// Fig. 12 — PBPI execution time (seconds; lower is better).
pub fn fig12(points: &[PbpiPoint]) -> FigureResult {
    let mut out = FigureResult::new(
        "fig12",
        "PBPI execution time (seconds, lower is better)",
        &["config", "pbpi-smp", "pbpi-gpu-dep", "pbpi-gpu-aff", "pbpi-hyb-ver"],
    );
    for p in points {
        out.push_row(vec![
            Cell::text(p.point.label()),
            Cell::num_p(p.smp.makespan.as_secs_f64(), 2),
            Cell::num_p(p.gpu_dep.makespan.as_secs_f64(), 2),
            Cell::num_p(p.gpu_aff.makespan.as_secs_f64(), 2),
            Cell::num_p(p.hyb_ver.makespan.as_secs_f64(), 2),
        ]);
    }
    out.note("paper: pbpi-smp beats pbpi-gpu (loop 3 forces data home each generation); pbpi-hyb-ver beats both");
    out
}

/// Fig. 13 — PBPI bytes transferred per category.
pub fn fig13(points: &[PbpiPoint]) -> FigureResult {
    let mut out = FigureResult::new(
        "fig13",
        "Data transferred for PBPI (MB)",
        &["config", "series", "input", "output", "device"],
    );
    for p in points {
        for (series, rep) in [
            ("SMP", &p.smp),
            ("GD", &p.gpu_dep),
            ("GA", &p.gpu_aff),
            ("HV", &p.hyb_ver),
        ] {
            out.push_row(vec![
                Cell::text(format!("{} {}", p.point.label(), series)),
                Cell::text(series),
                Cell::num(mb(rep.transfers.input_bytes)),
                Cell::num(mb(rep.transfers.output_bytes)),
                Cell::num(mb(rep.transfers.device_bytes)),
            ]);
        }
    }
    out.note("paper: pbpi-smp transfers nothing; hybrid transfers more than gpu-only but overlaps better");
    out
}

fn pbpi_share_figure(
    id: &'static str,
    title: &str,
    points: &[PbpiPoint],
    which: fn(&PbpiPoint) -> TemplateId,
) -> FigureResult {
    let mut out = FigureResult::new(id, title, &["config", "cuda", "smp"]);
    for p in points {
        let shares = p.hyb_ver.version_shares(which(p), 2);
        out.push_row(vec![
            Cell::text(p.point.label()),
            Cell::num(100.0 * shares[0]),
            Cell::num(100.0 * shares[1]),
        ]);
    }
    out
}

/// Fig. 14 — PBPI loop-1 version shares under the versioning scheduler.
pub fn fig14(points: &[PbpiPoint]) -> FigureResult {
    let mut out = pbpi_share_figure(
        "fig14",
        "PBPI task statistics for versioning scheduler, first loop (%)",
        points,
        |p| p.loop1,
    );
    out.note("paper: loop 1 goes to the GPU most of the time");
    out
}

/// Fig. 15 — PBPI loop-2 version shares under the versioning scheduler.
pub fn fig15(points: &[PbpiPoint]) -> FigureResult {
    let mut out = pbpi_share_figure(
        "fig15",
        "PBPI task statistics for versioning scheduler, second loop (%)",
        points,
        |p| p.loop2,
    );
    out.note("paper: loop 2 is shared between GPU and SMP (thousands of SMP executions)");
    out
}

// ---------------------------------------------------------------------
// Table I and Fig. 5
// ---------------------------------------------------------------------

/// Table I — a learned `TaskVersionSet` store, printed in the paper's
/// layout. Produced by running a hybrid matmul at **two different tile
/// sizes** in one runtime, so the store shows two size groups.
pub fn table1(scale: Scale) -> String {
    let cfg = matmul_cfg(scale);
    let small = MatmulConfig { n: cfg.n / 2, bs: cfg.bs / 2 };
    let mut rt = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        PlatformConfig::minotauro(4, 2),
    );
    let template = matmul::register(&mut rt, MatmulVariant::Hybrid);
    for c in [cfg, small] {
        let nb = c.nb();
        let bytes = c.tile_bytes();
        let a: Vec<_> = (0..nb * nb).map(|_| rt.alloc_bytes(bytes)).collect();
        let b: Vec<_> = (0..nb * nb).map(|_| rt.alloc_bytes(bytes)).collect();
        let cm: Vec<_> = (0..nb * nb).map(|_| rt.alloc_bytes(bytes)).collect();
        matmul::submit_tasks(&mut rt, template, nb, &a, &b, &cm);
    }
    rt.run().expect("run failed");
    rt.versioning().expect("versioning scheduler").profiles().render_table(rt.templates())
}

/// Fig. 5 — an earliest-executor decision narrative: the GPU is the
/// fastest executor but is busy, so an idle SMP worker wins the task.
pub fn fig5() -> String {
    use std::fmt::Write as _;
    use versa_core::{
        DeviceKind, SchedCtx, Scheduler, TaskId, TaskInstance, TemplateRegistry,
        VersioningScheduler, WorkerId, WorkerInfo, WorkerState,
    };
    use versa_mem::{AccessMode, DataId, Directory, MemSpace, Region};

    let mut registry = TemplateRegistry::new();
    let template = registry
        .template("task")
        .main("task_gpu", &[DeviceKind::Cuda])
        .version("task_smp", &[DeviceKind::Smp])
        .register();
    let mut workers = vec![
        WorkerState::new(WorkerInfo {
            id: WorkerId(0),
            device: DeviceKind::Smp,
            space: MemSpace::HOST,
        }),
        WorkerState::new(WorkerInfo {
            id: WorkerId(1),
            device: DeviceKind::Smp,
            space: MemSpace::HOST,
        }),
        WorkerState::new(WorkerInfo {
            id: WorkerId(2),
            device: DeviceKind::Cuda,
            space: MemSpace::device(0),
        }),
    ];
    let directory = Directory::new();
    directory.register(DataId(0), 1 << 20, MemSpace::HOST);

    let mut sched = VersioningScheduler::with_defaults();
    sched.set_decision_logging(true);
    // Learned profile: GPU version 10 ms, SMP version 35 ms.
    sched.profiles_mut().seed(template, 1 << 20, VersionId(0), std::time::Duration::from_millis(10), 20);
    sched.profiles_mut().seed(template, 1 << 20, VersionId(1), std::time::Duration::from_millis(35), 20);
    // GPU worker 2 is busy: six queued tasks ≈ 60 ms of work. SMP worker
    // 1 is idle; SMP worker 0 has one queued task.
    for q in 0..6 {
        workers[2].enqueue(TaskId(100 + q), VersionId(0), std::time::Duration::from_millis(10));
    }
    workers[0].enqueue(TaskId(200), VersionId(1), std::time::Duration::from_millis(35));

    let task = TaskInstance {
        id: TaskId(1),
        template,
        accesses: vec![(Region::whole(DataId(0), 1 << 20), AccessMode::InOut)],
        data_set_size: 1 << 20,
        job: None,
    };
    let ctx = SchedCtx { templates: &registry, workers: &workers, directory: &directory, chain_hint: None };
    let assignment = sched.assign(&task, &ctx);

    let mut out = String::new();
    let _ = writeln!(out, "== fig5 — earliest-executor decision (paper Fig. 5) ==");
    let _ = writeln!(
        out,
        "profile: task_gpu mean 10ms on cuda, task_smp mean 35ms on smp"
    );
    let decision = sched.decisions().last().expect("decision logged");
    for bid in &decision.bids {
        let _ = writeln!(
            out,
            "worker w{} ({}): busy {:>5.1}ms + mean {:>5.1}ms -> finish {:>5.1}ms",
            bid.worker.0,
            if bid.worker.0 == 2 { "gpu" } else { "smp" },
            bid.busy.as_secs_f64() * 1e3,
            bid.mean.as_secs_f64() * 1e3,
            bid.finish.as_secs_f64() * 1e3,
        );
    }
    let _ = writeln!(
        out,
        "decision: task {} -> worker w{} running version v{} (the GPU is the fastest executor, \
         but the idle SMP worker is the earliest executor)",
        decision.task.0, assignment.worker.0, assignment.version.0
    );
    assert_eq!(assignment.worker, WorkerId(1), "the idle SMP worker must win");
    out
}
