//! Ablation studies for the design choices called out in DESIGN.md and
//! the paper's §VII future-work list.

use crate::{Cell, FigureResult, Scale};
use std::time::Duration;
use versa_apps::cholesky::{self, CholeskyConfig, CholeskyVariant};
use versa_apps::matmul::{self, MatmulConfig, MatmulVariant};
use versa_core::scheduler::AffinityScheduler;
use versa_core::{
    MeanPolicy, SchedulerKind, SizeBucketPolicy, VersionId, VersioningConfig, WorkerId,
};
use versa_runtime::{Runtime, RuntimeConfig};
use versa_sim::{FaultPlan, FaultRule, PlatformConfig};

fn cholesky_cfg(scale: Scale) -> CholeskyConfig {
    match scale {
        Scale::Paper => CholeskyConfig::paper(),
        Scale::Quick => CholeskyConfig { n: 8192, bs: 1024 },
    }
}

fn matmul_cfg(scale: Scale) -> MatmulConfig {
    match scale {
        Scale::Paper => MatmulConfig::paper(),
        Scale::Quick => MatmulConfig::quick(),
    }
}

/// λ sweep on the hybrid Cholesky — the learning threshold's cost is
/// most visible where task instances are scarce (only 16 potrf calls).
pub fn ablate_lambda(scale: Scale) -> FigureResult {
    let cfg = cholesky_cfg(scale);
    let mut out = FigureResult::new(
        "ablate-lambda",
        "Learning threshold λ vs Cholesky potrf-hyb performance",
        &["lambda", "GFLOP/s", "smp potrf runs"],
    );
    for lambda in [1u64, 3, 5, 10] {
        let kind = SchedulerKind::Versioning(VersioningConfig { lambda, ..Default::default() });
        let mut rt = Runtime::simulated(
            RuntimeConfig::with_scheduler(kind),
            PlatformConfig::minotauro(4, 2),
        );
        let app = cholesky::build(&mut rt, cfg, CholeskyVariant::PotrfHybrid);
        let report = rt.run().expect("run failed");
        let hist = report.version_histogram(app.potrf, 2);
        out.push_row(vec![
            Cell::text(lambda.to_string()),
            Cell::num(report.gflops(cfg.flops())),
            Cell::num_p(hist[1] as f64, 0),
        ]);
    }
    out.note("each extra λ forces more runs of the slow SMP potrf (1.4 s each) onto the critical path");
    out
}

/// Exact vs relative-range size grouping (paper §VII) on a matmul whose
/// tile sizes differ slightly: exact grouping re-learns per size, range
/// grouping shares one group.
pub fn ablate_bucketing(scale: Scale) -> FigureResult {
    let cfg = matmul_cfg(scale);
    // A second tile size ~13% larger in bytes: same group under a 25%
    // relative tolerance, a new group under exact matching.
    let alt = MatmulConfig { n: cfg.n + cfg.n / 16, bs: cfg.bs + cfg.bs / 16 };
    let mut out = FigureResult::new(
        "ablate-bucketing",
        "Size-group policy on a mixed-tile-size matmul workload",
        &["policy", "makespan_s", "size groups", "hand-cuda runs (learning only)"],
    );
    for (label, policy) in [
        ("exact", SizeBucketPolicy::Exact),
        ("range-25%", SizeBucketPolicy::RelativeRange { tolerance: 0.25 }),
    ] {
        let kind = SchedulerKind::Versioning(VersioningConfig {
            bucket_policy: policy,
            ..Default::default()
        });
        let mut rt = Runtime::simulated(
            RuntimeConfig::with_scheduler(kind),
            PlatformConfig::minotauro(4, 2),
        );
        let template = matmul::register(&mut rt, MatmulVariant::Hybrid);
        for c in [cfg, alt] {
            let nb = c.nb();
            let bytes = c.tile_bytes();
            let a: Vec<_> = (0..nb * nb).map(|_| rt.alloc_bytes(bytes)).collect();
            let b: Vec<_> = (0..nb * nb).map(|_| rt.alloc_bytes(bytes)).collect();
            let cm: Vec<_> = (0..nb * nb).map(|_| rt.alloc_bytes(bytes)).collect();
            matmul::submit_tasks(&mut rt, template, nb, &a, &b, &cm);
        }
        let report = rt.run().expect("run failed");
        let groups = rt.versioning().expect("versioning policy").profiles().group_count();
        out.push_row(vec![
            Cell::text(label),
            Cell::num_p(report.makespan.as_secs_f64(), 3),
            Cell::num_p(groups as f64, 0),
            Cell::num_p(report.version_counts.get(&(template, VersionId(1))).copied().unwrap_or(0) as f64, 0),
        ]);
    }
    out.note("the hand-CUDA version only runs while learning: exact grouping learns once per size group");
    out.note("paper §VII: range grouping avoids re-entering the learning phase for near-identical sizes");
    out
}

/// Arithmetic mean vs EWMA (paper footnote 3) under a behaviour shift:
/// how fast does the learned mean track a 20× slowdown?
///
/// Deterministic decision-quality study on the
/// [`ProfileStore`](versa_core::ProfileStore) itself:
/// 100 samples at 7 ms, then a shift to 140 ms; after each post-shift
/// sample the store's mean is compared against the new truth, and
/// against the 28 ms SMP alternative (how many samples until the
/// scheduler would stop preferring the degraded GPU version).
pub fn ablate_mean_policy(_scale: Scale) -> FigureResult {
    use versa_core::{ProfileStore, TemplateId};
    let mut out = FigureResult::new(
        "ablate-mean",
        "Mean policy tracking a 20x slowdown (7ms -> 140ms, SMP alternative 28ms)",
        &["policy", "mean after 10 samples (ms)", "mean after 50 (ms)", "samples to cross 28ms"],
    );
    let tpl = TemplateId(0);
    let v = VersionId(0);
    for (label, policy) in [
        ("arithmetic", MeanPolicy::Arithmetic),
        ("ewma(0.3)", MeanPolicy::Ewma { alpha: 0.3 }),
    ] {
        let mut store = ProfileStore::new(SizeBucketPolicy::Exact, policy, 3);
        for _ in 0..100 {
            store.record(tpl, 1, 1024, v, Duration::from_millis(7));
        }
        let mut mean_at_10 = 0.0;
        let mut mean_at_50 = 0.0;
        let mut crossed_at: Option<usize> = None;
        for i in 1..=200usize {
            store.record(tpl, 1, 1024, v, Duration::from_millis(140));
            let mean = store.mean(tpl, 1024, v).unwrap().as_secs_f64() * 1e3;
            if i == 10 {
                mean_at_10 = mean;
            }
            if i == 50 {
                mean_at_50 = mean;
            }
            if crossed_at.is_none() && mean > 28.0 {
                crossed_at = Some(i);
            }
        }
        out.push_row(vec![
            Cell::text(label),
            Cell::num(mean_at_10),
            Cell::num(mean_at_50),
            Cell::num_p(crossed_at.map(|c| c as f64).unwrap_or(f64::NAN), 0),
        ]);
    }
    out.note("the EWMA discounts stale fast-GPU samples: the scheduler re-routes to the SMP version far sooner");
    out
}

/// Transfer/compute overlap + prefetch on vs off (paper §V-A2 enables
/// them for every scheduler).
pub fn ablate_prefetch(scale: Scale) -> FigureResult {
    let cfg = matmul_cfg(scale);
    let mut out = FigureResult::new(
        "ablate-prefetch",
        "Transfer/compute overlap + prefetch (mm-hyb-ver)",
        &["prefetch", "GFLOP/s"],
    );
    for prefetch in [true, false] {
        let mut rc = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
        rc.prefetch = prefetch;
        let mut rt = Runtime::simulated(rc, PlatformConfig::minotauro(4, 2));
        let _app = matmul::build(&mut rt, cfg, MatmulVariant::Hybrid);
        let report = rt.run().expect("run failed");
        out.push_row(vec![
            Cell::text(if prefetch { "on" } else { "off" }),
            Cell::num(report.gflops(cfg.flops())),
        ]);
    }
    out.note("without prefetch every task stalls on its own copy-ins (paper §V-A2 keeps it on)");
    out
}

/// Plain versioning vs the §VII locality-aware extension: device-device
/// traffic and performance on the 2-GPU matmul.
pub fn ablate_locality(scale: Scale) -> FigureResult {
    let cfg = matmul_cfg(scale);
    let mut out = FigureResult::new(
        "ablate-locality",
        "Locality-aware versioning (paper §VII) on mm-hyb, 2 GPUs",
        &["scheduler", "GFLOP/s", "input MB", "device MB"],
    );
    for kind in [SchedulerKind::versioning(), SchedulerKind::locality_versioning()] {
        let label = kind.label();
        let mut rt =
            Runtime::simulated(RuntimeConfig::with_scheduler(kind), PlatformConfig::minotauro(8, 2));
        let _app = matmul::build(&mut rt, cfg, MatmulVariant::Hybrid);
        let report = rt.run().expect("run failed");
        out.push_row(vec![
            Cell::text(label),
            Cell::num(report.gflops(cfg.flops())),
            Cell::num(report.transfers.input_bytes as f64 / 1e6),
            Cell::num(report.transfers.device_bytes as f64 / 1e6),
        ]);
    }
    out.note("the transfer-time term steers tasks toward the device already holding their tiles");
    out
}

/// Mixed-generation GPUs: one nominal + one 3× slower. The paper's
/// profiles are per *version*, not per worker, so the learned CUBLAS
/// mean conflates the two devices; only the busy-time feedback (slow
/// queues drain slower) rebalances the load. A limitations study.
pub fn ablate_mixed_gpus(scale: Scale) -> FigureResult {
    let cfg = matmul_cfg(scale);
    let mut out = FigureResult::new(
        "ablate-mixed-gpus",
        "Versioning on mixed-speed GPUs (mm-hyb, 4 SMP workers, 2 GPUs)",
        &["node", "GFLOP/s", "fast-GPU tasks", "slow-GPU tasks"],
    );
    for (label, factors) in [
        ("uniform (1x, 1x)", vec![1.0, 1.0]),
        ("mixed (1x, 3x slower)", vec![1.0, 3.0]),
        ("uniform (3x, 3x)", vec![3.0, 3.0]),
    ] {
        let mut platform = PlatformConfig::minotauro(4, 2);
        platform.gpu_speed_factors = factors;
        let mut rt = Runtime::simulated(
            RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
            platform,
        );
        let _app = matmul::build(&mut rt, cfg, MatmulVariant::Hybrid);
        let report = rt.run().expect("run failed");
        let gpu_tasks = &report.worker_task_counts[4..6];
        out.push_row(vec![
            Cell::text(label),
            Cell::num(report.gflops(cfg.flops())),
            Cell::num_p(gpu_tasks[0] as f64, 0),
            Cell::num_p(gpu_tasks[1] as f64, 0),
        ]);
    }
    out.note("per-version means cannot tell the two devices apart; busy-time feedback still shifts most work to the fast GPU");
    out
}

/// Dual copy engines (duplex links) vs a single DMA engine per GPU, on
/// the transfer-bound pbpi-gpu — uploads and downloads cross every
/// generation, so engine concurrency matters.
pub fn ablate_duplex(scale: Scale) -> FigureResult {
    use versa_apps::pbpi::{self, PbpiConfig, PbpiVariant};
    let cfg = match scale {
        Scale::Paper => PbpiConfig::paper(),
        Scale::Quick => PbpiConfig { chunks: 16, sites_per_chunk: 16384, generations: 20 },
    };
    let mut out = FigureResult::new(
        "ablate-duplex",
        "Dual vs single DMA engines per GPU on pbpi-gpu (2 GPUs, 4 SMP workers)",
        &["copy engines", "time (s)"],
    );
    for (label, duplex) in [("dual (M2090)", true), ("single", false)] {
        let mut platform = PlatformConfig::minotauro(4, 2);
        platform.link.duplex = duplex;
        let report = pbpi::run_sim(cfg, PbpiVariant::Gpu, SchedulerKind::Affinity, platform);
        out.push_row(vec![Cell::text(label), Cell::num_p(report.makespan.as_secs_f64(), 2)]);
    }
    out.note("a single engine serializes the generation's uploads against the previous downloads");
    out
}

/// All four policies on the GPU-only Cholesky: the breadth-first
/// (Nanos++ default) floor shows what dependence/locality awareness buys.
pub fn ablate_baselines(scale: Scale) -> FigureResult {
    let cfg = cholesky_cfg(scale);
    let mut out = FigureResult::new(
        "ablate-baselines",
        "Scheduler policy floor on potrf-gpu Cholesky (2 GPUs, 4 SMP workers)",
        &["scheduler", "GFLOP/s", "input MB", "device MB"],
    );
    for kind in [
        SchedulerKind::BreadthFirst,
        SchedulerKind::DepAware,
        SchedulerKind::Affinity,
    ] {
        let label = kind.label();
        let mut rt =
            Runtime::simulated(RuntimeConfig::with_scheduler(kind), PlatformConfig::minotauro(4, 2));
        let _app = cholesky::build(&mut rt, cfg, CholeskyVariant::PotrfGpu);
        let report = rt.run().expect("run failed");
        out.push_row(vec![
            Cell::text(label),
            Cell::num(report.gflops(cfg.flops())),
            Cell::num(report.transfers.input_bytes as f64 / 1e6),
            Cell::num(report.transfers.device_bytes as f64 / 1e6),
        ]);
    }
    out.note("breadth-first ignores placement entirely — the locality-aware policies cut device traffic");
    out
}

/// Finite GPU memory (LRU-managed, write-back on sole-copy eviction) vs
/// the default unbounded model, on the 2-GPU matmul.
pub fn ablate_gpu_capacity(scale: Scale) -> FigureResult {
    let cfg = matmul_cfg(scale);
    let matrix_bytes = cfg.tile_bytes() * (cfg.nb() * cfg.nb()) as u64;
    let mut out = FigureResult::new(
        "ablate-capacity",
        "GPU memory capacity on mm-gpu, 2 GPUs (LRU eviction + write-back)",
        &["capacity", "GFLOP/s", "input MB", "output MB"],
    );
    for (label, capacity) in [
        ("unlimited", None),
        // Comfortable: each GPU's share of the working set fits.
        ("1x matrix", Some(matrix_bytes)),
        // Tight: a tenth of one matrix per GPU — steady eviction churn.
        ("0.1x matrix", Some(matrix_bytes / 10)),
    ] {
        let mut platform = PlatformConfig::minotauro(4, 2);
        platform.gpu_mem_capacity = capacity;
        let mut rt =
            Runtime::simulated(RuntimeConfig::with_scheduler(SchedulerKind::Affinity), platform);
        let _app = matmul::build(&mut rt, cfg, MatmulVariant::Gpu);
        let report = rt.run().expect("run failed");
        out.push_row(vec![
            Cell::text(label),
            Cell::num(report.gflops(cfg.flops())),
            Cell::num(report.transfers.input_bytes as f64 / 1e6),
            Cell::num(report.transfers.output_bytes as f64 / 1e6),
        ]);
    }
    out.note("under memory pressure the runtime re-uploads evicted tiles and writes back sole copies");
    out
}

/// Fault injection on the hybrid matmul: the versioning scheduler
/// quarantines failing versions and finishes the run on whatever still
/// works, trading GFLOP/s for completion instead of crashing.
pub fn ablate_fault_injection(scale: Scale) -> FigureResult {
    let cfg = matmul_cfg(scale);
    let mut out = FigureResult::new(
        "ablate-faults",
        "Fault injection on hybrid matmul (4 SMP workers, 2 GPUs)",
        &["scenario", "GFLOP/s", "failures", "retries", "quarantined"],
    );
    // minotauro(4, 2): workers 0–3 are SMP cores, 4–5 the GPU engines.
    let scenarios: [(&str, FaultPlan); 3] = [
        ("no faults", FaultPlan::none()),
        // The tuned cuBLAS version is broken; the hand-CUDA version
        // keeps the GPUs productive.
        ("broken cublas", FaultPlan::single(FaultRule::broken_version(VersionId(0)))),
        // Both GPU engines are down: every GPU version gets
        // quarantined and the SMP cores carry the whole run.
        (
            "GPUs offline",
            FaultPlan {
                rules: vec![
                    FaultRule::flaky_worker(WorkerId(4), 1.0),
                    FaultRule::flaky_worker(WorkerId(5), 1.0),
                ],
                ..FaultPlan::default()
            },
        ),
    ];
    for (label, plan) in scenarios {
        let mut platform = PlatformConfig::minotauro(4, 2);
        platform.faults = plan;
        // Worst case before both GPU versions are quarantined: a task
        // alternates them and eats 2 failures per version — give it
        // headroom beyond the default budget of 3.
        let config = RuntimeConfig { max_task_retries: 8, ..RuntimeConfig::default() };
        let mut rt = Runtime::simulated(config, platform);
        let _app = matmul::build(&mut rt, cfg, MatmulVariant::Hybrid);
        let report = rt.run().expect("a working version always remains");
        out.push_row(vec![
            Cell::text(label),
            Cell::num(report.gflops(cfg.flops())),
            Cell::num_p(report.failures.failure_count() as f64, 0),
            Cell::num_p(report.failures.retries as f64, 0),
            Cell::num_p(report.failures.quarantined.len() as f64, 0),
        ]);
    }
    out.note("failures quarantine the guilty version after 2 strikes; the run always completes, degraded");
    out
}

/// Affinity steal-threshold sweep: pure minimum-transfer affinity
/// collapses under the Cholesky load imbalance the paper describes.
pub fn ablate_affinity_steal(scale: Scale) -> FigureResult {
    let cfg = cholesky_cfg(scale);
    let mut out = FigureResult::new(
        "ablate-steal",
        "Affinity scheduler steal threshold on potrf-gpu Cholesky (2 GPUs)",
        &["steal threshold", "GFLOP/s", "device MB"],
    );
    for (label, threshold) in [("0", 0usize), ("4", 4), ("off", usize::MAX)] {
        let mut rt = Runtime::simulated(
            RuntimeConfig::with_scheduler(SchedulerKind::Affinity),
            PlatformConfig::minotauro(4, 2),
        );
        // Replace the scheduler with a custom-threshold affinity.
        *rt.scheduler_mut() = Box::new(AffinityScheduler::with_steal_threshold(threshold));
        let _app = cholesky::build(&mut rt, cfg, CholeskyVariant::PotrfGpu);
        let report = rt.run().expect("run failed");
        out.push_row(vec![
            Cell::text(label),
            Cell::num(report.gflops(cfg.flops())),
            Cell::num(report.transfers.device_bytes as f64 / 1e6),
        ]);
    }
    out.note("paper §V-B2: \"one GPU steals tasks from the other one and this increases the number of memory transfers\"");
    out
}
