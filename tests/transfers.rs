//! Staged-transfer semantics: what the native engine moves, and what it
//! computes, is pinned to absolute goldens — `TransferStats`, version
//! counts, and bitwise `C` against a serial recompute — that hold at
//! every `lookahead_depth` and across bounded waves, while staging
//! failures route through the same recovery machinery as kernel panics.

use std::collections::HashMap;
use versa::apps::matmul::{self, MatmulConfig, MatmulVariant, NativeMatmulData};
use versa::kernels::exec::SerialExec;
use versa::kernels::gemm::dgemm_parallel_on;
use versa::kernels::verify::random_matrix_f64;
use versa::prelude::*;
use versa::runtime::NativeConfig;

fn small() -> MatmulConfig {
    // nb = 4: 64 gemm tasks over 16+16+16 tiles of 48×48 f64.
    MatmulConfig { n: 192, bs: 48 }
}

fn one_gpu() -> NativeConfig {
    NativeConfig { smp_workers: 0, gpus: 1, gpu_lanes: 2, link_bandwidth: None }
}

fn runtime_config(lookahead_depth: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::with_scheduler(SchedulerKind::DepAware);
    cfg.lookahead_depth = lookahead_depth;
    cfg
}

fn run_small(lookahead_depth: usize) -> (RunReport, NativeMatmulData) {
    matmul::run_native_with(
        runtime_config(lookahead_depth),
        small(),
        MatmulVariant::Gpu,
        one_gpu(),
        7,
    )
}

/// Golden regression: with one GPU, every tile is copied up exactly once
/// (48 inputs) and only the written `C` tiles flush back (16 outputs).
/// Transfers are counted at plan time, in plan order, so the numbers hold
/// with and without lookahead.
fn assert_golden(report: &RunReport) {
    let tile = 48 * 48 * 8u64;
    assert_eq!(report.transfers.input_count, 48, "16 A + 16 B + 16 C copy-ins");
    assert_eq!(report.transfers.input_bytes, 48 * tile);
    assert_eq!(report.transfers.output_count, 16, "only written C tiles flush");
    assert_eq!(report.transfers.output_bytes, 16 * tile);
    assert_eq!(report.transfers.device_count, 0);
    assert_eq!(report.transfers.device_bytes, 0);
    assert_eq!(report.tasks_executed, 64);
    assert_eq!(
        report.version_counts,
        HashMap::from([((TemplateId(0), VersionId(0)), 64)]),
        "the single GPU version ran every task"
    );
}

#[test]
fn transfer_stats_match_golden() {
    for depth in [0, 2] {
        let (report, data) = run_small(depth);
        assert_golden(&report);
        assert!(data.max_error() < 1e-9);
    }
}

/// `C` recomputed serially through the kernel entry the GPU version
/// binds, accumulating each tile in ascending `k` — the order the task
/// graph's `inout(C)` chain enforces.
fn serial_c(data: &NativeMatmulData) -> Vec<Vec<f64>> {
    let (nb, bs) = (data.nb, data.bs);
    let mut c = vec![vec![0.0; bs * bs]; nb * nb];
    for i in 0..nb {
        for j in 0..nb {
            for k in 0..nb {
                let (a, b) = (&data.a[i * nb + k], &data.b[k * nb + j]);
                dgemm_parallel_on(&SerialExec, a, b, &mut c[i * nb + j], bs);
            }
        }
    }
    c
}

/// Depth 0 vs depth 2 on a fixed seed: bitwise-identical numerics, and
/// both match the serial recompute bit for bit (the accounting is pinned
/// to the same constants at both depths by `transfer_stats_match_golden`).
/// With a single worker the assignment trace is fully deterministic, so
/// this is the strictest possible byte-identity check.
#[test]
fn lookahead_depths_agree_bitwise_with_the_serial_recompute() {
    let (_, flat) = run_small(0);
    let (_, deep) = run_small(2);
    assert_eq!(deep.c, flat.c, "bitwise-identical results across depths");
    assert_eq!(flat.c, serial_c(&flat), "bitwise-identical to the serial recompute");
}

/// Independent tasks on two GPUs are all planned in the first dispatch
/// round, in submission order, at every depth — so even a multi-worker
/// run keeps deterministic, depth-independent transfer accounting.
#[test]
fn independent_tasks_have_deterministic_stats_across_depths_and_workers() {
    let run = |lookahead_depth: usize| -> (TransferStats, Vec<Vec<f64>>) {
        let mut rt = Runtime::native(
            runtime_config(lookahead_depth),
            NativeConfig { smp_workers: 0, gpus: 2, gpu_lanes: 1, link_bandwidth: None },
        );
        let tpl = rt.template("scale").main("scale_gpu", &[DeviceKind::Cuda]).register();
        rt.bind_native(tpl, VersionId(0), |ctx| {
            for v in ctx.f64_mut(1) {
                *v += 1.0;
            }
        });
        let tiles: Vec<(DataId, DataId)> = (0..8)
            .map(|i| {
                let a = rt.alloc_from_f64(&[i as f64; 16]);
                let c = rt.alloc_from_f64(&[0.0; 16]);
                (a, c)
            })
            .collect();
        for &(a, c) in &tiles {
            rt.task(tpl).read(a).read_write(c).submit();
        }
        let report = rt.run().expect("run failed");
        let out = tiles.iter().map(|&(_, c)| rt.read_f64(c)).collect();
        (report.transfers, out)
    };
    let (flat_stats, flat_out) = run(0);
    let (deep_stats, deep_out) = run(2);
    assert_eq!(deep_stats, flat_stats);
    assert_eq!(deep_out, flat_out);
    assert_eq!(flat_stats.input_count, 16, "8 A + 8 C copy-ins");
    assert_eq!(flat_stats.output_count, 8, "written C tiles flush home");
}

/// Partial-wave carry-over: the small matmul driven as
/// `run_bounded(Some(7))` waves until done moves, in sum, exactly what a
/// single `run()` moves — device copies planned in one wave stay valid
/// for the next, and only the final wave flushes — and computes the same
/// `C` bit for bit.
#[test]
fn bounded_waves_sum_to_a_single_run() {
    // Solve the small matmul in waves of `wave` dispatches (`None` is a
    // plain `run()`); returns each wave's report and the final `C`.
    let solve = |wave: Option<u64>| -> (Vec<RunReport>, Vec<Vec<f64>>) {
        let MatmulConfig { bs, .. } = small();
        let nb = small().nb();
        let mut rt = Runtime::native(runtime_config(2), one_gpu());
        let tpl = matmul::register_native(&mut rt, MatmulVariant::Gpu, bs);
        let mut tiles = |seed: u64| -> Vec<DataId> {
            (0..nb * nb)
                .map(|t| rt.alloc_from_f64(&random_matrix_f64(bs, seed + t as u64)))
                .collect()
        };
        let (a, b) = (tiles(1000), tiles(2000));
        let c: Vec<DataId> =
            (0..nb * nb).map(|_| rt.alloc_from_f64(&vec![0.0; bs * bs])).collect();
        matmul::submit_tasks(&mut rt, tpl, nb, &a, &b, &c);
        let mut reports = Vec::new();
        loop {
            reports.push(rt.run_bounded(wave).expect("wave failed"));
            if reports.last().unwrap().completed {
                break;
            }
        }
        (reports, c.iter().map(|&t| rt.read_f64(t)).collect())
    };

    let (whole, whole_c) = solve(None);
    assert_eq!(whole.len(), 1);
    assert_golden(&whole[0]);

    let (waves, wave_c) = solve(Some(7));
    assert_eq!(waves.len(), 10, "64 tasks in waves of 7");
    let mut total = TransferStats::default();
    for report in &waves {
        assert!(report.tasks_executed <= 7, "a wave dispatches at most its budget");
        total.merge(&report.transfers);
    }
    assert_eq!(total, whole[0].transfers);
    assert_eq!(wave_c, whole_c, "bitwise-identical results across wave boundaries");
}

/// Per-worker staging accounting: bytes and counts attributed to the
/// worker whose lane moved them, stage/compute times populated, overlap
/// never exceeding staging time.
#[test]
fn worker_transfer_breakdown_is_populated() {
    let (report, _) = matmul::run_native_with(
        runtime_config(2),
        small(),
        MatmulVariant::Gpu,
        // Throttle the emulated link so staging time is measurable.
        NativeConfig { smp_workers: 0, gpus: 1, gpu_lanes: 2, link_bandwidth: Some(200_000_000) },
        7,
    );
    assert_eq!(report.worker_transfers.len(), 1);
    let wt = &report.worker_transfers[0];
    let tile = 48 * 48 * 8u64;
    assert_eq!(wt.staged_count, 48);
    assert_eq!(wt.staged_bytes, 48 * tile);
    assert!(wt.stage_time > std::time::Duration::ZERO);
    assert!(wt.compute_time > std::time::Duration::ZERO);
    assert!(wt.overlap_time <= wt.stage_time);
    let ratio = wt.overlap_ratio();
    assert!((0.0..=1.0).contains(&ratio), "overlap ratio {ratio} out of range");
}

/// An injected staging-lane fault is a first-class recoverable failure:
/// logged as a `TaskFailure`, reported to the scheduler, retried after
/// rollback — and the numerics still come out right.
#[test]
fn staging_fault_is_recovered_by_retry() {
    let mut rt = Runtime::native(runtime_config(2), one_gpu());
    let tpl = rt.template("scale").main("scale_gpu", &[DeviceKind::Cuda]).register();
    rt.bind_native(tpl, VersionId(0), |ctx| {
        for v in ctx.f64_mut(1) {
            *v *= 2.0;
        }
    });
    let a = rt.alloc_from_f64(&[3.0; 8]);
    let c = rt.alloc_from_f64(&[1.0; 8]);
    rt.task(tpl).read(a).read_write(c).submit();
    rt.inject_stage_fault(a, 1);

    let report = rt.run().expect("one staging fault is within the retry budget");
    assert_eq!(report.tasks_executed, 1);
    assert_eq!(report.failures.failure_count(), 1);
    assert_eq!(report.failures.retries, 1);
    let f = &report.failures.events[0];
    assert_eq!(f.kind, FailureKind::Panic);
    assert!(f.message.contains("injected staging fault"), "got: {}", f.message);
    // The rollback re-exposed the host copy, so the retry re-staged it.
    assert_eq!(rt.read_f64(c), vec![2.0; 8]);
    assert_eq!(rt.read_f64(a), vec![3.0; 8], "input survived the faulted copy");
}

/// Exhausting the retry budget on staging faults aborts exactly like
/// kernel panics do: a `RunError` with a coherent partial report.
#[test]
fn persistent_staging_faults_exhaust_retries_and_abort() {
    let mut cfg = runtime_config(2);
    cfg.max_task_retries = 2;
    let mut rt = Runtime::native(cfg, one_gpu());
    let tpl = rt.template("scale").main("scale_gpu", &[DeviceKind::Cuda]).register();
    rt.bind_native(tpl, VersionId(0), |ctx| {
        for v in ctx.f64_mut(0) {
            *v *= 2.0;
        }
    });
    let c = rt.alloc_from_f64(&[1.0; 8]);
    let task = rt.task(tpl).read_write(c).submit();
    rt.inject_stage_fault(c, 10);

    let err = rt.run().expect_err("every staging attempt faults");
    assert_eq!(err.task, task);
    assert_eq!(err.kind, FailureKind::Panic);
    assert!(err.message.contains("injected staging fault"));
    assert_eq!(err.report.failures.failure_count(), 3, "1 attempt + 2 retries");
    assert_eq!(err.report.failures.retries, 2);
}

/// A task that merely *waited* on another task's failed copy is requeued
/// silently: only the origin task is charged a failure, and both tasks
/// complete once the retry restages the datum.
#[test]
fn upstream_staging_failure_does_not_charge_innocent_waiters() {
    let mut rt = Runtime::native(runtime_config(2), one_gpu());
    let tpl = rt.template("scale").main("scale_gpu", &[DeviceKind::Cuda]).register();
    rt.bind_native(tpl, VersionId(0), |ctx| {
        let src = ctx.f64(0)[0];
        for v in ctx.f64_mut(1) {
            *v += src;
        }
    });
    // Both tasks read the same tile; the second's plan waits on the
    // first's in-flight copy, which is the one that faults.
    let shared = rt.alloc_from_f64(&[5.0; 8]);
    let c1 = rt.alloc_from_f64(&[0.0; 8]);
    let c2 = rt.alloc_from_f64(&[0.0; 8]);
    rt.task(tpl).read(shared).read_write(c1).submit();
    rt.task(tpl).read(shared).read_write(c2).submit();
    rt.inject_stage_fault(shared, 1);

    let report = rt.run().expect("retry must carry both tasks");
    assert_eq!(report.tasks_executed, 2);
    assert_eq!(
        report.failures.failure_count(),
        1,
        "only the task whose copy faulted is charged"
    );
    assert_eq!(report.failures.retries, 1);
    assert_eq!(rt.read_f64(c1), vec![5.0; 8]);
    assert_eq!(rt.read_f64(c2), vec![5.0; 8]);
}
