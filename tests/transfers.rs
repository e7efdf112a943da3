//! Staged-transfer semantics: what the native engine moves, and what it
//! computes, is pinned to absolute goldens — `TransferStats`, version
//! counts, and bitwise `C` against a serial recompute — that hold at
//! every `lookahead_depth` and across bounded waves, while staging
//! failures route through the same recovery machinery as kernel panics.

use std::collections::HashMap;
use versa::apps::cholesky::{self, CholeskyConfig, CholeskyVariant};
use versa::apps::matmul::{self, MatmulConfig, MatmulVariant, NativeMatmulData};
use versa::kernels::exec::SerialExec;
use versa::kernels::gemm::dgemm_parallel_on;
use versa::kernels::verify::random_matrix_f64;
use versa::prelude::*;
use versa::runtime::NativeConfig;
use versa::trace::{invariants, Trace, TraceEvent, Ts};

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

/// Partial-wave carry-over: the small matmul driven as `run_bounded(7)`
/// waves until done, then one closing `run()` for the flush no wave
/// does, moves in sum exactly what a single `run()` moves — device copies
/// planned in one wave stay valid for the next — and computes the same
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
        let Some(wave) = wave else {
            reports.push(rt.run().expect("run failed"));
            return (reports, c.iter().map(|&t| rt.read_f64(t)).collect());
        };
        loop {
            reports.push(rt.run_bounded(wave).expect("wave failed"));
            if reports.last().unwrap().completed {
                break;
            }
        }
        // A wave never flushes; the closing `run()` moves what the last
        // wave's flush used to, so its copies count with that wave.
        let flush = rt.run().expect("closing run failed");
        reports.last_mut().unwrap().transfers.merge(&flush.transfers);
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

fn traced(mut cfg: RuntimeConfig) -> RuntimeConfig {
    cfg.tracing.enabled = true;
    cfg
}

/// End times of the write-back lane's copies (`by: None`) in a trace.
fn write_back_ends(trace: &Trace) -> Vec<Ts> {
    trace
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Transfer { end, to, by: None, .. } => {
                assert!(to.is_host(), "the write-back lane only copies home");
                Some(end)
            }
            _ => None,
        })
        .collect()
}

/// Write-behind: each `C` tile goes home once its last `inout` task
/// completes, under the kernels still running — not in a tail after the
/// last one. Same tile grid as the golden, with tiles big enough that a
/// kernel outlasts a throttled copy: the last round of tasks finishes one
/// `C` tile per kernel, and its write-back keeps pace.
#[test]
fn write_backs_overlap_the_remaining_kernels() {
    let config = MatmulConfig { n: 512, bs: 128 };
    assert_eq!(config.nb(), small().nb());
    let (report, data) = matmul::run_native_with(
        traced(runtime_config(2)),
        config,
        MatmulVariant::Gpu,
        NativeConfig { gpu_lanes: 1, link_bandwidth: Some(4_000_000_000), ..one_gpu() },
        7,
    );
    let tile = 128 * 128 * 8u64;
    assert_eq!(report.transfers.output_count, 16);
    assert_eq!(report.transfers.output_bytes, 16 * tile);
    let trace = report.trace.as_ref().expect("tracing was on");
    let last_task_end = trace
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::TaskEnd { time, .. } => Some(time),
            _ => None,
        })
        .max()
        .expect("tasks ran");
    let ends = write_back_ends(trace);
    assert_eq!(ends.len(), 16, "one write-back per written C tile");
    let early = ends.iter().filter(|&&end| end < last_task_end).count();
    assert!(early >= 8, "only {early} of 16 write-backs ended before the last kernel");
    assert_eq!(data.c, serial_c(&data), "bitwise-identical to the serial recompute");
}

/// `taskwait(noflush)` plans no write-back at all, early or late.
#[test]
fn noflush_runs_write_nothing_back() {
    let mut rt = Runtime::native(traced(runtime_config(2)), one_gpu());
    let tpl = matmul::register_native(&mut rt, MatmulVariant::Gpu, small().bs);
    let nb = small().nb();
    let tile = vec![1.0; small().bs * small().bs];
    let tiles: Vec<DataId> = (0..3 * nb * nb).map(|_| rt.alloc_from_f64(&tile)).collect();
    let (a, rest) = tiles.split_at(nb * nb);
    let (b, c) = rest.split_at(nb * nb);
    matmul::submit_tasks(&mut rt, tpl, nb, a, b, c);
    let report = rt.run_noflush().expect("run failed");
    assert_eq!(report.tasks_executed, 64);
    assert_eq!(report.transfers.output_count, 0);
    assert!(write_back_ends(report.trace.as_ref().expect("tracing was on")).is_empty());
}

/// The end-of-run flush goes through the write-back lane too: a datum
/// left on the device by an earlier `run_noflush` and untouched by the
/// next `run()` still comes home, next to the datum that run wrote.
#[test]
fn untouched_device_data_is_flushed_at_the_end_of_the_run() {
    let mut rt = Runtime::native(traced(runtime_config(2)), one_gpu());
    let tpl = rt.template("scale").main("scale_gpu", &[DeviceKind::Cuda]).register();
    rt.bind_native(tpl, VersionId(0), |ctx| {
        for v in ctx.f64_mut(0) {
            *v *= 2.0;
        }
    });
    let left = rt.alloc_from_f64(&[1.0; 8]);
    let later = rt.alloc_from_f64(&[3.0; 8]);
    rt.task(tpl).read_write(left).submit();
    let first = rt.run_noflush().expect("run failed");
    assert_eq!(first.transfers.output_count, 0);

    rt.task(tpl).read_write(later).submit();
    let report = rt.run().expect("run failed");
    assert_eq!(report.transfers.output_count, 2, "the untouched datum and the new one");
    let trace = report.trace.as_ref().expect("tracing was on");
    let mut flushed: Vec<DataId> = trace
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Transfer { data, by: None, .. } => Some(data),
            _ => None,
        })
        .collect();
    flushed.sort_unstable();
    assert_eq!(flushed, vec![left, later]);
    assert_eq!(rt.read_f64(left), vec![2.0; 8]);
    assert_eq!(rt.read_f64(later), vec![6.0; 8]);
}

/// The emulated link carries one device→host copy per source device at
/// a time: whether a host stager or the write-back lane makes them, the
/// `Transfer` spans out of one device never overlap.
#[test]
fn one_copy_out_per_device_at_a_time() {
    let (report, data) = cholesky::run_native_with(
        traced(RuntimeConfig::with_scheduler(SchedulerKind::versioning())),
        CholeskyConfig { n: 384, bs: 64 },
        CholeskyVariant::PotrfHybrid,
        NativeConfig { smp_workers: 1, gpus: 1, gpu_lanes: 1, link_bandwidth: Some(50_000_000) },
        3,
    );
    assert!(data.max_error() < 1e-2, "factor error {}", data.max_error());
    let trace = report.trace.as_ref().expect("tracing was on");
    assert!(invariants::check(trace).is_empty(), "{:?}", invariants::check(trace));
    let mut out: Vec<(Ts, Ts, bool)> = trace
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Transfer { start, end, from, to, by, .. }
                if to.is_host() && from == MemSpace::device(0) =>
            {
                Some((start, end, by.is_none()))
            }
            _ => None,
        })
        .collect();
    assert!(out.iter().any(|&(.., wb)| wb), "the write-back lane copied");
    assert!(out.iter().any(|&(.., wb)| !wb), "the host stager copied out of the device");
    out.sort_unstable();
    for pair in out.windows(2) {
        assert!(pair[0].1 <= pair[1].0, "copies out of device 0 overlap: {pair:?}");
    }
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

/// A runtime over `cfg` with two single-version templates: `produce`
/// fills every argument with 7.0 on a GPU, `copy` copies argument 0
/// into argument 1 on `reader`.
fn produce_and_copy(cfg: NativeConfig, reader: DeviceKind) -> (Runtime, TemplateId, TemplateId) {
    let mut rt = Runtime::native(
        traced(RuntimeConfig::with_scheduler(SchedulerKind::BreadthFirst)),
        cfg,
    );
    let produce = rt.template("produce").main("produce_gpu", &[DeviceKind::Cuda]).register();
    rt.bind_native(produce, VersionId(0), |ctx| {
        for i in 0..ctx.arg_count() {
            ctx.f64_mut(i).fill(7.0);
        }
    });
    let copy = rt.template("copy").main("copy", &[reader]).register();
    rt.bind_native(copy, VersionId(0), |ctx| {
        let (src, dst) = ctx.f64_reads_and_mut(&[0], 1);
        dst.copy_from_slice(src[0]);
    });
    (rt, produce, copy)
}

/// One SMP worker per `smp_workers` and one GPU, over a 20 MB/s link.
fn throttled(smp_workers: usize) -> NativeConfig {
    NativeConfig { smp_workers, gpus: 1, gpu_lanes: 1, link_bandwidth: Some(20_000_000) }
}

/// Every `Transfer` of `data` into the host: `(by, end > start)`.
fn copies_home(trace: &Trace, data: DataId) -> Vec<(Option<WorkerId>, bool)> {
    trace
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Transfer { data: d, to, by, start, end, .. } if d == data && to.is_host() => {
                Some((by, end > start))
            }
            _ => None,
        })
        .collect()
}

/// A datum goes home once its last writer finishes, not its last
/// reader: the host reader planned after it waits on that write-back
/// instead of copying the datum out of the device itself.
#[test]
fn host_reader_waits_on_the_in_flight_write_back() {
    let (mut rt, produce, copy) = produce_and_copy(throttled(1), DeviceKind::Smp);
    let d = rt.alloc_from_f64(&[0.0; 8192]);
    let e = rt.alloc_from_f64(&[0.0; 8192]);
    rt.task(produce).write(d).submit();
    rt.task(copy).read(d).write(e).submit();
    let report = rt.run().expect("run failed");
    let trace = report.trace.as_ref().expect("tracing was on");
    assert!(invariants::check(trace).is_empty(), "{:?}", invariants::check(trace));
    assert_eq!(copies_home(trace, d), [(None, true)], "one copy home, on the write-back lane");
    assert_eq!(report.transfers.output_count, 1);
    assert_eq!(report.transfers.input_count, 0);
    assert_eq!(rt.read_f64(e), vec![7.0; 8192]);
    assert_eq!(rt.read_f64(d), vec![7.0; 8192]);
}

/// While a datum's write-back is in flight, a reader on another device
/// copies it from the device that wrote it (Device Tx), not from the
/// host copy still on the link.
#[test]
fn device_readers_source_from_a_device_while_the_host_copy_is_in_flight() {
    let cfg = NativeConfig { smp_workers: 0, gpus: 2, gpu_lanes: 1, link_bandwidth: Some(20_000_000) };
    let (mut rt, produce, copy) = produce_and_copy(cfg, DeviceKind::Cuda);
    let d = rt.alloc_from_f64(&[0.0; 8192]);
    let outs: Vec<DataId> = (0..4).map(|_| rt.alloc_from_f64(&[0.0; 8192])).collect();
    rt.task(produce).write(d).submit();
    for &e in &outs {
        rt.task(copy).read(d).write(e).submit();
    }
    let report = rt.run().expect("run failed");
    let trace = report.trace.as_ref().expect("tracing was on");
    let devices: Vec<WorkerId> = trace
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::TaskEnd { worker, .. } => Some(worker),
            _ => None,
        })
        .collect();
    assert!(devices.iter().any(|&w| w != devices[0]), "the readers ran on both GPUs: {devices:?}");
    assert_eq!(report.transfers.device_count, 1, "one copy of d to the other GPU");
    assert_eq!(report.transfers.input_count, 0, "nothing came from the host");
    assert_eq!(report.transfers.output_count, 5, "d and every output come home");
    for &e in &outs {
        assert_eq!(rt.read_f64(e), vec![7.0; 8192]);
    }
}

/// `f`'s result, or a failed test once a minute has passed: a copy
/// whose cell never resolves hangs the run instead of failing it.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60)).expect("the run hung (or panicked)")
}

/// A write-back that fails moves nothing and leaves no host copy
/// behind: the host reader that waited on it is requeued without a
/// charge, and its retry copies the datum out of the device itself.
#[test]
fn failed_write_back_is_recovered_by_the_host_reader() {
    let (failures, home, e, d) = within_a_minute(|| {
        let (mut rt, produce, copy) = produce_and_copy(throttled(1), DeviceKind::Smp);
        let d = rt.alloc_from_f64(&[0.0; 8192]);
        let e = rt.alloc_from_f64(&[0.0; 8192]);
        rt.task(produce).write(d).submit();
        rt.task(copy).read(d).write(e).submit();
        rt.inject_stage_fault(d, 1);
        let report = rt.run().expect("the run recovers");
        let home = copies_home(report.trace.as_ref().expect("tracing was on"), d);
        (report.failures.failure_count(), home, rt.read_f64(e), rt.read_f64(d))
    });
    assert_eq!(failures, 0, "no task is charged for the write-back's fault");
    assert_eq!(home.len(), 2, "the failed write-back and the reader's own copy: {home:?}");
    assert_eq!(home[0], (None, false), "the write-back moved nothing");
    assert!(matches!(home[1], (Some(_), true)), "the host stager copied d: {home:?}");
    assert_eq!(e, vec![7.0; 8192]);
    assert_eq!(d, vec![7.0; 8192]);
}

/// With no host reader to recover it, a failed write-back is planned
/// again by the end-of-run flush, so `run()` still returns with the
/// datum at home — also when the failure resolves only after the last
/// task finished (`d`'s write-back queues behind a larger one).
#[test]
fn failed_write_back_is_planned_again_by_the_flush() {
    let (outputs, home) = within_a_minute(|| {
        let (mut rt, produce, copy) = produce_and_copy(throttled(0), DeviceKind::Cuda);
        let big = rt.alloc_from_f64(&[0.0; 131_072]);
        let d = rt.alloc_from_f64(&[0.0; 8192]);
        let e = rt.alloc_from_f64(&[0.0; 8192]);
        rt.task(produce).write(big).write(d).submit();
        rt.task(copy).read(d).write(e).submit();
        rt.inject_stage_fault(d, 1);
        let report = rt.run().expect("run failed");
        let home = copies_home(report.trace.as_ref().expect("tracing was on"), d);
        (report.transfers.output_count, home)
    });
    assert_eq!(home, [(None, false), (None, true)], "the failed write-back, then the flush's");
    assert_eq!(outputs, 4, "big, both attempts at d, and e");
}
