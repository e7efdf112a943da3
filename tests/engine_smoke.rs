//! End-to-end smoke tests: both engines executing a small multi-version
//! task graph through the full public API.

use std::time::Duration;
use versa::prelude::*;
use versa::runtime::NativeConfig;

/// A hybrid template: fast on GPU, slow on SMP.
fn register_hybrid(rt: &mut Runtime) -> TemplateId {
    rt.template("work")
        .main("work_gpu", &[DeviceKind::Cuda])
        .version("work_smp", &[DeviceKind::Smp])
        .register()
}

#[test]
fn sim_engine_runs_independent_tasks() {
    let mut rt = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
        PlatformConfig::minotauro(2, 2),
    );
    let tpl = register_hybrid(&mut rt);
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(5));
    rt.bind_cost(tpl, VersionId(1), |_| Duration::from_millis(50));

    let tiles: Vec<DataId> = (0..8).map(|_| rt.alloc_bytes(1_000_000)).collect();
    for &t in &tiles {
        rt.task(tpl).read_write(t).submit();
    }
    let report = rt.run().expect("run failed");
    assert_eq!(report.tasks_executed, 8);
    // Dep-aware only runs the main (GPU) version, split over 2 GPUs:
    // 4 tasks each, ≈ 4 × 5 ms plus transfer time.
    assert_eq!(report.version_counts[&(tpl, VersionId(0))], 8);
    assert!(!report.version_counts.contains_key(&(tpl, VersionId(1))));
    let secs = report.makespan.as_secs_f64();
    assert!(secs > 0.015 && secs < 0.08, "makespan {secs}s out of range");
    // Each tile went in once (inout) and came back at the flush.
    assert_eq!(report.transfers.input_bytes, 8_000_000);
    assert_eq!(report.transfers.output_bytes, 8_000_000);
}

#[test]
fn sim_engine_versioning_learns_and_prefers_gpu() {
    let mut rt =
        Runtime::simulated(RuntimeConfig::default(), PlatformConfig::minotauro(2, 1));
    let tpl = register_hybrid(&mut rt);
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(2));
    rt.bind_cost(tpl, VersionId(1), |_| Duration::from_millis(200));

    let tiles: Vec<DataId> = (0..100).map(|_| rt.alloc_bytes(10_000)).collect();
    for &t in &tiles {
        rt.task(tpl).read_write(t).submit();
    }
    let report = rt.run().expect("run failed");
    assert_eq!(report.tasks_executed, 100);
    let gpu = report.version_counts[&(tpl, VersionId(0))];
    let smp = report.version_counts.get(&(tpl, VersionId(1))).copied().unwrap_or(0);
    assert_eq!(gpu + smp, 100);
    assert!(gpu > 80, "GPU should dominate (100x faster), got {gpu}");
    assert!(smp >= 3, "learning phase must run the SMP version λ times, got {smp}");
    assert!(rt.versioning().map(|v| v.profiles().render_table(rt.templates())).is_some());
}

#[test]
fn sim_engine_is_deterministic() {
    let run = || {
        let mut rt =
            Runtime::simulated(RuntimeConfig::default(), PlatformConfig::minotauro(4, 2));
        let tpl = register_hybrid(&mut rt);
        rt.bind_cost(tpl, VersionId(0), Duration::from_nanos);
        rt.bind_cost(tpl, VersionId(1), |s| Duration::from_nanos(20 * s));
        let tiles: Vec<DataId> = (0..40).map(|_| rt.alloc_bytes(500_000)).collect();
        for chunk in tiles.chunks(2) {
            rt.task(tpl).read(chunk[0]).read_write(chunk[1]).submit();
        }
        rt.run().expect("run failed")
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.transfers, b.transfers);
    assert_eq!(a.version_counts, b.version_counts);
    assert_eq!(a.worker_task_counts, b.worker_task_counts);
}

#[test]
fn native_engine_computes_real_results_with_dependencies() {
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        NativeConfig::new(2, 1),
    );
    let tpl = rt
        .template("scale_add")
        .main("scale_add_gpu", &[DeviceKind::Cuda])
        .version("scale_add_smp", &[DeviceKind::Smp])
        .register();
    // Both versions: arg0 = input, arg1 = inout; y[i] += 2 * x[i].
    let kernel = |ctx: &mut versa::runtime::KernelCtx<'_>| {
        let x: Vec<f64> = ctx.f64(0).to_vec();
        let y = ctx.f64_mut(1);
        for (yi, xi) in y.iter_mut().zip(&x) {
            *yi += 2.0 * xi;
        }
    };
    rt.bind_native(tpl, VersionId(0), kernel);
    rt.bind_native(tpl, VersionId(1), kernel);

    let x = rt.alloc_from_f64(&[1.0, 2.0, 3.0, 4.0]);
    let y = rt.alloc_from_f64(&[10.0, 10.0, 10.0, 10.0]);
    // Chain of 5 dependent updates: y += 2x, five times.
    for _ in 0..5 {
        rt.task(tpl).read(x).read_write(y).submit();
    }
    let report = rt.run().expect("run failed");
    assert_eq!(report.tasks_executed, 5);
    assert_eq!(rt.read_f64(y), vec![20.0, 30.0, 40.0, 50.0]);
    assert_eq!(rt.read_f64(x), vec![1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn native_engine_handles_wide_fanout() {
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::Affinity),
        NativeConfig::new(3, 2),
    );
    let tpl = rt
        .template("fill")
        .main("fill_any", &[DeviceKind::Smp, DeviceKind::Cuda])
        .register();
    rt.bind_native(tpl, VersionId(0), |ctx| {
        let out = ctx.f64_mut(0);
        for (i, v) in out.iter_mut().enumerate() {
            *v = i as f64;
        }
    });
    let outs: Vec<DataId> = (0..32).map(|_| rt.alloc_bytes(8 * 16)).collect();
    for &o in &outs {
        rt.task(tpl).write(o).submit();
    }
    let report = rt.run().expect("run failed");
    assert_eq!(report.tasks_executed, 32);
    for &o in &outs {
        let v = rt.read_f64(o);
        assert_eq!(v, (0..16).map(|i| i as f64).collect::<Vec<_>>());
    }
    // Work was spread over multiple workers.
    let busy_workers = report.worker_task_counts.iter().filter(|&&c| c > 0).count();
    assert!(busy_workers >= 2, "expected parallelism, got {:?}", report.worker_task_counts);
}

#[test]
fn native_kernel_panic_surfaces_as_run_error_not_process_panic() {
    // Every version of the only template panics, so retries cannot help:
    // the run must end in a RunError (not a process panic or deadlock).
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
        NativeConfig::new(1, 1),
    );
    let tpl = rt
        .template("bad")
        .main("bad_any", &[DeviceKind::Smp, DeviceKind::Cuda])
        .register();
    rt.bind_native(tpl, VersionId(0), |_ctx| panic!("kernel exploded"));
    let d = rt.alloc_bytes(64);
    let task = rt.task(tpl).read_write(d).submit();
    let err = rt.run().expect_err("unrecoverable kernel must abort the run");
    assert_eq!(err.task, task);
    assert!(err.message.contains("kernel exploded"), "got: {}", err.message);
    // The default budget allows 3 retries: 4 attempts total, all failed.
    assert_eq!(err.report.failures.failure_count(), 4);
    assert_eq!(err.report.failures.retries, 3);
    assert_eq!(err.report.tasks_executed, 0);
}

#[test]
fn noflush_leaves_data_on_the_devices() {
    let build = |rt: &mut Runtime| {
        let tpl = register_hybrid(rt);
        rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(1));
        rt.bind_cost(tpl, VersionId(1), |_| Duration::from_millis(100));
        let d = rt.alloc_bytes(1_000_000);
        for _ in 0..5 {
            rt.task(tpl).read_write(d).submit();
        }
        (tpl, d)
    };
    // With the flush: the result comes home (Output Tx > 0).
    let mut rt = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
        PlatformConfig::minotauro(1, 1),
    );
    build(&mut rt);
    let flushed = rt.run().expect("run failed");
    assert_eq!(flushed.transfers.output_bytes, 1_000_000);

    // taskwait(noflush): data stays on the GPU...
    let mut rt2 = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
        PlatformConfig::minotauro(1, 1),
    );
    let (tpl2, d2) = build(&mut rt2);
    let noflush = rt2.run_noflush().expect("run failed");
    assert_eq!(noflush.transfers.output_bytes, 0);
    assert!(noflush.makespan < flushed.makespan);

    // ...so a second batch reuses it without any new Input Tx, and a
    // plain run() at the end still flushes.
    for _ in 0..3 {
        rt2.task(tpl2).read_write(d2).submit();
    }
    let second = rt2.run().expect("run failed");
    assert_eq!(second.transfers.input_bytes, 0, "device copy was reused");
    assert_eq!(second.transfers.output_bytes, 1_000_000, "final taskwait flushes");
}

#[test]
fn state_persists_across_runs() {
    let mut rt =
        Runtime::simulated(RuntimeConfig::default(), PlatformConfig::minotauro(1, 1));
    let tpl = register_hybrid(&mut rt);
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(1));
    rt.bind_cost(tpl, VersionId(1), |_| Duration::from_millis(30));
    let d = rt.alloc_bytes(1000);
    for _ in 0..10 {
        rt.task(tpl).read_write(d).submit();
    }
    let first = rt.run().expect("run failed");
    assert_eq!(first.tasks_executed, 10);
    // Second run: the profile store remembers; learning is already done.
    for _ in 0..10 {
        rt.task(tpl).read_write(d).submit();
    }
    let second = rt.run().expect("run failed");
    assert_eq!(second.tasks_executed, 10);
    let gpu_second = second.version_counts[&(tpl, VersionId(0))];
    assert_eq!(gpu_second, 10, "no re-learning on the second run");
}
