//! Native-engine failure semantics: kernel panics are recoverable
//! events — the task is rolled back and rescheduled, the failing
//! version is quarantined, and only an exhausted retry budget aborts
//! the run (with a coherent partial report).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use versa::prelude::*;
use versa::runtime::NativeConfig;

fn hybrid_runtime() -> Runtime {
    Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        NativeConfig::new(2, 1),
    )
}

/// A panicking GPU version with a correct SMP fallback: every task must
/// still complete, with correct numerics, the GPU version quarantined,
/// and every failure accounted.
#[test]
fn panicking_version_is_rescheduled_and_quarantined() {
    let mut rt = hybrid_runtime();
    let tpl = rt
        .template("scale")
        .main("scale_gpu", &[DeviceKind::Cuda])
        .version("scale_smp", &[DeviceKind::Smp])
        .register();
    let gpu_attempts = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&gpu_attempts);
    rt.bind_native(tpl, VersionId(0), move |_ctx| {
        counter.fetch_add(1, Ordering::SeqCst);
        panic!("emulated device fault");
    });
    rt.bind_native(tpl, VersionId(1), |ctx| {
        for v in ctx.f64_mut(0) {
            *v *= 3.0;
        }
    });

    let tiles: Vec<DataId> = (0..12).map(|i| rt.alloc_from_f64(&[i as f64; 8])).collect();
    for &t in &tiles {
        rt.task(tpl).read_write(t).submit();
    }
    let report = rt.run().expect("SMP fallback must carry the run");

    assert_eq!(report.tasks_executed, 12);
    // Every completed execution used the SMP version; the GPU version
    // only shows up in the failure log.
    assert_eq!(report.version_counts.get(&(tpl, VersionId(0))), None);
    assert_eq!(report.version_counts[&(tpl, VersionId(1))], 12);
    assert!(gpu_attempts.load(Ordering::SeqCst) >= 1, "GPU version was tried at least once");
    assert_eq!(
        report.failures.failure_count(),
        gpu_attempts.load(Ordering::SeqCst),
        "every panic shows up as a TaskFailure event"
    );
    assert_eq!(report.failures.retries, report.failures.failure_count());
    assert!(report.failures.events.iter().all(|f| {
        f.kind == FailureKind::Panic
            && f.version == VersionId(0)
            && f.message.contains("emulated device fault")
    }));
    // Two consecutive failures quarantine the GPU version for this size
    // group, so the scheduler routes around it.
    assert_eq!(report.failures.quarantined.len(), 1);
    let q = &report.failures.quarantined[0];
    assert_eq!((q.template, q.version), (tpl, VersionId(0)));
    assert!(q.failures >= 2);

    // Numerics survived the rollback: the panicked attempts left the
    // buffers untouched (arena unwind guard), so each tile was scaled
    // exactly once.
    for (i, &t) in tiles.iter().enumerate() {
        assert_eq!(rt.read_f64(t), vec![i as f64 * 3.0; 8]);
    }
}

/// Exhausting the retry budget aborts with a RunError whose partial
/// report stays coherent: successes before the abort are counted, every
/// failed attempt is logged, nothing panics out of `run()`.
#[test]
fn retry_exhaustion_yields_coherent_partial_report() {
    let mut rt = hybrid_runtime();
    let good = rt.template("good").main("good_smp", &[DeviceKind::Smp]).register();
    let bad = rt
        .template("bad")
        .main("bad_any", &[DeviceKind::Smp, DeviceKind::Cuda])
        .register();
    rt.bind_native(good, VersionId(0), |ctx| {
        for v in ctx.f64_mut(0) {
            *v += 1.0;
        }
    });
    rt.bind_native(bad, VersionId(0), |_ctx| panic!("always down"));

    let a = rt.alloc_from_f64(&[0.0; 4]);
    let b = rt.alloc_from_f64(&[0.0; 4]);
    // The good task has no dependence on the bad one, so it completes.
    let good_task = rt.task(good).read_write(a).submit();
    let bad_task = rt.task(bad).read_write(b).submit();

    let err = rt.run().expect_err("single-version panicking task must abort");
    assert_eq!(err.task, bad_task);
    assert_eq!(err.kind, FailureKind::Panic);
    assert!(err.message.contains("always down"));

    let report = &err.report;
    assert_eq!(report.tasks_executed, 1, "the good task completed before the abort");
    assert_eq!(report.version_counts[&(good, VersionId(0))], 1);
    assert_eq!(report.failures.failure_count(), 4, "1 attempt + 3 retries");
    assert_eq!(report.failures.retries, 3);
    assert!(report.failures.events.iter().all(|f| f.task == bad_task));
    let attempts: Vec<u32> = report.failures.events.iter().map(|f| f.attempt).collect();
    assert_eq!(attempts, [1, 2, 3, 4], "attempts are numbered from 1 in order");
    let last = report.failures.events.last().expect("the abort's failures are recorded");
    assert_eq!(err.kind, last.kind, "the abort carries its last failure's kind");
    let _ = good_task;
}

/// `max_task_retries = 0` means fail-fast: the first panic aborts.
#[test]
fn zero_retry_budget_fails_fast() {
    let mut config = RuntimeConfig::with_scheduler(SchedulerKind::DepAware);
    config.max_task_retries = 0;
    let mut rt = Runtime::native(config, NativeConfig::new(1, 0));
    let tpl = rt.template("bad").main("bad_smp", &[DeviceKind::Smp]).register();
    rt.bind_native(tpl, VersionId(0), |_ctx| panic!("boom"));
    let d = rt.alloc_bytes(32);
    rt.task(tpl).read_write(d).submit();
    let err = rt.run().expect_err("no retries allowed");
    assert_eq!(err.report.failures.failure_count(), 1);
    assert_eq!(err.report.failures.retries, 0);
}
