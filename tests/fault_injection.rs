//! Simulated fault injection: a seeded FaultPlan on the platform fails
//! task executions through the same recovery path native panics take —
//! reschedule, quarantine, bounded retries — fully deterministically.

use std::time::Duration;
use versa::prelude::*;

fn hybrid_sim(plan: FaultPlan) -> (Runtime, TemplateId, Vec<DataId>) {
    let mut platform = PlatformConfig::minotauro(2, 1);
    platform.faults = plan;
    let mut rt = Runtime::simulated(RuntimeConfig::default(), platform);
    let tpl = rt
        .template("work")
        .main("work_gpu", &[DeviceKind::Cuda])
        .version("work_smp", &[DeviceKind::Smp])
        .register();
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(2));
    rt.bind_cost(tpl, VersionId(1), |_| Duration::from_millis(20));
    let tiles: Vec<DataId> = (0..30).map(|_| rt.alloc_bytes(100_000)).collect();
    (rt, tpl, tiles)
}

fn run_all(rt: &mut Runtime, tpl: TemplateId, tiles: &[DataId]) -> RunReport {
    for &t in tiles {
        rt.task(tpl).read_write(t).submit();
    }
    rt.run().expect("run failed")
}

#[test]
fn broken_gpu_version_completes_on_smp_with_quarantine() {
    let plan = FaultPlan::single(FaultRule::broken_version(VersionId(0)));
    let (mut rt, tpl, tiles) = hybrid_sim(plan);
    let report = run_all(&mut rt, tpl, &tiles);

    assert_eq!(report.tasks_executed, 30);
    assert_eq!(report.version_counts.get(&(tpl, VersionId(0))), None, "GPU never completes");
    assert_eq!(report.version_counts[&(tpl, VersionId(1))], 30);
    assert!(report.failures.failure_count() >= 2);
    assert_eq!(report.failures.retries, report.failures.failure_count());
    assert!(report.failures.events.iter().all(|f| f.kind == FailureKind::Fault));
    assert_eq!(report.failures.quarantined.len(), 1);
    assert_eq!(report.failures.quarantined[0].version, VersionId(0));
}

#[test]
fn same_seed_and_plan_reproduce_the_run_exactly() {
    let run = || {
        let plan = FaultPlan::single(FaultRule::flaky_worker(WorkerId(2), 0.4));
        let (mut rt, tpl, tiles) = hybrid_sim(plan);
        run_all(&mut rt, tpl, &tiles)
    };
    let a = run();
    let b = run();
    assert!(!a.failures.is_clean(), "the flaky GPU should fire at p=0.4");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.transfers, b.transfers);
    assert_eq!(a.version_counts, b.version_counts);
    assert_eq!(a.failures.failure_count(), b.failures.failure_count());
    assert_eq!(a.failures.retries, b.failures.retries);
    let key = |r: &RunReport| -> Vec<(u64, u16, u16, u32)> {
        r.failures.events.iter().map(|f| (f.task.0, f.version.0, f.worker.0, f.attempt)).collect()
    };
    assert_eq!(key(&a), key(&b), "failure events replay identically");
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let (mut rt_none, tpl_a, tiles_a) = hybrid_sim(FaultPlan::none());
    let a = run_all(&mut rt_none, tpl_a, &tiles_a);
    // A plan that exists but never fires must not perturb the noise
    // stream either: probability-0 rules are short-circuited.
    let plan = FaultPlan::single(FaultRule::flaky_worker(WorkerId(2), 0.0));
    let (mut rt_plan, tpl_b, tiles_b) = hybrid_sim(plan);
    let b = run_all(&mut rt_plan, tpl_b, &tiles_b);
    assert!(a.failures.is_clean() && b.failures.is_clean());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.transfers, b.transfers);
    assert_eq!(a.version_counts, b.version_counts);
}

#[test]
fn unrecoverable_fault_aborts_with_partial_report() {
    // Every version of the template fails everywhere: retries cannot
    // help and the run must abort with the Fault kind.
    let plan = FaultPlan {
        rules: vec![
            FaultRule::broken_version(VersionId(0)),
            FaultRule::broken_version(VersionId(1)),
        ],
        ..FaultPlan::default()
    };
    let (mut rt, tpl, tiles) = hybrid_sim(plan);
    for &t in &tiles[..3] {
        rt.task(tpl).read_write(t).submit();
    }
    let err = rt.run().expect_err("nothing can complete");
    assert_eq!(err.kind, FailureKind::Fault);
    assert_eq!(err.report.tasks_executed, 0);
    let exhausted = err
        .report
        .failures
        .events
        .iter()
        .filter(|f| f.task == err.task)
        .count();
    assert_eq!(exhausted, 4, "1 attempt + 3 retries for the aborting task");
    let own: Vec<_> = err.report.failures.events.iter().filter(|f| f.task == err.task).collect();
    let attempts: Vec<u32> = own.iter().map(|f| f.attempt).collect();
    assert_eq!(attempts, [1, 2, 3, 4], "attempts are numbered from 1 in order");
    assert_eq!(err.kind, own[own.len() - 1].kind, "the abort carries its last failure's kind");
}

#[test]
fn fault_trace_records_failed_attempts() {
    let plan = FaultPlan::single(FaultRule::broken_version(VersionId(0)));
    let mut platform = PlatformConfig::minotauro(2, 1);
    platform.faults = plan;
    let mut config = RuntimeConfig::default();
    config.tracing.enabled = true;
    let mut rt = Runtime::simulated(config, platform);
    let tpl = rt
        .template("work")
        .main("work_gpu", &[DeviceKind::Cuda])
        .version("work_smp", &[DeviceKind::Smp])
        .register();
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(2));
    rt.bind_cost(tpl, VersionId(1), |_| Duration::from_millis(20));
    let tiles: Vec<DataId> = (0..10).map(|_| rt.alloc_bytes(50_000)).collect();
    for &t in &tiles {
        rt.task(tpl).read_write(t).submit();
    }
    let report = rt.run().expect("run failed");
    let trace = report.trace.as_ref().expect("trace enabled");

    let analysis = versa::trace::TraceAnalysis::new(trace);
    assert_eq!(analysis.failed_count as u64, report.failures.failure_count());
    assert_eq!(analysis.task_count as u64, report.tasks_executed);
    assert_eq!(analysis.find_overlap(), None, "failed attempts still occupy the worker");

    let csv = versa::trace::analysis::to_csv(trace);
    assert_eq!(
        csv.lines().filter(|l| l.starts_with("failed,")).count() as u64,
        report.failures.failure_count()
    );
}
