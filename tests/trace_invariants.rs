//! versa-trace integration invariants, checked end-to-end on recorded
//! runs from both engines: every started task reaches exactly one
//! terminal event, per-worker spans never overlap, retry attempts are
//! numbered monotonically, the analysis reconciles *exactly* with the
//! run report, and the Chrome export is schema-valid JSON.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::time::Duration;
use versa::apps::matmul::{self, MatmulConfig, MatmulVariant};
use versa::prelude::*;
use versa::runtime::NativeConfig;
use versa::trace::{chrome, invariants, Trace, TraceAnalysis, TraceEvent};
use versa_mem::TransferKind;

fn traced_rc() -> RuntimeConfig {
    let mut rc = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
    rc.tracing.enabled = true;
    rc
}

fn traced_matmul() -> (RunReport, usize) {
    let cfg = MatmulConfig::quick();
    let report = matmul::run_sim_with(
        traced_rc(),
        cfg,
        MatmulVariant::Hybrid,
        PlatformConfig::minotauro(4, 2),
    );
    (report, cfg.task_count())
}

/// The analysis totals must reconcile with the `RunReport` *exactly* —
/// both views count the same underlying events.
fn assert_reconciles(report: &RunReport, trace: &Trace) {
    let a = TraceAnalysis::new(trace);
    assert_eq!(a.dropped, 0, "ring overflow would break reconciliation");
    assert_eq!(a.task_count as u64, report.tasks_executed);
    assert_eq!(a.version_counts, report.version_counts);
    assert_eq!(a.failed_count as u64, report.failures.failure_count());
    assert_eq!(a.transfer_count as u64, report.transfers.total_count());
    let bytes = |k: TransferKind| a.transfer_bytes.get(&k).copied().unwrap_or(0);
    assert_eq!(bytes(TransferKind::Input), report.transfers.input_bytes);
    assert_eq!(bytes(TransferKind::Output), report.transfers.output_bytes);
    assert_eq!(bytes(TransferKind::Device), report.transfers.device_bytes);
    for (wi, &busy) in report.worker_busy.iter().enumerate() {
        let traced = a.busy.get(&WorkerId(wi as u16)).copied().unwrap_or(Duration::ZERO);
        assert_eq!(traced, busy, "worker {wi} busy time diverges from the report");
    }
}

#[test]
fn sim_trace_passes_all_invariants_and_reconciles() {
    let (report, tasks) = traced_matmul();
    let trace = report.trace.as_ref().expect("trace requested");
    let violations = invariants::check(trace);
    assert!(violations.is_empty(), "invariant violations: {violations:?}");
    assert_reconciles(&report, trace);
    let a = TraceAnalysis::new(trace);
    assert_eq!(a.task_count, tasks);
    assert_eq!(a.find_overlap(), None);
    assert!(!a.decisions.is_empty(), "versioning runs must leave a decision ledger");
    assert_eq!(a.decisions.len() as u64, report.tasks_executed + a.failed_count as u64);
}

#[test]
fn dependent_tasks_do_not_overlap() {
    // A pure chain: task i+1 reads/writes what task i wrote, so traced
    // intervals must be totally ordered.
    let mut rt = Runtime::simulated(traced_rc(), PlatformConfig::minotauro(2, 1));
    let tpl = rt
        .template("step")
        .main("step_gpu", &[DeviceKind::Cuda])
        .version("step_smp", &[DeviceKind::Smp])
        .register();
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(2));
    rt.bind_cost(tpl, VersionId(1), |_| Duration::from_millis(5));
    let d = rt.alloc_bytes(1 << 16);
    let ids: Vec<_> = (0..40).map(|_| rt.task(tpl).read_write(d).submit()).collect();
    let report = rt.run().expect("run failed");
    let trace = report.trace.as_ref().unwrap();

    let mut ends = HashMap::new();
    let mut starts = HashMap::new();
    for ev in trace.events() {
        match *ev {
            TraceEvent::TaskStart { time, task, .. } => {
                starts.insert(task, time);
            }
            TraceEvent::TaskEnd { time, task, .. } => {
                ends.insert(task, time);
            }
            _ => {}
        }
    }
    for pair in ids.windows(2) {
        let end_prev = ends[&pair[0]];
        let start_next = starts[&pair[1]];
        assert!(
            start_next >= end_prev,
            "{:?} started at {start_next:?} before {:?} ended at {end_prev:?}",
            pair[1],
            pair[0]
        );
    }
}

#[test]
fn chrome_export_is_schema_valid() {
    let (report, tasks) = traced_matmul();
    let trace = report.trace.as_ref().unwrap();
    let json = chrome::to_chrome_json(trace);
    chrome::validate(&json).expect("chrome export must be schema-valid");
    // Golden structural facts: the container key, one complete ("X")
    // event per executed attempt, and instant events for decisions.
    assert!(json.contains("\"traceEvents\""));
    assert!(json.matches("\"ph\":\"X\"").count() >= tasks);
    assert!(json.contains("\"ph\":\"i\""), "decisions export as instants");
}

#[test]
fn vtrace_text_roundtrips() {
    let (report, _) = traced_matmul();
    let trace = report.trace.as_ref().unwrap();
    let text = trace.to_text();
    let parsed = Trace::parse(&text).expect("self-emitted vtrace must parse");
    assert_eq!(parsed.events().len(), trace.events().len());
    let a = TraceAnalysis::new(trace);
    let b = TraceAnalysis::new(&parsed);
    assert_eq!(a.task_count, b.task_count);
    assert_eq!(a.version_counts, b.version_counts);
    assert_eq!(a.busy, b.busy);
}

#[test]
fn tracing_disabled_keeps_report_trace_empty() {
    let cfg = MatmulConfig::quick();
    let report = matmul::run_sim(
        cfg,
        MatmulVariant::Gpu,
        SchedulerKind::DepAware,
        PlatformConfig::minotauro(1, 1),
    );
    assert!(report.trace.is_none());
}

/// The same program traced on both engines produces the same event
/// *shape*: identical completed-task sets, per-task lifecycle counts,
/// clean invariants, and non-empty decision ledgers. (Timing and
/// placement legitimately differ.)
#[test]
fn native_and_sim_traces_have_the_same_event_shape() {
    let cfg = MatmulConfig { n: 96, bs: 32 };
    let sim = matmul::run_sim_with(
        traced_rc(),
        cfg,
        MatmulVariant::Hybrid,
        PlatformConfig::minotauro(2, 1),
    );
    let (native, _data) = matmul::run_native_with(
        traced_rc(),
        cfg,
        MatmulVariant::Hybrid,
        NativeConfig::new(2, 1),
        7,
    );

    let shape = |report: &RunReport| {
        let trace = report.trace.as_ref().expect("trace requested");
        let violations = invariants::check(trace);
        assert!(violations.is_empty(), "invariant violations: {violations:?}");
        assert_reconciles(report, trace);
        let mut created = HashSet::new();
        let mut ready = HashSet::new();
        let mut ended = HashSet::new();
        let mut decisions = 0usize;
        for ev in trace.events() {
            match *ev {
                TraceEvent::TaskCreated { task, .. } => {
                    created.insert(task);
                }
                TraceEvent::TaskReady { task, .. } => {
                    ready.insert(task);
                }
                TraceEvent::TaskEnd { task, .. } => {
                    ended.insert(task);
                }
                TraceEvent::Decision { .. } => decisions += 1,
                _ => {}
            }
        }
        assert!(decisions > 0, "versioning runs must leave a decision ledger");
        assert!(ended.is_subset(&created), "every ended task was announced");
        assert!(ended.is_subset(&ready), "every ended task became ready");
        ended
    };

    let sim_tasks = shape(&sim);
    let native_tasks = shape(&native);
    assert_eq!(sim_tasks, native_tasks, "both engines execute the same task set");
    assert_eq!(sim_tasks.len(), cfg.task_count());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    // Completeness under injected faults: whatever the fault pattern,
    // the trace keeps its invariants (exactly one terminal per started
    // attempt, monotonic attempt numbers, non-overlapping worker
    // spans) and failed counts reconcile with the report.
    #[test]
    fn faulty_runs_keep_trace_invariants(
        tasks in 1usize..30,
        flaky_worker in 0u16..3,
        p in 0.0f64..0.6,
        chain in (0u8..2).prop_map(|b| b == 1),
    ) {
        let plan = FaultPlan::single(FaultRule::flaky_worker(WorkerId(flaky_worker), p));
        let mut platform = PlatformConfig::minotauro(2, 1);
        platform.faults = plan;
        let mut rt = Runtime::simulated(traced_rc(), platform);
        let tpl = rt
            .template("work")
            .main("work_gpu", &[DeviceKind::Cuda])
            .version("work_smp", &[DeviceKind::Smp])
            .register();
        rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(2));
        rt.bind_cost(tpl, VersionId(1), |_| Duration::from_millis(9));
        let shared = rt.alloc_bytes(64 << 10);
        let tiles: Vec<DataId> = (0..tasks).map(|_| rt.alloc_bytes(32 << 10)).collect();
        for &t in &tiles {
            if chain {
                rt.task(tpl).read_write(shared).submit();
            } else {
                rt.task(tpl).read_write(t).submit();
            }
        }
        let report = match rt.run() {
            Ok(r) => r,
            Err(e) => *e.report,
        };
        let trace = report.trace.as_ref().expect("trace requested");
        let violations = invariants::check(trace);
        prop_assert!(violations.is_empty(), "invariant violations: {violations:?}");
        let a = TraceAnalysis::new(trace);
        prop_assert_eq!(a.failed_count as u64, report.failures.failure_count());
        prop_assert_eq!(a.task_count as u64, report.tasks_executed);
        prop_assert!(a.find_overlap().is_none());
    }
}
