//! Run reports: everything the paper's evaluation section measures,
//! plus the failure/retry accounting added by the fault-tolerance
//! subsystem — and [`RunTally`], the one copy of the per-run
//! bookkeeping both engines feed them from.

use crate::Runtime;
// `RunReport::version_counts` is a public std map.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use versa_core::{BucketKey, FailureKind, TaskId, TemplateId, TemplateRegistry, VersionId, WorkerId};
use versa_mem::{IdMap, TransferStats};
use versa_trace::{TraceEvent, TraceSink, Ts};

/// One failed task execution attempt.
#[derive(Clone, Debug)]
pub struct TaskFailure {
    /// The task whose execution failed.
    pub task: TaskId,
    /// Its template.
    pub template: TemplateId,
    /// The version that failed.
    pub version: VersionId,
    /// The worker it was running on.
    pub worker: WorkerId,
    /// Panic vs. injected fault.
    pub kind: FailureKind,
    /// Panic payload / fault description.
    pub message: String,
    /// Which attempt this was (1 = first execution).
    pub attempt: u32,
}

/// A version quarantined by the scheduler during the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedVersion {
    /// Template the version belongs to.
    pub template: TemplateId,
    /// Size-group key it is quarantined in.
    pub bucket: BucketKey,
    /// The quarantined version.
    pub version: VersionId,
    /// Consecutive failures that triggered the quarantine.
    pub failures: u64,
}

impl From<versa_core::QuarantineEntry> for QuarantinedVersion {
    fn from(e: versa_core::QuarantineEntry) -> Self {
        QuarantinedVersion {
            template: e.template,
            bucket: e.bucket,
            version: e.version,
            failures: e.failures,
        }
    }
}

/// Failure/retry accounting of one run. Default (all zeros/empty) means
/// the run saw no failures.
#[derive(Clone, Debug, Default)]
pub struct FailureReport {
    /// Every failed execution attempt, in occurrence order.
    pub events: Vec<TaskFailure>,
    /// Re-entries into the ready pool after a failure (a task that
    /// failed twice before completing contributes 2 retries).
    pub retries: u64,
    /// Versions left quarantined at the end of the run.
    pub quarantined: Vec<QuarantinedVersion>,
}

impl FailureReport {
    /// Total failed attempts.
    pub fn failure_count(&self) -> u64 {
        self.events.len() as u64
    }

    /// Whether the run completed without a single failure.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }
}

/// A run aborted because some task exhausted its retry budget. Carries
/// the partial [`RunReport`] accumulated up to the abort, so callers can
/// still inspect what executed, failed, and was quarantined.
#[derive(Debug)]
pub struct RunError {
    /// The task that exhausted its retries.
    pub task: TaskId,
    /// The kind of its final failure.
    pub kind: FailureKind,
    /// The final failure's message.
    pub message: String,
    /// Partial report: tasks executed, failures, and quarantine state up
    /// to the abort. Its `makespan` covers the aborted region. Boxed to
    /// keep the `Err` variant of `Runtime::run` small.
    pub report: Box<RunReport>,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {:?} exhausted its retries (last failure: {}: {}); {} failures total",
            self.task,
            self.kind,
            self.message,
            self.report.failures.failure_count()
        )
    }
}

impl std::error::Error for RunError {}

/// Per-worker data-movement breakdown for one run: how many bytes were
/// staged into the worker's space for its tasks, how long the staging
/// lane spent moving them, how long the worker computed, and how much of
/// the staging time was hidden under kernel execution (the whole point
/// of the overlapped transfer pipeline).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerTransferStats {
    /// Bytes copied into this worker's space for its tasks.
    pub staged_bytes: u64,
    /// Number of staged copies.
    pub staged_count: u64,
    /// Wall (or virtual) time spent moving those bytes.
    pub stage_time: Duration,
    /// Wall (or virtual) time spent executing kernels.
    pub compute_time: Duration,
    /// Portion of `stage_time` that ran concurrently with a kernel on
    /// the same worker (native engine only; zero on the simulator).
    pub overlap_time: Duration,
}

impl WorkerTransferStats {
    /// Fraction (0..=1) of staging time hidden under compute. Zero when
    /// the worker staged nothing.
    pub fn overlap_ratio(&self) -> f64 {
        if self.stage_time.is_zero() {
            0.0
        } else {
            (self.overlap_time.as_secs_f64() / self.stage_time.as_secs_f64()).min(1.0)
        }
    }

    /// Accumulate another breakdown into this one (used by the serving
    /// layer to aggregate across waves).
    pub fn merge(&mut self, other: &WorkerTransferStats) {
        self.staged_bytes += other.staged_bytes;
        self.staged_count += other.staged_count;
        self.stage_time += other.stage_time;
        self.compute_time += other.compute_time;
        self.overlap_time += other.overlap_time;
    }
}

/// Measurements of one `run()` (one taskwait region): the quantities
/// behind every figure of the paper's §V — makespan (→ GFLOP/s or wall
/// time), bytes transferred per category, and per-version execution
/// counts.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scheduler policy name.
    pub scheduler: String,
    /// End-to-end completion time of the region (virtual time in the
    /// simulated engine, wall time in the native engine), including the
    /// final flush when enabled.
    pub makespan: Duration,
    /// Number of tasks executed in this run.
    pub tasks_executed: u64,
    /// Transfer accounting (paper Figs. 7, 10, 13).
    pub transfers: TransferStats,
    /// Executions per (template, version) (paper Figs. 8, 11, 14, 15).
    // Public report field: engines convert into it once.
    #[allow(clippy::disallowed_types)]
    pub version_counts: HashMap<(TemplateId, VersionId), u64>,
    /// Tasks executed per worker, indexed by worker id.
    pub worker_task_counts: Vec<u64>,
    /// Accumulated kernel time per worker, indexed by worker id —
    /// divide by `makespan` for per-worker utilization.
    pub worker_busy: Vec<Duration>,
    /// Per-worker transfer breakdown (bytes staged, staging vs compute
    /// time, overlap ratio), indexed by worker id.
    pub worker_transfers: Vec<WorkerTransferStats>,
    /// Whether every submitted task finished in this run. Always true
    /// for a successful unbounded [`run()`](crate::Runtime::run); a
    /// bounded wave ([`run_bounded`](crate::Runtime::run_bounded)) may
    /// return with work still outstanding.
    pub completed: bool,
    /// The structured execution trace, when
    /// [`RuntimeConfig::tracing`](crate::RuntimeConfig::tracing) was
    /// enabled (both engines). Analyze with
    /// [`versa_trace::TraceAnalysis`], export with
    /// [`versa_trace::chrome`], or serialize with
    /// [`Trace::to_text`](versa_trace::Trace::to_text) for
    /// `versa-analyze`.
    pub trace: Option<versa_trace::Trace>,
    /// Failure and retry accounting (empty for a clean run).
    pub failures: FailureReport,
}

impl RunReport {
    /// Achieved GFLOP/s given the run's useful floating-point work.
    pub fn gflops(&self, flops: f64) -> f64 {
        flops / self.makespan.as_secs_f64() / 1e9
    }

    /// Executions of each version of `template`, in version order
    /// (missing versions count 0).
    pub fn version_histogram(&self, template: TemplateId, n_versions: usize) -> Vec<u64> {
        (0..n_versions)
            .map(|v| {
                self.version_counts.get(&(template, VersionId(v as u16))).copied().unwrap_or(0)
            })
            .collect()
    }

    /// Share (0..=1) of `template` executions that each version took.
    pub fn version_shares(&self, template: TemplateId, n_versions: usize) -> Vec<f64> {
        let hist = self.version_histogram(template, n_versions);
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return vec![0.0; n_versions];
        }
        hist.into_iter().map(|c| c as f64 / total as f64).collect()
    }

    /// Human-readable one-run summary.
    pub fn summary(&self, registry: &TemplateRegistry) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scheduler={} makespan={:.3}s tasks={}",
            self.scheduler,
            self.makespan.as_secs_f64(),
            self.tasks_executed
        );
        let _ = writeln!(
            out,
            "transfers: input={:.1}MB output={:.1}MB device={:.1}MB",
            self.transfers.input_bytes as f64 / 1e6,
            self.transfers.output_bytes as f64 / 1e6,
            self.transfers.device_bytes as f64 / 1e6,
        );
        if !self.failures.is_clean() {
            let _ = writeln!(
                out,
                "failures: {} retries={} quarantined={}",
                self.failures.failure_count(),
                self.failures.retries,
                self.failures.quarantined.len()
            );
        }
        for tpl in registry.iter() {
            let hist = self.version_histogram(tpl.id, tpl.version_count());
            if hist.iter().sum::<u64>() == 0 {
                continue;
            }
            let _ = write!(out, "{}:", tpl.name);
            for (i, count) in hist.iter().enumerate() {
                let _ = write!(out, " {}={}", tpl.version(VersionId(i as u16)).name, count);
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// One task's execution attempts in this run.
#[derive(Default)]
pub(crate) struct Attempts {
    /// Failed attempts so far; the next one is attempt `made + 1`.
    pub(crate) made: u32,
    /// How many of those were lost with their node: they advance the
    /// attempt number but never count against the retry budget.
    pub(crate) uncharged: u32,
}

/// Why a run stops early: the task that exhausted its retry budget,
/// the kind of its last failure, and that failure's message.
pub(crate) type Abort = (TaskId, FailureKind, String);

/// The per-run bookkeeping both engines share: the trace sink, the
/// completion tally, the failure path and the report. An engine opens
/// one per `run()` and hands it every completion and every failed
/// attempt; the clock, byte movement, how work reaches a worker and
/// node retirement stay in the engine.
pub(crate) struct RunTally {
    /// The unified tracer (`None` = tracing off; see `crate::tracing`).
    /// Worker events go to lane `worker.index()`, everything the
    /// coordinator does to the coordinator lane.
    pub(crate) sink: Option<Arc<TraceSink>>,
    /// Whether this run turned scheduler decision logging on (and must
    /// turn it off again).
    log_here: bool,
    version_counts: IdMap<(TemplateId, VersionId), u64>,
    worker_counts: Vec<u64>,
    worker_busy: Vec<Duration>,
    /// Per-worker staging and compute accounting; the engines add the
    /// staging side.
    pub(crate) worker_transfers: Vec<WorkerTransferStats>,
    tasks_executed: u64,
    failures: FailureReport,
}

impl RunTally {
    /// Open a run: create its trace sink, turn decision logging on if
    /// it is traced, and announce every live task at `now`.
    pub(crate) fn begin(rt: &mut Runtime, now: Ts) -> RunTally {
        let n = rt.workers.len();
        let sink = TraceSink::from_config(&rt.config.tracing, n);
        let log_here = crate::tracing::begin_decision_log(rt, &sink);
        crate::tracing::record_live_created(rt, &sink, now);
        RunTally {
            sink,
            log_here,
            version_counts: IdMap::default(),
            worker_counts: vec![0; n],
            worker_busy: vec![Duration::ZERO; n],
            worker_transfers: vec![WorkerTransferStats::default(); n],
            tasks_executed: 0,
            failures: FailureReport::default(),
        }
    }

    /// `tid` completed on `wid` after `kernel` of compute: release its
    /// successors and feed the measured time to the scheduler's profile.
    pub(crate) fn completed(
        &mut self,
        rt: &mut Runtime,
        tid: TaskId,
        wid: WorkerId,
        kernel: Duration,
    ) {
        rt.graph.complete(tid, wid);
        let node = rt.graph.node(tid);
        let assignment = node.assignment.expect("completed task had an assignment");
        rt.scheduler.task_finished(&node.instance, assignment, kernel);
        *self.version_counts.entry((node.instance.template, assignment.version)).or_insert(0) += 1;
        let wi = wid.index();
        self.worker_counts[wi] += 1;
        self.worker_busy[wi] += kernel;
        self.worker_transfers[wi].compute_time += kernel;
        self.tasks_executed += 1;
    }

    /// An attempt of `tid` on `wid` failed with `kind`: number it,
    /// record it (plus its `TaskFailed` trace event at `stamp` =
    /// `(lane, time)`, unless the engine's worker already recorded one),
    /// tell the scheduler, and requeue the task. A `NodeLost` attempt is
    /// charged to the node: it advances the attempt number but never
    /// checks the retry budget. Any other kind that exhausts
    /// [`max_task_retries`](crate::RuntimeConfig::max_task_retries)
    /// returns the abort instead of requeueing.
    #[must_use]
    pub(crate) fn failed(
        &mut self,
        rt: &mut Runtime,
        (tid, wid): (TaskId, WorkerId),
        (kind, message): (FailureKind, String),
        attempts: &mut Attempts,
        stamp: Option<(usize, Ts)>,
    ) -> Option<Abort> {
        attempts.made += 1;
        let attempt = attempts.made;
        let node = rt.graph.node(tid);
        let assignment = node.assignment.expect("failed task had an assignment");
        let version = assignment.version;
        if let (Some(sink), Some((lane, time))) = (&self.sink, stamp) {
            let (task, worker) = (tid, wid);
            sink.record(lane, TraceEvent::TaskFailed { time, task, worker, version, attempt });
        }
        self.failures.events.push(TaskFailure {
            task: tid,
            template: node.instance.template,
            version,
            worker: wid,
            kind,
            message: message.clone(),
            attempt,
        });
        rt.scheduler.task_failed(&node.instance, assignment, kind);
        if kind == FailureKind::NodeLost {
            attempts.uncharged += 1;
        } else if attempt - attempts.uncharged > rt.config.max_task_retries {
            return Some((tid, kind, message));
        }
        rt.graph.requeue(tid);
        self.failures.retries += 1;
        None
    }

    /// Close the run: turn decision logging back off, note what is left
    /// quarantined, and assemble the report — the run's result, or the
    /// partial report of the [`RunError`] that `abort` names.
    pub(crate) fn finish(
        mut self,
        rt: &mut Runtime,
        engine: &str,
        makespan: Duration,
        transfers: TransferStats,
        abort: Option<Abort>,
    ) -> Result<RunReport, RunError> {
        crate::tracing::end_decision_log(rt, self.log_here);
        self.failures.quarantined = rt.quarantined_versions();
        let report = RunReport {
            scheduler: rt.scheduler.name().to_string(),
            makespan,
            tasks_executed: self.tasks_executed,
            transfers,
            version_counts: self.version_counts.into_iter().collect(),
            worker_task_counts: self.worker_counts,
            worker_busy: self.worker_busy,
            worker_transfers: self.worker_transfers,
            completed: rt.graph.all_done(),
            trace: self.sink.map(|sink| sink.drain(crate::tracing::trace_meta(rt, engine))),
            failures: self.failures,
        };
        match abort {
            Some((task, kind, message)) => {
                Err(RunError { task, kind, message, report: Box::new(report) })
            }
            None => Ok(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use versa_core::DeviceKind;

    fn report() -> RunReport {
        let version_counts =
            [((TemplateId(0), VersionId(0)), 90), ((TemplateId(0), VersionId(2)), 10)].into();
        RunReport {
            scheduler: "versioning".into(),
            makespan: Duration::from_secs(2),
            tasks_executed: 100,
            transfers: TransferStats::default(),
            version_counts,
            worker_task_counts: vec![5, 5, 45, 45],
            worker_busy: vec![Duration::ZERO; 4],
            worker_transfers: vec![WorkerTransferStats::default(); 4],
            completed: true,
            trace: None,
            failures: FailureReport::default(),
        }
    }

    #[test]
    fn gflops_normalizes_by_makespan() {
        let r = report();
        // 200 GFLOP over 2 s = 100 GFLOP/s.
        assert!((r.gflops(200e9) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_fills_missing_versions_with_zero() {
        let r = report();
        assert_eq!(r.version_histogram(TemplateId(0), 3), vec![90, 0, 10]);
        assert_eq!(r.version_histogram(TemplateId(9), 2), vec![0, 0]);
    }

    #[test]
    fn shares_sum_to_one() {
        let r = report();
        let shares = r.version_shares(TemplateId(0), 3);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[0] - 0.9).abs() < 1e-12);
        assert_eq!(r.version_shares(TemplateId(9), 2), vec![0.0, 0.0]);
    }

    #[test]
    fn overlap_ratio_is_hidden_share_of_stage_time() {
        let mut w = WorkerTransferStats::default();
        assert_eq!(w.overlap_ratio(), 0.0, "no staging → no ratio");
        w.staged_bytes = 1000;
        w.staged_count = 2;
        w.stage_time = Duration::from_millis(100);
        w.overlap_time = Duration::from_millis(75);
        assert!((w.overlap_ratio() - 0.75).abs() < 1e-12);
        let mut acc = WorkerTransferStats::default();
        acc.merge(&w);
        acc.merge(&w);
        assert_eq!(acc.staged_bytes, 2000);
        assert_eq!(acc.staged_count, 4);
        assert_eq!(acc.stage_time, Duration::from_millis(200));
        assert!((acc.overlap_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_names_versions() {
        let mut reg = TemplateRegistry::new();
        reg.template("matmul_tile")
            .main("cublas", &[DeviceKind::Cuda])
            .version("cuda", &[DeviceKind::Cuda])
            .version("cblas", &[DeviceKind::Smp])
            .register();
        let s = report().summary(&reg);
        assert!(s.contains("cublas=90"));
        assert!(s.contains("cblas=10"));
        assert!(s.contains("scheduler=versioning"));
    }
}
