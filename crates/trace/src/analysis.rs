//! Trace analysis: the aggregate views a performance engineer would pull
//! from Paraver on the real Nanos++ runtime — per-worker busy time and
//! utilization, per-category transfer occupancy and volume, per-version
//! execution counts (paper Table I), the scheduler's learning→reliable
//! phase transitions per (template, size-bucket), and a CSV timeline.
//!
//! Accounting reconciles exactly with the engine's `RunReport`:
//! * `busy[w]` sums the **measured kernel time** (`TaskEnd::kernel_ns`)
//!   of completed tasks — the same quantity the engines sum into
//!   `RunReport::worker_busy`.
//! * `transfer_bytes[kind]` matches `RunReport::transfers`.
//! * `version_counts` matches `RunReport::version_counts`.
//! * `failed_count` matches `RunReport::failures.failure_count()`.

use crate::event::{DecisionRecord, Phase, Trace, TraceEvent, Ts};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;
use versa_core::{BucketKey, TemplateId, VersionId, WorkerId};
use versa_mem::TransferKind;

/// One executed attempt interval on a worker. `start..end` is the wall
/// (or virtual-time) span the attempt occupied the worker; `kernel` is
/// the measured compute time inside it (equal to the span in the
/// simulator, slightly smaller on the native engine where the span also
/// covers buffer plumbing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskInterval {
    /// The worker that executed.
    pub worker: WorkerId,
    /// Attempt start.
    pub start: Ts,
    /// Attempt end.
    pub end: Ts,
    /// The task.
    pub task: versa_core::TaskId,
    /// Its template.
    pub template: TemplateId,
    /// The version that ran.
    pub version: VersionId,
    /// Measured kernel time (zero for failed attempts).
    pub kernel: Duration,
    /// Whether the attempt failed.
    pub failed: bool,
}

/// Decision counts per scheduling phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseMix {
    /// Learning-phase assignments.
    pub learning: u64,
    /// Reliable earliest-executor assignments.
    pub reliable: u64,
    /// Fallback assignments (profiles exhausted / quarantined).
    pub fallback: u64,
}

impl PhaseMix {
    /// Count one decision.
    pub(crate) fn count(&mut self, phase: Phase) {
        match phase {
            Phase::Learning => self.learning += 1,
            Phase::Reliable => self.reliable += 1,
            Phase::ReliableFallback => self.fallback += 1,
        }
    }
}

/// Aggregated view of one trace.
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    /// Timestamp of the last event in the trace.
    pub span: Ts,
    /// Measured kernel time of completed tasks per worker (reconciles
    /// with `RunReport::worker_busy`).
    pub busy: HashMap<WorkerId, Duration>,
    /// Executed attempt intervals, in start order (failed attempts
    /// included, flagged).
    pub intervals: Vec<TaskInterval>,
    /// Total link-busy time per transfer category.
    pub transfer_time: HashMap<TransferKind, Duration>,
    /// Total bytes moved per transfer category.
    pub transfer_bytes: HashMap<TransferKind, u64>,
    /// Completed executions per (template, version) — paper Table I.
    pub version_counts: HashMap<(TemplateId, VersionId), u64>,
    /// Number of tasks that completed.
    pub task_count: usize,
    /// Number of transfers that occurred.
    pub transfer_count: usize,
    /// Number of failed attempts (kernel faults + staging faults).
    pub failed_count: usize,
    /// The scheduler decision ledger, in time order.
    pub decisions: Vec<DecisionRecord>,
    /// Decision phase mix per (template, bucket).
    pub phase_mix: HashMap<(TemplateId, BucketKey), PhaseMix>,
    /// Cluster node losses, in time order (empty for single-node runs).
    pub node_losses: Vec<(Ts, u16)>,
    /// Events lost to ring overflow.
    pub dropped: u64,
}

impl TraceAnalysis {
    /// Analyze a trace. Start events are matched to their terminal event
    /// per task; a `TaskStart` without a terminal (truncated trace)
    /// contributes no interval.
    pub fn new(trace: &Trace) -> TraceAnalysis {
        let mut open: HashMap<u64, (WorkerId, Ts, TemplateId, VersionId)> = HashMap::new();
        let mut busy: HashMap<WorkerId, Duration> = HashMap::new();
        let mut intervals = Vec::new();
        let mut transfer_time: HashMap<TransferKind, Duration> = HashMap::new();
        let mut transfer_bytes: HashMap<TransferKind, u64> = HashMap::new();
        let mut version_counts: HashMap<(TemplateId, VersionId), u64> = HashMap::new();
        let mut decisions = Vec::new();
        let mut phase_mix: HashMap<(TemplateId, BucketKey), PhaseMix> = HashMap::new();
        let mut span = Ts::ZERO;
        let mut transfer_count = 0;
        let mut failed_count = 0;
        let mut task_count = 0;
        let mut node_losses = Vec::new();
        for ev in trace.events() {
            span = span.max(ev.time());
            match *ev {
                TraceEvent::TaskStart { time, task, worker, version, template, .. } => {
                    open.insert(task.0, (worker, time, template, version));
                }
                TraceEvent::TaskEnd { time, task, worker, kernel_ns } => {
                    span = span.max(time);
                    task_count += 1;
                    let kernel = Duration::from_nanos(kernel_ns);
                    *busy.entry(worker).or_default() += kernel;
                    if let Some((w, start, template, version)) = open.remove(&task.0) {
                        debug_assert_eq!(w, worker, "task moved workers mid-flight");
                        *version_counts.entry((template, version)).or_insert(0) += 1;
                        intervals.push(TaskInterval {
                            worker,
                            start,
                            end: time,
                            task,
                            template,
                            version,
                            kernel,
                            failed: false,
                        });
                    }
                }
                TraceEvent::TaskFailed { time, task, worker, version, .. } => {
                    // The failed attempt occupied its worker but produced
                    // nothing; it contributes no busy (kernel) time.
                    failed_count += 1;
                    if let Some((w, start, template, v)) = open.remove(&task.0) {
                        debug_assert_eq!((w, v), (worker, version), "attempt mismatch");
                        intervals.push(TaskInterval {
                            worker,
                            start,
                            end: time,
                            task,
                            template,
                            version,
                            kernel: Duration::ZERO,
                            failed: true,
                        });
                    }
                }
                TraceEvent::Transfer { start, end, from, to, bytes, .. } => {
                    span = span.max(end);
                    let kind = TransferKind::classify(from, to);
                    *transfer_time.entry(kind).or_default() += end - start;
                    *transfer_bytes.entry(kind).or_default() += bytes;
                    transfer_count += 1;
                }
                TraceEvent::Decision(ref d) => {
                    phase_mix.entry((d.template, d.bucket)).or_default().count(d.phase);
                    decisions.push(d.clone());
                }
                TraceEvent::NodeLost { time, node } => {
                    node_losses.push((time, node));
                }
                TraceEvent::TaskCreated { .. }
                | TraceEvent::TaskReady { .. }
                | TraceEvent::JobAdmitted { .. }
                | TraceEvent::JobCompleted { .. } => {}
            }
        }
        intervals.sort_by_key(|i| (i.start, i.worker));
        TraceAnalysis {
            span,
            busy,
            intervals,
            transfer_time,
            transfer_bytes,
            version_counts,
            task_count,
            transfer_count,
            failed_count,
            decisions,
            phase_mix,
            node_losses,
            dropped: trace.dropped,
        }
    }

    /// Fraction of the trace span a worker spent computing (0..=1).
    pub(crate) fn utilization(&self, worker: WorkerId) -> f64 {
        if self.span == Ts::ZERO {
            return 0.0;
        }
        self.busy.get(&worker).copied().unwrap_or(Duration::ZERO).as_secs_f64()
            / self.span.as_duration().as_secs_f64()
    }

    /// Check that no worker ever ran two attempts at once; returns the
    /// first violating pair if any (an engine-correctness invariant used
    /// by the test suite).
    pub fn find_overlap(&self) -> Option<(TaskInterval, TaskInterval)> {
        let mut last: HashMap<WorkerId, TaskInterval> = HashMap::new();
        for &iv in &self.intervals {
            if let Some(&prev) = last.get(&iv.worker) {
                if iv.start < prev.end {
                    return Some((prev, iv));
                }
            }
            let slot = last.entry(iv.worker).or_insert(iv);
            if iv.end > slot.end {
                *slot = iv;
            }
        }
        None
    }

    /// Render a per-worker utilization summary.
    pub fn utilization_table(&self) -> String {
        let mut workers: Vec<WorkerId> = self.busy.keys().copied().collect();
        workers.sort_unstable();
        let mut out = String::new();
        let _ = writeln!(out, "{:<8} {:>10} {:>8}", "worker", "busy (ms)", "util %");
        for w in workers {
            let busy = self.busy[&w];
            let _ = writeln!(
                out,
                "{:<8} {:>10.1} {:>8.1}",
                w.to_string(),
                busy.as_secs_f64() * 1e3,
                100.0 * self.utilization(w)
            );
        }
        out
    }

    /// Paper Table-I style per-version execution-count table.
    pub fn version_table(&self, meta: &crate::TraceMeta) -> String {
        let mut rows: Vec<(&(TemplateId, VersionId), &u64)> = self.version_counts.iter().collect();
        rows.sort_by_key(|(k, _)| **k);
        let mut out = String::new();
        let _ = writeln!(out, "{:<20} {:<16} {:>10}", "template", "version", "executions");
        for ((t, v), n) in rows {
            let _ = writeln!(
                out,
                "{:<20} {:<16} {:>10}",
                meta.template_name(*t),
                meta.version_name(*t, *v),
                n
            );
        }
        out
    }

    /// Bytes and link-busy time per transfer category.
    pub fn transfer_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<12} {:>14} {:>12}", "category", "bytes", "busy (ms)");
        for kind in [TransferKind::Input, TransferKind::Output, TransferKind::Device] {
            let bytes = self.transfer_bytes.get(&kind).copied().unwrap_or(0);
            let time = self.transfer_time.get(&kind).copied().unwrap_or(Duration::ZERO);
            let _ = writeln!(
                out,
                "{:<12} {:>14} {:>12.1}",
                kind.to_string(),
                bytes,
                time.as_secs_f64() * 1e3
            );
        }
        out
    }

    /// Learning→reliable phase-transition report per (template, bucket):
    /// how many learning assignments each profile bucket needed before
    /// the scheduler trusted its means, and when the switch happened.
    pub fn phase_report(&self, meta: &crate::TraceMeta) -> String {
        let mut keys: Vec<(TemplateId, BucketKey)> = self.phase_mix.keys().copied().collect();
        keys.sort_by_key(|&(t, b)| (t, b.0));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>7} {:>9} {:>9} {:>9} {:>14}",
            "template", "bucket", "learning", "reliable", "fallback", "reliable@ (ms)"
        );
        for key in keys {
            let mix = &self.phase_mix[&key];
            let first_reliable = self
                .decisions
                .iter()
                .find(|d| (d.template, d.bucket) == key && d.phase == Phase::Reliable)
                .map(|d| format!("{:.3}", d.time.as_duration().as_secs_f64() * 1e3))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:<20} {:>7} {:>9} {:>9} {:>9} {:>14}",
                meta.template_name(key.0),
                key.1 .0,
                mix.learning,
                mix.reliable,
                mix.fallback,
                first_reliable
            );
        }
        out
    }

    /// ASCII per-worker occupancy timeline: `#` compute, `x` failed
    /// attempt, `.` idle. Multi-node traces group workers under one
    /// header per cluster node, with `~` filling a lost node's rows from
    /// the loss instant onward.
    pub fn timeline(&self, meta: &crate::TraceMeta, cols: usize) -> String {
        let mut out = String::new();
        if self.span == Ts::ZERO {
            return out;
        }
        let cols = cols.max(10);
        let cell = |t: Ts| ((t.0 as u128 * cols as u128 / self.span.0.max(1) as u128) as usize).min(cols - 1);
        let mut workers: Vec<WorkerId> = self.busy.keys().copied().collect();
        for iv in &self.intervals {
            if !workers.contains(&iv.worker) {
                workers.push(iv.worker);
            }
        }
        let node_of = |w: WorkerId| {
            meta.workers.iter().find(|m| m.id == w).map_or(0, |m| m.node)
        };
        workers.sort_unstable_by_key(|&w| (node_of(w), w));
        let clustered = workers.iter().any(|&w| node_of(w) != 0);
        let mut current_node: Option<u16> = None;
        for w in workers {
            let node = node_of(w);
            if clustered && current_node != Some(node) {
                current_node = Some(node);
                let lost = self.node_losses.iter().find(|(_, n)| *n == node);
                let label = if node == 0 { "coordinator".to_string() } else { format!("node {node}") };
                match lost {
                    Some((at, _)) => {
                        let _ = writeln!(out, "-- {label} (lost at {at}) --");
                    }
                    None => {
                        let _ = writeln!(out, "-- {label} --");
                    }
                }
            }
            let mut row = vec!['.'; cols];
            for iv in self.intervals.iter().filter(|iv| iv.worker == w) {
                let glyph = if iv.failed { 'x' } else { '#' };
                for c in row.iter_mut().take(cell(iv.end) + 1).skip(cell(iv.start)) {
                    *c = glyph;
                }
            }
            if let Some(&(at, _)) = self.node_losses.iter().find(|(_, n)| *n == node) {
                for c in row.iter_mut().skip(cell(at)) {
                    if *c == '.' {
                        *c = '~';
                    }
                }
            }
            let _ = writeln!(
                out,
                "{:<10} {}",
                meta.worker_label(w),
                row.into_iter().collect::<String>()
            );
        }
        out
    }
}

/// Export a trace as CSV (`kind,start_ns,end_ns,who,what`) for external
/// timeline tools. Rows: completed attempts (`task`), failed attempts
/// (`failed`), transfers (`transfer`) and decisions (`decision`).
pub fn to_csv(trace: &Trace) -> String {
    let mut out = String::from("kind,start_ns,end_ns,who,what\n");
    let a = TraceAnalysis::new(trace);
    let mut rows: Vec<(u64, String)> = Vec::new();
    for iv in &a.intervals {
        rows.push((
            iv.start.0,
            if iv.failed {
                format!("failed,{},{},{},t{}v{}", iv.start.0, iv.end.0, iv.worker, iv.task.0, iv.version.0)
            } else {
                format!("task,{},{},{},t{}v{}", iv.start.0, iv.end.0, iv.worker, iv.task.0, iv.version.0)
            },
        ));
    }
    for ev in trace.events() {
        match ev {
            TraceEvent::Transfer { start, end, data, from, to, bytes, .. } => {
                rows.push((
                    start.0,
                    format!("transfer,{},{},{from}->{to},{data:?}:{bytes}B", start.0, end.0),
                ));
            }
            TraceEvent::Decision(d) => {
                rows.push((
                    d.time.0,
                    format!(
                        "decision,{},{},{},t{}v{}:{}",
                        d.time.0,
                        d.time.0,
                        d.worker,
                        d.task.0,
                        d.version.0,
                        d.phase.label()
                    ),
                ));
            }
            _ => {}
        }
    }
    rows.sort_by_key(|(t, _)| *t);
    for (_, row) in rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceMeta;
    use versa_core::TaskId;
    use versa_mem::{DataId, MemSpace};

    fn start(t: u64, task: u64, w: u16, v: u16) -> TraceEvent {
        TraceEvent::TaskStart {
            time: Ts(t),
            task: TaskId(task),
            worker: WorkerId(w),
            version: VersionId(v),
            template: TemplateId(0),
            attempt: 1,
        }
    }

    fn end(t: u64, task: u64, w: u16, kernel: u64) -> TraceEvent {
        TraceEvent::TaskEnd { time: Ts(t), task: TaskId(task), worker: WorkerId(w), kernel_ns: kernel }
    }

    fn sample_trace() -> Trace {
        Trace::new(
            TraceMeta::default(),
            vec![
                start(0, 1, 0, 0),
                end(100, 1, 0, 100),
                start(100, 2, 0, 0),
                end(250, 2, 0, 150),
                start(50, 3, 1, 1),
                end(150, 3, 1, 100),
                TraceEvent::Transfer {
                    start: Ts(0),
                    end: Ts(40),
                    data: DataId(0),
                    from: MemSpace::HOST,
                    to: MemSpace::device(0),
                    bytes: 64,
                    by: Some(WorkerId(1)),
                },
            ],
            0,
        )
    }

    #[test]
    fn busy_time_sums_measured_kernels() {
        let a = TraceAnalysis::new(&sample_trace());
        assert_eq!(a.busy[&WorkerId(0)], Duration::from_nanos(250));
        assert_eq!(a.busy[&WorkerId(1)], Duration::from_nanos(100));
        assert_eq!(a.task_count, 3);
        assert_eq!(a.transfer_count, 1);
        assert_eq!(a.span, Ts(250));
        assert_eq!(a.version_counts[&(TemplateId(0), VersionId(0))], 2);
        assert_eq!(a.version_counts[&(TemplateId(0), VersionId(1))], 1);
        assert_eq!(a.transfer_bytes[&TransferKind::Input], 64);
    }

    #[test]
    fn utilization_is_busy_over_span() {
        let a = TraceAnalysis::new(&sample_trace());
        assert!((a.utilization(WorkerId(0)) - 1.0).abs() < 1e-12);
        assert!((a.utilization(WorkerId(1)) - 0.4).abs() < 1e-12);
        assert_eq!(a.utilization(WorkerId(9)), 0.0);
    }

    #[test]
    fn failed_attempts_form_intervals_but_not_busy() {
        let mut evs = vec![
            start(0, 1, 0, 0),
            TraceEvent::TaskFailed {
                time: Ts(80),
                task: TaskId(1),
                worker: WorkerId(0),
                version: VersionId(0),
                attempt: 1,
            },
        ];
        evs.push(start(80, 1, 0, 0));
        evs.push(end(200, 1, 0, 120));
        let a = TraceAnalysis::new(&Trace::new(TraceMeta::default(), evs, 0));
        assert_eq!(a.failed_count, 1);
        assert_eq!(a.task_count, 1);
        assert_eq!(a.intervals.len(), 2);
        assert!(a.intervals[0].failed);
        assert_eq!(a.busy[&WorkerId(0)], Duration::from_nanos(120));
        assert_eq!(a.find_overlap(), None);
    }

    #[test]
    fn overlap_is_detected() {
        let a = TraceAnalysis::new(&Trace::new(
            TraceMeta::default(),
            vec![start(0, 1, 0, 0), end(100, 1, 0, 100), start(50, 2, 0, 0), end(150, 2, 0, 100)],
            0,
        ));
        assert!(a.find_overlap().is_some());
    }

    #[test]
    fn phase_mix_counts_decisions() {
        let mk = |t: u64, phase: Phase| {
            TraceEvent::Decision(DecisionRecord {
                time: Ts(t),
                task: TaskId(t),
                template: TemplateId(0),
                bucket: BucketKey(3),
                job: None,
                phase,
                worker: WorkerId(0),
                version: VersionId(0),
                bids: Vec::new(),
                candidates: Vec::new(),
                workers: Vec::new(),
            })
        };
        let a = TraceAnalysis::new(&Trace::new(
            TraceMeta::default(),
            vec![mk(0, Phase::Learning), mk(1, Phase::Learning), mk(2, Phase::Reliable)],
            0,
        ));
        let mix = &a.phase_mix[&(TemplateId(0), BucketKey(3))];
        assert_eq!((mix.learning, mix.reliable, mix.fallback), (2, 1, 0));
        assert_eq!(a.decisions.len(), 3);
        let report = a.phase_report(&TraceMeta::default());
        assert!(report.contains("tpl0"));
    }

    #[test]
    fn tables_render() {
        let a = TraceAnalysis::new(&sample_trace());
        let ut = a.utilization_table();
        assert!(ut.contains("w0"));
        assert!(ut.contains("100.0"));
        let vt = a.version_table(&TraceMeta::default());
        assert!(vt.contains("executions"));
        assert!(vt.contains("tpl0"));
        let tt = a.transfer_table();
        assert!(tt.contains("Input Tx"));
        assert!(tt.contains("64"));
        let tl = a.timeline(&TraceMeta::default(), 40);
        assert!(tl.contains('#'));
    }

    #[test]
    fn csv_lists_tasks_and_transfers() {
        let csv = to_csv(&sample_trace());
        assert!(csv.starts_with("kind,start_ns,end_ns"));
        assert!(csv.contains("task,0,100,w0,t1v0"));
        assert!(csv.contains("transfer,0,40,host->dev0,d0:64B"));
        assert_eq!(csv.lines().count(), 1 + 3 + 1);
    }
}
