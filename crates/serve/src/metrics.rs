//! Live service metrics, queryable at any time — including while jobs
//! are in flight.
//!
//! The scalar counters are atomics: clients write some of them and read
//! `live_tasks`, `ewma_task_ns` and `active_jobs` outside any snapshot.
//! Everything else only the service thread writes, and it sits in one
//! mutex-guarded [`Books`] that the service thread takes once per wave.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use versa_core::scheduler::{Decision, DecisionPhase};
use versa_core::{TemplateId, VersionId};
use versa_runtime::{RunReport, WorkerTransferStats};
use versa_trace::TraceEvent;

/// How many recent scheduler decisions the service keeps for inspection.
const DECISION_TAIL: usize = 64;
/// How many job admission/completion events the service keeps.
const JOB_EVENT_TAIL: usize = 256;

/// State shared between the service thread and every client handle.
pub(crate) struct Shared {
    /// Every `submit` call, whatever its outcome — the accounting
    /// identity `submitted == accepted + rejected_queue_full +
    /// rejected_shutdown + shed_deadline` must hold at quiescence.
    pub submitted: AtomicU64,
    pub accepted: AtomicU64,
    pub rejected_queue_full: AtomicU64,
    pub rejected_shutdown: AtomicU64,
    pub shed_deadline: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    /// Submissions accepted but not yet admitted by the service thread.
    pub queue_depth: AtomicU64,
    /// Jobs admitted and not yet completed.
    pub active_jobs: AtomicU64,
    /// Tasks admitted and not yet executed.
    pub live_tasks: AtomicU64,
    pub tasks_executed: AtomicU64,
    pub waves: AtomicU64,
    /// EWMA of per-task kernel time in ns (0 = no sample yet); feeds the
    /// deadline-feasibility estimate on the client side.
    pub ewma_task_ns: AtomicU64,
    /// False once shutdown begins: clients stop submitting.
    pub accepting: AtomicBool,
    pub next_job: AtomicU64,
    pub workers: usize,
    /// Service epoch — job events and decision tails are stamped with
    /// offsets from it, matching the trace timestamp convention.
    pub started: Instant,
    books: Mutex<Books>,
}

/// The metrics only the service thread writes, named as in
/// [`MetricsSnapshot`], with the two tails kept as rings. The service
/// thread takes the lock once per wave, to merge the wave and publish
/// the event pairs of the jobs the wave finished.
#[derive(Default)]
pub(crate) struct Books {
    version_counts: HashMap<(TemplateId, VersionId), u64>,
    worker_busy: Vec<Duration>,
    worker_task_counts: Vec<u64>,
    worker_transfers: Vec<WorkerTransferStats>,
    last_decisions: VecDeque<Decision>,
    decision_phases: HashMap<(Option<u64>, DecisionPhase), u64>,
    trace_dropped: u64,
    job_events: VecDeque<TraceEvent>,
}

impl Books {
    /// Merge one wave's per-worker, per-version and trace-harvested
    /// counts.
    pub(crate) fn merge_wave(&mut self, report: &RunReport) {
        for (key, n) in &report.version_counts {
            *self.version_counts.entry(*key).or_insert(0) += n;
        }
        for (i, busy) in report.worker_busy.iter().enumerate() {
            self.worker_busy[i] += *busy;
            self.worker_task_counts[i] += report.worker_task_counts[i];
            self.worker_transfers[i].merge(&report.worker_transfers[i]);
        }
        // The wave's trace, when the runtime records one, feeds the
        // decision tail, the per-(job, phase) counts and the drop counter.
        if let Some(trace) = &report.trace {
            self.trace_dropped += trace.dropped;
            for ev in trace.events() {
                if let TraceEvent::Decision { decision: d, .. } = ev {
                    *self.decision_phases.entry((d.job, d.phase)).or_insert(0) += 1;
                    if self.last_decisions.len() >= DECISION_TAIL {
                        self.last_decisions.pop_front();
                    }
                    self.last_decisions.push_back(d.clone());
                }
            }
        }
    }

    /// Append job events, keeping the ring bounded.
    pub(crate) fn push_job_events(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        for ev in events {
            if self.job_events.len() >= JOB_EVENT_TAIL {
                self.job_events.pop_front();
            }
            self.job_events.push_back(ev);
        }
    }
}

impl Shared {
    pub(crate) fn new(workers: usize) -> Shared {
        Shared {
            submitted: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            active_jobs: AtomicU64::new(0),
            live_tasks: AtomicU64::new(0),
            tasks_executed: AtomicU64::new(0),
            waves: AtomicU64::new(0),
            ewma_task_ns: AtomicU64::new(0),
            accepting: AtomicBool::new(true),
            next_job: AtomicU64::new(0),
            workers,
            started: Instant::now(),
            books: Mutex::new(Books {
                worker_busy: vec![Duration::ZERO; workers],
                worker_task_counts: vec![0; workers],
                worker_transfers: vec![WorkerTransferStats::default(); workers],
                ..Books::default()
            }),
        }
    }

    pub(crate) fn books(&self) -> MutexGuard<'_, Books> {
        // The books are plain counters and rings, so a wave merge that a
        // panic cut short still leaves them readable: take them anyway.
        self.books.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let books = self.books();
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            active_jobs: self.active_jobs.load(Ordering::Relaxed),
            live_tasks: self.live_tasks.load(Ordering::Relaxed),
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            waves: self.waves.load(Ordering::Relaxed),
            mean_task: {
                let ns = self.ewma_task_ns.load(Ordering::Relaxed);
                (ns > 0).then(|| Duration::from_nanos(ns))
            },
            version_counts: books.version_counts.clone(),
            worker_busy: books.worker_busy.clone(),
            worker_task_counts: books.worker_task_counts.clone(),
            worker_transfers: books.worker_transfers.clone(),
            last_decisions: books.last_decisions.iter().cloned().collect(),
            decision_phases: books.decision_phases.clone(),
            trace_dropped: books.trace_dropped,
            job_events: books.job_events.iter().cloned().collect(),
        }
    }
}

/// A point-in-time copy of the service counters — consistent enough for
/// monitoring (scalar counters are read individually, not atomically as
/// a group).
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Every submission attempt, whatever its outcome. At quiescence
    /// `submitted == accepted + rejected_queue_full + rejected_shutdown
    /// + shed_deadline`: no submission is lost to the books.
    pub submitted: u64,
    /// Submissions accepted into the queue.
    pub accepted: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Submissions rejected because the service was shutting down (or
    /// already gone).
    pub rejected_shutdown: u64,
    /// Submissions shed because their deadline looked infeasible.
    pub shed_deadline: u64,
    /// Jobs completed with an `Ok` outcome.
    pub completed: u64,
    /// Jobs completed with an `Err` outcome (finalizer failure or
    /// service abort).
    pub failed: u64,
    /// Submissions accepted but not yet admitted by the service thread.
    pub queue_depth: u64,
    /// Jobs admitted and not yet completed.
    pub active_jobs: u64,
    /// Tasks admitted and not yet executed.
    pub live_tasks: u64,
    /// Tasks executed since the service started.
    pub tasks_executed: u64,
    /// Waves the service has run.
    pub waves: u64,
    /// Smoothed per-task kernel time, once at least one wave executed
    /// something.
    pub mean_task: Option<Duration>,
    /// Executions per (template, version) across all jobs.
    pub version_counts: HashMap<(TemplateId, VersionId), u64>,
    /// Accumulated kernel time per worker.
    pub worker_busy: Vec<Duration>,
    /// Tasks executed per worker.
    pub worker_task_counts: Vec<u64>,
    /// Accumulated per-worker transfer staging breakdown (bytes staged,
    /// staging vs compute time, overlap) across all waves.
    pub worker_transfers: Vec<WorkerTransferStats>,
    /// The most recent scheduler decisions (oldest first, at most
    /// `DECISION_TAIL`), harvested from wave traces. Empty unless the
    /// service's runtime was built with `RuntimeConfig::tracing` on.
    pub last_decisions: Vec<Decision>,
    /// Decisions per (job, scheduling phase) across all traced waves.
    pub decision_phases: HashMap<(Option<u64>, DecisionPhase), u64>,
    /// Trace events lost to ring overflow across all traced waves — a
    /// non-zero value means the lane capacity is too small for the
    /// service's wave size.
    pub trace_dropped: u64,
    /// Recent job admission/completion events
    /// ([`TraceEvent::JobAdmitted`] / [`TraceEvent::JobCompleted`]),
    /// stamped with offsets from service start. Both events of a job are
    /// published when it completes, `JobAdmitted` first and stamped at
    /// admission, so a job still in flight is visible through
    /// `active_jobs`, not here.
    pub job_events: Vec<TraceEvent>,
}

impl MetricsSnapshot {
    /// Per-worker utilization over `elapsed` (busy time / wall time),
    /// clamped to 1.
    pub fn utilization(&self, elapsed: Duration) -> Vec<f64> {
        let wall = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        self.worker_busy.iter().map(|b| (b.as_secs_f64() / wall).min(1.0)).collect()
    }
}
