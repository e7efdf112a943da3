//! Live service metrics: lock-free counters updated by the service
//! thread and the clients, queryable at any time — including while jobs
//! are in flight.
//!
//! Non-scalar state is split into independent fine-grained locks — one
//! per metric family, one per worker — so a snapshot reader never stalls
//! the serve loop for longer than a single family's copy, and a panic
//! while holding one lock poisons only that family, not every metric.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use versa_core::{TemplateId, VersionId};
use versa_runtime::WorkerTransferStats;
use versa_trace::{DecisionRecord, Phase, TraceEvent};

/// How many recent scheduler decisions the service keeps for inspection.
pub(crate) const DECISION_TAIL: usize = 64;
/// How many job admission/completion events the service keeps.
pub(crate) const JOB_EVENT_TAIL: usize = 256;

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
    /// Executions per (template, version) across all jobs.
    pub version_counts: Mutex<HashMap<(TemplateId, VersionId), u64>>,
    /// Per-worker accumulators, one lock per worker: wave merges touch
    /// each worker's stripe independently of snapshot readers.
    pub worker_stats: Vec<Mutex<WorkerStat>>,
    /// Decision ledger tail, per-(job, phase) histogram and trace drop
    /// counter (populated only when the runtime traces its waves).
    pub decisions: Mutex<DecisionLog>,
    /// Last [`JOB_EVENT_TAIL`] job admission/completion events. A job
    /// publishes both here in one lock acquisition when it completes,
    /// its `JobAdmitted` carrying the stamp taken at admission.
    pub job_events: Mutex<VecDeque<TraceEvent>>,
    /// Latest profile-hints snapshot published by the serve loop (only
    /// with `ServeConfig::gossip_hints`): lets a cluster coordinator
    /// gossip live warmth to joining workers mid-service. Held as an
    /// `Arc` so readers clone a pointer, not the whole hints text, under
    /// the lock.
    pub hints: Mutex<Option<Arc<str>>>,
}

/// Per-worker accumulated execution statistics.
#[derive(Default)]
pub(crate) struct WorkerStat {
    pub busy: Duration,
    pub tasks: u64,
    pub transfers: WorkerTransferStats,
}

/// Scheduler-decision telemetry harvested from wave traces.
#[derive(Default)]
pub(crate) struct DecisionLog {
    /// Last [`DECISION_TAIL`] scheduler decisions observed in wave
    /// traces (empty unless the runtime runs with tracing enabled).
    pub tail: VecDeque<DecisionRecord>,
    /// Decisions per (job, phase) across all traced waves.
    pub phases: HashMap<(Option<u64>, Phase), u64>,
    /// Trace events lost to ring overflow across all traced waves.
    pub dropped: u64,
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
            version_counts: Mutex::new(HashMap::new()),
            worker_stats: (0..workers).map(|_| Mutex::new(WorkerStat::default())).collect(),
            decisions: Mutex::new(DecisionLog::default()),
            job_events: Mutex::new(VecDeque::new()),
            hints: Mutex::new(None),
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let version_counts =
            self.version_counts.lock().expect("version-count metrics poisoned").clone();
        let mut worker_busy = Vec::with_capacity(self.workers);
        let mut worker_task_counts = Vec::with_capacity(self.workers);
        let mut worker_transfers = Vec::with_capacity(self.workers);
        for stat in &self.worker_stats {
            let s = stat.lock().expect("worker metrics poisoned");
            worker_busy.push(s.busy);
            worker_task_counts.push(s.tasks);
            worker_transfers.push(s.transfers.clone());
        }
        let (last_decisions, decision_phases, trace_dropped) = {
            let log = self.decisions.lock().expect("decision metrics poisoned");
            (log.tail.iter().cloned().collect(), log.phases.clone(), log.dropped)
        };
        let job_events =
            self.job_events.lock().expect("job-event ring poisoned").iter().cloned().collect();
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
            version_counts,
            worker_busy,
            worker_task_counts,
            worker_transfers,
            last_decisions,
            decision_phases,
            trace_dropped,
            job_events,
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
    pub last_decisions: Vec<DecisionRecord>,
    /// Decisions per (job, scheduling phase) across all traced waves.
    pub decision_phases: HashMap<(Option<u64>, Phase), u64>,
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
