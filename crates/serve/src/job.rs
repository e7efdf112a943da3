//! Job descriptions, admission outcomes, tickets and reports.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;
use versa_core::{TemplateId, VersionId};
use versa_runtime::Runtime;

/// Service-assigned job identifier (monotonically increasing).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Finalizer run on the service thread once every task of the job is
/// done: read results back, verify, free the job's allocations. Its
/// `Err` is recorded as the job's outcome (the service keeps running).
pub type FinishFn = Box<dyn FnOnce(&mut Runtime) -> Result<(), String> + Send>;

/// Build closure: registers templates (idempotently — reuse
/// [`TemplateRegistry::by_name`](versa_core::TemplateRegistry::by_name)
/// so repeated jobs share one template and its learned profile),
/// allocates data and submits the job's task DAG, then returns the
/// [`FinishFn`] to run at completion.
pub(crate) type BuildFn = Box<dyn FnOnce(&mut Runtime) -> FinishFn + Send>;

/// Everything the service needs to admit and run one job.
pub struct JobSpec {
    /// Human-readable name (echoed in the [`JobReport`]).
    pub name: String,
    /// Complete-by budget measured from submission. Admission sheds the
    /// job up front when the backlog estimate already exceeds it; `None`
    /// disables shedding.
    pub deadline: Option<Duration>,
    /// Rough task count of the job, used only for the deadline
    /// feasibility estimate (0 = unknown, never shed).
    pub est_tasks: u64,
    pub(crate) build: BuildFn,
}

impl JobSpec {
    /// A job from a build closure.
    pub fn new(
        name: impl Into<String>,
        build: impl FnOnce(&mut Runtime) -> FinishFn + Send + 'static,
    ) -> JobSpec {
        JobSpec { name: name.into(), deadline: None, est_tasks: 0, build: Box::new(build) }
    }

    /// A job with no finalizer (nothing to read back or free).
    pub fn fire_and_forget(
        name: impl Into<String>,
        build: impl FnOnce(&mut Runtime) + Send + 'static,
    ) -> JobSpec {
        JobSpec::new(name, move |rt| {
            build(rt);
            Box::new(|_| Ok(()))
        })
    }

    /// Set the deadline and the task-count estimate backing its
    /// feasibility check.
    pub fn deadline(mut self, deadline: Duration, est_tasks: u64) -> Self {
        self.deadline = Some(deadline);
        self.est_tasks = est_tasks;
        self
    }
}

/// Why a submission was turned away at the door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue is full — back off and retry.
    QueueFull,
    /// The service is shutting down (or its thread is gone).
    ShuttingDown,
}

/// Result of [`Client::submit`](crate::Client::submit).
#[derive(Debug)]
pub enum SubmitOutcome {
    /// Admitted to the queue; redeem the ticket for the [`JobReport`].
    Accepted(JobTicket),
    /// Turned away; nothing was enqueued.
    Rejected(RejectReason),
    /// Shed by admission control: the current-backlog completion
    /// estimate already exceeds the job's deadline.
    Shed {
        /// Estimated completion latency at submission time.
        estimated: Duration,
        /// The deadline that estimate violates.
        deadline: Duration,
    },
}

impl SubmitOutcome {
    /// The ticket, if accepted.
    pub fn accepted(self) -> Option<JobTicket> {
        match self {
            SubmitOutcome::Accepted(t) => Some(t),
            _ => None,
        }
    }

    /// Whether the submission was rejected with a full queue.
    pub fn is_queue_full(&self) -> bool {
        matches!(self, SubmitOutcome::Rejected(RejectReason::QueueFull))
    }
}

/// Claim check for an accepted job: blocks (or polls) for its report.
#[derive(Debug)]
pub struct JobTicket {
    /// The service-assigned id of the job.
    pub id: JobId,
    pub(crate) rx: mpsc::Receiver<JobReport>,
}

impl JobTicket {
    /// Block until the job completes. If the service died before
    /// reporting, a synthetic report with an `Err` outcome is returned.
    pub fn wait(self) -> JobReport {
        let id = self.id;
        let gone = "service shut down before the job completed";
        self.rx.recv().unwrap_or_else(|_| JobReport::failed(id, String::new(), gone.into()))
    }

    /// The report, if the job already completed.
    pub fn try_wait(&self) -> Option<JobReport> {
        self.rx.try_recv().ok()
    }
}

/// What happened to one completed job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The service-assigned job id.
    pub job: JobId,
    /// The name from its [`JobSpec`].
    pub name: String,
    /// Tasks the job submitted.
    pub tasks: u64,
    /// Submission → admission (time spent queued).
    pub wait: Duration,
    /// Admission → completion (time in the runtime).
    pub exec: Duration,
    /// Submission → completion.
    pub turnaround: Duration,
    /// Waves the service had completed when the job was admitted.
    pub admitted_wave: u64,
    /// 1-based index of the wave that completed the job. Two jobs A and
    /// B overlapped iff `A.admitted_wave < B.completed_wave` and
    /// `B.admitted_wave < A.completed_wave`.
    pub completed_wave: u64,
    /// Executions per (template, version) — this job's tasks only.
    pub version_counts: HashMap<(TemplateId, VersionId), u64>,
    /// This job's tasks per worker, indexed by worker id.
    pub worker_task_counts: Vec<u64>,
    /// `Ok` or the finalizer's / service's failure description.
    pub outcome: Result<(), String>,
}

impl JobReport {
    /// The report of a job that never completed.
    pub(crate) fn failed(id: JobId, name: String, why: String) -> JobReport {
        JobReport {
            job: id,
            name,
            tasks: 0,
            wait: Duration::ZERO,
            exec: Duration::ZERO,
            turnaround: Duration::ZERO,
            admitted_wave: 0,
            completed_wave: 0,
            version_counts: HashMap::new(),
            worker_task_counts: Vec::new(),
            outcome: Err(why),
        }
    }

    /// Executions of `version` of `template` by this job's tasks.
    pub fn version_count(&self, template: TemplateId, version: VersionId) -> u64 {
        self.version_counts.get(&(template, version)).copied().unwrap_or(0)
    }
}
