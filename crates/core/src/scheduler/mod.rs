//! Scheduling policies.
//!
//! Three policies from the paper's evaluation (§V-A), plus the
//! locality-aware extension of §VII:
//!
//! * `DepAwareScheduler` — "tries to find chains of dependencies and
//!   schedule consecutive tasks of the same chain to the same device. Its
//!   decisions are fast, but in some cases cannot fully exploit data
//!   locality."
//! * [`AffinityScheduler`] — "for each task, it evaluates the amount of
//!   data that should be transferred to a certain device in order to
//!   execute the task \[and\] chooses the device where the minimum amount
//!   of data must be transferred."
//! * [`VersioningScheduler`] — the paper's contribution (§IV): learns
//!   per-version execution times and assigns each task to its *earliest
//!   executor*.
//!
//! Schedulers are engine-agnostic: an execution engine calls
//! [`Scheduler::assign`] when a task becomes ready and
//! [`Scheduler::task_finished`] when it completes, passing measured
//! execution times. Only the versioning scheduler supports tasks with
//! more than one implementation; the baselines run the *main* version
//! exclusively (paper footnote 1).

mod affinity;
mod breadth_first;
mod dep_aware;
pub(crate) mod policy;
mod versioning;

pub use affinity::AffinityScheduler;
pub(crate) use breadth_first::BreadthFirstScheduler;
pub(crate) use dep_aware::DepAwareScheduler;
pub use policy::{
    CandidateStats, Policy, PolicyChoice, PolicyCtx, PolicyKind, RepresentativeSet,
    RoundRobinLearning, WorkerSnap,
};
pub use versioning::{Decision, DecisionPhase, VersioningConfig, VersioningScheduler, WorkerBid};

use crate::{TaskInstance, TemplateRegistry, VersionId, WorkerId, WorkerState};
use std::time::Duration;
use versa_mem::Directory;

/// Why a task execution failed (fed back to the scheduler through
/// [`Scheduler::task_failed`] so it can learn which versions misbehave,
/// not just which are slow).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A native kernel panicked on its worker thread.
    Panic,
    /// The simulated platform injected a fault (see `versa-sim`'s
    /// `FaultPlan`).
    Fault,
    /// The node hosting the worker disappeared (connection lost or
    /// heartbeat timeout). Says nothing about the health of the task's
    /// version, so the versioning scheduler does not charge a quarantine
    /// strike for it — the node, not the code, is quarantined (by the
    /// cluster membership layer).
    NodeLost,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::Fault => write!(f, "fault"),
            FailureKind::NodeLost => write!(f, "node-lost"),
        }
    }
}

/// The scheduler's answer for one ready task: which worker runs it, which
/// implementation it runs, and the execution-time estimate backing the
/// decision (added to the worker's busy time; zero when unknown).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Chosen worker.
    pub worker: WorkerId,
    /// Chosen implementation.
    pub version: VersionId,
    /// Estimated execution time used for busy-time accounting.
    pub estimate: Duration,
}

/// Read-only view of runtime state a scheduler may consult.
pub struct SchedCtx<'a> {
    /// All registered task version sets.
    pub templates: &'a TemplateRegistry,
    /// Per-worker queues and busy estimates, indexed by worker id.
    pub workers: &'a [WorkerState],
    /// Coherence directory (data placement), for affinity decisions.
    pub directory: &'a Directory,
    /// The worker that executed the most recently finished producer of
    /// one of this task's inputs, if any — the "dependency chain" signal
    /// the dependency-aware scheduler follows.
    pub chain_hint: Option<WorkerId>,
}

/// A scheduling policy.
pub trait Scheduler: Send {
    /// Short policy name (used in reports and figure labels).
    fn name(&self) -> &'static str;

    /// Decide where (and as which version) a ready task runs. Called
    /// exactly once per task, when it becomes ready (all dependencies
    /// satisfied).
    fn assign(&mut self, task: &TaskInstance, ctx: &SchedCtx<'_>) -> Assignment;

    /// Observe a completed execution and its measured duration. The
    /// default implementation ignores it; the versioning scheduler feeds
    /// its profile store.
    fn task_finished(
        &mut self,
        task: &TaskInstance,
        assignment: Assignment,
        measured: Duration,
    ) {
        let _ = (task, assignment, measured);
    }

    /// Observe a completed data transfer into `to`: `bytes` moved in
    /// `elapsed` wall (or virtual) time. The default implementation
    /// ignores it; the versioning scheduler maintains a per-space
    /// bandwidth EWMA — learned online exactly like the paper's mean
    /// execution times — that prices the transfer term of its
    /// earliest-executor estimate.
    fn transfer_done(&mut self, to: versa_mem::MemSpace, bytes: u64, elapsed: Duration) {
        let _ = (to, bytes, elapsed);
    }

    /// Observe a failed execution (kernel panic in the native engine, or
    /// an injected fault in the simulator). The default implementation
    /// ignores it; the versioning scheduler counts failures per
    /// (template, version, size-group) and quarantines versions that
    /// fail repeatedly so subsequent assignments route around them.
    fn task_failed(&mut self, task: &TaskInstance, assignment: Assignment, kind: FailureKind) {
        let _ = (task, assignment, kind);
    }

    /// Mark the start of a batch of [`Scheduler::assign`] /
    /// [`Scheduler::eager`] calls over `frontier`. No scheduler in this
    /// crate overrides it and neither engine calls it: the versioning
    /// scheduler computes every decision's inputs in place into reused
    /// buffers, which costs less than a per-wave cache did. The no-op
    /// pair stays only because the benchmark's `core` probe still
    /// brackets its waves with it; decisions are identical either way.
    fn begin_wave(&mut self, frontier: &[&TaskInstance], ctx: &SchedCtx<'_>) {
        let _ = (frontier, ctx);
    }

    /// End a batch begun by [`Scheduler::begin_wave`]; a no-op.
    fn end_wave(&mut self) {}

    /// Whether `task` should be pushed to a worker queue immediately
    /// (look-ahead assignment) or held centrally until a worker runs dry.
    ///
    /// The versioning scheduler answers `false` while the task's size
    /// group is still in the learning phase: the paper's learning phase
    /// "consists of picking task versions from ready tasks in a
    /// Round-Robin fashion and distributing them among OmpSs workers" —
    /// i.e. one at a time as workers ask for work, not bulk-enqueued,
    /// which would flood slow versions when a wide frontier becomes ready
    /// at once. Defaults to `true` (baselines always push eagerly).
    fn eager(&self, task: &TaskInstance, ctx: &SchedCtx<'_>) -> bool {
        let _ = (task, ctx);
        true
    }

    /// Downcast to the versioning scheduler, if that is what this is
    /// (used to render Table I dumps and seed profile hints).
    fn as_versioning(&self) -> Option<&VersioningScheduler> {
        None
    }

    /// Mutable variant of [`Scheduler::as_versioning`].
    fn as_versioning_mut(&mut self) -> Option<&mut VersioningScheduler> {
        None
    }
}

/// Selector for [`make_scheduler`]; the programmatic analogue of choosing
/// a Nanos++ scheduler plug-in "through configuration arguments or
/// environment variables" (paper §III).
#[derive(Clone, Debug, PartialEq)]
pub enum SchedulerKind {
    /// Nanos++'s default FIFO baseline (not in the paper's trio).
    BreadthFirst,
    /// The dependency-aware baseline.
    DepAware,
    /// The affinity (minimum-transfer) baseline.
    Affinity,
    /// The paper's versioning scheduler.
    Versioning(VersioningConfig),
}

impl SchedulerKind {
    /// Versioning scheduler with the paper's defaults.
    pub fn versioning() -> SchedulerKind {
        SchedulerKind::Versioning(VersioningConfig::default())
    }

    /// Versioning scheduler with the §VII locality-aware extension.
    pub fn locality_versioning() -> SchedulerKind {
        SchedulerKind::Versioning(VersioningConfig { locality_aware: true, ..Default::default() })
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::BreadthFirst => "bf",
            SchedulerKind::DepAware => "dep",
            SchedulerKind::Affinity => "aff",
            SchedulerKind::Versioning(cfg) if cfg.locality_aware => "locver",
            SchedulerKind::Versioning(_) => "ver",
        }
    }
}

/// Instantiate a scheduler from its selector.
pub fn make_scheduler(kind: &SchedulerKind) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::BreadthFirst => Box::new(BreadthFirstScheduler::new()),
        SchedulerKind::DepAware => Box::new(DepAwareScheduler::new()),
        SchedulerKind::Affinity => Box::new(AffinityScheduler::new()),
        SchedulerKind::Versioning(cfg) => Box::new(VersioningScheduler::new(cfg.clone())),
    }
}

/// Workers able to run version `version` of `task`'s template.
pub(crate) fn compatible_workers<'a>(
    ctx: &'a SchedCtx<'_>,
    task: &'a TaskInstance,
    version: VersionId,
) -> impl Iterator<Item = &'a WorkerState> + 'a {
    let tpl = ctx.templates.get(task.template);
    ctx.workers
        .iter()
        .filter(move |w| !w.is_retired() && tpl.version(version).runs_on(w.info.device))
}

/// Queue pressure of a worker: queued tasks plus the running one.
pub(crate) fn queue_pressure(w: &WorkerState) -> usize {
    w.queue_len() + usize::from(w.running().is_some())
}

/// Least-loaded worker among `candidates` by `(queue pressure, busy
/// estimate, id)` — deterministic.
pub(crate) fn least_loaded<'a>(
    candidates: impl Iterator<Item = &'a WorkerState>,
) -> Option<&'a WorkerState> {
    candidates.min_by_key(|w| (queue_pressure(w), w.estimated_busy(), w.info.id))
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for scheduler unit tests.

    use crate::{
        DeviceKind, TaskId, TaskInstance, TemplateId, TemplateRegistry, WorkerId, WorkerInfo,
        WorkerState,
    };
    use versa_mem::{AccessMode, DataId, Directory, MemSpace, Region};

    /// 2 SMP workers (w0, w1) + 2 GPU workers (w2, w3).
    pub(crate) fn workers_2smp_2gpu() -> Vec<WorkerState> {
        let mut out = Vec::new();
        for i in 0..2u16 {
            out.push(WorkerState::new(WorkerInfo {
                id: WorkerId(i),
                device: DeviceKind::Smp,
                space: MemSpace::HOST,
            }));
        }
        for g in 0..2u16 {
            out.push(WorkerState::new(WorkerInfo {
                id: WorkerId(2 + g),
                device: DeviceKind::Cuda,
                space: MemSpace::device(g),
            }));
        }
        out
    }

    /// A registry with a hybrid template (CUBLAS main on CUDA, hand-CUDA
    /// alt, CBLAS alt on SMP) registered as `"matmul_tile"`.
    pub(crate) fn hybrid_registry() -> (TemplateRegistry, TemplateId) {
        let mut reg = TemplateRegistry::new();
        let id = reg
            .template("matmul_tile")
            .main("cublas", &[DeviceKind::Cuda])
            .version("cuda", &[DeviceKind::Cuda])
            .version("cblas", &[DeviceKind::Smp])
            .register();
        (reg, id)
    }

    /// A task reading `a` and writing `c`, both of `bytes` bytes.
    pub(crate) fn task(
        id: u64,
        template: TemplateId,
        a: DataId,
        c: DataId,
        bytes: u64,
    ) -> TaskInstance {
        let accesses = vec![
            (Region::whole(a, bytes), AccessMode::In),
            (Region::whole(c, bytes), AccessMode::InOut),
        ];
        TaskInstance { id: TaskId(id), template, accesses, data_set_size: 2 * bytes, job: None }
    }

    /// A directory with `a` and `c` registered on the host.
    pub(crate) fn directory(a: DataId, c: DataId, bytes: u64) -> Directory {
        let dir = Directory::new();
        dir.register(a, bytes, MemSpace::HOST);
        dir.register(c, bytes, MemSpace::HOST);
        dir
    }
}
