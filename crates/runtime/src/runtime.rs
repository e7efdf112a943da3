//! The user-facing runtime: data allocation, task submission, execution.

use crate::assign::Wave;
use crate::fair::FairState;
use crate::graph::TaskGraph;
use crate::native::{KernelCtx, NativeConfig};
use crate::report::QuarantinedVersion;
use crate::sim_engine::InFlight;
use crate::{RunError, RunReport, RuntimeConfig};
// `DetachedExecutor` looks kernels up by template name.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use versa_core::{
    make_scheduler, DeviceKind, Scheduler, TaskId, TaskInstance, TemplateBuilder,
    TemplateId, TemplateRegistry, VersionId, VersioningScheduler, WorkerId, WorkerInfo,
    WorkerState,
};
use versa_mem::{
    AccessMode, AlignedBuf, Arena, DataId, DeviceCache, Directory, IdMap, MemSpace, Region,
};
use versa_sim::{CostTable, PlatformConfig};

/// A task implementation body for native execution.
pub(crate) type NativeFn = Arc<dyn Fn(&mut KernelCtx<'_>) + Send + Sync>;

pub(crate) enum EngineKind {
    /// Virtual-time execution on a simulated heterogeneous node. The
    /// device caches persist across runs/waves so residency decisions
    /// made for one job carry over to the next; the in-flight table is
    /// empty between runs and kept only so a wave does not allocate it.
    Sim {
        platform: PlatformConfig,
        caches: Option<Vec<DeviceCache>>,
        in_flight: IdMap<TaskId, InFlight>,
    },
    /// Real execution on OS threads with emulated accelerator devices.
    Native { cfg: NativeConfig, arena: Arc<Arena> },
}

/// The versa runtime: an OmpSs-like task runtime with multi-version task
/// scheduling.
///
/// Construct with [`Runtime::simulated`] (virtual time; reproduces the
/// paper's experiments without GPUs) or [`Runtime::native`] (real threads,
/// real memory copies, real kernels). Then:
///
/// 1. register task templates and their versions ([`Runtime::template`]);
/// 2. bind execution costs ([`Runtime::bind_cost`], simulated runs) and/or
///    kernel bodies ([`Runtime::bind_native`], native runs);
/// 3. allocate data ([`Runtime::alloc_bytes`], [`Runtime::alloc_from_f64`], …);
/// 4. submit tasks ([`Runtime::task`]);
/// 5. [`Runtime::run`] — the `taskwait`: executes everything submitted so
///    far and returns a [`RunReport`].
///
/// State (data placement, scheduler profiles) persists across `run()`
/// calls, so iterative applications keep benefiting from what the
/// versioning scheduler has learned.
///
/// ```
/// use std::time::Duration;
/// use versa_core::{DeviceKind, SchedulerKind, VersionId};
/// use versa_runtime::{Runtime, RuntimeConfig};
/// use versa_sim::PlatformConfig;
///
/// let mut rt = Runtime::simulated(
///     RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
///     PlatformConfig::minotauro(2, 1),
/// );
/// let task = rt
///     .template("axpy")
///     .main("axpy_cuda", &[DeviceKind::Cuda])
///     .version("axpy_smp", &[DeviceKind::Smp])
///     .register();
/// rt.bind_cost(task, VersionId(0), |_| Duration::from_millis(1));
/// rt.bind_cost(task, VersionId(1), |_| Duration::from_millis(8));
///
/// let x = rt.alloc_bytes(1 << 20);
/// let y = rt.alloc_bytes(1 << 20);
/// for _ in 0..20 {
///     rt.task(task).read(x).read_write(y).submit();
/// }
/// let report = rt.run().expect("no task exhausted its retries");
/// assert_eq!(report.tasks_executed, 20);
/// assert!(report.makespan > Duration::ZERO);
/// ```
pub struct Runtime {
    pub(crate) config: RuntimeConfig,
    pub(crate) templates: TemplateRegistry,
    pub(crate) directory: Directory,
    pub(crate) graph: TaskGraph,
    pub(crate) workers: Vec<WorkerState>,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) costs: CostTable,
    pub(crate) kernels: IdMap<(TemplateId, VersionId), NativeFn>,
    pub(crate) engine: EngineKind,
    pub(crate) run_count: u64,
    /// Ready tasks not yet dispatched — persists across bounded waves.
    pub(crate) pending: VecDeque<TaskId>,
    /// Cross-job fair-queuing dispatch accounting.
    pub(crate) fair: FairState,
    /// Job id stamped onto subsequently submitted tasks (multi-job
    /// service).
    current_job: Option<u64>,
    /// Test hook: pending injected staging faults per datum (native
    /// engine). See [`Runtime::inject_stage_fault`].
    pub(crate) stage_faults: IdMap<DataId, u32>,
    pub(crate) remotes: Vec<crate::remote::RemoteAttachment>,
    next_data: u32,
}

impl Runtime {
    fn make_workers(smp: usize, gpus: usize) -> Vec<WorkerState> {
        let mut workers = Vec::with_capacity(smp + gpus);
        for i in 0..smp {
            workers.push(WorkerState::new(WorkerInfo {
                id: WorkerId(i as u16),
                device: DeviceKind::Smp,
                space: MemSpace::HOST,
            }));
        }
        for g in 0..gpus {
            workers.push(WorkerState::new(WorkerInfo {
                id: WorkerId((smp + g) as u16),
                device: DeviceKind::Cuda,
                space: MemSpace::device(g as u16),
            }));
        }
        workers
    }

    /// Runtime over the simulated heterogeneous node.
    ///
    /// # Panics
    /// Panics if `platform` fails validation.
    pub fn simulated(config: RuntimeConfig, platform: PlatformConfig) -> Runtime {
        platform.validate().expect("invalid platform");
        let mut workers = Self::make_workers(platform.smp_workers, platform.gpus);
        // Remote-node workers: SMP cores living in the node's mirror
        // space `device(gpus + j)`, reached over its NIC link — the
        // simulated analogue of `attach_remote_node`.
        for (j, node) in platform.nodes.iter().enumerate() {
            let space = MemSpace::device((platform.gpus + j) as u16);
            for _ in 0..node.smp_workers {
                workers.push(WorkerState::new(WorkerInfo {
                    id: WorkerId(workers.len() as u16),
                    device: DeviceKind::Smp,
                    space,
                }));
            }
        }
        let scheduler = make_scheduler(&config.scheduler);
        Runtime {
            config,
            templates: TemplateRegistry::new(),
            directory: Directory::new(),
            graph: TaskGraph::new(),
            workers,
            scheduler,
            costs: CostTable::new(),
            kernels: IdMap::default(),
            engine: EngineKind::Sim { platform, caches: None, in_flight: IdMap::default() },
            run_count: 0,
            pending: VecDeque::new(),
            fair: FairState::default(),
            current_job: None,
            stage_faults: IdMap::default(),
            remotes: Vec::new(),
            next_data: 0,
        }
    }

    /// Runtime executing for real on OS threads. SMP workers run kernels
    /// on one core each; each emulated GPU runs kernels on an internal
    /// pool of [`NativeConfig::gpu_lanes`] cores, giving it a genuine
    /// speed advantage for parallel kernels.
    pub fn native(config: RuntimeConfig, native: NativeConfig) -> Runtime {
        native.validate().expect("invalid native config");
        let workers = Self::make_workers(native.smp_workers, native.gpus);
        let scheduler = make_scheduler(&config.scheduler);
        let arena = Arc::new(Arena::new(native.gpus));
        Runtime {
            config,
            templates: TemplateRegistry::new(),
            directory: Directory::new(),
            graph: TaskGraph::new(),
            workers,
            scheduler,
            costs: CostTable::new(),
            kernels: IdMap::default(),
            engine: EngineKind::Native { cfg: native, arena },
            run_count: 0,
            pending: VecDeque::new(),
            fair: FairState::default(),
            current_job: None,
            stage_faults: IdMap::default(),
            remotes: Vec::new(),
            next_data: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Mutable access to the configuration. The behavioural flags
    /// (`prefetch`, `tracing`, `max_task_retries`, `lookahead_depth`)
    /// take effect on the next run; changing `scheduler` here has no
    /// effect — the policy object was built at construction. Whether a
    /// run flushes, and whether it orders jobs fairly, is decided by the
    /// call: [`Runtime::run`], [`Runtime::run_noflush`] or
    /// [`Runtime::run_bounded`].
    pub fn config_mut(&mut self) -> &mut RuntimeConfig {
        &mut self.config
    }

    /// The registered templates.
    pub fn templates(&self) -> &TemplateRegistry {
        &self.templates
    }

    /// Worker descriptions (SMP workers first, then one per GPU).
    pub fn workers(&self) -> Vec<WorkerInfo> {
        self.workers.iter().map(|w| w.info).collect()
    }

    /// Whether some live worker (one no node loss retired) can run a
    /// version of `template`. A task no live worker can run never
    /// dispatches, so a service checks this before it admits a job.
    pub fn can_run(&self, template: TemplateId) -> bool {
        let tpl = self.templates.get(template);
        self.workers
            .iter()
            .any(|w| !w.is_retired() && tpl.versions_for(w.info.device).next().is_some())
    }

    /// Attach a remote node: its advertised workers become schedulable
    /// like local ones, against a fresh *mirror space* in the native
    /// arena (see [`RemoteNode`](crate::RemoteNode) for the data
    /// plane). Returns the node's dense 1-based id (0 is the coordinator
    /// process itself).
    ///
    /// Tiles ship from the node's staging lanes, never from the
    /// coordinator thread.
    ///
    /// # Panics
    /// Panics on a simulated runtime (use
    /// [`PlatformConfig::nodes`](versa_sim::PlatformConfig) there) or if
    /// the node advertises zero workers.
    pub fn attach_remote_node(&mut self, node: Arc<dyn crate::remote::RemoteNode>) -> u16 {
        let EngineKind::Native { arena, .. } = &self.engine else {
            panic!("attach_remote_node requires a native runtime");
        };
        let caps = node.caps();
        assert!(caps.smp_workers > 0, "remote node {:?} advertises no workers", caps.name);
        let space = MemSpace::device((arena.space_count() - 1) as u16);
        arena.add_spaces(1);
        for _ in 0..caps.smp_workers {
            self.workers.push(WorkerState::new(WorkerInfo {
                id: WorkerId(self.workers.len() as u16),
                device: DeviceKind::Smp,
                space,
            }));
        }
        let node_id = (self.remotes.len() + 1) as u16;
        self.remotes.push(crate::remote::RemoteAttachment { node, node_id, space });
        node_id
    }

    /// Which cluster node hosts a worker (0 = this process).
    pub fn node_of_worker(&self, worker: WorkerId) -> u16 {
        let space = self.workers[worker.index()].info.space;
        if let EngineKind::Sim { platform, .. } = &self.engine {
            // Simulated nodes: device spaces past the GPUs are node
            // mirror spaces (node j at device(gpus + j), 1-based id).
            return match space.device_index() {
                Some(d) if usize::from(d) >= platform.gpus => {
                    (usize::from(d) - platform.gpus + 1) as u16
                }
                _ => 0,
            };
        }
        self.remotes.iter().find(|r| r.space == space).map_or(0, |r| r.node_id)
    }

    /// Snapshot the remote lookup tables the staged engine needs.
    pub(crate) fn remote_plan(&self) -> crate::remote::RemotePlan {
        crate::remote::RemotePlan {
            by_space: self
                .remotes
                .iter()
                .map(|r| (r.space, Arc::clone(&r.node)))
                .collect(),
            node_of_worker: self
                .workers
                .iter()
                .map(|w| {
                    self.remotes
                        .iter()
                        .find(|r| r.space == w.info.space)
                        .map_or(0, |r| r.node_id)
                })
                .collect(),
        }
    }

    /// The native arena, when this is a native runtime — the worker
    /// process side of `versa-net` executes kernels against it directly.
    pub(crate) fn arena(&self) -> Option<Arc<Arena>> {
        match &self.engine {
            EngineKind::Native { arena, .. } => Some(Arc::clone(arena)),
            EngineKind::Sim { .. } => None,
        }
    }

    /// Snapshot the bound native kernels and arena into a standalone,
    /// thread-safe executor — what a remote worker process shares across
    /// its serve threads (the full `Runtime` is not `Sync`). `None` on
    /// the sim engine.
    pub fn detach_executor(&self) -> Option<DetachedExecutor> {
        let arena = self.arena()?;
        let kernels = self
            .kernels
            .iter()
            .map(|(&(tpl, v), k)| ((self.templates.get(tpl).name.clone(), v), k.clone()))
            .collect();
        Some(DetachedExecutor { kernels, arena })
    }

    /// Start declaring a task template (the `#pragma omp task` +
    /// `implements` annotations of paper Fig. 4).
    pub fn template(&mut self, name: &str) -> TemplateBuilder<'_> {
        self.templates.template(name)
    }

    /// Bind a simulated execution-time model for one version.
    pub fn bind_cost(
        &mut self,
        template: TemplateId,
        version: VersionId,
        f: impl Fn(u64) -> std::time::Duration + Send + Sync + 'static,
    ) {
        self.costs.set_fn(template, version, f);
    }

    /// Bind a native kernel body for one version.
    pub fn bind_native(
        &mut self,
        template: TemplateId,
        version: VersionId,
        f: impl Fn(&mut KernelCtx<'_>) + Send + Sync + 'static,
    ) {
        self.kernels.insert((template, version), Arc::new(f));
    }

    /// Replace or tweak the scheduling policy in place (e.g. to install
    /// a baseline with non-default parameters). Only do this before any
    /// task has been submitted; swapping mid-run discards learned state.
    pub fn scheduler_mut(&mut self) -> &mut Box<dyn Scheduler> {
        &mut self.scheduler
    }

    /// The versioning scheduler, if that is the configured policy — for
    /// seeding profile hints or reading the learned Table I.
    pub fn versioning(&self) -> Option<&VersioningScheduler> {
        self.scheduler.as_versioning()
    }

    /// Mutable access to the versioning scheduler, if configured.
    pub fn versioning_mut(&mut self) -> Option<&mut VersioningScheduler> {
        self.scheduler.as_versioning_mut()
    }

    // ------------------------------------------------------------------
    // Data management
    // ------------------------------------------------------------------

    fn register_data(&mut self, bytes: u64) -> DataId {
        let id = DataId(self.next_data);
        self.next_data += 1;
        self.directory.register(id, bytes, MemSpace::HOST);
        id
    }

    /// Allocate `bytes` bytes of runtime-managed data (zero-filled in
    /// native mode; contentless in simulated mode).
    pub fn alloc_bytes(&mut self, bytes: u64) -> DataId {
        let id = self.register_data(bytes);
        if let EngineKind::Native { arena, .. } = &self.engine {
            arena.alloc_host_zeroed(id, bytes as usize);
        }
        id
    }

    /// Allocate runtime-managed data initialized from an `f64` slice.
    pub fn alloc_from_f64(&mut self, init: &[f64]) -> DataId {
        let id = self.register_data(init.len() as u64 * 8);
        if let EngineKind::Native { arena, .. } = &self.engine {
            arena.alloc_host_buf(id, AlignedBuf::from_f64s(init));
        }
        id
    }

    /// Allocate runtime-managed data initialized from an `f32` slice.
    pub fn alloc_from_f32(&mut self, init: &[f32]) -> DataId {
        let bytes: Vec<u8> = init.iter().flat_map(|v| v.to_ne_bytes()).collect();
        let id = self.register_data(bytes.len() as u64);
        if let EngineKind::Native { arena, .. } = &self.engine {
            arena.alloc_host(id, &bytes);
        }
        id
    }

    /// Free a runtime-managed allocation: the directory forgets it and
    /// (in native mode) every copy is dropped.
    ///
    /// # Panics
    /// Panics if tasks touching the allocation are still pending or in
    /// flight.
    pub fn free(&mut self, id: DataId) {
        self.try_free(id).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Free an allocation, or report why it cannot be freed yet. Unlike
    /// the old whole-graph gate, only tasks that actually reference the
    /// allocation block the free — in a multi-job service, one job can
    /// release its data while another job's tasks are still queued.
    ///
    /// # Errors
    /// Returns a description of the conflict when unfinished tasks still
    /// reference the allocation; the allocation is left untouched.
    pub(crate) fn try_free(&mut self, id: DataId) -> Result<(), FreeError> {
        if self.graph.has_live_accessor(id) {
            return Err(FreeError { data: id, live_users: self.graph.live_users(id) });
        }
        self.directory.unregister(id);
        self.graph.forget_data(id);
        if let EngineKind::Native { arena, .. } = &self.engine {
            arena.free(id);
        }
        Ok(())
    }

    /// Recycle graph storage for completed tasks: drop every finished
    /// task with an id below `before` from the front of the graph's
    /// window (typically `before` is the earliest task id any
    /// still-active job owns — a pruned task's node can no longer be
    /// inspected). Returns how many nodes were recycled. `versa-serve`
    /// calls this between waves so steady-state admission allocates
    /// O(live window), not O(jobs ever served).
    pub fn prune_done_tasks(&mut self, before: TaskId) -> usize {
        self.graph.prune_done_prefix(before)
    }

    /// Drop the fair-queuing dispatch account of a finished job, so a
    /// long-running service's accounting table does not grow with every
    /// job ever served. Call only once the job has no tasks left.
    pub fn forget_job(&mut self, job: u64) {
        self.fair.forget_job(job);
    }

    /// Serialize the versioning scheduler's learned profile to the hints
    /// text format (paper §VII: a file "written by OmpSs runtime from a
    /// previous application's execution"). Returns `None` when another
    /// policy is active.
    pub fn save_hints(&self) -> Option<String> {
        self.scheduler
            .as_versioning()
            .map(|v| versa_core::profile::render_hints(v.profiles(), &self.templates))
    }

    /// Seed the versioning scheduler from hints text produced by
    /// [`Runtime::save_hints`]. Returns `(applied, skipped)` record
    /// counts, or an error for malformed text — including a
    /// [`PolicyMismatch`](versa_core::profile::HintsError::PolicyMismatch)
    /// when the file was recorded under different bucketing/mean
    /// policies than the active scheduler uses.
    ///
    /// # Panics
    /// Panics if the active policy is not the versioning scheduler.
    pub fn load_hints(&mut self, text: &str) -> Result<(usize, usize), versa_core::profile::HintsError> {
        let file = versa_core::profile::parse_hints(text)?;
        let templates = self.templates.clone();
        let scheduler = self
            .scheduler
            .as_versioning_mut()
            .expect("load_hints requires the versioning scheduler");
        versa_core::profile::apply_hints(scheduler.profiles_mut(), &templates, &file)
    }

    /// Read data back as `f64`s, flushing the latest copy to the host
    /// first (the `taskwait on(...)` idiom). Native engine only.
    ///
    /// # Panics
    /// Panics in simulated mode (there are no bytes to read) or if tasks
    /// touching the datum are still in flight (call [`Runtime::run`]
    /// first).
    pub fn read_f64(&mut self, id: DataId) -> Vec<f64> {
        let bytes = self.read_bytes(id);
        bytes.chunks_exact(8).map(|c| f64::from_ne_bytes(c.try_into().unwrap())).collect()
    }

    /// Read data back as `f32`s (see [`Runtime::read_f64`]).
    pub fn read_f32(&mut self, id: DataId) -> Vec<f32> {
        let bytes = self.read_bytes(id);
        bytes.chunks_exact(4).map(|c| f32::from_ne_bytes(c.try_into().unwrap())).collect()
    }

    fn read_bytes(&mut self, id: DataId) -> Vec<u8> {
        assert!(
            !self.graph.has_live_accessor(id),
            "read of {id:?} while tasks referencing it are in flight; run() first"
        );
        let EngineKind::Native { arena, .. } = &self.engine else {
            panic!("read_bytes is only available on the native engine");
        };
        if let Some(t) = self.directory.flush_to_host(id) {
            arena.perform(&t);
        }
        arena.read(id, MemSpace::HOST)
    }

    // ------------------------------------------------------------------
    // Task submission
    // ------------------------------------------------------------------

    /// Stamp every subsequently submitted task with a job id (or stop
    /// stamping with `None`). Bounded waves ([`Runtime::run_bounded`])
    /// interleave jobs fairly by it, and decision records carry it.
    /// One-shot applications never need this; `versa-serve` sets it
    /// around each job's build closure.
    pub fn set_job_tag(&mut self, job: Option<u64>) {
        self.current_job = job;
    }

    /// The task graph (read-only): inspect task states, count live
    /// tasks, or map a job's id range to completion states.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Fluent task submission: `rt.task(tpl).read(a).read(b).read_write(c).submit()`.
    ///
    /// The clauses only record the accesses; [`TaskSubmitter::submit`]
    /// sizes them all in one directory visit and computes the task's
    /// dependences in one pass over them.
    pub fn task(&mut self, template: TemplateId) -> TaskSubmitter<'_> {
        TaskSubmitter { rt: self, template, accesses: Vec::new() }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Execute every submitted-but-unfinished task to completion — the
    /// implicit `taskwait` — and report what happened. Device-resident
    /// data is flushed back to host memory before this returns (and
    /// accounted as Output Tx). The native engine writes behind: it
    /// starts each datum's write-back as soon as no unfinished task
    /// writes it, overlapping the remaining kernels, and host readers
    /// planned after it wait for that copy. The simulated one flushes
    /// at the end, as the paper's `taskwait` does; the moved bytes are
    /// the same. Their split can differ on several GPUs: a native device
    /// read of a datum whose home copy has landed is Input Tx, where
    /// the simulator (flushing later) may count a Device Tx.
    ///
    /// # Errors
    /// Task failures (native kernel panics, simulated injected faults)
    /// are recoverable: the task is rescheduled, failing versions are
    /// quarantined, and the run keeps going. Only when a single task
    /// fails more than [`RuntimeConfig::max_task_retries`] times does
    /// the run abort with a [`RunError`] carrying the partial
    /// [`RunReport`]. An aborted runtime still has tasks in flight and
    /// must not be reused.
    pub fn run(&mut self) -> Result<RunReport, RunError> {
        self.drive(Wave::taskwait(true))
    }

    /// Execute one *wave*: dispatch at most `max_dispatch` tasks (counted
    /// at dispatch, so an eager scheduler cannot blow the budget by bulk
    /// enqueueing), let everything dispatched drain, and return. Ready
    /// tasks beyond the budget stay pooled in the runtime for the next
    /// wave; [`RunReport::completed`] says whether the graph fully
    /// drained.
    ///
    /// This is the re-entry point a multi-job service loops on: between
    /// waves it can admit new jobs. Each wave orders the ready pool by
    /// start-time fair queuing over job ids (see
    /// [`Runtime::set_job_tag`]), so new jobs' tasks compete fairly with
    /// the backlog; on an untagged pool that order is the submission
    /// order. A wave never flushes: jobs overlap, and device residency is
    /// the warmth the next wave reuses. A closing [`Runtime::run`]
    /// flushes.
    ///
    /// # Errors
    /// As [`Runtime::run`].
    pub fn run_bounded(&mut self, max_dispatch: u64) -> Result<RunReport, RunError> {
        self.drive(Wave::bounded(max_dispatch))
    }

    /// Like [`Runtime::run`], but without the trailing flush — the
    /// `taskwait(noflush)` of paper §III: tasks synchronize, but data is
    /// left wherever it lives (typically on the devices), so a following
    /// batch can reuse it without round-tripping through host memory.
    ///
    /// # Errors
    /// As [`Runtime::run`].
    pub fn run_noflush(&mut self) -> Result<RunReport, RunError> {
        self.drive(Wave::taskwait(false))
    }

    /// Run on the active engine on the `wave`'s terms.
    fn drive(&mut self, wave: Wave) -> Result<RunReport, RunError> {
        let report = match &self.engine {
            EngineKind::Sim { .. } => crate::sim_engine::run_sim(self, wave),
            EngineKind::Native { .. } => crate::native::run_native(self, wave),
        };
        self.run_count += 1;
        report
    }

    /// Install a fault-injection plan on the simulated platform (a
    /// convenience over rebuilding the [`PlatformConfig`]). Plans are
    /// evaluated at every simulated task start; an empty plan leaves the
    /// simulation byte-identical to a run without one.
    ///
    /// # Panics
    /// Panics on the native engine (panics there are the real faults)
    /// or if the plan fails validation.
    pub fn set_fault_plan(&mut self, faults: versa_sim::FaultPlan) {
        let EngineKind::Sim { platform, .. } = &mut self.engine else {
            panic!("fault plans only apply to the simulated engine");
        };
        faults.validate(platform.nodes.len()).expect("invalid fault plan");
        platform.faults = faults;
    }

    /// Arrange for the next `times` staged copies of `data` to panic
    /// mid-transfer (native engine). This is the staging analogue of the
    /// simulated engine's fault plans: it proves a transfer-lane failure
    /// routes through the same `task_failed`/retry/quarantine machinery
    /// as a kernel panic. An empty plan leaves execution byte-identical.
    pub fn inject_stage_fault(&mut self, data: DataId, times: u32) {
        if times > 0 {
            *self.stage_faults.entry(data).or_insert(0) += times;
        }
    }

    /// Consume one pending staging fault for `data`, if any (called by
    /// the planner per planned copy).
    pub(crate) fn take_stage_fault(&mut self, data: DataId) -> bool {
        match self.stage_faults.get_mut(&data) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    self.stage_faults.remove(&data);
                }
                true
            }
            _ => false,
        }
    }

    /// Versions currently quarantined by the versioning scheduler
    /// (empty for other policies).
    pub(crate) fn quarantined_versions(&self) -> Vec<QuarantinedVersion> {
        self.scheduler
            .as_versioning()
            .map(|v| v.profiles().quarantined().into_iter().map(Into::into).collect())
            .unwrap_or_default()
    }
}

/// A thread-safe snapshot of a runtime's bound native kernels plus its
/// arena, produced by [`Runtime::detach_executor`]. A remote worker
/// process serves concurrent `Exec` requests through one of these: the
/// kernels are `Arc` closures and the arena synchronizes internally, so
/// the executor is freely shared across serve threads.
pub struct DetachedExecutor {
    // Keyed by template name, as a worker receives it.
    #[allow(clippy::disallowed_types)]
    kernels: HashMap<(String, VersionId), NativeFn>,
    arena: Arc<Arena>,
}

impl DetachedExecutor {
    /// The arena backing kernel execution (shipments land here).
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// Execute a bound kernel by template name against host-space data.
    /// Panic-safe; returns the measured kernel time.
    pub fn execute(
        &self,
        template: &str,
        version: VersionId,
        accesses: &[(Region, AccessMode)],
    ) -> Result<std::time::Duration, String> {
        let kernel = self
            .kernels
            .get(&(template.to_string(), version))
            .ok_or_else(|| format!("no native kernel bound for ({template:?}, {version})"))?
            .clone();
        crate::native::execute_detached(kernel, accesses.to_vec(), &self.arena, MemSpace::HOST)
    }
}

/// Builder returned by [`Runtime::task`]: one clause per access, then
/// [`TaskSubmitter::submit`].
pub struct TaskSubmitter<'a> {
    rt: &'a mut Runtime,
    template: TemplateId,
    accesses: Vec<(Region, AccessMode)>,
}

impl TaskSubmitter<'_> {
    /// Record a whole-allocation access; `submit` sizes it.
    fn whole(mut self, data: DataId, mode: AccessMode) -> Self {
        self.accesses.push((Region::whole(data, Region::TO_END), mode));
        self
    }

    /// `input(...)` clause over a whole allocation.
    pub fn read(self, data: DataId) -> Self {
        self.whole(data, AccessMode::In)
    }

    /// `output(...)` clause over a whole allocation.
    pub fn write(self, data: DataId) -> Self {
        self.whole(data, AccessMode::Out)
    }

    /// `inout(...)` clause over a whole allocation.
    pub fn read_write(self, data: DataId) -> Self {
        self.whole(data, AccessMode::InOut)
    }

    /// Create the task: take the directory lock once to size every
    /// access ([`Directory::resolve_accesses`]), then add the task to the
    /// graph.
    ///
    /// # Panics
    /// Panics if an accessed allocation is not registered (never
    /// allocated, or freed) or an access exceeds its allocation.
    pub fn submit(self) -> TaskId {
        let TaskSubmitter { rt, template, mut accesses } = self;
        let data_set_size = rt.directory.resolve_accesses(&mut accesses);
        let id = TaskId(rt.graph.len() as u64);
        rt.graph.submit(TaskInstance { id, template, accesses, data_set_size, job: rt.current_job })
    }
}

/// Why [`Runtime::try_free`] refused to free an allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FreeError {
    /// The allocation that could not be freed.
    pub data: DataId,
    /// How many unfinished tasks still reference it.
    pub live_users: usize,
}

impl std::fmt::Display for FreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot free {:?}: {} unfinished task(s) still reference it; run() first",
            self.data, self.live_users
        )
    }
}

impl std::error::Error for FreeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use versa_core::SchedulerKind;

    fn sim_runtime() -> Runtime {
        Runtime::simulated(
            RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
            PlatformConfig::minotauro(2, 1),
        )
    }

    #[test]
    fn workers_are_smp_then_gpu() {
        let rt = sim_runtime();
        let infos = rt.workers();
        assert_eq!(infos.len(), 3);
        assert_eq!(infos[0].device, DeviceKind::Smp);
        assert_eq!(infos[1].device, DeviceKind::Smp);
        assert_eq!(infos[2].device, DeviceKind::Cuda);
        assert_eq!(infos[2].space, MemSpace::device(0));
    }

    #[test]
    fn alloc_registers_in_directory() {
        let mut rt = sim_runtime();
        let a = rt.alloc_bytes(1024);
        assert_eq!(rt.directory.bytes(a), 1024);
        let b = rt.alloc_from_f64(&[1.0, 2.0, 3.0]);
        assert_eq!(rt.directory.bytes(b), 24);
        assert_ne!(a, b);
    }

    #[test]
    fn task_builder_computes_data_set_size() {
        let mut rt = sim_runtime();
        let tpl = rt
            .template("t")
            .main("smp", &[DeviceKind::Smp])
            .register();
        let a = rt.alloc_bytes(100);
        let c = rt.alloc_bytes(50);
        let id = rt.task(tpl).read(a).read_write(c).submit();
        assert_eq!(rt.graph.node(id).instance.data_set_size, 150);
        assert_eq!(rt.graph.node(id).instance.accesses.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds allocation size")]
    fn oversized_region_rejected() {
        let mut rt = sim_runtime();
        let tpl = rt.template("t").main("smp", &[DeviceKind::Smp]).register();
        let a = rt.alloc_bytes(10);
        let mut submitter = rt.task(tpl);
        submitter.accesses.push((Region::range(a, 0, 20), AccessMode::In));
        let _ = submitter.submit();
    }

    #[test]
    fn task_over_a_freed_allocation_is_rejected() {
        let mut rt = sim_runtime();
        let tpl = rt.template("t").main("smp", &[DeviceKind::Smp]).register();
        let a = rt.alloc_bytes(10);
        rt.free(a);
        let submit = std::panic::AssertUnwindSafe(|| rt.task(tpl).read(a).submit());
        let err = std::panic::catch_unwind(submit).expect_err("a freed allocation was accepted");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains(&format!("{a:?} not registered")), "{msg}");
        assert!(rt.graph.is_empty(), "the rejected task was not added");
    }

    #[test]
    fn free_forgets_the_allocation() {
        let mut rt = sim_runtime();
        let a = rt.alloc_bytes(10);
        rt.free(a);
        // The id can be observed gone via the directory.
        assert!(rt.directory.state(a).is_none());
    }

    #[test]
    fn free_is_rejected_while_queued_tasks_reference_the_data() {
        let mut rt = sim_runtime();
        let tpl = rt.template("t").main("t_smp", &[DeviceKind::Smp]).register();
        rt.bind_cost(tpl, versa_core::VersionId(0), |_| std::time::Duration::from_millis(1));
        let used = rt.alloc_bytes(64);
        let idle = rt.alloc_bytes(64);
        rt.task(tpl).read_write(used).submit();

        let err = rt.try_free(used).unwrap_err();
        assert_eq!(err, FreeError { data: used, live_users: 1 });
        assert!(err.to_string().contains("unfinished task"));
        // The rejected free left the allocation intact...
        assert!(rt.directory.state(used).is_some());
        // ...and data no queued task references frees fine meanwhile.
        rt.try_free(idle).expect("no task references this allocation");

        rt.run().expect("run failed");
        rt.try_free(used).expect("all referencing tasks are done");
        assert!(rt.directory.state(used).is_none());
    }

    #[test]
    #[should_panic(expected = "unfinished task")]
    fn free_panics_while_queued_tasks_reference_the_data() {
        let mut rt = sim_runtime();
        let tpl = rt.template("t").main("t_smp", &[DeviceKind::Smp]).register();
        rt.bind_cost(tpl, versa_core::VersionId(0), |_| std::time::Duration::from_millis(1));
        let a = rt.alloc_bytes(64);
        rt.task(tpl).read_write(a).submit();
        rt.free(a);
    }

    #[test]
    fn hints_roundtrip_through_runtime_api() {
        let mut rt = Runtime::simulated(
            RuntimeConfig::default(),
            PlatformConfig::minotauro(1, 1),
        );
        let tpl = rt
            .template("t")
            .main("t_gpu", &[DeviceKind::Cuda])
            .version("t_smp", &[DeviceKind::Smp])
            .register();
        rt.versioning_mut().unwrap().profiles_mut().seed(
            tpl,
            1000,
            versa_core::VersionId(0),
            std::time::Duration::from_millis(5),
            10,
        );
        let text = rt.save_hints().expect("versioning active");
        assert!(text.contains("hint t 0"));
        let mut rt2 = Runtime::simulated(
            RuntimeConfig::default(),
            PlatformConfig::minotauro(1, 1),
        );
        let _tpl2 = rt2
            .template("t")
            .main("t_gpu", &[DeviceKind::Cuda])
            .version("t_smp", &[DeviceKind::Smp])
            .register();
        let (applied, skipped) = rt2.load_hints(&text).unwrap();
        assert_eq!((applied, skipped), (1, 0));
        assert!(rt2.load_hints("garbage line").is_err());
    }

    #[test]
    fn save_hints_is_none_for_baselines() {
        let rt = sim_runtime();
        assert!(rt.save_hints().is_none());
    }

    #[test]
    fn versioning_accessor_matches_policy() {
        let rt = sim_runtime();
        assert!(rt.versioning().is_none());
        let rt2 = Runtime::simulated(
            RuntimeConfig::default(),
            PlatformConfig::minotauro(1, 1),
        );
        assert!(rt2.versioning().is_some());
    }
}
