//! Real execution engine: OS worker threads, real memory copies between
//! per-device arenas, real Rust kernels.
//!
//! SMP workers execute kernels on one core each. An *emulated GPU* is a
//! worker whose kernels may parallelize over [`NativeConfig::gpu_lanes`]
//! cores and whose memory is a separate arena space — it genuinely cannot
//! read host buffers, so the coherence machinery is exercised for real.
//! Each emulated-GPU worker owns a persistent [`LanePool`]: its lane
//! threads are spawned once when the worker starts and parked between
//! kernels, so running a multi-lane kernel never spawns an OS thread.
//! Kernels reach the pool through [`KernelCtx::exec`] (or the
//! [`KernelCtx::par_bands`] convenience). Task durations reported to the
//! scheduler are wall-clock kernel times, so the versioning scheduler
//! learns real device speed ratios.

use crate::assign::drain_pool;
use crate::lanepool::LanePool;
use crate::remote::{RemoteAccess, RemoteError, RemoteExec, RemoteNode, ShipTicket};
use crate::report::{FailureReport, RunError, TaskFailure, WorkerTransferStats};
use crate::runtime::{EngineKind, NativeFn};
use crate::{RunReport, Runtime};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use versa_core::{FailureKind, TaskId, TemplateId, VersionId, WorkerId};
use versa_kernels::chunk_ranges;
use versa_kernels::exec::{LaneExec, SerialExec};
use versa_mem::{
    AccessMode, AlignedBuf, Arena, DataId, HandleState, IdMap, MemSpace, ReadyCell, Region,
    StagingLedger, Transfer, TransferStats,
};
use versa_trace::{TraceEvent, TraceSink, Ts};

/// Wall-clock offset from the run's epoch as a trace timestamp.
fn ts(wall0: Instant) -> Ts {
    Ts(wall0.elapsed().as_nanos() as u64)
}

/// Native-engine sizing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NativeConfig {
    /// Number of single-core SMP workers.
    pub smp_workers: usize,
    /// Number of emulated GPU devices (one worker each, own memory space).
    pub gpus: usize,
    /// Cores an emulated GPU kernel may parallelize over.
    pub gpu_lanes: usize,
    /// Emulated interconnect bandwidth in bytes/second: each planned
    /// transfer takes at least `bytes / link_bandwidth` wall time (the
    /// memcpy runs, then the mover sleeps off the residual). `None`
    /// (default) moves bytes at memcpy speed — the historical behaviour.
    /// Real machines pay PCIe for every copy; our in-process "devices"
    /// otherwise copy at DRAM speed, which makes transfer scheduling
    /// decisions invisible. Applied per copy by the staging lanes and by
    /// the run's write-back lane; a device's link carries one copy out to
    /// the host at a time.
    pub link_bandwidth: Option<u64>,
}

impl NativeConfig {
    /// `smp` SMP workers + `gpus` emulated GPUs with the default 4 lanes.
    pub fn new(smp: usize, gpus: usize) -> NativeConfig {
        NativeConfig { smp_workers: smp, gpus, gpu_lanes: 4, link_bandwidth: None }
    }

    /// Validate the configuration. Shape problems (no workers, zero-lane
    /// GPUs) are errors; oversubscription is only a [`warning`].
    ///
    /// [`warning`]: NativeConfig::warnings
    pub fn validate(&self) -> Result<(), String> {
        if self.smp_workers + self.gpus == 0 {
            return Err("native config has no workers".into());
        }
        if self.gpus > 0 && self.gpu_lanes == 0 {
            return Err("emulated GPUs need at least one lane".into());
        }
        if self.link_bandwidth == Some(0) {
            return Err("link_bandwidth must be positive (use None for unthrottled)".into());
        }
        Ok(())
    }

    /// Non-fatal configuration diagnostics. Asking one emulated GPU for
    /// more lanes than the machine has hardware threads still runs
    /// correctly (lanes are ordinary OS threads) — it just can't speed
    /// anything up, so it is reported here rather than rejected by
    /// [`validate`](NativeConfig::validate).
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
        if self.gpus > 0 && self.gpu_lanes > avail {
            out.push(format!(
                "gpu_lanes = {} exceeds available parallelism ({avail}); \
                 lanes will time-share cores",
                self.gpu_lanes
            ));
        }
        out
    }
}

/// Two SMP workers and one emulated GPU with the default 4 lanes —
/// the smallest heterogeneous setup (`NativeConfig::new(2, 1)`).
impl Default for NativeConfig {
    fn default() -> Self {
        NativeConfig::new(2, 1)
    }
}

enum Slot {
    /// Access into a taken-out buffer: index + byte range. `writable` is
    /// false for an `input` clause aliasing a buffer the task also
    /// writes (same memory, read-only view).
    Owned { buf: usize, range: Range<usize>, writable: bool },
    /// Read-only access that does not alias any written buffer: a shared
    /// handle to the arena's own buffer (zero-copy — the arena keeps
    /// writers out until the last reader drops its handle).
    Shared(Arc<AlignedBuf>, Range<usize>),
}

/// The view a native kernel gets of its task: one argument per access
/// clause, in declaration order, plus the executor carrying the device's
/// parallelism.
pub struct KernelCtx<'a> {
    bufs: &'a mut [AlignedBuf],
    slots: Vec<Slot>,
    exec: &'a dyn LaneExec,
}

impl<'a> KernelCtx<'a> {
    /// Cores this kernel may use (1 on SMP workers, `gpu_lanes` on
    /// emulated GPUs).
    pub fn lanes(&self) -> usize {
        self.exec.lanes()
    }

    /// The executor carrying this worker's parallelism: a persistent
    /// lane pool on emulated GPUs, serial on SMP workers. Hand it to the
    /// `_on` kernel entry points.
    pub fn exec(&self) -> &'a dyn LaneExec {
        self.exec
    }

    /// Run `f` once per contiguous band of `0..n`, one band per lane,
    /// in parallel on this worker's lanes. A convenience for ad-hoc
    /// kernels that don't take a [`LaneExec`] themselves.
    pub fn par_bands(&self, n: usize, f: impl Fn(Range<usize>) + Sync) {
        let f = &f;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = chunk_ranges(n, self.exec.lanes())
            .into_iter()
            .map(|band| Box::new(move || f(band)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        self.exec.run_batch(jobs);
    }

    /// Number of arguments (access clauses).
    pub fn arg_count(&self) -> usize {
        self.slots.len()
    }

    /// Raw bytes of argument `i`.
    pub fn bytes(&self, i: usize) -> &[u8] {
        match &self.slots[i] {
            Slot::Owned { buf, range, .. } => &self.bufs[*buf].as_bytes()[range.clone()],
            Slot::Shared(b, range) => &b.as_bytes()[range.clone()],
        }
    }

    /// Mutable raw bytes of argument `i`.
    ///
    /// # Panics
    /// Panics if access `i` is an `input` (read-only) clause.
    pub fn bytes_mut(&mut self, i: usize) -> &mut [u8] {
        match &self.slots[i] {
            Slot::Owned { buf, range, writable: true } => {
                &mut self.bufs[*buf].as_bytes_mut()[range.clone()]
            }
            _ => panic!("argument {i} is read-only (input clause)"),
        }
    }

    /// Argument `i` as `f64`s.
    pub fn f64(&self, i: usize) -> &[f64] {
        let (pre, mid, post) = unsafe { self.bytes(i).align_to::<f64>() };
        assert!(pre.is_empty() && post.is_empty(), "argument {i} is not f64-aligned");
        mid
    }

    /// Argument `i` as mutable `f64`s (write/inout accesses only).
    pub fn f64_mut(&mut self, i: usize) -> &mut [f64] {
        let (pre, mid, post) = unsafe { self.bytes_mut(i).align_to_mut::<f64>() };
        assert!(pre.is_empty() && post.is_empty(), "argument {i} is not f64-aligned");
        mid
    }

    /// Argument `i` as `f32`s.
    pub fn f32(&self, i: usize) -> &[f32] {
        let (pre, mid, post) = unsafe { self.bytes(i).align_to::<f32>() };
        assert!(pre.is_empty() && post.is_empty(), "argument {i} is not f32-aligned");
        mid
    }

    /// Argument `i` as mutable `f32`s (write/inout accesses only).
    pub fn f32_mut(&mut self, i: usize) -> &mut [f32] {
        let (pre, mid, post) = unsafe { self.bytes_mut(i).align_to_mut::<f32>() };
        assert!(pre.is_empty() && post.is_empty(), "argument {i} is not f32-aligned");
        mid
    }

    /// Panic unless read argument `r` is backed by memory disjoint from
    /// written argument `w` (shared slots never alias taken-out buffers;
    /// owned slots alias iff they view the same buffer).
    fn assert_disjoint(&self, r: usize, w: usize) {
        if let (Slot::Owned { buf: rb, .. }, Slot::Owned { buf: wb, .. }) =
            (&self.slots[r], &self.slots[w])
        {
            assert!(
                rb != wb,
                "argument {r} aliases written argument {w}; borrow them separately"
            );
        }
    }

    /// Borrow several read arguments and one written argument at once as
    /// `f64` slices — the shape every matmul/Cholesky kernel needs
    /// (`C ← f(A, B, …, C)`) and one the plain accessors can't express
    /// because `f64_mut` borrows the whole context mutably.
    ///
    /// # Panics
    /// Panics if `rw` is not a write/inout clause, if any read argument
    /// aliases `rw`, or on misalignment.
    pub fn f64_reads_and_mut(&mut self, reads: &[usize], rw: usize) -> (Vec<&[f64]>, &mut [f64]) {
        for &r in reads {
            self.assert_disjoint(r, rw);
        }
        // Safety: the written slice comes from the taken-out buffer of
        // `rw`; every read slice was just checked to be backed by
        // different memory, so the borrows are disjoint.
        let out: *mut [f64] = self.f64_mut(rw);
        let reads = reads.iter().map(|&r| unsafe { &*(self.f64(r) as *const [f64]) }).collect();
        (reads, unsafe { &mut *out })
    }

    /// `f32` twin of [`KernelCtx::f64_reads_and_mut`].
    ///
    /// # Panics
    /// As [`KernelCtx::f64_reads_and_mut`].
    pub fn f32_reads_and_mut(&mut self, reads: &[usize], rw: usize) -> (Vec<&[f32]>, &mut [f32]) {
        for &r in reads {
            self.assert_disjoint(r, rw);
        }
        let out: *mut [f32] = self.f32_mut(rw);
        let reads = reads.iter().map(|&r| unsafe { &*(self.f32(r) as *const [f32]) }).collect();
        (reads, unsafe { &mut *out })
    }
}

struct WorkItem {
    task: TaskId,
    kernel: NativeFn,
    accesses: Vec<(Region, AccessMode)>,
    /// Trace identity of this execution attempt (version + template from
    /// the assignment, attempt = failures so far + 1, both computed by
    /// the coordinator at dispatch time).
    version: VersionId,
    template: TemplateId,
    attempt: u32,
}

/// Extract a readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "kernel panicked".to_string())
}

/// Sleep off the residual of an emulated link budget: a transfer of
/// `bytes` bytes must take at least `bytes / bw` seconds of wall time,
/// of which `spent` already elapsed in the memcpy.
fn throttle_link(link_bandwidth: Option<u64>, bytes: u64, spent: Duration) {
    let Some(bw) = link_bandwidth else { return };
    let budget = Duration::from_secs_f64(bytes as f64 / bw as f64);
    if let Some(residual) = budget.checked_sub(spent) {
        std::thread::sleep(residual);
    }
}

/// The emulated link's copy-out rule: a device's link carries one
/// device→host copy at a time, whichever lane makes it. The guard is held
/// across the memcpy and the throttle's sleep, so a host stager and the
/// write-back lane copying out of one device share its link instead of
/// each getting a full one. Unthrottled runs copy at memcpy speed and
/// hold no lock (the table is empty).
struct CopyOut(Vec<Mutex<()>>);

impl CopyOut {
    fn new(link_bandwidth: Option<u64>, spaces: usize) -> CopyOut {
        let locks = if link_bandwidth.is_some() { spaces } else { 0 };
        CopyOut((0..locks).map(|_| Mutex::new(())).collect())
    }

    /// Hold the source device's link for `t`, if `t` is a throttled copy
    /// out to the host.
    fn guard(&self, t: &Transfer) -> Option<MutexGuard<'_, ()>> {
        if !t.to.is_host() {
            return None;
        }
        let lock = self.0.get(t.from.index())?;
        // The lock guards no data, so a copy that panicked holding it
        // left nothing inconsistent behind.
        Some(lock.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The run's write-back lane: performs the device→host copies the
/// coordinator planned, in plan order, under the link's copy-out rule.
/// Returns each copy's `(to, bytes, took)` sample in plan order; the
/// coordinator hands them to the scheduler once the lane has joined, so
/// in-run decisions never see them.
fn writeback_loop(
    rx: mpsc::Receiver<Transfer>,
    arena: &Arena,
    link_bandwidth: Option<u64>,
    copy_out: &CopyOut,
    wall0: Instant,
    sink: Option<Arc<TraceSink>>,
) -> Vec<(MemSpace, u64, Duration)> {
    let mut samples = Vec::new();
    for t in rx {
        let _link = copy_out.guard(&t);
        let start = wall0.elapsed();
        arena.perform(&t);
        throttle_link(link_bandwidth, t.bytes, wall0.elapsed() - start);
        let end = wall0.elapsed();
        if let Some(sink) = &sink {
            sink.record(
                sink.coordinator(),
                TraceEvent::Transfer {
                    start: Ts(start.as_nanos() as u64),
                    end: Ts(end.as_nanos() as u64),
                    data: t.data,
                    from: t.from,
                    to: t.to,
                    bytes: t.bytes,
                    by: None,
                },
            );
        }
        samples.push((t.to, t.bytes, end - start));
    }
    samples
}

/// Execute a bound kernel outside the engine — the remote *worker
/// process* path (`versa-net`): no graph, no scheduler, just the kernel
/// against the given arena space, panic-safe.
pub(crate) fn execute_detached(
    kernel: NativeFn,
    accesses: Vec<(Region, AccessMode)>,
    arena: &Arena,
    space: versa_mem::MemSpace,
) -> Result<Duration, String> {
    let item = WorkItem {
        task: TaskId(0),
        kernel,
        accesses,
        version: VersionId(0),
        template: TemplateId(0),
        attempt: 1,
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_item(item, arena, space, &SerialExec)
    }))
    .map_err(panic_message)
}

/// Run one task's kernel against this worker's arena space, returning the
/// wall-clock kernel time.
fn execute_item(
    item: WorkItem,
    arena: &Arena,
    space: versa_mem::MemSpace,
    exec: &dyn LaneExec,
) -> Duration {
    // Buffers this task writes are taken out of the arena for the
    // kernel's duration; read-only arguments that don't alias them keep a
    // shared handle to the arena's buffer — no copy. Concurrent transfers
    // sourcing those buffers stay safe because the arena copies-on-write
    // around live handles.
    let mut write_ids: Vec<DataId> = Vec::new();
    for (region, mode) in &item.accesses {
        if mode.writes() {
            assert!(
                !write_ids.contains(&region.data),
                "task {:?} writes {:?} through two access clauses",
                item.task,
                region.data
            );
            write_ids.push(region.data);
        }
    }
    arena.with_buffers(space, &write_ids, |bufs| {
        let slots: Vec<Slot> = item
            .accesses
            .iter()
            .map(|(region, mode)| {
                let lo = region.offset as usize;
                let hi = region.end() as usize;
                if let Some(buf) = write_ids.iter().position(|d| *d == region.data) {
                    // Reads aliasing a written buffer view the same
                    // (taken-out) memory, read-only.
                    Slot::Owned { buf, range: lo..hi, writable: mode.writes() }
                } else {
                    Slot::Shared(arena.read_arc(region.data, space), lo..hi)
                }
            })
            .collect();
        let mut ctx = KernelCtx { bufs, slots, exec };
        let t0 = Instant::now();
        (item.kernel)(&mut ctx);
        t0.elapsed()
    })
}

// ---------------------------------------------------------------------------
// The staged transfer pipeline
// ---------------------------------------------------------------------------
//
// Each worker is a pair of pipeline threads:
//
//   coordinator ──plan──▶ outbox ──▶ stager ──▶ exec ──done──▶ coordinator
//
// The coordinator performs every directory transition (acquire,
// snapshot, rollback) single-threaded, in plan order — decisions stay
// deterministic. The byte movement happens off the coordinator:
// each planned task becomes a `StagedItem` whose `StageOp`s the worker's
// *stager* thread executes (waiting on in-flight sources via the
// `StagingLedger`'s `ReadyCell`s), after which the item flows to the
// *exec* thread that runs the kernel. At most `lookahead_depth + 1`
// items occupy a worker's pipeline, so the next task's inputs stage
// while the current kernel computes.
//
// A remote node's workers get the same lane pair (`RemoteLane`): the
// stager ships each staged copy to the node as the copy's epilogue, the
// exec thread forwards the task instead of running a kernel. The
// coordinator never touches the wire.
//
// Copies home go the same way: the coordinator plans each write-back
// when the datum's last unfinished accessor completes, and the run's
// one write-back lane performs them in plan order.

/// One step of a staged item's pre-kernel pipeline, planned by the
/// coordinator, executed by the destination worker's stager.
enum StageOp {
    /// Move bytes: wait for the source copy if it is itself in flight,
    /// perform the transfer, publish the destination cell.
    Copy {
        t: Transfer,
        wait_src: Option<Arc<ReadyCell>>,
        publish: Arc<ReadyCell>,
        /// Test hook: panic instead of copying (see
        /// [`Runtime::inject_stage_fault`]).
        inject_fault: bool,
    },
    /// The datum is already directory-valid in this space, but its bytes
    /// may still be in flight from an earlier concurrent reader's staged
    /// copy — wait for that copy to land.
    WaitLocal(Arc<ReadyCell>),
    /// Allocate zeroed backing for an output-only access.
    Ensure { data: DataId, len: usize },
}

/// A planned task travelling through one worker's staging pipeline.
struct StagedItem {
    task: TaskId,
    kernel: NativeFn,
    accesses: Vec<(Region, AccessMode)>,
    ops: Vec<StageOp>,
    /// Trace identity of this execution attempt (see [`WorkItem`]).
    version: VersionId,
    template: TemplateId,
    attempt: u32,
}

/// If an item is dropped without being staged (coordinator unwound with
/// the item still in an outbox), its publish cells must resolve — a
/// stager on another worker may be blocked waiting on one.
impl Drop for StagedItem {
    fn drop(&mut self) {
        for op in &self.ops {
            if let StageOp::Copy { publish, .. } = op {
                publish.publish_failed_if_pending("staged item dropped before execution");
            }
        }
    }
}

enum StageMsg {
    Work(StagedItem),
    Stop,
}

enum ExecMsg {
    Run {
        task: TaskId,
        kernel: NativeFn,
        accesses: Vec<(Region, AccessMode)>,
        /// Total staging time, ns.
        stage_ns: u64,
        /// Per-copy `(start, end)` offsets from the run's epoch, ns.
        stage_spans: Vec<(u64, u64)>,
        /// Per-copy `(bytes, ns)` bandwidth samples.
        samples: Vec<(u64, u64)>,
        /// Trace identity of this execution attempt (see [`WorkItem`]).
        version: VersionId,
        template: TemplateId,
        attempt: u32,
    },
    Failed {
        task: TaskId,
        msg: String,
        /// What the task is charged with: `Panic` when its own copy
        /// faulted, `NodeLost` when its own shipment found the node
        /// gone. `None` when it did not fail itself but observed
        /// another task's failure (its copy source, a local cell, a
        /// lane whose node is already lost) — it is requeued without
        /// charging a retry.
        charge: Option<FailureKind>,
    },
    Stop,
}

/// What the exec thread reports back to the coordinator per task.
enum Outcome {
    Done {
        kernel: Duration,
        /// Kernel `(start, end)` offsets from the run's epoch, ns.
        kernel_span: (u64, u64),
        stage_ns: u64,
        stage_spans: Vec<(u64, u64)>,
        samples: Vec<(u64, u64)>,
    },
    /// Staging succeeded but the execution failed: a kernel panic, a
    /// failure reported by the remote node (`Panic`), or the node
    /// disappearing under the task (`NodeLost`).
    Failed { msg: String, kind: FailureKind },
    /// The kernel never ran; `charge` as in [`ExecMsg::Failed`].
    StageFailed { msg: String, charge: Option<FailureKind> },
}

/// The remote node a lane pair fronts: the stager ships what it stages
/// there, the exec thread forwards tasks instead of running kernels.
#[derive(Clone)]
struct RemoteLane {
    node: Arc<dyn RemoteNode>,
    /// Closures don't cross the wire: the node resolves templates by
    /// name against its own registry.
    names: Arc<IdMap<TemplateId, String>>,
    /// Raised by whichever lane of the node first sees
    /// [`RemoteError::Lost`]; stagers then bounce queued items instead
    /// of shipping to a dead node.
    lost: Arc<AtomicBool>,
}

impl RemoteLane {
    /// Run one fully shipped task on the node and write its outputs
    /// back into the mirror `space`, so every later read stays local.
    fn execute(
        &self,
        item: &WorkItem,
        arena: &Arena,
        space: MemSpace,
    ) -> Result<Duration, (String, FailureKind)> {
        let req = RemoteExec {
            task: item.task,
            template: self.names.get(&item.template).cloned().unwrap_or_default(),
            version: item.version,
            attempt: item.attempt,
            accesses: item
                .accesses
                .iter()
                .map(|(region, mode)| RemoteAccess {
                    region: *region,
                    mode: *mode,
                    // The mirror buffer exists for every access (a staged
                    // copy for reads, `Ensure` for outputs), so its length
                    // is the allocation length the node must materialize.
                    alloc_len: arena.read_arc(region.data, space).len() as u64,
                })
                .collect(),
        };
        match self.node.exec(&req) {
            Ok(reply) => {
                for (data, bytes) in &reply.writes {
                    arena.write(*data, space, bytes);
                }
                Ok(reply.kernel_time)
            }
            Err(RemoteError::Task(msg)) => Err((msg, FailureKind::Panic)),
            Err(RemoteError::Lost(msg)) => {
                self.lost.store(true, Ordering::SeqCst);
                Err((msg, FailureKind::NodeLost))
            }
        }
    }
}

/// Undo record for one task's optimistic directory updates, applied in
/// reverse push order when its staging fails.
enum Rollback {
    /// Undo a read copy-in. Commutative across concurrently failing
    /// readers (each only removes its own destination space).
    Retract(DataId, MemSpace),
    /// Undo a write acquire with an exact pre-acquire snapshot. Exact
    /// restore is safe because the graph serializes every writer against
    /// all other accessors of the datum — no concurrent planner can have
    /// touched the entry in between.
    Restore(DataId, HandleState),
}

/// The staging lane of one worker: executes `StageOp`s in plan order,
/// then forwards the item to the exec thread (or a failure notice, so
/// per-worker completion order stays FIFO).
///
/// On a remote lane every copy has an epilogue: once the bytes sit in
/// the mirror space they go on the wire. The acknowledgements are
/// collected after the item's last op — all of its tiles travel
/// together — and before it is forwarded, so the node holds every input
/// before it is asked to execute. A copy's destination cell is
/// published only when its acknowledgement arrived.
#[allow(clippy::too_many_arguments)]
fn stager_loop(
    rx: mpsc::Receiver<StageMsg>,
    tx: mpsc::Sender<ExecMsg>,
    arena: Arc<Arena>,
    space: MemSpace,
    link_bandwidth: Option<u64>,
    copy_out: &CopyOut,
    wall0: Instant,
    wid: WorkerId,
    sink: Option<Arc<TraceSink>>,
    remote: Option<RemoteLane>,
) {
    // Every planned `Copy` gets exactly one Transfer event — a real span
    // on success, a truncated (or empty) span when the copy faults or is
    // abandoned — so traced bytes reconcile with plan-time TransferStats.
    let record_copy = |t: &Transfer, start: Duration, end: Duration| {
        if let Some(sink) = &sink {
            sink.record(
                wid.index(),
                TraceEvent::Transfer {
                    start: Ts(start.as_nanos() as u64),
                    end: Ts(end.as_nanos() as u64),
                    data: t.data,
                    from: t.from,
                    to: t.to,
                    bytes: t.bytes,
                    by: Some(wid),
                },
            );
        }
    };
    while let Ok(StageMsg::Work(mut item)) = rx.recv() {
        let task = item.task;
        let kernel = item.kernel.clone();
        let accesses = std::mem::take(&mut item.accesses);
        let (version, template, attempt) = (item.version, item.template, item.attempt);
        // Taking the ops out disarms StagedItem's drop guard; from here
        // every cell is resolved explicitly.
        let mut ops = std::mem::take(&mut item.ops).into_iter();
        drop(item);

        let mut stage_ns = 0u64;
        let mut stage_spans: Vec<(u64, u64)> = Vec::new();
        let mut samples: Vec<(u64, u64)> = Vec::new();
        // A copy's bytes are in place (and acknowledged, on a remote
        // lane): account its `start..now` window and publish its cell.
        let mut landed = |t: &Transfer, start: Duration, publish: &ReadyCell| {
            throttle_link(link_bandwidth, t.bytes, wall0.elapsed() - start);
            let end = wall0.elapsed();
            let took = (end - start).as_nanos() as u64;
            stage_ns += took;
            stage_spans.push((start.as_nanos() as u64, end.as_nanos() as u64));
            samples.push((t.bytes, took));
            record_copy(t, start, end);
            publish.publish_ok();
            end
        };
        // Copies whose bytes are on the wire, awaiting the node's ack.
        let mut on_wire: Vec<(Transfer, Duration, Arc<ReadyCell>, ShipTicket)> = Vec::new();
        let mut failure: Option<(String, Option<FailureKind>)> = None;
        if remote.as_ref().is_some_and(|r| r.lost.load(Ordering::SeqCst)) {
            failure = Some(("the lane's node is lost".to_string(), None));
        }
        while failure.is_none() {
            let Some(op) = ops.next() else { break };
            match op {
                StageOp::WaitLocal(cell) => {
                    if let Err(msg) = cell.wait() {
                        failure = Some((format!("upstream staging failed: {msg}"), None));
                    }
                }
                StageOp::Ensure { data, len } => arena.ensure(data, space, len),
                StageOp::Copy { t, wait_src, publish, inject_fault } => {
                    debug_assert_eq!(t.to, space, "copy planned onto the wrong lane");
                    if let Some(src) = wait_src {
                        if let Err(msg) = src.wait() {
                            let msg = format!("upstream staging failed: {msg}");
                            publish.publish_failed(msg.clone());
                            let now = wall0.elapsed();
                            record_copy(&t, now, now);
                            failure = Some((msg, None));
                            continue;
                        }
                    }
                    // Held until the copy has landed, throttle included.
                    let _link = copy_out.guard(&t);
                    let start = wall0.elapsed();
                    let moved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if inject_fault {
                            panic!("injected staging fault for {:?}", t.data);
                        }
                        arena.perform(&t);
                        remote.as_ref().map(|r| {
                            r.node.ship_begin(t.data, arena.read_arc(t.data, space).as_bytes())
                        })
                    }));
                    match moved {
                        Ok(Some(ticket)) => on_wire.push((t, start, publish, ticket)),
                        Ok(None) => {
                            landed(&t, start, &publish);
                        }
                        Err(payload) => {
                            let msg = panic_message(payload);
                            publish.publish_failed(msg.clone());
                            record_copy(&t, start, wall0.elapsed());
                            failure = Some((msg, Some(FailureKind::Panic)));
                        }
                    }
                }
            }
        }
        // Collect the acks in shipping order. A tile queued behind an
        // earlier one on the link is timed from that one's ack, so the
        // windows never overlap and each is what the link spent on it.
        let mut link_free = Duration::ZERO;
        for (t, start, publish, ticket) in on_wire {
            match ticket() {
                Ok(()) => link_free = landed(&t, start.max(link_free), &publish),
                Err(e) => {
                    let msg = e.to_string();
                    publish.publish_failed(msg.clone());
                    record_copy(&t, start, wall0.elapsed());
                    if let Some(r) = &remote {
                        r.lost.store(true, Ordering::SeqCst);
                    }
                    failure.get_or_insert((msg, Some(FailureKind::NodeLost)));
                }
            }
        }
        let sent = match failure {
            Some((msg, charge)) => {
                // Poison the copies this item never attempted, so
                // cross-worker waiters observe failure instead of
                // hanging; the coordinator rolls all of them back.
                for op in ops {
                    if let StageOp::Copy { t, publish, .. } = &op {
                        publish.publish_failed("abandoned after earlier staging failure");
                        let now = wall0.elapsed();
                        record_copy(t, now, now);
                    }
                }
                tx.send(ExecMsg::Failed { task, msg, charge })
            }
            None => tx.send(ExecMsg::Run {
                task,
                kernel,
                accesses,
                stage_ns,
                stage_spans,
                samples,
                version,
                template,
                attempt,
            }),
        };
        if sent.is_err() {
            return; // exec thread gone: coordinator is unwinding
        }
    }
    let _ = tx.send(ExecMsg::Stop);
}

/// The exec thread of one worker: runs kernels against fully staged
/// data — on this worker's lanes, or on the node a remote lane fronts —
/// forwards staging failures unchanged (keeping completion order FIFO),
/// reports outcomes with wall-clock spans for overlap accounting.
#[allow(clippy::too_many_arguments)]
fn exec_loop(
    rx: mpsc::Receiver<ExecMsg>,
    done: mpsc::Sender<(WorkerId, TaskId, Outcome)>,
    arena: Arc<Arena>,
    space: MemSpace,
    lanes: usize,
    wid: WorkerId,
    wall0: Instant,
    sink: Option<Arc<TraceSink>>,
    remote: Option<RemoteLane>,
) {
    let pool = (lanes > 1).then(|| LanePool::new(lanes));
    let exec: &dyn LaneExec = match &pool {
        Some(pool) => pool,
        None => &SerialExec,
    };
    while let Ok(msg) = rx.recv() {
        let (task, outcome) = match msg {
            ExecMsg::Stop => break,
            ExecMsg::Failed { task, msg, charge } => (task, Outcome::StageFailed { msg, charge }),
            ExecMsg::Run {
                task,
                kernel,
                accesses,
                stage_ns,
                stage_spans,
                samples,
                version,
                template,
                attempt,
            } => {
                let start = wall0.elapsed();
                if let Some(sink) = &sink {
                    sink.record(
                        wid.index(),
                        TraceEvent::TaskStart {
                            time: Ts(start.as_nanos() as u64),
                            task,
                            worker: wid,
                            version,
                            template,
                            attempt,
                        },
                    );
                }
                let item = WorkItem { task, kernel, accesses, version, template, attempt };
                let res = match &remote {
                    Some(lane) => lane.execute(&item, &arena, space),
                    None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        execute_item(item, &arena, space, exec)
                    }))
                    .map_err(|payload| (panic_message(payload), FailureKind::Panic)),
                };
                let end = wall0.elapsed();
                if let Some(sink) = &sink {
                    let time = Ts(end.as_nanos() as u64);
                    let ev = match &res {
                        Ok(kernel) => TraceEvent::TaskEnd {
                            time,
                            task,
                            worker: wid,
                            kernel_ns: kernel.as_nanos() as u64,
                        },
                        Err(_) => {
                            TraceEvent::TaskFailed { time, task, worker: wid, version, attempt }
                        }
                    };
                    sink.record(wid.index(), ev);
                }
                let outcome = match res {
                    Ok(kernel) => Outcome::Done {
                        kernel,
                        kernel_span: (start.as_nanos() as u64, end.as_nanos() as u64),
                        stage_ns,
                        stage_spans,
                        samples,
                    },
                    Err((msg, kind)) => Outcome::Failed { msg, kind },
                };
                (task, outcome)
            }
        };
        done.send((wid, task, outcome)).expect("coordinator hung up");
    }
}

/// Where a node stands between the first `NodeLost` failure seen on it
/// and the `NodeLost` trace event.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NodeLoss {
    Alive,
    /// Workers retired; tasks planned onto the node are still reporting
    /// back. Lane threads stamp `TaskStart` on their own clocks, so a
    /// loss stamped at detection time could predate a sibling lane's
    /// already-running start; draining first guarantees the stamp
    /// postdates every start on the node.
    Draining,
    Stamped,
}

/// Record `NodeLost` for every draining node with nothing left in flight.
fn stamp_drained_losses(
    node_loss: &mut [NodeLoss],
    node_inflight: &[usize],
    sink: &Option<Arc<TraceSink>>,
    wall0: Instant,
) {
    for (node, loss) in node_loss.iter_mut().enumerate() {
        if *loss == NodeLoss::Draining && node_inflight[node] == 0 {
            *loss = NodeLoss::Stamped;
            if let Some(sink) = sink {
                let node = node as u16;
                sink.record(sink.coordinator(), TraceEvent::NodeLost { time: ts(wall0), node });
            }
        }
    }
}

/// Nanoseconds of `stage` spans that intersect any `kernel` span —
/// staging time hidden under compute. Kernel spans are merged first;
/// stage spans never overlap each other (one sequential stager).
fn overlap_ns(kernel: &mut [(u64, u64)], stage: &[(u64, u64)]) -> u64 {
    kernel.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(kernel.len());
    for &(s, e) in kernel.iter() {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    let mut total = 0u64;
    for &(s, e) in stage {
        // First merged kernel interval that ends after this stage span
        // starts; walk forward while intervals still intersect it.
        let mut i = merged.partition_point(|&(_, ke)| ke <= s);
        while i < merged.len() && merged[i].0 < e {
            total += e.min(merged[i].1) - s.max(merged[i].0);
            i += 1;
        }
    }
    total
}

/// Run every submitted task to completion on real threads.
///
/// A kernel panic does not take the process down: the worker catches the
/// unwind, the coordinator rolls the task back to the ready frontier
/// (worker bookkeeping unwound, buffers restored by the arena's unwind
/// guard), reports the failure to the scheduler (quarantine accounting),
/// and retries elsewhere — until
/// [`RuntimeConfig::max_task_retries`](crate::RuntimeConfig) is
/// exhausted, which aborts with a [`RunError`] carrying the partial
/// report.
///
/// With `max_dispatch` set, at most that many tasks are dispatched this
/// call (a *wave*); everything dispatched drains before returning, and
/// ready tasks beyond the budget stay pooled in the runtime.
///
/// The coordinator plans every transfer but the byte movement runs on
/// per-worker staging lanes, with a bounded lookahead so the next task's
/// inputs stage under the current kernel; the coordinator thread never
/// waits on a copy or on the wire. With `flush_on_wait`, the `taskwait`
/// flush runs on the same terms: one write-back lane per run copies
/// each datum home as soon as no unfinished task uses it (in an
/// unbounded run) and takes the end-of-run flush of whatever is left.
/// See the pipeline comment above and DESIGN.md §2.2 for the protocol
/// and its invariants.
pub(crate) fn run_native(rt: &mut Runtime, max_dispatch: Option<u64>) -> Result<RunReport, RunError> {
    let EngineKind::Native { cfg, arena } = &rt.engine else {
        unreachable!("run_native on a non-native runtime")
    };
    let cfg = cfg.clone();
    let arena = Arc::clone(arena);
    let wall0 = Instant::now();
    let n_workers = rt.workers.len();
    // The running task plus `lookahead_depth` staging successors.
    let inflight_cap = rt.config.lookahead_depth + 1;

    let mut stats = TransferStats::default();
    let mut version_counts: IdMap<(TemplateId, VersionId), u64> = IdMap::default();
    let mut worker_counts = vec![0u64; n_workers];
    let mut worker_busy = vec![Duration::ZERO; n_workers];
    let mut worker_transfers = vec![WorkerTransferStats::default(); n_workers];
    let mut kernel_spans: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_workers];
    let mut stage_spans: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_workers];
    let mut tasks_executed = 0u64;
    let budget = max_dispatch.unwrap_or(u64::MAX);
    let mut dispatched = 0u64;
    let mut failures = FailureReport::default();
    let mut attempts: IdMap<TaskId, u32> = IdMap::default();
    let mut abort: Option<(TaskId, String)> = None;
    let mut ledger = StagingLedger::new();
    let mut rollbacks: IdMap<TaskId, Vec<Rollback>> = IdMap::default();

    // Remote nodes: which lanes front one, and per node (0 = this
    // process) how many planned tasks have not reported back yet.
    let plan = rt.remote_plan();
    let node_count = plan.node_of_worker.iter().copied().max().map_or(1, |m| m as usize + 1);
    let mut node_inflight = vec![0usize; node_count];
    let mut node_loss = vec![NodeLoss::Alive; node_count];
    // Attempts per task that ended in a node loss: not counted against
    // `max_task_retries`.
    let mut uncharged: IdMap<TaskId, u32> = IdMap::default();
    let remote_lanes: Vec<Option<RemoteLane>> = {
        let names: Arc<IdMap<TemplateId, String>> = Arc::new(if plan.by_space.is_empty() {
            IdMap::default()
        } else {
            rt.templates
                .iter()
                .enumerate()
                .map(|(i, t)| (TemplateId(i as u32), t.name.clone()))
                .collect()
        });
        let lost: Vec<Arc<AtomicBool>> =
            (0..node_count).map(|_| Arc::new(AtomicBool::new(false))).collect();
        rt.workers
            .iter()
            .zip(&plan.node_of_worker)
            .map(|(w, &node)| {
                plan.by_space.get(&w.info.space).map(|transport| RemoteLane {
                    node: Arc::clone(transport),
                    names: Arc::clone(&names),
                    lost: Arc::clone(&lost[node as usize]),
                })
            })
            .collect()
    };

    let sink = TraceSink::from_config(&rt.config.tracing, n_workers);
    let log_here = crate::tracing::begin_decision_log(rt, &sink);
    crate::tracing::record_live_created(rt, &sink, ts(wall0));

    let (done_tx, done_rx) = mpsc::channel();
    let copy_out = CopyOut::new(cfg.link_bandwidth, arena.space_count());
    // Only a run that ends with the flush writes data back early, so the
    // moved bytes are exactly the ones that flush would move.
    let write_behind = rt.config.flush_on_wait && max_dispatch.is_none();

    let writeback_samples = std::thread::scope(|scope| {
        // Every sender lives inside the scope so a coordinator panic
        // unwinds cleanly: dropping the outboxes
        // resolves their cells (StagedItem's drop guard), dropping
        // `stage_txs` stops the stagers, which drop their exec senders,
        // which stops the exec threads.
        let mut stage_txs: Vec<mpsc::Sender<StageMsg>> = Vec::with_capacity(n_workers);
        for (w, remote) in rt.workers.iter().zip(&remote_lanes) {
            let (stage_tx, stage_rx) = mpsc::channel();
            let (exec_tx, exec_rx) = mpsc::channel();
            stage_txs.push(stage_tx);
            let info = w.info;
            let lanes = if info.device.shares_host_memory() { 1 } else { cfg.gpu_lanes };
            let done = done_tx.clone();
            let stager_arena = Arc::clone(&arena);
            let exec_arena = Arc::clone(&arena);
            let link = cfg.link_bandwidth;
            let stager_sink = sink.clone();
            let exec_sink = sink.clone();
            let (stager_remote, exec_remote) = (remote.clone(), remote.clone());
            let copy_out = &copy_out;
            scope.spawn(move || {
                stager_loop(
                    stage_rx,
                    exec_tx,
                    stager_arena,
                    info.space,
                    link,
                    copy_out,
                    wall0,
                    info.id,
                    stager_sink,
                    stager_remote,
                )
            });
            scope.spawn(move || {
                exec_loop(
                    exec_rx,
                    done,
                    exec_arena,
                    info.space,
                    lanes,
                    info.id,
                    wall0,
                    exec_sink,
                    exec_remote,
                )
            });
        }
        drop(done_tx);
        // The write-back lane, in runs that may end with the flush.
        let (writeback_tx, writeback_rx) = mpsc::channel();
        let writeback = rt.config.flush_on_wait.then(|| {
            let (arena, copy_out, sink) = (&arena, &copy_out, sink.clone());
            scope.spawn(move || {
                writeback_loop(writeback_rx, arena, cfg.link_bandwidth, copy_out, wall0, sink)
            })
        });
        // Counted at plan time, like staged copies.
        let write_back = |t: Transfer, stats: &mut TransferStats| {
            stats.record(t.kind(), t.bytes);
            // A dead lane surfaces its panic when it is joined.
            let _ = writeback_tx.send(t);
        };

        // Planned items not yet admitted to a lane, and the number
        // admitted and not yet completed (bounded by `inflight_cap`).
        let mut outbox: Vec<VecDeque<StagedItem>> =
            (0..n_workers).map(|_| VecDeque::new()).collect();
        let mut lane_busy = vec![0usize; n_workers];
        let mut in_flight = 0usize;
        // The assignments of the latest drain (reused from wave to wave).
        let mut assigned = Vec::new();

        // Plan everything currently assignable within the wave budget:
        // run the scheduler, perform directory transitions, record the
        // rollback ledger, and queue `StagedItem`s — no byte movement.
        let mut plan_wave = |rt: &mut Runtime,
                         in_flight: &mut usize,
                         node_inflight: &mut Vec<usize>,
                         dispatched: &mut u64,
                    stats: &mut TransferStats,
                    worker_transfers: &mut Vec<WorkerTransferStats>,
                    ledger: &mut StagingLedger,
                    rollbacks: &mut IdMap<TaskId, Vec<Rollback>>,
                    outbox: &mut Vec<VecDeque<StagedItem>>,
                    attempts: &IdMap<TaskId, u32>| {
            for tid in rt.graph.drain_newly_ready() {
                if let Some(sink) = &sink {
                    sink.record(
                        sink.coordinator(),
                        TraceEvent::TaskReady { time: ts(wall0), task: tid },
                    );
                }
                rt.pending.push_back(tid);
            }
            let remaining = budget - *dispatched;
            if remaining == 0 {
                return;
            }
            if rt.config.fair_scheduling {
                rt.fair.order(&mut rt.pending, &rt.graph);
            }
            drain_pool(rt, (budget != u64::MAX).then_some(remaining as usize), &mut assigned);
            *dispatched += assigned.len() as u64;
            if rt.config.fair_scheduling {
                rt.fair.note_dispatched(&rt.graph, assigned.iter().map(|(t, _)| t));
            }
            crate::tracing::drain_decisions(rt, &sink, ts(wall0));
            for &(tid, a) in &assigned {
                let wi = a.worker.index();
                let space = rt.workers[wi].info.space;
                let accesses = rt.graph.node(tid).instance.accesses.clone();
                let mut ops: Vec<StageOp> = Vec::new();
                let mut rb: Vec<Rollback> = Vec::new();
                for (region, mode) in &accesses {
                    let data = region.data;
                    if mode.writes() {
                        if let Some(snap) = rt.directory.snapshot(data) {
                            rb.push(Rollback::Restore(data, snap));
                        }
                    }
                    if let Some(t) = rt.directory.acquire(data, space, *mode) {
                        if !mode.writes() {
                            // A pure read copy-in rolls back by
                            // retraction; a write's snapshot (above)
                            // already covers its transfer.
                            rb.push(Rollback::Retract(data, space));
                        }
                        let (wait_src, publish) = ledger.plan_copy(&t);
                        let inject_fault = rt.take_stage_fault(data);
                        // Counted at plan time, in plan order, so the
                        // totals do not depend on lane timing or on
                        // `lookahead_depth`.
                        stats.record(t.kind(), t.bytes);
                        let wt = &mut worker_transfers[wi];
                        wt.staged_bytes += t.bytes;
                        wt.staged_count += 1;
                        ops.push(StageOp::Copy { t, wait_src, publish, inject_fault });
                    } else if mode.reads() {
                        if let Some(cell) = ledger.pending(data, space) {
                            ops.push(StageOp::WaitLocal(cell));
                        }
                    }
                    if mode.writes() {
                        // Plan-order invariant: a writer's datum has no
                        // pending cells (the graph serialized all prior
                        // accessors); drop stale failed cells so they
                        // stop gating future readers.
                        ledger.note_write(data);
                        ops.push(StageOp::Ensure {
                            data,
                            len: rt.directory.bytes(data) as usize,
                        });
                    }
                }
                rollbacks.insert(tid, rb);
                let template = rt.graph.node(tid).instance.template;
                let kernel = if remote_lanes[wi].is_some() {
                    // The kernel runs on the node, which binds its own.
                    Arc::new(|_: &mut KernelCtx<'_>| {}) as NativeFn
                } else {
                    rt.kernels
                        .get(&(template, a.version))
                        .unwrap_or_else(|| {
                            panic!(
                                "no native kernel bound for ({:?}, {:?})",
                                rt.templates.get(template).name,
                                a.version
                            )
                        })
                        .clone()
                };
                rt.graph.mark_running(tid);
                outbox[wi].push_back(StagedItem {
                    task: tid,
                    kernel,
                    accesses,
                    ops,
                    version: a.version,
                    template,
                    attempt: attempts.get(&tid).copied().unwrap_or(0) + 1,
                });
                *in_flight += 1;
                node_inflight[plan.node_of_worker[wi] as usize] += 1;
            }
        };

        // Admit queued items to each lane up to the lookahead cap.
        let pump = |outbox: &mut Vec<VecDeque<StagedItem>>, lane_busy: &mut Vec<usize>| {
            for wi in 0..n_workers {
                while lane_busy[wi] < inflight_cap {
                    let Some(item) = outbox[wi].pop_front() else { break };
                    stage_txs[wi].send(StageMsg::Work(item)).expect("staging lane died");
                    lane_busy[wi] += 1;
                }
            }
        };

        plan_wave(
            rt,
            &mut in_flight,
            &mut node_inflight,
            &mut dispatched,
            &mut stats,
            &mut worker_transfers,
            &mut ledger,
            &mut rollbacks,
            &mut outbox,
            &attempts,
        );
        pump(&mut outbox, &mut lane_busy);

        while !rt.graph.all_done() {
            if in_flight == 0 && dispatched >= budget {
                break; // wave budget spent, everything dispatched drained
            }
            assert!(
                in_flight > 0,
                "native engine stalled with {} live tasks and {} pooled tasks",
                rt.graph.live_tasks(),
                rt.pending.len()
            );
            let (wid, tid, outcome) = done_rx.recv().expect("all workers died");
            in_flight -= 1;
            let wi = wid.index();
            lane_busy[wi] -= 1;
            node_inflight[plan.node_of_worker[wi] as usize] -= 1;

            let q = rt.workers[wi]
                .start_next()
                .expect("completion from a worker with an empty queue");
            assert_eq!(q.task, tid, "worker completions must be FIFO");
            rt.workers[wi].finish(tid);

            // A failure to account: message, what the task is charged
            // with (`None` = collateral), whether its kernel was started.
            let mut failed: Option<(String, Option<FailureKind>, bool)> = None;
            match outcome {
                Outcome::Done { kernel, kernel_span, stage_ns, stage_spans: spans, samples } => {
                    rollbacks.remove(&tid);
                    rt.graph.complete(tid, wid);
                    if write_behind {
                        // Data no unfinished task uses goes home now,
                        // under the remaining kernels, not after them.
                        for (region, _) in &rt.graph.node(tid).instance.accesses {
                            if !rt.graph.has_live_accessor(region.data) {
                                if let Some(t) = rt.directory.flush_to_host(region.data) {
                                    write_back(t, &mut stats);
                                }
                            }
                        }
                    }
                    let assignment =
                        rt.graph.node(tid).assignment.expect("completed task was assigned");
                    rt.scheduler.task_finished(&rt.graph.node(tid).instance, assignment, kernel);
                    let space = rt.workers[wi].info.space;
                    for (bytes, ns) in samples {
                        rt.scheduler.transfer_done(space, bytes, Duration::from_nanos(ns));
                    }
                    *version_counts
                        .entry((rt.graph.node(tid).instance.template, assignment.version))
                        .or_insert(0) += 1;
                    worker_counts[wi] += 1;
                    worker_busy[wi] += kernel;
                    let wt = &mut worker_transfers[wi];
                    wt.compute_time += kernel;
                    wt.stage_time += Duration::from_nanos(stage_ns);
                    kernel_spans[wi].push(kernel_span);
                    stage_spans[wi].extend(spans);
                    tasks_executed += 1;
                }
                Outcome::Failed { msg, kind } => {
                    // The execution failed after staging succeeded, so the
                    // directory's optimistic state is real — no rollback.
                    // (A remote node's outputs are only written back on
                    // success, so its mirror still holds the inputs.)
                    rollbacks.remove(&tid);
                    failed = Some((msg, Some(kind), true));
                }
                Outcome::StageFailed { msg, charge } => {
                    // The kernel never ran: undo this task's optimistic
                    // directory updates (LIFO, so a same-task read
                    // copy-in preceding a write acquire of the same
                    // datum unwinds correctly), then requeue.
                    if let Some(rb) = rollbacks.remove(&tid) {
                        for op in rb.into_iter().rev() {
                            match op {
                                Rollback::Retract(d, s) => rt.directory.retract(d, s),
                                Rollback::Restore(d, st) => rt.directory.restore(d, st),
                            }
                        }
                    }
                    failed = Some((msg, charge, false));
                }
            }

            match failed {
                None => {}
                // Collateral of another task's failure: replan without
                // charging this task an attempt (and without a trace
                // event) — the origin task's retry budget, or the
                // node's retirement, bounds the cascade.
                Some((_, None, _)) => rt.graph.requeue(tid),
                Some((msg, Some(kind), started)) => {
                    let assignment =
                        rt.graph.node(tid).assignment.expect("failed task was assigned");
                    let attempt = {
                        let n = attempts.entry(tid).or_insert(0);
                        *n += 1;
                        *n
                    };
                    // A staging failure never reached the exec thread, so
                    // no TaskStart exists — record the terminal event here
                    // (Failed-without-Start is legal).
                    if let (false, Some(sink)) = (started, &sink) {
                        sink.record(
                            sink.coordinator(),
                            TraceEvent::TaskFailed {
                                time: ts(wall0),
                                task: tid,
                                worker: wid,
                                version: assignment.version,
                                attempt,
                            },
                        );
                    }
                    failures.events.push(TaskFailure {
                        task: tid,
                        template: rt.graph.node(tid).instance.template,
                        version: assignment.version,
                        worker: wid,
                        kind,
                        message: msg.clone(),
                        attempt,
                    });
                    rt.scheduler.task_failed(&rt.graph.node(tid).instance, assignment, kind);
                    if kind == FailureKind::NodeLost {
                        // Charge the node, not the version: retire every
                        // worker the lost node hosted so the scheduler
                        // stops placing work there, and requeue
                        // unconditionally — node loss never burns the
                        // task's retry budget (the attempt number still
                        // advances: it names the attempt in the trace).
                        *uncharged.entry(tid).or_insert(0) += 1;
                        let node = plan.node_of_worker[wi];
                        if node_loss[node as usize] == NodeLoss::Alive {
                            node_loss[node as usize] = NodeLoss::Draining;
                            for (w, &n) in rt.workers.iter_mut().zip(&plan.node_of_worker) {
                                if n == node {
                                    w.retire();
                                }
                            }
                        }
                    } else if attempt - uncharged.get(&tid).copied().unwrap_or(0)
                        > rt.config.max_task_retries
                    {
                        abort = Some((tid, msg));
                        break;
                    }
                    rt.graph.requeue(tid);
                    failures.retries += 1;
                }
            }

            stamp_drained_losses(&mut node_loss, &node_inflight, &sink, wall0);

            ledger.prune();
            plan_wave(
                rt,
                &mut in_flight,
                &mut node_inflight,
                &mut dispatched,
                &mut stats,
                &mut worker_transfers,
                &mut ledger,
                &mut rollbacks,
                &mut outbox,
                &attempts,
            );
            pump(&mut outbox, &mut lane_busy);
        }

        // The `taskwait` flush: whatever is still device-only (data this
        // run never touched, or every datum in a bounded wave) goes on
        // the write-back lane behind the copies already planned there.
        if abort.is_none() && rt.config.flush_on_wait && rt.graph.all_done() {
            for t in rt.directory.flush_all_to_host() {
                write_back(t, &mut stats);
            }
        }

        // Flush every outbox before stopping (reached on abort, or when
        // a wave budget leaves planned items unadmitted): a queued item
        // may hold the publish cell a blocked stager is waiting on.
        for (wi, q) in outbox.iter_mut().enumerate() {
            while let Some(item) = q.pop_front() {
                if stage_txs[wi].send(StageMsg::Work(item)).is_err() {
                    break;
                }
            }
        }
        for tx in &stage_txs {
            let _ = tx.send(StageMsg::Stop);
        }
        drop(writeback_tx);
        writeback.map_or_else(Vec::new, |lane| {
            lane.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        })
    });

    // An abort or spent wave budget can leave a loss unstamped; the lane
    // threads have joined by now, so a stamp taken here postdates every
    // start they recorded.
    node_inflight.fill(0);
    stamp_drained_losses(&mut node_loss, &node_inflight, &sink, wall0);

    for (to, bytes, took) in writeback_samples {
        rt.scheduler.transfer_done(to, bytes, took);
    }

    for wi in 0..n_workers {
        worker_transfers[wi].overlap_time =
            Duration::from_nanos(overlap_ns(&mut kernel_spans[wi], &stage_spans[wi]));
    }

    crate::tracing::end_decision_log(rt, log_here);
    failures.quarantined = rt.quarantined_versions();
    let report = RunReport {
        scheduler: rt.scheduler.name().to_string(),
        makespan: wall0.elapsed(),
        tasks_executed,
        transfers: stats,
        version_counts: version_counts.into_iter().collect(),
        worker_task_counts: worker_counts,
        worker_busy,
        worker_transfers,
        completed: rt.graph.all_done(),
        profile_table: rt
            .scheduler
            .as_versioning()
            .map(|v| v.profiles().render_table(&rt.templates)),
        trace: sink.map(|s| s.drain(crate::tracing::trace_meta(rt, "native"))),
        failures,
    };
    match abort {
        Some((task, message)) => {
            Err(RunError { task, kind: FailureKind::Panic, message, report: Box::new(report) })
        }
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_config_validation() {
        assert!(NativeConfig::new(2, 1).validate().is_ok());
        assert!(NativeConfig { smp_workers: 0, gpus: 0, ..NativeConfig::new(0, 0) }
            .validate()
            .is_err());
        assert!(NativeConfig { gpu_lanes: 0, ..NativeConfig::new(1, 1) }.validate().is_err());
        assert!(NativeConfig { gpu_lanes: 2, ..NativeConfig::new(0, 1) }.validate().is_ok());
        assert!(NativeConfig { link_bandwidth: Some(0), ..NativeConfig::new(1, 0) }
            .validate()
            .is_err());
        assert!(NativeConfig { link_bandwidth: Some(1 << 30), ..NativeConfig::new(1, 1) }
            .validate()
            .is_ok());
    }

    #[test]
    fn default_config_is_small_but_valid() {
        let c = NativeConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.gpu_lanes, 4);
    }

    #[test]
    fn oversubscription_warns_but_validates() {
        let c = NativeConfig { gpu_lanes: 100_000, ..NativeConfig::new(1, 1) };
        assert!(c.validate().is_ok());
        assert!(!c.warnings().is_empty());
        // No GPUs → lane count is irrelevant, no warning either.
        let smp_only = NativeConfig { gpu_lanes: 100_000, ..NativeConfig::new(2, 0) };
        assert!(smp_only.warnings().is_empty());
    }

    #[test]
    fn ctx_split_borrow_and_par_bands() {
        let mut bufs = vec![AlignedBuf::zeroed(4 * 8)];
        let shared = Arc::new(AlignedBuf::from_bytes(&7.0f64.to_ne_bytes()));
        let slots = vec![
            Slot::Owned { buf: 0, range: 0..32, writable: true },
            Slot::Shared(shared, 0..8),
        ];
        let mut ctx = KernelCtx { bufs: &mut bufs, slots, exec: &SerialExec };
        assert_eq!(ctx.lanes(), 1);
        assert_eq!(ctx.arg_count(), 2);
        let (reads, out) = ctx.f64_reads_and_mut(&[1], 0);
        assert_eq!(reads[0], &[7.0]);
        out.fill(3.0);
        assert_eq!(ctx.f64(0), &[3.0; 4]);

        let sum = std::sync::Mutex::new(0usize);
        ctx.par_bands(10, |band| {
            *sum.lock().unwrap() += band.len();
        });
        assert_eq!(*sum.lock().unwrap(), 10);
    }

    #[test]
    #[should_panic(expected = "aliases written argument")]
    fn split_borrow_rejects_aliasing() {
        let mut bufs = vec![AlignedBuf::zeroed(16)];
        let slots = vec![
            Slot::Owned { buf: 0, range: 0..16, writable: true },
            Slot::Owned { buf: 0, range: 0..8, writable: false },
        ];
        let mut ctx = KernelCtx { bufs: &mut bufs, slots, exec: &SerialExec };
        let _ = ctx.f64_reads_and_mut(&[1], 0);
    }
}
