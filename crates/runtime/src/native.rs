//! Real execution engine: OS worker threads, real memory copies between
//! per-device arenas, real Rust kernels.
//!
//! SMP workers execute kernels on one core each. An *emulated GPU* is a
//! worker whose kernels may parallelize over [`NativeConfig::gpu_lanes`]
//! cores and whose memory is a separate arena space — it genuinely cannot
//! read host buffers, so the coherence machinery is exercised for real.
//! Each emulated-GPU worker owns a persistent [`LanePool`] (the kernels
//! crate's one multi-lane executor): its lane threads are spawned once
//! when the worker starts and parked between kernels, so running a
//! multi-lane kernel never spawns an OS thread.
//! Kernels reach the pool through [`KernelCtx::exec`] (or the
//! [`KernelCtx::par_bands`] convenience). Task durations reported to the
//! scheduler are wall-clock kernel times, so the versioning scheduler
//! learns real device speed ratios.

use crate::assign::Wave;
use crate::remote::{RemoteAccess, RemoteError, RemoteExec, RemoteNode, RemotePlan, ShipTicket};
use crate::report::{Abort, Attempts, RunError, RunTally};
use crate::runtime::{EngineKind, NativeFn};
use crate::tracing::record_transfer;
use crate::{RunReport, Runtime};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use versa_core::{Assignment, FailureKind, TaskId, TemplateId, VersionId, WorkerId};
use versa_kernels::chunk_ranges;
use versa_kernels::exec::{LaneExec, LanePool, SerialExec};
use versa_mem::{
    AccessMode, AlignedBuf, Arena, DataId, HandleState, IdMap, MemSpace, ReadyCell, Region,
    StagingLedger, Transfer, TransferStats,
};
use versa_trace::{TraceEvent, TraceSink, Ts};

/// Wall-clock offset from the run's epoch as a trace timestamp.
fn ts(wall0: Instant) -> Ts {
    at(wall0.elapsed())
}

/// An offset from the run's epoch as a trace timestamp.
fn at(offset: Duration) -> Ts {
    Ts(offset.as_nanos() as u64)
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
    /// GPUs) are errors; oversubscription is allowed (lanes are ordinary
    /// OS threads that time-share cores).
    pub(crate) fn validate(&self) -> Result<(), String> {
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
    pub(crate) fn bytes(&self, i: usize) -> &[u8] {
        match &self.slots[i] {
            Slot::Owned { buf, range, .. } => &self.bufs[*buf].as_bytes()[range.clone()],
            Slot::Shared(b, range) => &b.as_bytes()[range.clone()],
        }
    }

    /// Mutable raw bytes of argument `i`.
    ///
    /// # Panics
    /// Panics if access `i` is an `input` (read-only) clause.
    pub(crate) fn bytes_mut(&mut self, i: usize) -> &mut [u8] {
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
    pub(crate) fn f32(&self, i: usize) -> &[f32] {
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

/// One execution attempt of a task, as the coordinator planned it.
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
/// coordinator planned, in plan order, under the link's copy-out rule,
/// and publishes each copy's cell once its bytes are home. A copy whose
/// source copy failed, or that carries an injected fault, publishes
/// failure instead and moves nothing. Each copy arrives as a one-op
/// [`StageOps`], whose drop guard resolves the cell of a copy the lane
/// never makes (it died, or refused the message): a host reader's
/// stager may be waiting on it.
/// Returns each copy's `(to, bytes, took)` sample in plan order; the
/// coordinator hands them to the scheduler once the lane has joined, so
/// in-run decisions never see them.
fn writeback_loop(
    rx: mpsc::Receiver<StageOps>,
    arena: &Arena,
    link_bandwidth: Option<u64>,
    copy_out: &CopyOut,
    wall0: Instant,
    sink: Option<Arc<TraceSink>>,
) -> Vec<(MemSpace, u64, Duration)> {
    let mut samples = Vec::new();
    for ops in rx {
        let [StageOp::Copy { t, wait_src, publish, inject_fault }] = &ops.0[..] else {
            unreachable!("a write-back is one copy")
        };
        let failed = match wait_src.as_ref().map(|src| src.wait()) {
            Some(Err(msg)) => Some(format!("upstream staging failed: {msg}")),
            _ => inject_fault.then(|| format!("injected staging fault for {:?}", t.data)),
        };
        if let Some(msg) = failed {
            publish.publish_failed(msg);
            let now = ts(wall0);
            record_transfer(&sink, None, t, (now, now), None);
            continue;
        }
        let _link = copy_out.guard(t);
        let start = wall0.elapsed();
        arena.perform(t);
        throttle_link(link_bandwidth, t.bytes, wall0.elapsed() - start);
        let end = wall0.elapsed();
        record_transfer(&sink, None, t, (at(start), at(end)), None);
        publish.publish_ok();
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
// when the datum's last unfinished writer completes, with a ledger cell
// like any staged copy, and the run's one write-back lane performs them
// in plan order. A host reader planned after it waits on that cell
// (`WaitLocal`) instead of copying the datum out itself; a device reader
// copies from a device while the host copy is in flight.

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
    work: WorkItem,
    ops: StageOps,
}

/// A staged item's pre-kernel steps.
struct StageOps(Vec<StageOp>);

/// If an item is dropped without being staged (coordinator unwound with
/// the item still in an outbox), its publish cells must resolve — a
/// stager on another worker may be blocked waiting on one.
impl Drop for StageOps {
    fn drop(&mut self) {
        for op in &self.0 {
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
        work: WorkItem,
        /// Total staging time, ns.
        stage_ns: u64,
        /// Per-copy `(start, end)` offsets from the run's epoch, ns.
        stage_spans: Vec<(u64, u64)>,
        /// Per-copy `(bytes, ns)` bandwidth samples.
        samples: Vec<(u64, u64)>,
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

/// One task's outcome, as its worker's exec thread reports it.
type Reported = (WorkerId, TaskId, Outcome);

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

/// What a worker's two lane threads share: its memory space and trace
/// identity, the run's epoch and tracer, and the remote node it may
/// front.
#[derive(Clone)]
struct LaneCtx {
    arena: Arc<Arena>,
    space: MemSpace,
    wid: WorkerId,
    wall0: Instant,
    sink: Option<Arc<TraceSink>>,
    remote: Option<RemoteLane>,
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
fn stager_loop(
    rx: mpsc::Receiver<StageMsg>,
    tx: mpsc::Sender<ExecMsg>,
    ctx: LaneCtx,
    link_bandwidth: Option<u64>,
    copy_out: &CopyOut,
) {
    let LaneCtx { arena, space, wid, wall0, sink, remote } = ctx;
    // Every planned `Copy` gets exactly one Transfer event — a real span
    // on success, a truncated (or empty) span when the copy faults or is
    // abandoned — so traced bytes reconcile with plan-time TransferStats.
    let record_copy = |t: &Transfer, start: Duration, end: Duration| {
        record_transfer(&sink, Some(wid.index()), t, (at(start), at(end)), Some(wid));
    };
    while let Ok(StageMsg::Work(StagedItem { work, mut ops })) = rx.recv() {
        // Taking the ops out disarms their drop guard; from here every
        // cell is resolved explicitly.
        let mut ops = std::mem::take(&mut ops.0).into_iter();

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
                tx.send(ExecMsg::Failed { task: work.task, msg, charge })
            }
            None => tx.send(ExecMsg::Run { work, stage_ns, stage_spans, samples }),
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
fn exec_loop(rx: mpsc::Receiver<ExecMsg>, tx: mpsc::Sender<Reported>, ctx: LaneCtx, cores: usize) {
    let LaneCtx { arena, space, wid, wall0, sink, remote } = ctx;
    let pool = (cores > 1).then(|| LanePool::new(cores));
    let exec: &dyn LaneExec = match &pool {
        Some(pool) => pool,
        None => &SerialExec,
    };
    while let Ok(msg) = rx.recv() {
        let (task, outcome) = match msg {
            ExecMsg::Stop => break,
            ExecMsg::Failed { task, msg, charge } => (task, Outcome::StageFailed { msg, charge }),
            ExecMsg::Run { work, stage_ns, stage_spans, samples } => {
                let (task, version, attempt) = (work.task, work.version, work.attempt);
                let start = wall0.elapsed();
                if let Some(sink) = &sink {
                    sink.record(
                        wid.index(),
                        TraceEvent::TaskStart {
                            time: at(start),
                            task,
                            worker: wid,
                            version,
                            template: work.template,
                            attempt,
                        },
                    );
                }
                let res = match &remote {
                    Some(lane) => lane.execute(&work, &arena, space),
                    None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        execute_item(work, &arena, space, exec)
                    }))
                    .map_err(|payload| (panic_message(payload), FailureKind::Panic)),
                };
                let end = wall0.elapsed();
                if let Some(sink) = &sink {
                    let time = at(end);
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
        tx.send((wid, task, outcome)).expect("coordinator hung up");
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

/// The coordinator's end of one worker's lane pair.
struct LaneEnd {
    tx: mpsc::Sender<StageMsg>,
    /// Planned items not yet admitted to the lane.
    outbox: VecDeque<StagedItem>,
    /// Items admitted and not yet completed (at most `inflight_cap`).
    busy: usize,
    /// The node the worker runs on (0 = this process).
    node: u16,
    /// Whether the lane fronts a remote node, which binds its own kernels.
    remote: bool,
    /// Wall-clock kernel and staging spans, for the overlap accounting.
    kernel_spans: Vec<(u64, u64)>,
    stage_spans: Vec<(u64, u64)>,
}

/// The coordinator of one native run: it plans every transfer and makes
/// every directory transition, single-threaded and in plan order, while
/// the lanes move the bytes and run the kernels.
struct NativeRun {
    tally: RunTally,
    wave: Wave,
    wall0: Instant,
    /// Transfer accounting, counted at plan time in plan order, so the
    /// totals depend neither on lane timing nor on `lookahead_depth`.
    stats: TransferStats,
    ledger: StagingLedger,
    /// The directory undo log of every planned, unfinished task.
    rollbacks: IdMap<TaskId, Vec<Rollback>>,
    /// The attempts record of every task that failed in this run.
    attempts: IdMap<TaskId, Attempts>,
    lanes: Vec<LaneEnd>,
    /// The running task plus `lookahead_depth` staging successors.
    inflight_cap: usize,
    /// Planned tasks that have not reported back, in all and per node.
    in_flight: usize,
    node_inflight: Vec<usize>,
    node_loss: Vec<NodeLoss>,
    /// The write-back lane, in runs that end with the flush: a datum
    /// goes home on it as soon as no unfinished task writes it.
    writeback: Option<mpsc::Sender<StageOps>>,
    /// Each planned write-back's datum and cell, until the copy resolves.
    homing: Vec<(DataId, Arc<ReadyCell>)>,
}

impl NativeRun {
    /// Plan, then account each outcome and replan, until everything is
    /// done, the wave budget is spent and drained, or a task exhausts
    /// its retries.
    fn drive(&mut self, rt: &mut Runtime, done: &mpsc::Receiver<Reported>) -> Option<Abort> {
        self.plan(rt);
        while !rt.graph.all_done() {
            if self.in_flight == 0 && self.wave.spent() {
                break; // wave budget spent, everything dispatched drained
            }
            assert!(
                self.in_flight > 0,
                "native engine stalled with {} live tasks and {} pooled tasks",
                rt.graph.live_tasks(),
                rt.pending.len()
            );
            let abort = self.on_outcome(rt, done.recv().expect("all workers died"));
            if abort.is_some() {
                return abort;
            }
            self.stamp_drained_losses();
            self.plan(rt);
        }
        None
    }

    /// Plan everything currently assignable within the wave budget, then
    /// admit queued items to each lane up to the lookahead cap.
    fn plan(&mut self, rt: &mut Runtime) {
        self.sweep_homing(rt);
        self.ledger.prune();
        self.wave.dispatch(rt, &self.tally.sink, ts(self.wall0));
        for i in 0..self.wave.assigned.len() {
            let (tid, a) = self.wave.assigned[i];
            self.plan_task(rt, tid, a);
        }
        for lane in &mut self.lanes {
            while lane.busy < self.inflight_cap {
                let Some(item) = lane.outbox.pop_front() else { break };
                lane.tx.send(StageMsg::Work(item)).expect("staging lane died");
                lane.busy += 1;
            }
        }
    }

    /// Plan one assigned task: perform its directory transitions, record
    /// their undo log, and queue its `StagedItem` — no byte movement.
    fn plan_task(&mut self, rt: &mut Runtime, tid: TaskId, a: Assignment) {
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
            if let Some(mut t) = rt.directory.acquire(data, space, *mode) {
                if t.from.is_host() && self.ledger.pending(data, MemSpace::HOST).is_some() {
                    // The host copy is still in flight (a write-back, say):
                    // copy from a device that holds the value instead of
                    // queueing behind it. The directory keeps preferring
                    // the host.
                    let state = rt.directory.state(data).expect("acquired data is registered");
                    let other = |s: &&MemSpace| !s.is_host() && **s != space;
                    if let Some(&dev) = state.valid_spaces().iter().find(other) {
                        t.from = dev;
                    }
                }
                if !mode.writes() {
                    // A pure read copy-in rolls back by retraction; a
                    // write's snapshot (above) already covers its transfer.
                    rb.push(Rollback::Retract(data, space));
                }
                let (wait_src, publish) = self.ledger.plan_copy(&t);
                let inject_fault = rt.take_stage_fault(data);
                self.stats.record(t.kind(), t.bytes);
                let wt = &mut self.tally.worker_transfers[wi];
                wt.staged_bytes += t.bytes;
                wt.staged_count += 1;
                ops.push(StageOp::Copy { t, wait_src, publish, inject_fault });
            } else if mode.reads() {
                if let Some(cell) = self.ledger.pending(data, space) {
                    ops.push(StageOp::WaitLocal(cell));
                }
            }
            if mode.writes() {
                // Plan-order invariant: a writer's datum has no pending
                // cells (the graph serialized all prior accessors); drop
                // stale failed cells so they stop gating future readers.
                self.ledger.note_write(data);
                ops.push(StageOp::Ensure { data, len: rt.directory.bytes(data) as usize });
            }
        }
        self.rollbacks.insert(tid, rb);
        let template = rt.graph.node(tid).instance.template;
        let lane = &mut self.lanes[wi];
        let kernel = if lane.remote {
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
        let attempt = self.attempts.get(&tid).map_or(1, |n| n.made + 1);
        let work = WorkItem { task: tid, kernel, accesses, version: a.version, template, attempt };
        lane.outbox.push_back(StagedItem { work, ops: StageOps(ops) });
        self.in_flight += 1;
        self.node_inflight[lane.node as usize] += 1;
    }

    /// Plan a copy home on the write-back lane like a staged copy:
    /// counted at plan time, with a ledger cell that host readers planned
    /// after it wait on.
    fn write_back(&mut self, rt: &mut Runtime, t: Transfer) {
        self.stats.record(t.kind(), t.bytes);
        let (wait_src, publish) = self.ledger.plan_copy(&t);
        let inject_fault = rt.take_stage_fault(t.data);
        self.homing.push((t.data, Arc::clone(&publish)));
        if let Some(tx) = &self.writeback {
            // A copy a dead lane refuses resolves its cell as it drops;
            // the lane's panic surfaces when it is joined.
            let _ = tx.send(StageOps(vec![StageOp::Copy { t, wait_src, publish, inject_fault }]));
        }
    }

    /// Forget the write-backs that landed. One that failed left the host
    /// stale: retract the host copy it marked valid, so the next host
    /// reader copies the datum out itself instead of replanning onto the
    /// failed cell.
    fn sweep_homing(&mut self, rt: &Runtime) {
        self.homing.retain(|(data, cell)| match cell.poll() {
            None => true,
            Some(Ok(())) => false,
            Some(Err(_)) => {
                rt.directory.retract(*data, MemSpace::HOST);
                false
            }
        });
    }

    /// Account one task's outcome: complete it (writing behind the data
    /// no unfinished task writes), or undo what staging failed to do and
    /// hand the failure to the shared failure path. Returns the abort
    /// when that failure exhausted the task's retry budget.
    fn on_outcome(&mut self, rt: &mut Runtime, (wid, tid, outcome): Reported) -> Option<Abort> {
        self.in_flight -= 1;
        let wi = wid.index();
        let lane = &mut self.lanes[wi];
        lane.busy -= 1;
        self.node_inflight[lane.node as usize] -= 1;
        let q = rt.workers[wi].start_next().expect("completion from a worker with an empty queue");
        assert_eq!(q.task, tid, "worker completions must be FIFO");
        rt.workers[wi].finish(tid);
        let rollback = self.rollbacks.remove(&tid);

        let (msg, charge, started) = match outcome {
            Outcome::Done { kernel, kernel_span, stage_ns, stage_spans, samples } => {
                self.tally.completed(rt, tid, wid, kernel);
                let space = rt.workers[wi].info.space;
                for (bytes, ns) in samples {
                    rt.scheduler.transfer_done(space, bytes, Duration::from_nanos(ns));
                }
                self.tally.worker_transfers[wi].stage_time += Duration::from_nanos(stage_ns);
                lane.kernel_spans.push(kernel_span);
                lane.stage_spans.extend(stage_spans);
                if self.writeback.is_some() {
                    // Data no unfinished task writes is final: it goes
                    // home now, under the remaining kernels, while its
                    // last readers may still run.
                    for i in 0..rt.graph.node(tid).instance.accesses.len() {
                        let data = rt.graph.node(tid).instance.accesses[i].0.data;
                        if !rt.graph.has_live_writer(data) {
                            if let Some(t) = rt.directory.flush_to_host(data) {
                                self.write_back(rt, t);
                            }
                        }
                    }
                }
                return None;
            }
            // The execution failed after staging succeeded, so the
            // directory's optimistic state is real — no rollback. (A
            // remote node's outputs are only written back on success, so
            // its mirror still holds the inputs.)
            Outcome::Failed { msg, kind } => (msg, Some(kind), true),
            Outcome::StageFailed { msg, charge } => {
                // The kernel never ran: undo this task's optimistic
                // directory updates (LIFO, so a same-task read copy-in
                // preceding a write acquire of the same datum unwinds
                // correctly), then requeue.
                for op in rollback.into_iter().flatten().rev() {
                    match op {
                        Rollback::Retract(d, s) => rt.directory.retract(d, s),
                        Rollback::Restore(d, st) => rt.directory.restore(d, st),
                    }
                }
                (msg, charge, false)
            }
        };
        let Some(kind) = charge else {
            // Collateral of another task's failure: replan without
            // charging this task an attempt (and without a trace event) —
            // the origin task's retry budget, or the node's retirement,
            // bounds the cascade.
            rt.graph.requeue(tid);
            return None;
        };
        // A staging failure never reached the exec thread, so no
        // TaskStart exists: the coordinator records the terminal event
        // (Failed-without-Start is legal).
        let sink = self.tally.sink.as_ref().filter(|_| !started);
        let stamp = sink.map(|sink| (sink.coordinator(), ts(self.wall0)));
        let attempts = self.attempts.entry(tid).or_default();
        let abort = self.tally.failed(rt, (tid, wid), (kind, msg), attempts, stamp);
        let node = self.lanes[wi].node;
        if kind == FailureKind::NodeLost && self.node_loss[node as usize] == NodeLoss::Alive {
            // Charge the node, not the version: retire every worker the
            // lost node hosted so the scheduler stops placing work there.
            self.node_loss[node as usize] = NodeLoss::Draining;
            for (w, lane) in rt.workers.iter_mut().zip(&self.lanes) {
                if lane.node == node {
                    w.retire();
                }
            }
        }
        abort
    }

    /// Record `NodeLost` for every draining node with nothing left in flight.
    fn stamp_drained_losses(&mut self) {
        for (node, loss) in self.node_loss.iter_mut().enumerate() {
            if *loss == NodeLoss::Draining && self.node_inflight[node] == 0 {
                *loss = NodeLoss::Stamped;
                if let Some(sink) = &self.tally.sink {
                    let (time, node) = (ts(self.wall0), node as u16);
                    sink.record(sink.coordinator(), TraceEvent::NodeLost { time, node });
                }
            }
        }
    }

    /// Stop planning: queue the `taskwait` flush unless the run aborted,
    /// hand every lane what is left in its outbox, and stop the lanes.
    fn close(&mut self, rt: &mut Runtime, aborted: bool) {
        // Every task is done, so every early write-back resolves; one
        // that failed is retracted and planned again here, with whatever
        // else is still device-only (data this run never touched, or left
        // there by an earlier wave).
        if !aborted && self.writeback.is_some() {
            for (_, cell) in &self.homing {
                let _ = cell.wait();
            }
            self.sweep_homing(rt);
            for t in rt.directory.flush_all_to_host() {
                self.write_back(rt, t);
            }
        }
        // Flush every outbox before stopping (reached on abort, or when a
        // wave budget leaves planned items unadmitted): a queued item may
        // hold the publish cell a blocked stager is waiting on. Items a
        // dead lane refuses resolve their cells as they drop here.
        for lane in &mut self.lanes {
            while let Some(item) = lane.outbox.pop_front() {
                if lane.tx.send(StageMsg::Work(item)).is_err() {
                    lane.outbox.clear();
                }
            }
        }
        for lane in &self.lanes {
            let _ = lane.tx.send(StageMsg::Stop);
        }
        self.writeback = None;
    }
}

/// Each worker's remote lane, if a remote node hosts it: the node's
/// transport, the template names the node resolves kernels by, and the
/// `lost` flag all of the node's lanes share.
fn remote_lanes(rt: &Runtime, plan: &RemotePlan, nodes: usize) -> Vec<Option<RemoteLane>> {
    let names: Arc<IdMap<TemplateId, String>> = Arc::new(if plan.by_space.is_empty() {
        IdMap::default()
    } else {
        rt.templates
            .iter()
            .enumerate()
            .map(|(i, t)| (TemplateId(i as u32), t.name.clone()))
            .collect()
    });
    let lost: Vec<Arc<AtomicBool>> = (0..nodes).map(|_| Arc::new(AtomicBool::new(false))).collect();
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
/// With a bounded `wave`, at most its budget of tasks is dispatched this
/// call; everything dispatched drains before returning, and
/// ready tasks beyond the budget stay pooled in the runtime.
///
/// The coordinator plans every transfer but the byte movement runs on
/// per-worker staging lanes, with a bounded lookahead so the next task's
/// inputs stage under the current kernel; the coordinator thread never
/// waits on a copy or on the wire while tasks remain. A run that ends
/// with the flush runs it on the same terms: one write-back lane per run
/// copies each datum home as soon as no unfinished task writes it and
/// takes the end-of-run flush of whatever is left, including any early
/// write-back that failed.
/// See the pipeline comment above and DESIGN.md §2.2 for the protocol
/// and its invariants.
pub(crate) fn run_native(rt: &mut Runtime, wave: Wave) -> Result<RunReport, RunError> {
    let EngineKind::Native { cfg, arena } = &rt.engine else {
        unreachable!("run_native on a non-native runtime")
    };
    let (cfg, arena) = (cfg.clone(), Arc::clone(arena));
    let wall0 = Instant::now();
    // Remote nodes: which lanes front one, and which node hosts each
    // worker (0 = this process).
    let plan = rt.remote_plan();
    let nodes = plan.node_of_worker.iter().copied().max().map_or(1, |m| m as usize + 1);
    let remote_lanes = remote_lanes(rt, &plan, nodes);
    let tally = RunTally::begin(rt, ts(wall0));
    let sink = tally.sink.clone();
    let (done_tx, done_rx) = mpsc::channel();
    let copy_out = CopyOut::new(cfg.link_bandwidth, arena.space_count());

    let (mut run, abort, writeback_samples) = std::thread::scope(|scope| {
        // Every sender lives inside the scope so a coordinator panic
        // unwinds cleanly: dropping the outboxes resolves their cells
        // (the `StageOps` drop guard), dropping the lane senders stops the
        // stagers, which drop their exec senders, which stops the exec
        // threads.
        let mut lanes = Vec::with_capacity(rt.workers.len());
        for ((w, remote), &node) in rt.workers.iter().zip(remote_lanes).zip(&plan.node_of_worker) {
            let (stage_tx, stage_rx) = mpsc::channel();
            let (exec_tx, exec_rx) = mpsc::channel();
            let (arena, sink) = (Arc::clone(&arena), sink.clone());
            let ctx = LaneCtx { arena, space: w.info.space, wid: w.info.id, wall0, sink, remote };
            lanes.push(LaneEnd {
                tx: stage_tx,
                outbox: VecDeque::new(),
                busy: 0,
                node,
                remote: ctx.remote.is_some(),
                kernel_spans: Vec::new(),
                stage_spans: Vec::new(),
            });
            let (stager, link, copy_out) = (ctx.clone(), cfg.link_bandwidth, &copy_out);
            scope.spawn(move || stager_loop(stage_rx, exec_tx, stager, link, copy_out));
            let cores = if w.info.device.shares_host_memory() { 1 } else { cfg.gpu_lanes };
            let done = done_tx.clone();
            scope.spawn(move || exec_loop(exec_rx, done, ctx, cores));
        }
        drop(done_tx);
        let (writeback, writeback_lane) = wave
            .flush
            .then(|| {
                let (tx, rx) = mpsc::channel();
                let (arena, copy_out, sink) = (&arena, &copy_out, sink.clone());
                let link = cfg.link_bandwidth;
                (tx, scope.spawn(move || writeback_loop(rx, arena, link, copy_out, wall0, sink)))
            })
            .unzip();
        let mut run = NativeRun {
            tally,
            wave,
            wall0,
            stats: TransferStats::default(),
            ledger: StagingLedger::new(),
            rollbacks: IdMap::default(),
            attempts: IdMap::default(),
            lanes,
            inflight_cap: rt.config.lookahead_depth + 1,
            in_flight: 0,
            node_inflight: vec![0; nodes],
            node_loss: vec![NodeLoss::Alive; nodes],
            // Only a run that ends with the flush writes data back early,
            // so the moved bytes are exactly the ones that flush would move.
            writeback,
            homing: Vec::new(),
        };
        let abort = run.drive(rt, &done_rx);
        run.close(rt, abort.is_some());
        let samples = writeback_lane.map_or_else(Vec::new, |lane| {
            lane.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        });
        (run, abort, samples)
    });

    // An abort or spent wave budget can leave a loss unstamped; the lane
    // threads have joined by now, so a stamp taken here postdates every
    // start they recorded.
    run.node_inflight.fill(0);
    run.stamp_drained_losses();
    // The lane has joined: no write-back it failed leaves a host copy.
    run.sweep_homing(rt);
    for (to, bytes, took) in writeback_samples {
        rt.scheduler.transfer_done(to, bytes, took);
    }
    for (wt, lane) in run.tally.worker_transfers.iter_mut().zip(&mut run.lanes) {
        wt.overlap_time =
            Duration::from_nanos(overlap_ns(&mut lane.kernel_spans, &lane.stage_spans));
    }
    run.tally.finish(rt, "native", wall0.elapsed(), run.stats, abort)
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
    fn oversubscription_validates() {
        let c = NativeConfig { gpu_lanes: 100_000, ..NativeConfig::new(1, 1) };
        assert!(c.validate().is_ok());
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
        assert_eq!(ctx.exec.lanes(), 1);
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
