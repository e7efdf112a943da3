//! The remote worker process: connect, handshake, serve.
//!
//! A worker owns no task graph and no scheduler — it is a kernel
//! execution service. It registers the *same templates and kernels* as
//! the coordinator (both call the application's registration function,
//! e.g. `versa_apps::matmul::register_native`), so the template names
//! the coordinator dispatches resolve to real closures here.
//!
//! Serve loop semantics:
//!
//! * `Ship` — store the bytes in the local arena (host space), ack.
//!   Handled inline: shipments are ordered with respect to the
//!   executions the coordinator issues after them.
//! * `Exec` — handed to a fixed pool of `smp_workers` threads started
//!   with the membership, so a node with N advertised workers really
//!   executes N tasks concurrently (the coordinator never has more than
//!   that in flight) and heartbeats keep being answered while kernels
//!   run. Kernel panics are caught and reported as `ExecErr` — the
//!   connection survives. Replies are laid out (checksum included)
//!   straight from the arena's buffers before the writer lock is taken.
//! * `Heartbeat` — acked inline.
//! * `Shutdown` — cache the coordinator's gossiped hints to the
//!   configured file (warmth for the next join), ack, exit.
//!
//! The pool is joined before the membership's [`WorkerReport`] is
//! built, so `execs` counts every task that ran, and a reply that could
//! not be written ends the membership with that error.

use crate::protocol::{
    read_frame, write_frame, Frame, ProtoError, WireAccess, WireFrame, MAX_PAYLOAD,
};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use versa_core::profile::HintsError;
use versa_core::{SchedulerKind, VersionId};
use versa_mem::{AccessMode, AlignedBuf, DataId, MemSpace, Region};
use versa_runtime::{DetachedExecutor, NativeConfig, Runtime, RuntimeConfig};

/// How a worker process joins a cluster.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address to dial (`host:port`).
    pub connect: String,
    /// Self-reported node name (empty = let the coordinator use the
    /// peer address).
    pub name: String,
    /// SMP workers to advertise (the coordinator schedules this many
    /// concurrent tasks onto the node).
    pub smp_workers: usize,
    /// Where to cache gossiped profile hints across memberships
    /// (`None` = don't cache).
    pub hints_cache: Option<PathBuf>,
}

impl WorkerConfig {
    /// A worker dialing `connect` with `smp_workers` advertised workers.
    pub fn new(connect: impl Into<String>, smp_workers: usize) -> WorkerConfig {
        WorkerConfig {
            connect: connect.into(),
            name: String::new(),
            smp_workers,
            hints_cache: None,
        }
    }
}

/// What a worker did during one membership.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// The node id the coordinator assigned.
    pub node_id: u16,
    /// Profile-hint records applied from the coordinator's welcome
    /// gossip (`Ok(0)` = the coordinator was cold), or why they were
    /// rejected. Rejected hints do not end the membership: the worker
    /// serves cold.
    pub hints_applied: Result<usize, HintsError>,
    /// Tasks executed.
    pub execs: u64,
    /// Shipments received.
    pub ships: u64,
}

/// Run a worker to completion: dial the coordinator, serve until it
/// sends `Shutdown` (or drops the connection), return what happened.
///
/// `register` binds the application's templates and kernels onto the
/// worker's runtime — it must match what the coordinator registered, or
/// dispatched templates will fail with `ExecErr`.
pub fn run_worker(
    cfg: WorkerConfig,
    register: impl FnOnce(&mut Runtime),
) -> Result<WorkerReport, ProtoError> {
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        NativeConfig::new(cfg.smp_workers.max(1), 0),
    );
    register(&mut rt);

    let cached = cfg
        .hints_cache
        .as_ref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .unwrap_or_default();

    let mut stream = TcpStream::connect(&cfg.connect)?;
    stream.set_nodelay(true).ok();
    write_frame(
        &mut stream,
        &Frame::Hello {
            name: cfg.name.clone(),
            smp_workers: cfg.smp_workers as u32,
            simd_tier: versa_kernels_tier(),
            hints: cached,
        },
        0,
    )?;
    let (frame, _) = read_frame(&mut stream)?.ok_or(ProtoError::Truncated)?;
    let Frame::Welcome { node_id, hints } = frame else {
        return Err(ProtoError::BadPayload);
    };
    let hints_applied =
        if hints.is_empty() { Ok(0) } else { rt.load_hints(&hints).map(|(a, _)| a) };

    let executor = rt.detach_executor().expect("native runtime has an executor");
    serve(stream, &executor, &cfg, node_id, hints_applied)
}

fn versa_kernels_tier() -> String {
    versa_kernels::simd::active_tier().name().to_string()
}

/// One dispatched task, as the reader thread hands it to the pool.
struct ExecJob {
    tag: u64,
    template: String,
    version: u16,
    accesses: Vec<WireAccess>,
}

fn serve(
    stream: TcpStream,
    executor: &DetachedExecutor,
    cfg: &WorkerConfig,
    node_id: u16,
    hints_applied: Result<usize, HintsError>,
) -> Result<WorkerReport, ProtoError> {
    let writer = Mutex::new(stream.try_clone()?);
    // Buffered: a frame's header and scalar fields cost one read, and
    // tile bodies larger than the buffer still land directly in place.
    let mut reader = std::io::BufReader::new(stream);
    let execs = AtomicU64::new(0);
    let mut ships = 0u64;
    let (jobs_tx, jobs_rx) = mpsc::channel::<ExecJob>();
    let jobs_rx = Mutex::new(jobs_rx);
    let reply = |frame: &Frame, tag: u64| {
        write_frame(&mut *writer.lock().expect("worker writer lock poisoned"), frame, tag)
    };

    let served = std::thread::scope(|scope| {
        let pool: Vec<_> = (0..cfg.smp_workers.max(1))
            .map(|_| scope.spawn(|| exec_lane(&jobs_rx, executor, &writer, &execs)))
            .collect();

        // Loop ends when the coordinator sends Shutdown, or drops the
        // connection without one — from this side the latter is a normal
        // (if abrupt) end of service.
        let mut read_loop = || -> Result<(), ProtoError> {
            while let Some((frame, tag)) = read_frame(&mut reader)? {
                match frame {
                    Frame::Ship { data, bytes } => {
                        let arena = executor.arena();
                        arena.ensure(DataId(data), MemSpace::HOST, bytes.len());
                        arena.write(DataId(data), MemSpace::HOST, &bytes);
                        ships += 1;
                        reply(&Frame::ShipAck, tag)?;
                    }
                    Frame::Heartbeat => reply(&Frame::HeartbeatAck, tag)?,
                    Frame::Exec { template, version, accesses, .. } => {
                        // Fails only when every lane already ended on a
                        // write error, which the join below surfaces.
                        let _ = jobs_tx.send(ExecJob { tag, template, version, accesses });
                    }
                    Frame::Shutdown { hints } => {
                        if let Some(path) = &cfg.hints_cache {
                            if !hints.is_empty() {
                                let _ = std::fs::write(path, &hints);
                            }
                        }
                        reply(&Frame::ShutdownAck, tag)?;
                        break;
                    }
                    // A worker never receives responses or handshake frames;
                    // tolerate and ignore rather than dying mid-job.
                    _ => {}
                }
            }
            Ok(())
        };
        let mut served = read_loop();

        // Closing the queue lets each lane finish what it holds and end.
        drop(jobs_tx);
        for lane in pool {
            let wrote = lane.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            served = served.and(wrote);
        }
        served
    });
    served?;

    Ok(WorkerReport { node_id, hints_applied, execs: execs.load(Ordering::SeqCst), ships })
}

/// One pool thread: run queued tasks until the queue closes; stop at
/// the first reply that cannot be written (the link is gone).
fn exec_lane(
    jobs: &Mutex<mpsc::Receiver<ExecJob>>,
    executor: &DetachedExecutor,
    writer: &Mutex<TcpStream>,
    execs: &AtomicU64,
) -> Result<(), ProtoError> {
    loop {
        let job = jobs.lock().expect("worker job queue lock poisoned").recv();
        let Ok(ExecJob { tag, template, version, accesses }) = job else {
            return Ok(());
        };
        let outcome = run_exec(executor, &template, version, &accesses);
        execs.fetch_add(1, Ordering::SeqCst);
        // The reply is laid out before the writer lock is taken: the
        // checksum pass over the output tiles must not hold up acks.
        let send = |wire: WireFrame<'_>| {
            wire.write_to(&mut *writer.lock().expect("worker writer lock poisoned"))
        };
        match outcome {
            Ok((kernel_ns, writes)) => {
                let writes: Vec<(u32, &[u8])> =
                    writes.iter().map(|(d, buf)| (*d, buf.as_bytes())).collect();
                send(WireFrame::exec_ok(kernel_ns, &writes, tag))?;
            }
            Err(message) => send(WireFrame::new(&Frame::ExecErr { message }, tag))?,
        }
    }
}

/// A finished task: kernel nanoseconds and a handle to every written
/// allocation's buffer.
type ExecDone = (u64, Vec<(u32, Arc<AlignedBuf>)>);

/// Execute one dispatched task against the local arena (never panics —
/// kernel panics become `Err`).
fn run_exec(
    executor: &DetachedExecutor,
    template: &str,
    version: u16,
    accesses: &[WireAccess],
) -> Result<ExecDone, String> {
    let arena = executor.arena();
    let mut typed = Vec::with_capacity(accesses.len());
    for a in accesses {
        let mode = match a.mode {
            0 => AccessMode::In,
            1 => AccessMode::Out,
            _ => AccessMode::InOut,
        };
        if a.alloc_len > u64::from(MAX_PAYLOAD) {
            return Err(format!("allocation of {} bytes exceeds the frame cap", a.alloc_len));
        }
        // Output-only allocations were never shipped; materialize them
        // zeroed at full length so the kernel has a buffer to fill.
        arena.ensure(DataId(a.data), MemSpace::HOST, a.alloc_len as usize);
        typed.push((Region { data: DataId(a.data), offset: a.offset, len: a.len }, mode));
    }
    let kernel_time = executor.execute(template, VersionId(version), &typed)?;
    let writes = typed
        .iter()
        .filter(|(_, mode)| *mode != AccessMode::In)
        .map(|(region, _)| (region.data.0, arena.read_arc(region.data, MemSpace::HOST)))
        .collect();
    Ok((kernel_time.as_nanos() as u64, writes))
}
