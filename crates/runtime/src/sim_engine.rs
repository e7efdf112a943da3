//! Virtual-time execution engine.
//!
//! Drives the task graph and scheduler over the simulated heterogeneous
//! node of `versa-sim`: per-worker FIFO queues, kernel durations from the
//! cost table (+ seeded noise), transfers on finite-bandwidth links with
//! transfer/compute overlap and data prefetch. The scheduler only ever
//! observes assignments and measured durations, never the cost table.
//!
//! The engine owns only what virtual time changes: the clock (an event
//! queue), byte movement (the `TransferEngine`'s modelled links), how
//! work reaches a worker, and node retirement. Dispatch
//! ([`Wave::dispatch`]) and the completion, failure and report
//! bookkeeping ([`RunTally`]) are the same code the native engine runs.
//!
//! Failures: the platform's [`FaultPlan`](versa_sim::FaultPlan) may mark
//! task executions as failed, and its node rules may drop whole remote
//! nodes. A failed attempt occupies its worker for the sampled duration,
//! produces nothing, and goes through [`RunTally::failed`]: the scheduler
//! hears of it and the task re-enters the ready pool — until it exhausts
//! [`RuntimeConfig::max_task_retries`](crate::RuntimeConfig), which
//! aborts the run with a [`RunError`] carrying the partial report.

use crate::assign::Wave;
use crate::report::{Abort, Attempts, RunError, RunTally};
use crate::runtime::EngineKind;
use crate::tracing::record_transfer;
use crate::{RunReport, Runtime};
use std::time::Duration;
use versa_core::{FailureKind, TaskId, WorkerId};
use versa_mem::IdMap;
use versa_sim::{EventQueue, FaultInjector, NodeFaultKind, NoiseModel, TransferEngine};
use versa_trace::{TraceEvent, Ts};

/// Virtual-time heartbeat timeout: how much later than its fault time a
/// [`NodeFaultKind::HeartbeatTimeout`] loss is *detected* (the simulated
/// analogue of `versa-net`'s reaper declaring a silent node dead).
/// Completions that land in that window still count, exactly like an
/// `ExecOk` frame racing the reaper on a real cluster.
const SIM_HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(2);

/// Relative half-width of the seeded noise on every simulated kernel
/// duration (±5%).
const NOISE_SIGMA: f64 = 0.05;

/// What the engine tracks about one dispatched task of this run, from its
/// dispatch until it completes.
#[derive(Default)]
pub(crate) struct InFlight {
    /// Completion time of its prefetch transfers, until it starts.
    deadline: Option<Ts>,
    /// TaskStart stamp of the running attempt. A task may start *later*
    /// than the current event-loop time (it waits on transfers), so the
    /// `NodeLost` trace event must be stamped no earlier than any start
    /// already recorded on that node.
    start: Ts,
    /// Sampled compute duration of the running attempt.
    duration: Duration,
    /// The running attempt will fail on completion (an injected-fault
    /// decision, made at task start for determinism).
    doomed: bool,
    /// It was running on a node when the node was lost: its queued
    /// completion event is reinterpreted as a `NodeLost` failure.
    lost: bool,
    attempts: Attempts,
}

struct SimState {
    xfer: TransferEngine,
    noise: NoiseModel,
    events: EventQueue<(WorkerId, TaskId)>,
    wave: Wave,
    /// Per-GPU LRU residency trackers when device memory is finite.
    caches: Option<Vec<versa_mem::DeviceCache>>,
    /// Per-worker kernel-duration multipliers (mixed-generation GPUs).
    speed: Vec<f64>,
    /// Every dispatched, not yet completed task.
    tasks: IdMap<TaskId, InFlight>,
    injector: FaultInjector,
    /// Scheduled node losses still to fire: `(detection time, node)`,
    /// sorted by time. Detection lags the fault by the heartbeat
    /// timeout for [`NodeFaultKind::HeartbeatTimeout`] rules.
    node_faults: Vec<(Ts, u16)>,
    /// Completions, failures and the report. Its `overlap_time`s stay
    /// zero here: the simulator models overlap via link/engine occupancy
    /// rather than measuring wall-clock intersections.
    tally: RunTally,
}

/// Run tasks in virtual time: all of them (`max_dispatch = None`), or at
/// most a bounded wave of dispatches, leaving the rest pooled in the
/// runtime for the next wave.
pub(crate) fn run_sim(rt: &mut Runtime, max_dispatch: Option<u64>) -> Result<RunReport, RunError> {
    let (platform, stored_caches, tasks) = {
        let EngineKind::Sim { platform, caches, in_flight } = &mut rt.engine else {
            unreachable!("run_sim on a non-simulated runtime")
        };
        (platform.clone(), caches.take(), std::mem::take(in_flight))
    };
    let mut st = SimState {
        xfer: TransferEngine::new(&platform),
        noise: NoiseModel::new(NOISE_SIGMA, platform.seed.wrapping_add(rt.run_count)),
        events: EventQueue::new(),
        wave: Wave::new(max_dispatch),
        // Device residency state survives across waves/runs, so a later
        // job still sees what an earlier one left on the GPUs.
        caches: stored_caches.or_else(|| {
            platform.gpu_mem_capacity.map(|cap| {
                (0..platform.gpus).map(|_| versa_mem::DeviceCache::new(cap)).collect()
            })
        }),
        speed: rt
            .workers
            .iter()
            .map(|w| match w.info.space.device_index() {
                Some(d) => platform.gpu_speed_factor(usize::from(d)),
                None => 1.0,
            })
            .collect(),
        tasks,
        injector: FaultInjector::new(platform.faults.clone(), platform.seed),
        node_faults: {
            let mut f: Vec<(Ts, u16)> = platform
                .faults
                .node_rules
                .iter()
                .map(|r| {
                    let detect = match r.kind {
                        NodeFaultKind::Drop => r.at,
                        NodeFaultKind::HeartbeatTimeout => r.at + SIM_HEARTBEAT_TIMEOUT,
                    };
                    (Ts::ZERO + detect, r.node)
                })
                .collect();
            f.sort_unstable();
            f
        },
        tally: RunTally::begin(rt, Ts::ZERO),
    };

    let mut now = Ts::ZERO;
    pump(rt, &mut st, now);
    start_idle_workers(rt, &mut st, now);

    while let Some((time, (wid, tid))) = st.events.pop() {
        now = time;
        // Node losses detected by now fire *before* the popped event is
        // interpreted: a completion from a just-lost node is a loss, not
        // a result.
        fire_node_faults(rt, &mut st, now);
        let t = &st.tasks[&tid];
        if t.lost || t.doomed {
            if let Some(abort) = on_failure(rt, &mut st, now, wid, tid) {
                return finish(rt, st, now, Some(abort));
            }
        } else {
            on_completion(rt, &mut st, now, wid, tid);
        }
        pump(rt, &mut st, now);
        start_idle_workers(rt, &mut st, now);
    }

    if max_dispatch.is_none() {
        assert!(
            rt.graph.all_done() && rt.pending.is_empty(),
            "simulation stalled with {} live tasks and {} pooled tasks — \
             is some template missing a compatible worker?",
            rt.graph.live_tasks(),
            rt.pending.len()
        );
    }

    // The implicit taskwait: flush device-resident data home (only once
    // everything is done — a partial wave leaves data on the devices).
    let mut end = now;
    if rt.config.flush_on_wait && rt.graph.all_done() {
        for t in rt.directory.flush_all_to_host() {
            let done = st.xfer.schedule(&t, now);
            record_transfer(&st.tally.sink, None, &t, (now, done), None);
            end = end.max(done);
        }
    }

    finish(rt, st, end, None)
}

/// Hand the device caches and the emptied in-flight table back to the
/// runtime and close the run at virtual time `end` (partial on `abort`).
fn finish(
    rt: &mut Runtime,
    mut st: SimState,
    end: Ts,
    abort: Option<Abort>,
) -> Result<RunReport, RunError> {
    if let EngineKind::Sim { caches, in_flight, .. } = &mut rt.engine {
        *caches = st.caches.take();
        *in_flight = std::mem::take(&mut st.tasks);
        in_flight.clear();
    }
    st.tally.finish(rt, "sim", end.as_duration(), *st.xfer.stats(), abort)
}

/// Handle one task completion at virtual time `now`.
fn on_completion(rt: &mut Runtime, st: &mut SimState, now: Ts, wid: WorkerId, tid: TaskId) {
    rt.workers[wid.index()].finish(tid);
    let measured = st.tasks.remove(&tid).expect("completed task was in flight").duration;
    st.tally.completed(rt, tid, wid, measured);
    let space = rt.workers[wid.index()].info.space;
    for (region, mode) in &rt.graph.node(tid).instance.accesses {
        if mode.writes() {
            st.xfer.mark_produced(region.data, space, now);
        }
    }
    if let Some(sink) = &st.tally.sink {
        sink.record(
            wid.index(),
            TraceEvent::TaskEnd {
                time: now,
                task: tid,
                worker: wid,
                kernel_ns: measured.as_nanos() as u64,
            },
        );
    }
}

/// Handle one failed attempt at virtual time `now`: an injected fault,
/// or the queued completion event of a task whose node died while it
/// ran. The worker is freed, the task produces nothing, and
/// [`RunTally::failed`] takes it from there — the native engine's
/// failure path, so a `NodeLost` attempt is charged to the node and
/// never to the task's retry budget. Returns the abort when a fault
/// exhausted that budget.
fn on_failure(
    rt: &mut Runtime,
    st: &mut SimState,
    now: Ts,
    wid: WorkerId,
    tid: TaskId,
) -> Option<Abort> {
    let t = st.tasks.get_mut(&tid).expect("failed task was in flight");
    let failure = if std::mem::take(&mut t.lost) {
        rt.workers[wid.index()].abandon_running();
        (FailureKind::NodeLost, format!("node {} lost mid-task", rt.node_of_worker(wid)))
    } else {
        rt.workers[wid.index()].finish(tid);
        let node = rt.graph.node(tid);
        let version = node.assignment.expect("failed task had an assignment").version;
        let name = &rt.templates.get(node.instance.template).name;
        let message = format!("injected fault (rule matched {name:?} {version:?} on {wid:?})");
        (FailureKind::Fault, message)
    };
    t.doomed = false;
    st.tally.failed(rt, (tid, wid), failure, &mut t.attempts, Some((wid.index(), now)))
}

/// Fire every scheduled node loss whose detection time has passed:
/// retire the node's workers, return their queued (never-started) tasks
/// to the pending pool silently, and mark running tasks as lost so their
/// queued completion events become [`FailureKind::NodeLost`] failures.
fn fire_node_faults(rt: &mut Runtime, st: &mut SimState, now: Ts) {
    while let Some(&(detect, node)) = st.node_faults.first() {
        if detect > now {
            break;
        }
        st.node_faults.remove(0);
        // The NodeLost trace event must not precede any TaskStart
        // already stamped on this node — sim starts can postdate the
        // current loop time when a task waited on transfers.
        let mut stamp = detect;
        for wi in 0..rt.workers.len() {
            let wid = rt.workers[wi].info.id;
            if rt.node_of_worker(wid) != node || rt.workers[wi].is_retired() {
                continue;
            }
            rt.workers[wi].retire();
            for q in rt.workers[wi].drain_queue() {
                // Never started: re-pool without a failure record, like
                // the native coordinator re-dispatching unacknowledged
                // queue entries.
                rt.pending.push_back(q.task);
            }
            if let Some(q) = rt.workers[wi].running() {
                let t = st.tasks.get_mut(&q.task).expect("running task is in flight");
                t.lost = true;
                stamp = stamp.max(t.start);
            }
        }
        if let Some(sink) = &st.tally.sink {
            sink.record(sink.coordinator(), TraceEvent::NodeLost { time: stamp, node });
        }
    }
}

/// Dispatch what the wave budget allows ([`Wave::dispatch`]), then
/// prefetch the assigned tasks' data if enabled.
fn pump(rt: &mut Runtime, st: &mut SimState, now: Ts) {
    st.wave.dispatch(rt, &st.tally.sink, now);
    for i in 0..st.wave.assigned.len() {
        let (tid, a) = st.wave.assigned[i];
        let deadline = rt.config.prefetch.then(|| stage_task_data(rt, st, tid, a.worker, now));
        st.tasks.entry(tid).or_default().deadline = deadline;
    }
}

/// Resolve a task's accesses in its worker's space: evict from a full
/// device memory (writing back sole copies), then schedule the required
/// copy-ins. Returns the time by which the task's data is in place.
fn stage_task_data(
    rt: &mut Runtime,
    st: &mut SimState,
    tid: TaskId,
    worker: WorkerId,
    now: Ts,
) -> Ts {
    let space = rt.workers[worker.index()].info.space;
    let accesses = &rt.graph.node(tid).instance.accesses;
    let mut deadline = now;

    // Capacity management (finite GPU memories only): make room for the
    // task's working set before the copy-ins are planned. Remote-node
    // mirror spaces (device indices past the GPU caches) are host RAM
    // on the far side and stay unbounded — `get_mut` skips them.
    if let (Some(caches), Some(dev)) = (&mut st.caches, space.device_index()) {
        if let Some(cache) = caches.get_mut(usize::from(dev)) {
            // Pin this task's working set plus the running task's (its
            // kernel is touching that memory right now). Prefetched data of
            // merely *queued* tasks may be evicted — those tasks re-stage
            // when they start (see `start_idle_workers`), exactly like a
            // bounded prefetch window on real hardware.
            for (region, _) in accesses {
                cache.insert(region.data, rt.directory.bytes(region.data));
            }
            let running = rt.workers[worker.index()].running().map(|q| q.task);
            let running = running.filter(|&r| r != tid).map(|r| &rt.graph.node(r).instance.accesses);
            let mut pinned = Vec::with_capacity(accesses.len());
            for (region, _) in accesses.iter().chain(running.into_iter().flatten()) {
                if !pinned.contains(&region.data) {
                    pinned.push(region.data);
                }
            }
            for victim in cache.evict_to_capacity(&pinned) {
                if rt.directory.is_sole_copy(victim, space) {
                    let wb = rt
                        .directory
                        .flush_to_host(victim)
                        .expect("sole device copy needs a write-back");
                    let end = st.xfer.schedule(&wb, now);
                    record_transfer(&st.tally.sink, None, &wb, (now, end), None);
                    deadline = deadline.max(end);
                }
                rt.directory.invalidate(victim, space);
            }
        }
    }

    let mut end = now;
    for (region, mode) in accesses {
        if let Some(t) = rt.directory.acquire(region.data, space, *mode) {
            // Scheduling each transfer on its own lets the scheduler
            // observe each copy's modelled duration — feeding the same
            // per-space bandwidth EWMA the native engine trains — and
            // attributes the copy to the destination worker.
            let t_end = st.xfer.schedule(&t, now);
            let elapsed = t_end - now;
            rt.scheduler.transfer_done(t.to, t.bytes, elapsed);
            let wt = &mut st.tally.worker_transfers[worker.index()];
            wt.staged_bytes += t.bytes;
            wt.staged_count += 1;
            wt.stage_time += elapsed;
            record_transfer(&st.tally.sink, None, &t, (now, t_end), Some(worker));
            end = end.max(t_end);
        }
    }
    deadline.max(end)
}

/// Let every idle worker begin its next queued task.
fn start_idle_workers(rt: &mut Runtime, st: &mut SimState, now: Ts) {
    for wi in 0..rt.workers.len() {
        if rt.workers[wi].running().is_some() {
            continue;
        }
        let Some(q) = rt.workers[wi].start_next() else { continue };
        let tid = q.task;
        rt.graph.mark_running(tid);
        let wid = rt.workers[wi].info.id;
        let space = rt.workers[wi].info.space;

        // Data readiness: prefetch deadline (or acquire now), plus any
        // in-flight copies of read data headed to this space.
        let mut ready = now;
        if rt.config.prefetch {
            if let Some(d) = st.tasks.get_mut(&tid).and_then(|t| t.deadline.take()) {
                ready = ready.max(d);
            }
            if st.caches.is_some() {
                // Finite device memory: prefetched tiles may have been
                // evicted while this task sat in the queue — re-stage
                // whatever is missing (no-op when everything is still
                // resident).
                ready = ready.max(stage_task_data(rt, st, tid, wid, now));
            }
        } else {
            ready = ready.max(stage_task_data(rt, st, tid, wid, now));
        }
        for (region, mode) in &rt.graph.node(tid).instance.accesses {
            if mode.reads() {
                ready = ready.max(st.xfer.ready_at(region.data, space));
            }
        }

        let inst = &rt.graph.node(tid).instance;
        let doomed = st.injector.should_fail(inst.template, q.version, wid);
        let base = rt.costs.duration(inst.template, q.version, inst.data_set_size);
        let scaled = base.mul_f64(st.speed[wi]);
        let duration = st.noise.sample(scaled);
        let start = ready.max(now);
        let end = start + duration;
        let t = st.tasks.entry(tid).or_default();
        t.doomed = doomed;
        t.start = start;
        t.duration = duration;
        let attempt = t.attempts.made + 1;
        st.events.push(end, (wid, tid));
        if let Some(sink) = &st.tally.sink {
            sink.record(
                wi,
                TraceEvent::TaskStart {
                    time: start,
                    task: tid,
                    worker: wid,
                    version: q.version,
                    template: inst.template,
                    attempt,
                },
            );
        }
    }
}
