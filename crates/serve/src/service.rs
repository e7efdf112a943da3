//! The service itself: one thread owning the [`Runtime`], a bounded
//! admission queue in front of it, and a wave loop interleaving every
//! admitted job through the shared scheduler.

use crate::job::{FinishFn, JobId, JobReport, JobSpec, RejectReason, SubmitOutcome};
use crate::metrics::{MetricsSnapshot, Shared};
use crate::JobTicket;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use versa_core::profile::{apply_hints, HintsFile};
use versa_core::TaskId;
use versa_runtime::{graph::TaskState, RunReport, Runtime};
use versa_trace::{TraceEvent, Ts};

/// Offset from the service epoch as a trace timestamp.
fn service_ts(shared: &Shared) -> Ts {
    Ts(shared.started.elapsed().as_nanos() as u64)
}

/// Service knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Capacity of the bounded admission queue; a full queue makes
    /// [`Client::submit`] return `Rejected(QueueFull)` immediately
    /// (backpressure, not blocking).
    pub queue_capacity: usize,
    /// Dispatch budget per wave: how many tasks the runtime may hand to
    /// workers between two admission points. Smaller = fresher admission
    /// and fairer interleaving; larger = less coordination overhead.
    pub wave_dispatch: u64,
    /// Profile hints to warm the versioning scheduler with: text from
    /// [`Runtime::save_hints`], parsed by the caller with
    /// [`parse_hints`](versa_core::profile::parse_hints), so a malformed
    /// file is the caller's typed error, never a silent cold start.
    /// Applied *incrementally*: whenever a job registers a template the
    /// hints mention, that template's records are seeded — once — so
    /// late-arriving job types still get their warm start, and profiles
    /// learned while serving are never overwritten by a re-apply.
    pub warm_start: Option<HintsFile>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { queue_capacity: 16, wave_dispatch: 32, warm_start: None }
    }
}

struct Submission {
    id: u64,
    spec: JobSpec,
    submitted: Instant,
    report_tx: mpsc::SyncSender<JobReport>,
}

struct ActiveJob {
    id: u64,
    name: String,
    range: Range<u64>,
    finish: Option<FinishFn>,
    submitted: Instant,
    admitted: Instant,
    /// Service-epoch stamp of admission, for the `JobAdmitted` event
    /// published (with `JobCompleted`) when the job completes — metrics
    /// recording never takes a shared lock per event.
    admitted_ts: Ts,
    admitted_wave: u64,
    report_tx: mpsc::SyncSender<JobReport>,
}

impl ActiveJob {
    /// Count the job out of the books and pair its `JobAdmitted` with a
    /// `JobCompleted` stamped now. The report waits in `finished` for
    /// the wave's one metrics publication.
    fn finish(&self, shared: &Shared, report: JobReport, finished: &mut Vec<Finished>) {
        shared.active_jobs.fetch_sub(1, Ordering::Relaxed);
        let ok = report.outcome.is_ok();
        let tally = if ok { &shared.completed } else { &shared.failed };
        tally.fetch_add(1, Ordering::Relaxed);
        let tasks = self.range.end - self.range.start;
        let events = [
            TraceEvent::JobAdmitted { time: self.admitted_ts, job: self.id, tasks },
            TraceEvent::JobCompleted { time: service_ts(shared), job: self.id, ok },
        ];
        finished.push(Finished { events, report_tx: self.report_tx.clone(), report });
    }
}

/// A job that left the runtime this wave: its events wait for the
/// wave's metrics publication, and its report waits for its events.
struct Finished {
    events: [TraceEvent; 2],
    report_tx: mpsc::SyncSender<JobReport>,
    report: JobReport,
}

/// A cloneable submission handle. Clones share the same queue and
/// metrics; hand one to each client thread. The queue carries `None`
/// once, from [`Service::shutdown`], to wake an idle service.
#[derive(Clone)]
pub struct Client {
    tx: mpsc::SyncSender<Option<Submission>>,
    shared: Arc<Shared>,
}

impl Client {
    /// Submit a job. Never blocks: the outcome is decided immediately —
    /// admission-queue backpressure (`Rejected(QueueFull)`), deadline
    /// shedding (`Shed`), or acceptance with a [`JobTicket`] to redeem
    /// for the [`JobReport`].
    pub fn submit(&self, spec: JobSpec) -> SubmitOutcome {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        if !self.shared.accepting.load(Ordering::Acquire) {
            self.shared.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Rejected(RejectReason::ShuttingDown);
        }
        if let Some(deadline) = spec.deadline {
            let ewma = self.shared.ewma_task_ns.load(Ordering::Relaxed);
            if ewma > 0 && spec.est_tasks > 0 {
                let backlog = self.shared.live_tasks.load(Ordering::Relaxed) + spec.est_tasks;
                let estimated =
                    Duration::from_nanos(backlog * ewma / self.shared.workers.max(1) as u64);
                if estimated > deadline {
                    self.shared.shed_deadline.fetch_add(1, Ordering::Relaxed);
                    return SubmitOutcome::Shed { estimated, deadline };
                }
            }
        }
        let id = self.shared.next_job.fetch_add(1, Ordering::Relaxed);
        // One slot for the one report: the client allocates it here, and
        // the service's single send into it never blocks or allocates.
        let (report_tx, report_rx) = mpsc::sync_channel(1);
        let sub = Submission { id, spec, submitted: Instant::now(), report_tx };
        // Count the queue slot *before* offering the submission: the
        // service thread decrements on admission, and an increment after
        // a successful `try_send` can land after that decrement — a lost
        // update that wraps the unsigned depth counter.
        self.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(Some(sub)) {
            Ok(()) => {
                self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                SubmitOutcome::Accepted(JobTicket { id: JobId(id), rx: report_rx })
            }
            Err(mpsc::TrySendError::Full(_)) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.shared.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                SubmitOutcome::Rejected(RejectReason::QueueFull)
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.shared.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                SubmitOutcome::Rejected(RejectReason::ShuttingDown)
            }
        }
    }

    /// A live snapshot of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }
}

/// A running job service. Construct with [`Service::start`], submit
/// through [`Client`] handles, stop with [`Service::shutdown`].
pub struct Service {
    client: Client,
    handle: std::thread::JoinHandle<Runtime>,
}

impl Service {
    /// Move `runtime` onto a service thread and start serving. The
    /// runtime keeps its registered templates, bound kernels/costs and
    /// — crucially — its scheduler's learned profiles: every job the
    /// service runs trains the profiles the next job is scheduled with.
    pub fn start(runtime: Runtime, config: ServeConfig) -> Service {
        let shared = Arc::new(Shared::new(runtime.workers().len()));
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("versa-serve".into())
            .spawn(move || serve_loop(runtime, config, rx, thread_shared))
            .expect("failed to spawn service thread");
        Service { client: Client { tx, shared }, handle }
    }

    /// A new submission handle (cheap; clone freely across threads).
    pub fn client(&self) -> Client {
        self.client.clone()
    }

    /// A live snapshot of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.client.metrics()
    }

    /// Stop accepting new jobs, drain everything already admitted or
    /// queued, and hand the runtime back — with everything its scheduler
    /// learned, ready for [`Runtime::save_hints`] or another service.
    pub fn shutdown(self) -> Runtime {
        self.client.shared.accepting.store(false, Ordering::Release);
        // Wake the service if it sleeps idle. It drains its queue, so the
        // send finds room; it fails only when the service thread is
        // already gone, and the join below reports how it ended.
        let _ = self.client.tx.send(None);
        drop(self.client);
        self.handle.join().expect("service thread panicked")
    }
}

fn serve_loop(
    mut rt: Runtime,
    config: ServeConfig,
    rx: mpsc::Receiver<Option<Submission>>,
    shared: Arc<Shared>,
) -> Runtime {
    let warm = config.warm_start.as_ref();
    let mut seeded: HashSet<String> = HashSet::new();
    let mut active: Vec<ActiveJob> = Vec::new();
    let mut wave: u64 = 0;
    // Reused every wave: the finished jobs whose reports wait for the
    // wave's metrics publication.
    let mut finished: Vec<Finished> = Vec::new();
    // Set by the shutdown message: drain what is queued and active, then
    // hand the runtime back.
    let mut closing = false;

    loop {
        // Busy, take what is already queued. Idle, sleep until a
        // submission or the shutdown message arrives; a queue whose
        // senders are all gone reads as the shutdown message.
        let mut next = if active.is_empty() && !closing {
            Ok(rx.recv().unwrap_or(None))
        } else {
            rx.try_recv()
        };
        while let Ok(msg) = next {
            match msg {
                None => closing = true,
                Some(sub) => {
                    let refused = admit(&mut rt, sub, &mut active, &shared, warm, &mut seeded, wave);
                    if let Some(why) = refused {
                        abort(&shared, &rx, &mut active, &why, &mut finished);
                        publish_wave(&shared, None, &mut finished);
                        return rt;
                    }
                }
            }
            next = rx.try_recv();
        }
        if active.is_empty() {
            // Idle after the drain only once the shutdown message came.
            debug_assert!(closing);
            break;
        }

        wave += 1;
        let result = rt.run_bounded(config.wave_dispatch);
        let report = match &result {
            Ok(report) => report,
            Err(err) => &err.report,
        };
        count_wave(&shared, report);
        // A task exhausted its retries, or a wave in which nothing ran or
        // failed left work behind (a node loss stranded pooled tasks):
        // the runtime cannot be driven further.
        let stalled =
            report.tasks_executed == 0 && report.failures.events.is_empty() && !report.completed;
        if result.is_err() || stalled {
            let why = match &result {
                Err(err) => err.to_string(),
                Ok(_) => "stalled: no pooled task can run on a live worker".to_string(),
            };
            abort(&shared, &rx, &mut active, &why, &mut finished);
            publish_wave(&shared, Some(report), &mut finished);
            break;
        }
        active.retain_mut(|job| {
            let done = job_done(&rt, &job.range);
            if done {
                let report = finalize(&mut rt, job, shared.workers, wave);
                rt.forget_job(job.id);
                job.finish(&shared, report, &mut finished);
            }
            !done
        });
        publish_wave(&shared, Some(report), &mut finished);
        // Everything below the earliest still-active job is finalized
        // and safe to recycle: steady-state admission allocates O(active
        // jobs), not O(jobs ever served).
        let keep = active.iter().map(|j| j.range.start).min().unwrap_or(rt.graph().len() as u64);
        rt.prune_done_tasks(TaskId(keep));
    }
    rt
}

/// Fail every admitted and queued job with `why` and stop accepting: no
/// task of theirs will run. The caller publishes the failed jobs.
fn abort(
    shared: &Shared,
    rx: &mpsc::Receiver<Option<Submission>>,
    active: &mut Vec<ActiveJob>,
    why: &str,
    finished: &mut Vec<Finished>,
) {
    shared.accepting.store(false, Ordering::Release);
    shared.live_tasks.store(0, Ordering::Relaxed);
    let msg = format!("service aborted: {why}");
    for job in active.drain(..) {
        let report = JobReport::failed(JobId(job.id), job.name.clone(), msg.clone());
        job.finish(shared, report, finished);
    }
    while let Ok(msg_or_shutdown) = rx.try_recv() {
        let Some(sub) = msg_or_shutdown else { continue };
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        shared.failed.fetch_add(1, Ordering::Relaxed);
        let report = JobReport::failed(JobId(sub.id), sub.spec.name, msg.clone());
        let _ = sub.report_tx.try_send(report);
    }
}

/// Build the job into the runtime and make it active. Returns why the
/// service must stop instead when the job has a template no live worker
/// can run: dispatching its tasks would panic the scheduler.
fn admit(
    rt: &mut Runtime,
    sub: Submission,
    active: &mut Vec<ActiveJob>,
    shared: &Shared,
    warm: Option<&HintsFile>,
    seeded: &mut HashSet<String>,
    wave: u64,
) -> Option<String> {
    shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
    let admitted = Instant::now();
    let Submission { id, spec, submitted, report_tx } = sub;
    let before = rt.graph().len() as u64;
    rt.set_job_tag(Some(id));
    let finish = (spec.build)(rt);
    rt.set_job_tag(None);
    let after = rt.graph().len() as u64;
    if let Some(file) = warm {
        seed_new_templates(rt, file, seeded);
    }
    let unrunnable = (before..after)
        .map(|i| rt.graph().node(TaskId(i)).instance.template)
        .find(|&tpl| !rt.can_run(tpl))
        .map(|tpl| {
            let name = &rt.templates().get(tpl).name;
            format!("job {:?} has template {name:?}, which no live worker can run", spec.name)
        });
    shared.live_tasks.fetch_add(after - before, Ordering::Relaxed);
    shared.active_jobs.fetch_add(1, Ordering::Relaxed);
    active.push(ActiveJob {
        id,
        name: spec.name,
        range: before..after,
        finish: Some(finish),
        submitted,
        admitted,
        admitted_ts: service_ts(shared),
        admitted_wave: wave,
        report_tx,
    });
    unrunnable
}

/// Seed warm-start hints for templates that exist now but were not
/// seeded yet. Each template is seeded at most once, so profiles keep
/// anything they learned afterwards.
fn seed_new_templates(rt: &mut Runtime, file: &HintsFile, seeded: &mut HashSet<String>) {
    let fresh = |name: &str| !seeded.contains(name) && rt.templates().by_name(name).is_some();
    let sub = HintsFile {
        policy: file.policy,
        records: file.records.iter().filter(|r| fresh(&r.template)).cloned().collect(),
        quarantine: file.quarantine.iter().filter(|q| fresh(&q.template)).cloned().collect(),
    };
    if sub.records.is_empty() && sub.quarantine.is_empty() {
        return;
    }
    let templates = rt.templates().clone();
    if let Some(v) = rt.versioning_mut() {
        // A policy mismatch just skips warm start; serving continues.
        let _ = apply_hints(v.profiles_mut(), &templates, &sub);
    }
    seeded.extend(sub.records.iter().map(|r| r.template.clone()));
    seeded.extend(sub.quarantine.iter().map(|q| q.template.clone()));
}

/// Count the wave into the atomic counters.
fn count_wave(shared: &Shared, report: &RunReport) {
    shared.waves.fetch_add(1, Ordering::Relaxed);
    shared.tasks_executed.fetch_add(report.tasks_executed, Ordering::Relaxed);
    shared.live_tasks.fetch_sub(report.tasks_executed, Ordering::Relaxed);
    if report.tasks_executed > 0 {
        let busy: Duration = report.worker_busy.iter().sum();
        let mean_ns = (busy.as_nanos() / u128::from(report.tasks_executed)).min(u128::from(u64::MAX)) as u64;
        let old = shared.ewma_task_ns.load(Ordering::Relaxed);
        let next = if old == 0 { mean_ns } else { (old * 7 + mean_ns) / 8 };
        shared.ewma_task_ns.store(next.max(1), Ordering::Relaxed);
    }
}

/// Take the metrics lock once to merge the wave (if one ran) and publish
/// the event pairs of the jobs it finished. Their reports go out only after that,
/// so a client holding a report sees its job's events and counts.
fn publish_wave(shared: &Shared, report: Option<&RunReport>, finished: &mut Vec<Finished>) {
    {
        let mut books = shared.books();
        if let Some(report) = report {
            books.merge_wave(report);
        }
        books.push_job_events(finished.iter().flat_map(|f| f.events.iter().cloned()));
    }
    for f in finished.drain(..) {
        // The only send into a one-slot channel cannot find it full. The
        // client may have dropped its ticket; that is fine.
        let _ = f.report_tx.try_send(f.report);
    }
}

fn job_done(rt: &Runtime, range: &Range<u64>) -> bool {
    range.clone().all(|i| rt.graph().node(TaskId(i)).state == TaskState::Done)
}

/// Run the job's finalizer and build its report.
fn finalize(rt: &mut Runtime, job: &mut ActiveJob, workers: usize, wave: u64) -> JobReport {
    let mut version_counts = HashMap::new();
    let mut worker_task_counts = vec![0u64; workers];
    for i in job.range.clone() {
        let node = rt.graph().node(TaskId(i));
        let a = node.assignment.expect("done task has an assignment");
        *version_counts.entry((node.instance.template, a.version)).or_insert(0) += 1;
        worker_task_counts[a.worker.index()] += 1;
    }
    let outcome = match job.finish.take() {
        Some(f) => f(rt),
        None => Ok(()),
    };
    let finished = Instant::now();
    JobReport {
        job: JobId(job.id),
        name: std::mem::take(&mut job.name),
        tasks: job.range.end - job.range.start,
        wait: job.admitted.duration_since(job.submitted),
        exec: finished.duration_since(job.admitted),
        turnaround: finished.duration_since(job.submitted),
        admitted_wave: job.admitted_wave,
        completed_wave: wave,
        version_counts,
        worker_task_counts,
        outcome,
    }
}
