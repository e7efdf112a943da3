//! Integration tests: admission control, multi-job interleaving on both
//! engines, cross-job profile warmth, warm start, and live metrics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use versa_core::profile::parse_hints;
use versa_core::{DeviceKind, SchedulerKind, VersionId};
use versa_runtime::{NativeConfig, Runtime, RuntimeConfig};
use versa_serve::{JobSpec, RejectReason, ServeConfig, Service, SubmitOutcome};
use versa_sim::PlatformConfig;
use versa_trace::{TraceEvent, Ts};

/// Simulated runtime with a 3-version template: fast GPU main (1 ms),
/// slower GPU alternate (2 ms), slow SMP fallback (20 ms). The alternate
/// GPU version can only ever run during the learning phase — on any
/// given worker the main version's estimate beats it — which makes its
/// execution count a clean "did this job pay for learning?" probe.
fn sim_runtime() -> (Runtime, versa_core::TemplateId) {
    let mut rt = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        PlatformConfig::minotauro(2, 1),
    );
    let tpl = rt
        .template("mm")
        .main("mm_cublas", &[DeviceKind::Cuda])
        .version("mm_cuda", &[DeviceKind::Cuda])
        .version("mm_cblas", &[DeviceKind::Smp])
        .register();
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(1));
    rt.bind_cost(tpl, VersionId(1), |_| Duration::from_millis(2));
    rt.bind_cost(tpl, VersionId(2), |_| Duration::from_millis(20));
    (rt, tpl)
}

/// `tasks` independent tasks over fresh same-size allocations (one size
/// group), leaked on purpose — sim data is contentless.
fn sim_job(tpl: versa_core::TemplateId, tasks: usize) -> JobSpec {
    JobSpec::fire_and_forget(format!("sim-{tasks}"), move |rt| sim_tasks(rt, tpl, tasks))
}

fn sim_tasks(rt: &mut Runtime, tpl: versa_core::TemplateId, tasks: usize) {
    for _ in 0..tasks {
        let d = rt.alloc_bytes(1 << 16);
        rt.task(tpl).read_write(d).submit();
    }
}

#[test]
fn two_clients_interleave_on_the_sim_engine() {
    let (rt, tpl) = sim_runtime();
    let service =
        Service::start(rt, ServeConfig { wave_dispatch: 4, ..ServeConfig::default() });
    let c1 = service.client();
    let c2 = service.client();
    // The first job's build runs on the service thread and blocks there
    // until the second job is queued, so the service admits both before
    // its first wave however the threads are scheduled: it drains one
    // job alone in well under a millisecond.
    let (release, gate) = mpsc::channel::<()>();
    let first = JobSpec::fire_and_forget("sim-128-gated", move |rt| {
        gate.recv().expect("the test opens the gate");
        sim_tasks(rt, tpl, 128);
    });
    let t1 = c1.submit(first).accepted().expect("queue has room");
    let t2 = c2.submit(sim_job(tpl, 128)).accepted().expect("queue has room");
    release.send(()).unwrap();
    let (r1, r2) = (t1.wait(), t2.wait());

    for r in [&r1, &r2] {
        assert_eq!(r.tasks, 128);
        assert!(r.outcome.is_ok());
        assert_eq!(r.worker_task_counts.iter().sum::<u64>(), 128);
        assert!(r.turnaround >= r.wait);
    }
    // Both jobs were in flight at the same time: each was admitted
    // before the other's completing wave.
    assert!(
        r1.admitted_wave < r2.completed_wave && r2.admitted_wave < r1.completed_wave,
        "jobs did not overlap: {r1:?} vs {r2:?}"
    );

    let m = service.metrics();
    assert_eq!(m.accepted, 2);
    assert_eq!(m.completed, 2);
    assert_eq!(m.tasks_executed, 256);
    assert_eq!(m.active_jobs, 0);
    assert_eq!(m.live_tasks, 0);
    assert!(m.waves >= 2, "a 4-task budget cannot drain 256 tasks in one wave");
    assert!(m.mean_task.is_some());
    assert!(m.version_counts.values().sum::<u64>() >= 256);
    service.shutdown();
}

#[test]
fn profiles_stay_warm_across_jobs_and_across_services() {
    // Cold service: the first job pays the learning phase (the alternate
    // GPU version runs at least λ = 3 times)...
    let (rt, tpl) = sim_runtime();
    let service = Service::start(rt, ServeConfig::default());
    let client = service.client();
    let cold = client.submit(sim_job(tpl, 64)).accepted().unwrap().wait();
    assert!(
        cold.version_count(tpl, VersionId(1)) >= 3,
        "cold job should pay the learning phase: {:?}",
        cold.version_counts
    );
    // ...and the second job on the same service does not: the profiles
    // it is scheduled with were learned by the first job.
    let second = client.submit(sim_job(tpl, 64)).accepted().unwrap().wait();
    assert_eq!(
        second.version_count(tpl, VersionId(1)),
        0,
        "second job re-entered learning: {:?}",
        second.version_counts
    );
    drop(client);
    let rt = service.shutdown();
    let hints = rt.save_hints().expect("versioning scheduler active");
    let hints = parse_hints(&hints).expect("saved hints parse");

    // A brand-new service warm-started from those hints skips learning
    // from its very first job.
    let (rt2, tpl2) = sim_runtime();
    let warm_service = Service::start(
        rt2,
        ServeConfig { warm_start: Some(hints), ..ServeConfig::default() },
    );
    let warm = warm_service.client().submit(sim_job(tpl2, 64)).accepted().unwrap().wait();
    assert_eq!(
        warm.version_count(tpl2, VersionId(1)),
        0,
        "warm-started job re-entered learning: {:?}",
        warm.version_counts
    );
    warm_service.shutdown();
}

/// A job whose template has only a CUDA version, on a service without
/// GPUs, can run nowhere. The service fails it with a report naming the
/// template, stops accepting, and hands its runtime back instead of
/// dying on the service thread.
#[test]
fn a_job_no_worker_can_run_fails_instead_of_killing_the_service() {
    let mut rt = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        PlatformConfig::minotauro(2, 0),
    );
    let cuda = rt.template("cuda_only").main("cuda_only_gpu", &[DeviceKind::Cuda]).register();
    rt.bind_cost(cuda, VersionId(0), |_| Duration::from_millis(1));
    let service = Service::start(rt, ServeConfig::default());
    let client = service.client();
    let stranded = JobSpec::fire_and_forget("stranded", move |rt| {
        let d = rt.alloc_bytes(1 << 10);
        rt.task(cuda).read_write(d).submit();
    });
    let report = client.submit(stranded).accepted().expect("queue has room").wait();
    let why = report.outcome.expect_err("no worker can run the job");
    assert!(why.contains("cuda_only"), "the failure names the template: {why}");
    let m = service.metrics();
    assert_eq!((m.completed, m.failed, m.active_jobs), (0, 1, 0));
    let late = client.submit(JobSpec::fire_and_forget("late", |_| {}));
    assert!(matches!(late, SubmitOutcome::Rejected(RejectReason::ShuttingDown)), "{late:?}");
    drop(client);
    let rt = service.shutdown();
    assert_eq!(rt.graph().len(), 1, "the stranded task never ran");
}

#[test]
fn infeasible_deadlines_are_shed() {
    let (rt, tpl) = sim_runtime();
    let service = Service::start(rt, ServeConfig::default());
    let client = service.client();
    // First job trains the per-task time estimate.
    client.submit(sim_job(tpl, 16)).accepted().unwrap().wait();
    assert!(service.metrics().mean_task.is_some());
    // A million estimated tasks against a 1 µs deadline: shed at the door.
    let spec = sim_job(tpl, 16).deadline(Duration::from_micros(1), 1_000_000);
    match client.submit(spec) {
        SubmitOutcome::Shed { estimated, deadline } => {
            assert!(estimated > deadline);
        }
        other => panic!("expected Shed, got {other:?}"),
    }
    assert_eq!(service.metrics().shed_deadline, 1);
    // Without a deadline the same job sails through.
    let r = client.submit(sim_job(tpl, 16)).accepted().unwrap().wait();
    assert!(r.outcome.is_ok());
    service.shutdown();
}

#[test]
fn admission_accounting_is_lossless_under_concurrent_clients() {
    // The accounting identity: every submission lands in exactly one
    // bucket — accepted, rejected (queue full / shutting down), or shed
    // — even with clients hammering a tiny queue from several threads.
    let (rt, tpl) = sim_runtime();
    let service = Service::start(
        rt,
        ServeConfig { queue_capacity: 2, wave_dispatch: 4, ..ServeConfig::default() },
    );

    const CLIENTS: u64 = 4;
    const SUBMITS: u64 = 25;
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let c = service.client();
        handles.push(std::thread::spawn(move || {
            let mut accepted = 0u64;
            let mut rejected = 0u64;
            let mut tickets = Vec::new();
            for _ in 0..SUBMITS {
                match c.submit(sim_job(tpl, 8)) {
                    SubmitOutcome::Accepted(t) => {
                        accepted += 1;
                        tickets.push(t);
                    }
                    SubmitOutcome::Rejected(RejectReason::QueueFull) => rejected += 1,
                    other => panic!("unexpected outcome mid-run: {other:?}"),
                }
                // The depth counter must never wrap, however the client
                // increment races the service thread's decrement.
                assert!(
                    c.metrics().queue_depth <= CLIENTS * SUBMITS,
                    "queue_depth wrapped below zero"
                );
            }
            for t in tickets {
                assert!(t.wait().outcome.is_ok());
            }
            (accepted, rejected)
        }));
    }
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for h in handles {
        let (a, r) = h.join().unwrap();
        accepted += a;
        rejected += r;
    }

    // One shed submission (the per-task estimate is trained by now)...
    let client = service.client();
    match client.submit(sim_job(tpl, 16).deadline(Duration::from_micros(1), 1_000_000)) {
        SubmitOutcome::Shed { .. } => {}
        other => panic!("expected Shed, got {other:?}"),
    }
    // ...and one rejected by shutdown; both must be on the books.
    service.shutdown();
    match client.submit(sim_job(tpl, 4)) {
        SubmitOutcome::Rejected(RejectReason::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }

    let m = client.metrics();
    assert_eq!(m.submitted, CLIENTS * SUBMITS + 2);
    assert_eq!(m.accepted, accepted);
    assert_eq!(m.rejected_queue_full, rejected);
    assert_eq!(m.shed_deadline, 1);
    assert_eq!(m.rejected_shutdown, 1);
    assert_eq!(
        m.submitted,
        m.accepted + m.rejected_queue_full + m.rejected_shutdown + m.shed_deadline,
        "a submission fell off the books: {m:?}"
    );
    assert_eq!(m.completed, m.accepted, "every accepted job completed");
    assert_eq!(m.failed, 0);
    assert_eq!(m.queue_depth, 0);
    assert_eq!(m.active_jobs, 0);
    assert_eq!(m.live_tasks, 0);
}

#[test]
fn shutdown_rejects_new_submissions() {
    let (rt, tpl) = sim_runtime();
    let service = Service::start(rt, ServeConfig::default());
    let client = service.client();
    let rt = service.shutdown();
    assert!(rt.graph().is_empty());
    match client.submit(sim_job(tpl, 4)) {
        SubmitOutcome::Rejected(RejectReason::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

/// Native job: `tasks` single-datum kernels that each bump their datum
/// by 1.0 and sleep, so waves take real wall time. The finalizer reads
/// every datum back, checks the kernel ran exactly once, and frees it.
fn sleepy_job(tpl: versa_core::TemplateId, tasks: usize, kernel_ms: u64) -> JobSpec {
    JobSpec::new(format!("sleepy-{tasks}"), move |rt| {
        let data: Vec<_> = (0..tasks)
            .map(|_| {
                let d = rt.alloc_from_f64(&[0.0]);
                rt.task(tpl).read_write(d).submit();
                d
            })
            .collect();
        let _ = kernel_ms;
        Box::new(move |rt: &mut Runtime| {
            let mut result = Ok(());
            for &d in &data {
                let v = rt.read_f64(d);
                if v != [1.0] {
                    result = Err(format!("expected [1.0], got {v:?}"));
                }
                rt.free(d);
            }
            result
        }) as versa_serve::FinishFn
    })
}

#[test]
fn native_backpressure_live_metrics_and_correct_results() {
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
        NativeConfig { smp_workers: 1, gpus: 0, gpu_lanes: 1, link_bandwidth: None },
    );
    let tpl = rt.template("sleepy").main("sleepy_smp", &[DeviceKind::Smp]).register();
    rt.bind_native(tpl, VersionId(0), |ctx| {
        ctx.f64_mut(0)[0] += 1.0;
        std::thread::sleep(Duration::from_millis(15));
    });
    let service = Service::start(
        rt,
        ServeConfig { queue_capacity: 1, wave_dispatch: 8, ..ServeConfig::default() },
    );
    let client = service.client();

    // One 8-task job = one ≥120 ms wave on the single worker.
    let first = client.submit(sleepy_job(tpl, 8, 15)).accepted().expect("empty queue");
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.metrics().active_jobs == 0 {
        assert!(Instant::now() < deadline, "job was never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Burst while the wave runs: capacity 1 → at most one fits, the
    // rest bounce off the full queue.
    let mut tickets = vec![first];
    let mut rejected = 0u64;
    for _ in 0..6 {
        match client.submit(sleepy_job(tpl, 2, 15)) {
            SubmitOutcome::Accepted(t) => tickets.push(t),
            o if o.is_queue_full() => rejected += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(rejected >= 1, "a 1-slot queue absorbed 6 instant submissions");

    // Metrics are queryable while the job is mid-flight.
    let m = service.metrics();
    assert!(m.active_jobs >= 1);
    assert!(m.live_tasks >= 1);
    assert!(m.queue_depth <= 1);

    let accepted = tickets.len() as u64;
    for t in tickets {
        let r = t.wait();
        assert!(r.outcome.is_ok(), "job failed: {:?}", r.outcome);
    }
    let m = service.metrics();
    assert_eq!(m.completed, accepted);
    assert_eq!(m.rejected_queue_full, rejected);
    assert_eq!(m.active_jobs, 0);
    assert!(m.worker_busy[0] >= Duration::from_millis(100));
    assert!(m.utilization(Duration::from_secs(3600))[0] > 0.0);
    service.shutdown();
}

#[test]
fn native_jobs_from_two_threads_interleave() {
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
        NativeConfig { smp_workers: 2, gpus: 0, gpu_lanes: 1, link_bandwidth: None },
    );
    let tpl = rt.template("sleepy").main("sleepy_smp", &[DeviceKind::Smp]).register();
    rt.bind_native(tpl, VersionId(0), |ctx| {
        ctx.f64_mut(0)[0] += 1.0;
        std::thread::sleep(Duration::from_millis(10));
    });
    let service = Service::start(
        rt,
        ServeConfig { wave_dispatch: 4, ..ServeConfig::default() },
    );
    let c1 = service.client();
    let c2 = service.client();
    let h1 = std::thread::spawn(move || {
        c1.submit(sleepy_job(tpl, 12, 10)).accepted().unwrap().wait()
    });
    let h2 = std::thread::spawn(move || {
        c2.submit(sleepy_job(tpl, 12, 10)).accepted().unwrap().wait()
    });
    let r1 = h1.join().unwrap();
    let r2 = h2.join().unwrap();
    for r in [&r1, &r2] {
        assert_eq!(r.tasks, 12);
        assert!(r.outcome.is_ok(), "job failed: {:?}", r.outcome);
    }
    // 12 tasks × 10 ms each per job on 2 workers: the second submission
    // lands (µs later) long before the first job's ~60 ms of waves end,
    // so the jobs must have overlapped.
    assert!(
        r1.admitted_wave < r2.completed_wave && r2.admitted_wave < r1.completed_wave,
        "jobs did not overlap: {r1:?} vs {r2:?}"
    );
    assert_eq!(service.metrics().completed, 2);
    service.shutdown();
}

#[test]
fn traced_service_exposes_decision_ledger_and_job_events() {
    let mut rc = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
    rc.tracing.enabled = true;
    let mut rt = Runtime::simulated(rc, PlatformConfig::minotauro(2, 1));
    let tpl = rt
        .template("mm")
        .main("mm_cublas", &[DeviceKind::Cuda])
        .version("mm_cblas", &[DeviceKind::Smp])
        .register();
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(1));
    rt.bind_cost(tpl, VersionId(1), |_| Duration::from_millis(20));
    let service = Service::start(rt, ServeConfig::default());
    let report = service
        .client()
        .submit(sim_job(tpl, 32))
        .accepted()
        .expect("queue has room")
        .wait();
    assert!(report.outcome.is_ok());

    let m = service.metrics();
    assert_eq!(m.trace_dropped, 0);
    assert!(!m.last_decisions.is_empty(), "wave traces feed the decision tail");
    // Every decision the service saw belongs to the one admitted job,
    // and the phase histogram accounts for all of them.
    assert!(m.last_decisions.iter().all(|d| d.job == Some(report.job.0)));
    let phase_total: u64 = m.decision_phases.values().sum();
    assert!(phase_total >= m.last_decisions.len() as u64);
    assert!(m.decision_phases.keys().all(|(job, _)| *job == Some(report.job.0)));

    // Job lifecycle events are recorded even though they come from the
    // service itself, not the runtime trace.
    let admitted = m.job_events.iter().any(
        |ev| matches!(ev, TraceEvent::JobAdmitted { job, tasks, .. } if *job == report.job.0 && *tasks == 32),
    );
    let completed = m.job_events.iter().any(
        |ev| matches!(ev, TraceEvent::JobCompleted { job, ok, .. } if *job == report.job.0 && *ok),
    );
    assert!(admitted, "missing JobAdmitted: {:?}", m.job_events);
    assert!(completed, "missing JobCompleted: {:?}", m.job_events);
    service.shutdown();
}

/// The `JobAdmitted`/`JobCompleted` pair of `job` in a job-event ring,
/// as `(admitted time, tasks, completed time, ok)`. Panics unless the
/// job has exactly these two events, admission first.
fn job_event_pair(events: &[TraceEvent], job: u64) -> (Ts, u64, Ts, bool) {
    let mine: Vec<&TraceEvent> = events
        .iter()
        .filter(|ev| match ev {
            TraceEvent::JobAdmitted { job: j, .. } | TraceEvent::JobCompleted { job: j, .. } => {
                *j == job
            }
            _ => false,
        })
        .collect();
    match mine[..] {
        [
            &TraceEvent::JobAdmitted { time: admitted, tasks, .. },
            &TraceEvent::JobCompleted { time: completed, ok, .. },
        ] => (admitted, tasks, completed, ok),
        _ => panic!("job {job}: expected JobAdmitted then JobCompleted, got {mine:?}"),
    }
}

/// A native runtime with one `sleepy` template whose kernel bumps its
/// datum and sleeps `kernel_ms`, or panics when `kernel_ms` is 0.
fn sleepy_runtime(kernel_ms: u64, max_task_retries: u32) -> (Runtime, versa_core::TemplateId) {
    let mut rc = RuntimeConfig::with_scheduler(SchedulerKind::DepAware);
    rc.max_task_retries = max_task_retries;
    let mut rt = Runtime::native(
        rc,
        NativeConfig { smp_workers: 2, gpus: 0, gpu_lanes: 1, link_bandwidth: None },
    );
    let tpl = rt.template("sleepy").main("sleepy_smp", &[DeviceKind::Smp]).register();
    rt.bind_native(tpl, VersionId(0), move |ctx| {
        assert!(kernel_ms > 0, "injected kernel failure");
        ctx.f64_mut(0)[0] += 1.0;
        std::thread::sleep(Duration::from_millis(kernel_ms));
    });
    (rt, tpl)
}

#[test]
fn job_events_pair_up_with_admission_stamps() {
    const KERNEL_MS: u64 = 15;
    let (rt, tpl) = sleepy_runtime(KERNEL_MS, 3);
    let service = Service::start(rt, ServeConfig { wave_dispatch: 4, ..ServeConfig::default() });
    let client = service.client();
    let tickets: Vec<_> = (1..=4)
        .map(|tasks| client.submit(sleepy_job(tpl, tasks, KERNEL_MS)).accepted().unwrap())
        .collect();
    let reports: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();

    let events = service.metrics().job_events;
    assert_eq!(events.len(), 2 * reports.len());
    for r in &reports {
        assert!(r.outcome.is_ok(), "job failed: {:?}", r.outcome);
        let (admitted, tasks, completed, ok) = job_event_pair(&events, r.job.0);
        assert!(ok);
        assert_eq!(tasks, r.tasks, "JobAdmitted carries the job's task count");
        // Stamped at admission, not at completion: the job's kernels
        // ran in between.
        assert!(
            completed - admitted >= Duration::from_millis(KERNEL_MS),
            "job {}: admitted {admitted:?}, completed {completed:?}",
            r.job.0
        );
    }
    service.shutdown();
}

#[test]
fn aborted_jobs_still_publish_both_events() {
    // Every attempt panics once the gate opens and there are no retries:
    // the first wave aborts the service, failing the job in flight and
    // the one queued behind it while that wave ran.
    let [entered, gate] = [(); 2].map(|_| Arc::new(AtomicBool::new(false)));
    let mut rc = RuntimeConfig::with_scheduler(SchedulerKind::DepAware);
    rc.max_task_retries = 0;
    let native = NativeConfig { smp_workers: 2, gpus: 0, gpu_lanes: 1, link_bandwidth: None };
    let mut rt = Runtime::native(rc, native);
    let tpl = rt.template("sleepy").main("sleepy_smp", &[DeviceKind::Smp]).register();
    let (kernel_entered, kernel_gate) = (Arc::clone(&entered), Arc::clone(&gate));
    rt.bind_native(tpl, VersionId(0), move |_| {
        kernel_entered.store(true, Ordering::Release);
        while !kernel_gate.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("injected kernel failure");
    });
    let service = Service::start(rt, ServeConfig::default());
    let client = service.client();
    let running = client.submit(sleepy_job(tpl, 2, 0)).accepted().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !entered.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "the first wave never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The service thread is inside the wave: this job stays queued.
    let queued = client.submit(sleepy_job(tpl, 3, 0)).accepted().unwrap();
    gate.store(true, Ordering::Release);
    let report = running.wait();
    for r in [&report, &queued.wait()] {
        assert!(r.outcome.as_ref().is_err_and(|e| e.starts_with("service aborted")), "{r:?}");
    }

    let m = service.metrics();
    assert_eq!(m.failed, 2);
    assert_eq!(m.accepted, m.completed + m.failed);
    assert_eq!((m.queue_depth, m.active_jobs, m.live_tasks), (0, 0, 0), "{m:?}");
    let (_, tasks, _, ok) = job_event_pair(&m.job_events, report.job.0);
    assert_eq!(tasks, 2);
    assert!(!ok, "an aborted job completes with ok: false");
    assert_eq!(m.job_events.len(), 2, "the queued job was never admitted");
    service.shutdown();
}

#[test]
fn dropped_tickets_never_stall_the_service() {
    // Each report goes into a one-slot channel whose receiver is gone
    // by the time the job completes: the one send must not block.
    let (rt, tpl) = sim_runtime();
    let service = Service::start(
        rt,
        ServeConfig { queue_capacity: 128, wave_dispatch: 8, ..ServeConfig::default() },
    );
    let client = service.client();
    let tickets: Vec<_> =
        (0..96).filter_map(|_| client.submit(sim_job(tpl, 2)).accepted()).collect();
    let accepted = tickets.len() as u64;
    assert!(accepted >= 64, "only {accepted} of 96 submissions accepted");
    drop(tickets);
    service.shutdown();

    let m = client.metrics();
    assert_eq!(m.accepted, accepted);
    assert_eq!(m.completed, accepted, "every accepted job completed");
    assert_eq!(
        m.submitted,
        m.accepted + m.rejected_queue_full + m.rejected_shutdown + m.shed_deadline,
        "a submission fell off the books: {m:?}"
    );
}
