//! Serve-at-scale stress tests: lossless admission under many
//! concurrent clients, equal fair-queue shares for equal jobs, and
//! bit-identical single-job results with the batched-bid/recycling
//! machinery on or off.

use std::sync::{Arc, Mutex};
use versa_apps::jobs;
use versa_core::{DeviceKind, SchedulerKind, VersionId};
use versa_runtime::{NativeConfig, Runtime, RuntimeConfig};
use versa_serve::{FinishFn, JobSpec, RejectReason, ServeConfig, Service, SubmitOutcome};
use versa_sim::PlatformConfig;

fn sim_service(queue_capacity: usize, wave_dispatch: u64) -> Service {
    let rt = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        PlatformConfig::minotauro(4, 0),
    );
    Service::start(rt, ServeConfig { queue_capacity, wave_dispatch, ..ServeConfig::default() })
}

/// Eight clients push a hundred-plus tiny jobs each through a small
/// queue. Every submission must land in exactly one admission bucket,
/// every accepted job must complete, and the service must come back to
/// rest with nothing live — all with graph recycling on (the default),
/// i.e. the exact configuration the throughput bench runs.
#[test]
fn admission_is_lossless_with_eight_concurrent_clients() {
    let service = sim_service(32, 32);
    const CLIENTS: u64 = 8;
    const JOBS: u64 = 128;

    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let client = service.client();
        handles.push(std::thread::spawn(move || {
            let mut rejected = 0u64;
            let mut tickets = Vec::with_capacity(JOBS as usize);
            for j in 0..JOBS {
                loop {
                    match client.submit(jobs::tiny_axpy_job(64, c * JOBS + j)) {
                        SubmitOutcome::Accepted(t) => {
                            tickets.push(t);
                            break;
                        }
                        SubmitOutcome::Rejected(RejectReason::QueueFull) => {
                            rejected += 1;
                            std::thread::yield_now();
                        }
                        other => panic!("unexpected outcome mid-run: {other:?}"),
                    }
                }
            }
            for t in tickets {
                let r = t.wait();
                assert!(r.outcome.is_ok(), "job failed: {:?}", r.outcome);
            }
            rejected
        }));
    }
    let rejected: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    let m = service.metrics();
    assert_eq!(m.accepted, CLIENTS * JOBS, "every job was eventually admitted");
    assert_eq!(m.rejected_queue_full, rejected);
    assert_eq!(
        m.submitted,
        m.accepted + m.rejected_queue_full + m.rejected_shutdown + m.shed_deadline,
        "a submission fell off the books: {m:?}"
    );
    assert_eq!(m.completed, m.accepted);
    assert_eq!(m.failed, 0);
    assert_eq!(m.active_jobs, 0);
    assert_eq!(m.live_tasks, 0);
    assert_eq!(m.queue_depth, 0);
    service.shutdown();
}

/// `tasks` independent same-cost tasks.
fn wide_job(tpl: versa_core::TemplateId, name: &str, tasks: usize) -> JobSpec {
    JobSpec::fire_and_forget(name, move |rt| {
        for _ in 0..tasks {
            let d = rt.alloc_bytes(1 << 12);
            rt.task(tpl).read_write(d).submit();
        }
    })
}

/// Two equal jobs admitted together share every wave: start-time fair
/// queuing hands them dispatch slots in turn, so they finish within two
/// waves of each other. FIFO order would finish the first a whole job's
/// worth of waves (240 tasks / 8 per wave = 30) before the second.
#[test]
fn fair_queue_gives_equal_jobs_equal_shares() {
    let mut rt = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        PlatformConfig::minotauro(4, 0),
    );
    let tpl = rt.template("unit").main("unit_smp", &[DeviceKind::Smp]).register();
    rt.bind_cost(tpl, VersionId(0), |_| std::time::Duration::from_millis(1));
    let service =
        Service::start(rt, ServeConfig { wave_dispatch: 8, ..ServeConfig::default() });
    let client = service.client();

    // A blocker occupies the service so the two measured jobs sit in the
    // queue together and are admitted in the same drain.
    let blocker = client.submit(wide_job(tpl, "blocker", 64)).accepted().expect("queue has room");
    let first = client.submit(wide_job(tpl, "first", 240)).accepted().expect("queue has room");
    let second = client.submit(wide_job(tpl, "second", 240)).accepted().expect("queue has room");
    blocker.wait();
    let first = first.wait();
    let second = second.wait();
    assert!(first.outcome.is_ok() && second.outcome.is_ok());

    assert!(
        first.admitted_wave.abs_diff(second.admitted_wave) <= 2,
        "jobs were not co-admitted: {} vs {}",
        first.admitted_wave,
        second.admitted_wave
    );
    assert!(
        first.completed_wave.abs_diff(second.completed_wave) <= 2,
        "equal jobs did not share the waves: completed in wave {} vs {}",
        first.completed_wave,
        second.completed_wave
    );
    drop(client);
    service.shutdown();
}

/// One deterministic AXPY-chain job on a native service; returns the
/// result buffer as raw bits.
fn axpy_chain_bits() -> Vec<u64> {
    const ELEMS: usize = 512;
    let rc = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
    let rt = Runtime::native(rc, NativeConfig::new(2, 0));
    let service = Service::start(rt, ServeConfig::default());
    let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    let spec = JobSpec::new("axpy-chain", move |rt| {
        let tpl = rt.template("axpy_chk").main("axpy_chk_smp", &[DeviceKind::Smp]).register();
        rt.bind_native(tpl, VersionId(0), |ctx| {
            let (reads, y) = ctx.f64_reads_and_mut(&[0], 1);
            for (yi, xi) in y.iter_mut().zip(reads[0]) {
                *yi += 2.0 * *xi;
            }
        });
        let x: Vec<f64> = (0..ELEMS).map(|i| (i % 97) as f64).collect();
        let x = rt.alloc_from_f64(&x);
        let y = rt.alloc_from_f64(&vec![1.0; ELEMS]);
        for _ in 0..3 {
            rt.task(tpl).read(x).read_write(y).submit();
        }
        let finish: FinishFn = Box::new(move |rt| {
            *sink.lock().unwrap() = rt.read_f64(y).iter().map(|v| v.to_bits()).collect();
            rt.free(x);
            rt.free(y);
            Ok(())
        });
        finish
    });
    let report = service.client().submit(spec).accepted().expect("queue has room").wait();
    assert!(report.outcome.is_ok(), "job failed: {:?}", report.outcome);
    service.shutdown();
    let bits = out.lock().unwrap().clone();
    assert_eq!(bits.len(), ELEMS);
    bits
}

/// The serve-at-scale machinery (bounded waves, graph recycling)
/// must not perturb numerics: a single job's result bytes match the
/// serial recomputation.
#[test]
fn single_job_results_match_the_serial_recomputation() {
    let bits = axpy_chain_bits();
    let expected: Vec<u64> =
        (0..bits.len()).map(|i| (1.0 + 6.0 * ((i % 97) as f64)).to_bits()).collect();
    assert_eq!(bits, expected, "result deviates from the serial recomputation");
}
