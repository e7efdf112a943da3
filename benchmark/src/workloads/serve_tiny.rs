//! `serve_closed_tiny` and `serve_open_tiny` — `versa-serve` over
//! `Runtime::simulated(minotauro(4,0))`, `queue_capacity 4096`,
//! `wave_dispatch 64`, `jobs::tiny_axpy_job(256, seed)` (two allocations,
//! a two-task chain: pure coordination cost), one generator thread.
//!
//! Closed loop, 256 jobs in flight: coordination-plane throughput —
//! admission, graph recycling, wave-batched bids, striped directory and
//! arena. Open loop, Poisson 10 000 jobs/s (≈ 11 % utilisation), each job
//! timed from its due instant: the latency path — idle-poll wake-up,
//! admission wait, one-wave exec. A change that buys jobs/s by batching
//! deeper or sleeping longer shows in the open loop as p50 up: the same
//! layer used the other way round, which is why both exist.

use super::{conclude, end_to_end, finish_spans, overhead_pct, rss_mb, Ctx};
use crate::gen::{derive, poisson_schedule};
use crate::metrics::{Outcome, Samples};
use crate::openloop::{drive, from_due, Clock, WallClock};
use crate::spans::{Layer, Recorder};
use crate::stats::{highest_supported_percentile, median, tail};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use versa_apps::jobs;
use versa_core::SchedulerKind;
use versa_runtime::{Runtime, RuntimeConfig};
use versa_serve::{JobReport, JobTicket, MetricsSnapshot, ServeConfig, Service};
use versa_sim::PlatformConfig;
use versa_trace::{Phase, TraceConfig};

const ELEMS: usize = 256;
const IN_FLIGHT: usize = 256;
/// Open-loop arrival rate, jobs/s: ≈ 11 % utilisation, so nine arrivals
/// in ten still find the service idle and pay the wake-up path. The
/// issue's 2000 jobs/s cannot be gated on this host: with 500 µs between
/// arrivals the service's vCPU halts and is descheduled, and the median
/// turnaround moves 19–57 % (IQR of ten runs) with the host's mood; at
/// 100 µs gaps it stays inside the hypervisor's halt-poll window and the
/// same median holds 2–3 %.
const OPEN_RATE: f64 = 10_000.0;
/// Seconds per throughput window.
const WINDOW: f64 = 0.1;
/// Jobs of a traced segment that get spans (four each).
const SPAN_JOBS: u64 = 50_000;
/// Fresh services started to take `setup_s`.
const SETUPS: usize = 201;

fn runtime(seed: u64, traced: bool) -> Runtime {
    let mut rc = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
    if traced {
        rc.tracing = TraceConfig::on();
    }
    let mut platform = PlatformConfig::minotauro(4, 0);
    platform.seed = derive(seed, 1);
    Runtime::simulated(rc, platform)
}

fn serve_config() -> ServeConfig {
    // The closed loop never queues more than its 256 in flight. The open
    // loop must not shed: after a stall (this shared host shows > 100 ms
    // ones) the generator sends every overdue arrival at once, and a
    // 256-slot queue refuses the burst — 4096 slots ride out 2 s.
    ServeConfig {
        queue_capacity: 4096,
        wave_dispatch: 64,
        ..ServeConfig::default()
    }
}

/// `(start_ms, shutdown_ms)` of [`SETUPS`] fresh services that each run
/// one job in between.
fn start_and_shutdown_ms(seed: u64) -> (Vec<f64>, Vec<f64>) {
    let (mut start_ms, mut shutdown_ms) = (Vec::new(), Vec::new());
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let svc = Service::start(runtime(seed, false), serve_config());
        start_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let ticket = svc
            .client()
            .submit(jobs::tiny_axpy_job(ELEMS, seed + i as u64))
            .accepted()
            .expect("empty service refuses a job");
        assert!(ticket.wait().outcome.is_ok(), "first job failed");
        let t1 = Instant::now();
        svc.shutdown();
        shutdown_ms.push(t1.elapsed().as_secs_f64() * 1e3);
    }
    (start_ms, shutdown_ms)
}

/// What the generator saw of one segment.
#[derive(Default)]
struct Segment {
    submitted: u64,
    completed_ok: u64,
    /// Refused, shed or failed jobs.
    failed: u64,
    elapsed_s: f64,
    /// Per completed job, from its due instant (open) or its submit call
    /// (closed).
    turnaround_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    submit_call_ns: Vec<f64>,
    late_ms: Vec<f64>,
    /// Every how many jobs the per-job vectors above take a sample (the
    /// closed loop completes ~10⁶ jobs; storing them all would make the
    /// resident set a function of the throughput).
    sample_every: u64,
    /// Tasks of the jobs reaped in each [`WINDOW`] of the segment.
    window_tasks: Vec<u64>,
    /// Resident set at the start of each window.
    rss_mb: Vec<f64>,
    started: Option<Instant>,
    /// Service counters over the segment (after − before).
    waves: u64,
    tasks: u64,
    rejected_queue_full: u64,
    shed: u64,
    learning_decisions: u64,
    decisions: u64,
    trace_dropped: u64,
    books_balance: bool,
}

impl Segment {
    fn new(sample_every: u64) -> Segment {
        Segment {
            sample_every,
            ..Segment::default()
        }
    }

    /// Account one completed job; `origin` is the instant its latency
    /// counts from and `late` how long after that the submit call began.
    fn reap(
        &mut self,
        report: &JobReport,
        late: Duration,
        call: Duration,
        origin_ns: u64,
        rec: &mut Recorder,
        req: u64,
    ) {
        if report.outcome.is_err() {
            self.failed += 1;
            return;
        }
        self.completed_ok += 1;
        let window = (self
            .started
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_secs_f64()
            / WINDOW) as usize;
        if self.window_tasks.len() <= window {
            self.window_tasks.resize(window + 1, 0);
            self.rss_mb.push(rss_mb());
        }
        self.window_tasks[window] += report.tasks;
        if self.completed_ok.is_multiple_of(self.sample_every) {
            self.turnaround_ms
                .push(from_due(late, report.turnaround).as_secs_f64() * 1e3);
            self.wait_ms.push(report.wait.as_secs_f64() * 1e3);
            self.exec_ms.push(report.exec.as_secs_f64() * 1e3);
            self.submit_call_ns.push(call.as_nanos() as f64);
            self.late_ms.push(late.as_secs_f64() * 1e3);
        }
        if !rec.enabled() {
            return;
        }
        if req >= SPAN_JOBS {
            rec.dropped += 4;
            return;
        }
        // `wait`/`exec` are the service's own stamps, counted from inside
        // the submit call; the spans pin them to the call's start.
        let ns = |d: Duration| d.as_nanos() as u64;
        let sent = origin_ns + ns(late);
        let admitted = sent + ns(report.wait);
        let job = rec.add(
            "job",
            Layer::Bench,
            origin_ns,
            sent + ns(report.turnaround),
            None,
            req,
            0,
        );
        rec.add(
            "Client::submit",
            Layer::Serve,
            sent,
            sent + ns(call),
            job,
            req,
            0,
        );
        rec.add("admission_wait", Layer::Serve, sent, admitted, job, req, 0);
        rec.add(
            "exec",
            Layer::Runtime,
            admitted,
            admitted + ns(report.exec),
            job,
            req,
            0,
        );
    }

    /// Tasks/s of every full window (the last one is cut short by the
    /// end of the segment and its drain).
    fn window_rates(&self) -> Vec<f64> {
        let full = &self.window_tasks[..self.window_tasks.len().saturating_sub(1)];
        full.iter().map(|&t| t as f64 / WINDOW).collect()
    }

    fn close(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        self.waves = after.waves - before.waves;
        self.tasks = after.tasks_executed - before.tasks_executed;
        self.rejected_queue_full = after.rejected_queue_full - before.rejected_queue_full;
        self.shed = after.shed_deadline - before.shed_deadline;
        let phase = |m: &MetricsSnapshot, learning_only: bool| -> u64 {
            m.decision_phases
                .iter()
                .filter(|((_, p), _)| !learning_only || *p == Phase::Learning)
                .map(|(_, &c)| c)
                .sum()
        };
        self.learning_decisions = phase(after, true) - phase(before, true);
        self.decisions = phase(after, false) - phase(before, false);
        self.trace_dropped = after.trace_dropped - before.trace_dropped;
        self.books_balance = after.submitted
            == after.accepted
                + after.rejected_queue_full
                + after.rejected_shutdown
                + after.shed_deadline
            && after.completed == after.accepted
            && after.failed == 0
            && after.submitted - before.submitted == self.submitted;
    }
}

struct InFlight {
    ticket: JobTicket,
    sent: Instant,
    call: Duration,
    req: u64,
}

/// Keep [`IN_FLIGHT`] jobs in flight for `budget_s`, then drain (the
/// drain is inside the measured window, so a backlogged service cannot
/// hide work past the deadline).
fn closed_loop(svc: &Service, seed: u64, budget_s: f64, rec: &mut Recorder) -> Segment {
    let client = svc.client();
    let mut seg = Segment::new(8);
    let before = client.metrics();
    let start = Instant::now();
    let mut flying: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
    let reap = |f: InFlight, seg: &mut Segment, rec: &mut Recorder| {
        let report = f.ticket.wait();
        seg.reap(
            &report,
            Duration::ZERO,
            f.call,
            rec.ns_of(f.sent),
            rec,
            f.req,
        );
    };
    while start.elapsed().as_secs_f64() < budget_s {
        // Closed loop: block on the oldest ticket once the cap is
        // reached, so the active set stays bounded.
        if flying.len() == IN_FLIGHT {
            reap(flying.pop_front().expect("cap reached"), &mut seg, rec);
        }
        let sent = Instant::now();
        let outcome = client.submit(jobs::tiny_axpy_job(ELEMS, seed.wrapping_add(seg.submitted)));
        let call = sent.elapsed();
        let req = seg.submitted;
        seg.submitted += 1;
        match outcome.accepted() {
            Some(ticket) => flying.push_back(InFlight {
                ticket,
                sent,
                call,
                req,
            }),
            None => seg.failed += 1,
        }
    }
    for f in flying.drain(..) {
        reap(f, &mut seg, rec);
    }
    seg.elapsed_s = start.elapsed().as_secs_f64();
    seg.close(&before, &client.metrics());
    seg
}

/// Poisson arrivals at [`OPEN_RATE`] for `budget_s`; a full queue sheds
/// the arrival, never blocks the generator.
fn open_loop(svc: &Service, seed: u64, budget_s: f64, rec: &mut Recorder) -> Segment {
    let client = svc.client();
    let due = poisson_schedule(OPEN_RATE, budget_s, derive(seed, 2));
    let mut seg = Segment::new(1);
    let before = client.metrics();
    let mut clock = WallClock::start();
    // Finished jobs are reaped as the run goes (a non-blocking look at the
    // oldest tickets after each send), so memory stays bounded.
    let mut flying: VecDeque<(JobTicket, usize, Duration, Duration)> = VecDeque::new();
    let epoch_ns = rec.ns_of(clock.instant_of(Duration::ZERO));
    let origin = |i: usize| epoch_ns + due[i].as_nanos() as u64;
    drive(&due, &mut clock, |clock, i, started, late| {
        let outcome = client.submit(jobs::tiny_axpy_job(ELEMS, seed.wrapping_add(i as u64)));
        let call = clock.now() - started;
        match outcome.accepted() {
            Some(ticket) => flying.push_back((ticket, i, late, call)),
            None => seg.failed += 1,
        }
        while let Some(report) = flying.front().and_then(|f| f.0.try_wait()) {
            let (_, j, late, call) = flying.pop_front().expect("front exists");
            seg.reap(&report, late, call, origin(j), rec, j as u64);
        }
    });
    seg.submitted = due.len() as u64;
    for (ticket, j, late, call) in flying {
        seg.reap(&ticket.wait(), late, call, origin(j), rec, j as u64);
    }
    seg.elapsed_s = clock.now().as_secs_f64();
    seg.close(&before, &client.metrics());
    seg
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Closed,
    Open,
}

/// Start a service, warm it up, run one measured segment, shut it down.
/// Also returns the set-up time: everything before the measured segment
/// — runtime, service start, and the closed-loop warm-up (template
/// registration, the learning phase, pools filled).
fn served(
    ctx: &Ctx,
    mode: Mode,
    budget_s: f64,
    traced: bool,
    rec: &mut Recorder,
) -> (Segment, f64) {
    let t_setup = Instant::now();
    let svc = Service::start(runtime(ctx.seed, traced), serve_config());
    let warm_s = if ctx.quick { 0.1 } else { 0.5 };
    let warm = closed_loop(&svc, ctx.seed ^ 0x5EED, warm_s, &mut Recorder::off());
    assert!(warm.failed == 0 && warm.books_balance, "warm-up lost jobs");
    let setup_s = t_setup.elapsed().as_secs_f64();
    let seg = match mode {
        Mode::Closed => closed_loop(&svc, ctx.seed, budget_s, rec),
        Mode::Open => open_loop(&svc, ctx.seed, budget_s, rec),
    };
    svc.shutdown();
    (seg, setup_s)
}

fn run(ctx: &Ctx, mode: Mode) -> Outcome {
    let name = if mode == Mode::Closed {
        "serve_closed_tiny"
    } else {
        "serve_open_tiny"
    };
    let mut samples = Samples::default();
    let budget = if ctx.trace {
        ctx.reference_s()
    } else {
        ctx.seconds
    };
    let (reference, setup_s) = served(ctx, mode, budget, false, &mut Recorder::off());
    let (mut attempted, mut failed) = (reference.submitted, reference.failed);
    let mut books =
        reference.books_balance && reference.completed_ok + reference.failed == reference.submitted;

    if !ctx.trace {
        end_to_end(
            &mut samples,
            &[setup_s],
            &reference.turnaround_ms,
            &reference.window_rates(),
            &reference.rss_mb,
        );
    } else {
        let (start_ms, shutdown_ms) = start_and_shutdown_ms(ctx.seed);
        let jobs_per_s = reference.completed_ok as f64 / reference.elapsed_s;
        samples.set("jobs_per_s", jobs_per_s);
        samples.set_samples("turnaround_ms_p50", &reference.turnaround_ms);
        samples.set_samples("serve.submit_call_ns_p50", &reference.submit_call_ns);
        samples.set_samples("serve.wait_ms_p50", &reference.wait_ms);
        samples.set_samples("serve.exec_ms_p50", &reference.exec_ms);
        // Tails only where ten samples lie beyond them; otherwise 0.
        for (metric, pct) in [
            ("serve.turnaround_ms_p99", 99.0),
            ("serve.turnaround_ms_p999", 99.9),
        ] {
            match tail(&reference.turnaround_ms, pct) {
                Some(v) => samples.set(metric, v),
                None => println!(
                    "# {name}: {metric} not reported: {} samples leave fewer than ten beyond it",
                    reference.turnaround_ms.len()
                ),
            }
        }
        if mode == Mode::Open {
            if let Some(v) = tail(&reference.late_ms, 99.0) {
                samples.set("serve.generator_late_ms_p99", v);
            }
        }
        samples.set(
            "serve.waves_per_s",
            reference.waves as f64 / reference.elapsed_s,
        );
        samples.set(
            "serve.tasks_per_wave",
            reference.tasks as f64 / reference.waves.max(1) as f64,
        );
        samples.set(
            "serve.rejected_queue_full",
            reference.rejected_queue_full as f64,
        );
        samples.set("serve.shed", reference.shed as f64);
        samples.set_samples("serve.start_ms", &start_ms);
        samples.set_samples("serve.shutdown_ms", &shutdown_ms);

        let mut rec = Recorder::on();
        let (traced, _) = served(ctx, mode, ctx.traced_s(), true, &mut rec);
        attempted += traced.submitted;
        failed += traced.failed;
        books &= traced.books_balance && traced.completed_ok + traced.failed == traced.submitted;
        samples.set("core.learning_decisions", traced.learning_decisions as f64);
        samples.set(
            "core.learning_share",
            traced.learning_decisions as f64 / traced.decisions.max(1) as f64,
        );
        samples.set("trace.dropped", traced.trace_dropped as f64);
        let overhead = match mode {
            Mode::Closed => overhead_pct(
                jobs_per_s,
                traced.completed_ok as f64 / traced.elapsed_s,
                false,
            ),
            Mode::Open => overhead_pct(
                median(&reference.turnaround_ms),
                median(&traced.turnaround_ms),
                true,
            ),
        };
        samples.set("trace.overhead_pct", overhead);
        finish_spans(ctx, name, "job", &rec, &mut samples);
    }

    println!(
        "# {name}: {} jobs submitted, {} ok, {} refused/shed/failed; admission books balance: {books}",
        reference.submitted, reference.completed_ok, reference.failed
    );
    // A timing is its median plus the highest percentile that still has
    // ten samples beyond it.
    if let Some(pct) = highest_supported_percentile(reference.turnaround_ms.len()) {
        let (p50, tail_ms) = (
            median(&reference.turnaround_ms),
            tail(&reference.turnaround_ms, pct).unwrap_or(f64::NAN),
        );
        println!(
            "# {name}: turnaround p50 {p50:.4} ms, p{pct} {tail_ms:.4} ms over {} jobs",
            reference.turnaround_ms.len()
        );
    }
    conclude(ctx, samples, attempted, failed, books)
}

pub fn run_closed(ctx: &Ctx) -> Outcome {
    run(ctx, Mode::Closed)
}

pub fn run_open(ctx: &Ctx) -> Outcome {
    run(ctx, Mode::Open)
}
