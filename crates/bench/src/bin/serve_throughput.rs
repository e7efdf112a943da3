//! Sustained small-job throughput gate for the multi-job service.
//!
//! Two phases over [`versa_apps::jobs::tiny_axpy_job`] (two allocations,
//! a two-task AXPY chain — pure runtime overhead, no arithmetic to speak
//! of), driven on the simulated platform so every microsecond measured
//! is coordination cost — admission, graph bookkeeping, scheduler bids,
//! directory/arena traffic — with no kernel time or per-wave OS-thread
//! churn folded in:
//!
//! * **saturation** — a closed loop holds a fixed number of jobs in
//!   flight for a wall budget and counts completions; the gate is an
//!   absolute floor on sustained jobs/sec ([`MIN_JOBS_PER_SEC`]). A
//!   service whose per-job cost grows with the jobs it has ever served
//!   (a graph window that is not recycled, per-probe scheduler bids)
//!   sustains about a tenth of the floor over the budget.
//! * **latency** — run first, before the saturation burn heats up the
//!   host: open-loop Poisson arrivals at a gentle fixed rate, far under
//!   measured capacity;
//!   per-job turnaround p50/p99 must stay tight or admission is
//!   stalling on coordination somewhere. The tail gate is
//!   `p99 ≤ max(2 × p50, p50 + 10 ms)` plus a 50 ms hard cap and a
//!   no-shed requirement: the absolute slack absorbs scheduler/
//!   virtualization jitter on small shared runners (a multiplicative
//!   bound alone over a ~0.1 ms median measures the hypervisor, not
//!   the service, and steal-time pauses alone reach ~5 ms at p99),
//!   while a service that serializes or backs up still fails —
//!   observed pathologies sit at 9–100 ms p99 with shed arrivals,
//!   tripping the no-shed arm and usually the slack arm too.
//!
//! Admission-control books are checked at the end of every phase:
//! `submitted == accepted + rejected_queue_full + rejected_shutdown +
//! shed_deadline`, and every accepted job must complete.
//!
//! Usage:
//! ```text
//! serve_throughput [--quick] [--check] [--out PATH]
//! ```
//! `--quick` shrinks the wall budgets for CI smoke runs; `--check`
//! fails the run when a gate is missed (what CI's serve-throughput job
//! enforces). The default writes `BENCH_serve_throughput.json`;
//! regenerate the committed baseline with:
//! `cargo run --release -p versa-bench --bin serve_throughput`.

use std::collections::VecDeque;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use versa_apps::jobs;
use versa_core::SchedulerKind;
use versa_runtime::{Runtime, RuntimeConfig};
use versa_serve::{ServeConfig, Service};
use versa_sim::PlatformConfig;

/// Elements per AXPY buffer: small enough that kernels are ~free, large
/// enough that the job is not purely a channel round-trip.
const ELEMS: usize = 256;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// xorshift64* — deterministic inter-arrival randomness without pulling
/// in an RNG crate.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential with mean `mean_s` seconds.
    fn exp(&mut self, mean_s: f64) -> Duration {
        Duration::from_secs_f64(-mean_s * self.unit().ln())
    }
}

/// Jobs held in flight by the closed loop — bounds the service's active
/// set so the run measures steady-state per-job cost, not the cost of
/// an ever-growing backlog.
const IN_FLIGHT: usize = 256;

/// Saturation floor, sustained jobs/sec: ~10× what the retired
/// unbatched, non-recycling service sustained on the reference host
/// (3 448) and about a third of the committed
/// `BENCH_serve_throughput.json` figure, so host noise passes and a
/// return of per-job cost that grows with history does not.
const MIN_JOBS_PER_SEC: f64 = 30_000.0;

fn service() -> Service {
    let rc = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
    let rt = Runtime::simulated(rc, PlatformConfig::minotauro(4, 0));
    let config = ServeConfig {
        // Deep enough that a multi-ms host hiccup (~128 ms of backlog at
        // the latency phase's arrival rate) does not shed open-loop
        // arrivals on its own.
        queue_capacity: 256,
        wave_dispatch: 64,
        ..ServeConfig::default()
    };
    Service::start(rt, config)
}

struct SaturationResult {
    jobs_done: u64,
    elapsed_s: f64,
    jobs_per_sec: f64,
}

/// Keep [`IN_FLIGHT`] jobs in flight for `budget`, then drain; returns
/// sustained completed-jobs/sec over the whole run (including the
/// drain, so a backlogged service cannot hide work past the deadline).
fn saturate(label: &str, budget: Duration) -> SaturationResult {
    let svc = service();
    let client = svc.client();
    let start = Instant::now();
    let mut tickets = VecDeque::with_capacity(IN_FLIGHT);
    let mut seed = 0u64;
    let reap = |t: versa_serve::JobTicket| {
        let report = t.wait();
        assert!(report.outcome.is_ok(), "job failed: {:?}", report.outcome);
    };
    while start.elapsed() < budget {
        // Closed loop: block on the oldest ticket once the in-flight cap
        // is reached, so the active set stays bounded.
        if tickets.len() == IN_FLIGHT {
            reap(tickets.pop_front().unwrap());
        }
        match client.submit(jobs::tiny_axpy_job(ELEMS, seed)).accepted() {
            Some(t) => {
                tickets.push_back(t);
                seed += 1;
            }
            // Queue full: free service capacity by reaping a completion.
            None => match tickets.pop_front() {
                Some(t) => reap(t),
                None => std::thread::yield_now(),
            },
        }
    }
    for t in tickets.drain(..) {
        reap(t);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let m = client.metrics();
    assert_eq!(
        m.submitted,
        m.accepted + m.rejected_queue_full + m.rejected_shutdown + m.shed_deadline,
        "{label}: admission books must balance"
    );
    assert_eq!(m.completed, seed, "{label}: every accepted job completes");
    drop(client);
    svc.shutdown();
    let jobs_per_sec = seed as f64 / elapsed_s;
    eprintln!(
        "  {label}: {seed} jobs in {elapsed_s:.2}s → {jobs_per_sec:.0} jobs/s \
         ({} offers rejected by backpressure)",
        m.rejected_queue_full
    );
    SaturationResult { jobs_done: seed, elapsed_s, jobs_per_sec }
}

struct LatencyResult {
    jobs_done: u64,
    rate_target: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Open-loop Poisson arrivals at `rate` jobs/sec; returns turnaround
/// percentiles.
fn open_loop(rate: f64, jobs: u64) -> LatencyResult {
    let svc = service();
    let client = svc.client();
    let mut rng = Rng(0x9E3779B97F4A7C15);
    let mut tickets = Vec::with_capacity(jobs as usize);
    let mut next = Instant::now();
    for seed in 0..jobs {
        next += rng.exp(1.0 / rate);
        // Sleep (don't spin) to the arrival instant: on small machines
        // the arrival thread shares a core with the service, and a spin
        // loop would starve the very thing being measured.
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        // Open loop: a full queue sheds the arrival instead of blocking
        // the arrival process (the books still count it).
        if let Some(t) = client.submit(jobs::tiny_axpy_job(ELEMS, seed)).accepted() {
            tickets.push(t);
        }
    }
    let mut turnaround_ms: Vec<f64> = tickets
        .drain(..)
        .map(|t| {
            let report = t.wait();
            assert!(report.outcome.is_ok(), "latency job failed: {:?}", report.outcome);
            report.turnaround.as_secs_f64() * 1e3
        })
        .collect();
    let m = client.metrics();
    assert_eq!(
        m.submitted,
        m.accepted + m.rejected_queue_full + m.rejected_shutdown + m.shed_deadline,
        "latency phase: admission books must balance"
    );
    drop(client);
    svc.shutdown();
    turnaround_ms.sort_by(|a, b| a.total_cmp(b));
    let done = turnaround_ms.len() as u64;
    let (p50, p99) = (percentile(&turnaround_ms, 0.50), percentile(&turnaround_ms, 0.99));
    eprintln!(
        "  open-loop @ {rate:.0} jobs/s: {done}/{jobs} admitted, turnaround \
         p10 {:.3} p50 {p50:.3} p90 {:.3} p95 {:.3} p99 {p99:.3} ms",
        percentile(&turnaround_ms, 0.10),
        percentile(&turnaround_ms, 0.90),
        percentile(&turnaround_ms, 0.95),
    );
    LatencyResult { jobs_done: done, rate_target: rate, p50_ms: p50, p99_ms: p99 }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve_throughput.json".to_string());

    // A per-job cost that grows with every job ever served makes the
    // sustained rate fall the longer the budget runs; the quick budget
    // is the smallest window where that decay reliably drops a service
    // below the floor.
    let (sat_budget, lat_jobs) = if quick {
        (Duration::from_secs(6), 8_000u64)
    } else {
        (Duration::from_secs(12), 30_000u64)
    };

    // Warm-up: lane pools, allocator, template registration paths.
    saturate("warmup", Duration::from_millis(300));

    // Latency first, on a cold machine. At this gentle fixed rate
    // queueing stays negligible by construction (asserted against the
    // capacity measured below), so the percentiles measure the
    // service's own admission→completion path. Running it before the
    // saturation burn matters on burstable/shared hosts: a sustained
    // 100%-CPU phase drains the hypervisor's credit bucket, and the
    // throttle response would otherwise land in the tail percentiles.
    let lat_rate = 2_000.0;
    let lat = open_loop(lat_rate, lat_jobs);
    let tail_ratio = lat.p99_ms / lat.p50_ms;

    eprintln!("saturation ({}s budget):", sat_budget.as_secs());
    let sat = saturate("closed loop", sat_budget);
    eprintln!(
        "sustained throughput: {:.0} jobs/s (gate ≥{MIN_JOBS_PER_SEC:.0})",
        sat.jobs_per_sec
    );
    assert!(
        lat_rate < sat.jobs_per_sec * 0.2,
        "latency rate {lat_rate} is not gentle against measured capacity {:.0} jobs/s",
        sat.jobs_per_sec
    );
    let tail_slack_ms = 10.0;
    let tail_bound_ms = (2.0 * lat.p50_ms).max(lat.p50_ms + tail_slack_ms);
    eprintln!(
        "tail: p99/p50 = {tail_ratio:.2}, gate p99 ≤ max(2×p50, p50+{tail_slack_ms} ms) \
         = {tail_bound_ms:.3} ms, hard cap 50 ms"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"generated_by\": \"serve_throughput\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    json.push_str("  \"job\": \"tiny-axpy\",\n");
    json.push_str(&format!("  \"elems_per_buffer\": {ELEMS},\n"));
    json.push_str(&format!("  \"saturation_budget_s\": {},\n", sat_budget.as_secs_f64()));
    json.push_str(&format!(
        "  \"saturation\": {{\"jobs\": {}, \"elapsed_s\": {:.3}, \"jobs_per_sec\": {:.1}}},\n",
        sat.jobs_done, sat.elapsed_s, sat.jobs_per_sec
    ));
    json.push_str(&format!("  \"min_jobs_per_sec\": {MIN_JOBS_PER_SEC:.1},\n"));
    json.push_str(&format!(
        "  \"open_loop\": {{\"rate_jobs_per_sec\": {:.1}, \"jobs\": {}, \
         \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"tail_ratio\": {:.3}, \
         \"tail_slack_ms\": {tail_slack_ms:.1}}}\n",
        lat.rate_target, lat.jobs_done, lat.p50_ms, lat.p99_ms, tail_ratio
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    let mut ok = true;
    if sat.jobs_per_sec < MIN_JOBS_PER_SEC {
        eprintln!(
            "FAIL: sustained {:.0} jobs/s below the {MIN_JOBS_PER_SEC:.0} jobs/s floor",
            sat.jobs_per_sec
        );
        ok = false;
    }
    if lat.p99_ms > tail_bound_ms {
        eprintln!(
            "FAIL: p99 {:.3} ms exceeds max(2×p50, p50+{tail_slack_ms} ms) = {tail_bound_ms:.3} ms",
            lat.p99_ms
        );
        ok = false;
    }
    if lat.p99_ms > 50.0 {
        eprintln!("FAIL: p99 {:.3} ms exceeds the 50 ms hard cap", lat.p99_ms);
        ok = false;
    }
    if lat.jobs_done != lat_jobs {
        eprintln!(
            "FAIL: {} of {lat_jobs} gentle open-loop arrivals were shed — the service backed up",
            lat_jobs - lat.jobs_done
        );
        ok = false;
    }
    if check && !ok {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
