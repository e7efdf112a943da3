//! Allocation budget of a served job's fixed cost.
//!
//! A counting global allocator counts every allocation of at least
//! [`LARGE`] bytes on any thread — the service thread and the client
//! alike. The shape is the benchmark's `serve_closed_tiny`:
//! `Runtime::simulated(minotauro(4,0))`, `queue_capacity 4096`,
//! `wave_dispatch 64`, `jobs::tiny_axpy_job(256, seed)`, one client
//! keeping 256 jobs in flight.
//!
//! Budget: ≤ 64 large allocations over 2 000 warm jobs, headroom for the
//! job-event ring, the admission queue and the graph growing to the
//! measured phase's 256 in flight. One large block per job (an unbounded
//! report channel allocates a 31-slot block on its first send) makes
//! ≥ 2 000.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use versa_apps::jobs;
use versa_core::SchedulerKind;
use versa_runtime::{Runtime, RuntimeConfig};
use versa_serve::{Client, JobTicket, ServeConfig, Service};
use versa_sim::PlatformConfig;

/// Smallest allocation the budget counts, in bytes.
const LARGE: usize = 4096;
const ELEMS: usize = 256;
const IN_FLIGHT: usize = 256;
const WARM_JOBS: u64 = 200;
const MEASURED_JOBS: u64 = 2_000;

struct Counting;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a static atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serve `jobs` tiny jobs in a closed loop, at most [`IN_FLIGHT`] at once,
/// waiting on the oldest ticket whenever the cap is reached.
fn closed_loop(client: &Client, flying: &mut VecDeque<JobTicket>, first_seed: u64, jobs: u64) {
    let reap = |t: JobTicket| assert!(t.wait().outcome.is_ok(), "tiny job failed");
    for seed in first_seed..first_seed + jobs {
        if flying.len() == IN_FLIGHT {
            reap(flying.pop_front().expect("cap reached"));
        }
        let ticket = client.submit(jobs::tiny_axpy_job(ELEMS, seed)).accepted();
        flying.push_back(ticket.expect("a 4096-slot queue holds 256 in flight"));
    }
    flying.drain(..).for_each(reap);
}

#[test]
fn served_tiny_jobs_stay_inside_their_large_allocation_budget() {
    let runtime = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        PlatformConfig::minotauro(4, 0),
    );
    let config = ServeConfig { queue_capacity: 4096, wave_dispatch: 64, ..ServeConfig::default() };
    let service = Service::start(runtime, config);
    let client = service.client();
    let mut flying = VecDeque::with_capacity(IN_FLIGHT);

    closed_loop(&client, &mut flying, 0, WARM_JOBS);
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    closed_loop(&client, &mut flying, WARM_JOBS, MEASURED_JOBS);
    let large = LARGE_ALLOCS.load(Ordering::Relaxed) - before;

    let m = service.metrics();
    assert_eq!(m.completed, WARM_JOBS + MEASURED_JOBS);
    println!("allocations of ≥ {LARGE} B over {MEASURED_JOBS} served jobs: {large}");
    assert!(large <= 64, "{large} allocations of ≥ {LARGE} B over {MEASURED_JOBS} served jobs");
    service.shutdown();
}
