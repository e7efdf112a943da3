//! Persistent lane pool for emulated-GPU workers.
//!
//! The seed's parallel kernels opened a `std::thread::scope` — i.e. spawned
//! and joined OS threads — on *every* kernel invocation. A `LanePool` is
//! created once per emulated-GPU worker and lives for the whole run: its
//! lane threads park on a condvar between batches, so executing a
//! multi-lane kernel costs a wake-up instead of `lanes − 1` `thread::spawn`
//! calls per task.
//!
//! The pool implements [`LaneExec`], the executor abstraction the kernels
//! crate parallelizes over, so kernels are oblivious to whether their
//! lanes are pooled ([`LanePool`]), ad-hoc (`ScopedExec`) or inline
//! (`SerialExec`).
//!
//! # Why the lifetime erasure is sound
//! [`LaneExec::run_batch`] accepts jobs borrowing caller state (`'scope`).
//! Queueing them on long-lived threads requires erasing that lifetime to
//! `'static`, which is sound only because `run_batch` does not return
//! until every queued job has run to completion: the calling frame — and
//! everything the jobs borrow — strictly outlives every execution. The
//! caller participates in draining the queue, and waits on a second
//! condvar until the in-flight count reaches zero.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use versa_kernels::exec::LaneExec;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct State {
    /// FIFO so `MC`-granular kernel bands execute in submission order —
    /// adjacent bands stream adjacent rows of `A`/`C`, which keeps the
    /// shared cache warm when lanes pick up consecutive bands.
    queue: VecDeque<Job>,
    /// Jobs currently executing on some thread (pool lane or caller).
    active: usize,
    /// Panic messages captured from jobs; re-thrown by the draining caller.
    panics: Vec<String>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signaled when the queue gains jobs (or shutdown is requested).
    work: Condvar,
    /// Signaled when the last in-flight job of a batch finishes.
    done: Condvar,
}

/// A fixed set of persistent lane threads executing kernel job batches.
///
/// Constructed once per emulated-GPU worker with the device's lane count;
/// every subsequent kernel batch reuses the same OS threads.
pub(crate) struct LanePool {
    shared: Arc<Shared>,
    lanes: usize,
    workers: Vec<JoinHandle<()>>,
}

impl LanePool {
    /// Build a pool presenting `lanes` lanes (clamped to ≥ 1). The calling
    /// thread participates in every batch, so only `lanes − 1` OS threads
    /// are spawned — these are the only spawns the pool ever performs.
    pub(crate) fn new(lanes: usize) -> LanePool {
        let lanes = lanes.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..lanes)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lane-{i}"))
                    .spawn(move || lane_loop(&shared))
                    .expect("spawn lane thread")
            })
            .collect();
        LanePool { shared, lanes, workers }
    }

    /// Run one erased job, capturing any panic message into the state.
    fn run_job(&self, job: Job) {
        run_captured(&self.shared, job);
    }
}

/// Execute `job`, appending its panic message to `shared` if it unwinds.
fn run_captured(shared: &Shared, job: Job) {
    let result = catch_unwind(AssertUnwindSafe(job));
    let mut state = shared.state.lock().unwrap();
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "lane job panicked".to_string());
        state.panics.push(msg);
    }
    state.active -= 1;
    if state.active == 0 && state.queue.is_empty() {
        shared.done.notify_all();
    }
    drop(state);
}

fn lane_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.active += 1;
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        run_captured(shared, job);
    }
}

impl LaneExec for LanePool {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn run_batch<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if jobs.is_empty() {
            return;
        }
        // Erase the borrow lifetime; see the module docs for why this is
        // sound (the batch is fully drained before this function returns).
        let jobs: Vec<Job> = jobs
            .into_iter()
            .map(|job| unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job)
            })
            .collect();
        {
            let mut state = self.shared.state.lock().unwrap();
            state.queue.extend(jobs);
            self.shared.work.notify_all();
        }
        // Participate as the last lane, then wait out the stragglers.
        let panics = loop {
            let mut state = self.shared.state.lock().unwrap();
            if let Some(job) = state.queue.pop_front() {
                state.active += 1;
                drop(state);
                self.run_job(job);
            } else if state.active > 0 {
                let _unused = self.shared.done.wait(state).unwrap();
            } else {
                break std::mem::take(&mut state.panics);
            }
        };
        if let Some(first) = panics.into_iter().next() {
            panic!("{first}");
        }
    }
}

impl Drop for LanePool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use versa_mem::IdSet;

    fn batch_sum(pool: &LanePool, jobs: usize) -> usize {
        let hits = AtomicUsize::new(0);
        let batch: Vec<Box<dyn FnOnce() + Send + '_>> = (0..jobs)
            .map(|i| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(i + 1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(batch);
        hits.load(Ordering::Relaxed)
    }

    #[test]
    fn runs_every_job_in_the_batch() {
        let pool = LanePool::new(4);
        assert_eq!(pool.lanes(), 4);
        assert_eq!(pool.workers.len(), 3);
        assert_eq!(batch_sum(&pool, 10), 55);
        assert_eq!(batch_sum(&pool, 1), 1);
        assert_eq!(batch_sum(&pool, 0), 0);
    }

    #[test]
    fn single_lane_pool_spawns_nothing() {
        let pool = LanePool::new(1);
        assert_eq!(pool.workers.len(), 0);
        assert_eq!(batch_sum(&pool, 5), 15);
        assert_eq!(LanePool::new(0).lanes(), 1);
    }

    #[test]
    fn reuses_the_same_threads_across_batches() {
        let pool = LanePool::new(3);
        let seen: Mutex<IdSet<ThreadId>> = Mutex::new(IdSet::default());
        for _ in 0..50 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
                .map(|_| {
                    let seen = &seen;
                    Box::new(move || {
                        seen.lock().unwrap().insert(std::thread::current().id());
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_batch(jobs);
        }
        // 300 jobs, but only the caller + the pool's fixed worker threads
        // may ever appear: the pool spawns nothing per batch.
        let ids = seen.lock().unwrap();
        assert!(ids.len() <= pool.lanes());
        assert!(ids.contains(&std::thread::current().id()) || !pool.workers.is_empty());
    }

    #[test]
    fn jobs_may_borrow_mutable_disjoint_state() {
        let pool = LanePool::new(2);
        let mut data = vec![0u8; 6];
        let (lo, hi) = data.split_at_mut(3);
        pool.run_batch(vec![
            Box::new(move || lo.fill(1)),
            Box::new(move || hi.fill(2)),
        ]);
        assert_eq!(data, [1, 1, 1, 2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "lane exploded")]
    fn propagates_job_panics_after_draining() {
        let pool = LanePool::new(2);
        let survivor = AtomicUsize::new(0);
        pool.run_batch(vec![
            Box::new(|| panic!("lane exploded")),
            Box::new(|| {
                survivor.fetch_add(1, Ordering::Relaxed);
            }),
        ]);
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let pool = LanePool::new(2);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(vec![Box::new(|| panic!("first batch dies"))]);
        }));
        assert!(outcome.is_err());
        // Lanes are still alive and the panic buffer was drained.
        assert_eq!(batch_sum(&pool, 4), 10);
    }

    #[test]
    fn drive_a_real_kernel_through_the_pool() {
        use versa_kernels::gemm::{dgemm_blocked, dgemm_parallel_on};
        use versa_kernels::verify::{assert_close_f64, random_matrix_f64};
        let pool = LanePool::new(4);
        let n = 160;
        let a = random_matrix_f64(n, 1);
        let b = random_matrix_f64(n, 2);
        let mut c1 = random_matrix_f64(n, 3);
        let mut c2 = c1.clone();
        dgemm_blocked(&a, &b, &mut c1, n);
        dgemm_parallel_on(&pool, &a, &b, &mut c2, n);
        assert_close_f64(&c1, &c2, 1e-12);
    }
}
