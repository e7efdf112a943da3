//! Lane executors: how multi-lane kernels obtain their parallelism.
//!
//! Kernels never spawn OS threads themselves. Each parallel kernel splits
//! its work into independent closures ("jobs", typically one per row
//! band) and hands them to a [`LaneExec`]. The trait has three
//! implementations:
//!
//! * [`SerialExec`] — runs jobs inline; what SMP workers use.
//! * `ScopedExec` — a `std::thread::scope` per batch; keeps the legacy
//!   `(…, lanes)` kernel signatures working for callers without a pool.
//! * `LanePool` (in `versa-runtime`) — persistent parked lane threads
//!   owned by an emulated-GPU worker; batches reuse the same threads, so
//!   a kernel call costs a wake-up instead of a `thread::spawn`.

/// An executor that runs a batch of independent jobs across lanes.
///
/// # Contract
/// `run_batch` must not return until every job has either run to
/// completion or been dropped — implementations may not let a job outlive
/// the call. This is what makes it sound for callers to pass closures
/// borrowing local state (the `'scope` lifetime below).
pub trait LaneExec: Sync {
    /// Number of lanes jobs may be spread over (≥ 1).
    fn lanes(&self) -> usize;

    /// Run all jobs, returning once every one has finished. If a job
    /// panics, the panic is propagated to the caller (after the batch
    /// has drained, so borrowed state is never left aliased).
    fn run_batch<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>);
}

/// Runs every job inline on the calling thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialExec;

impl LaneExec for SerialExec {
    fn lanes(&self) -> usize {
        1
    }

    fn run_batch<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        for job in jobs {
            job();
        }
    }
}

/// Spawns a fresh `std::thread::scope` per batch.
///
/// This is the no-pool fallback, kept for the legacy `(…, lanes)` kernel
/// entry points and for callers outside the native engine. A batch may
/// hold many more jobs than lanes (kernels enqueue `MC`-granular bands so
/// pools can load-balance them), so the scope spawns at most `lanes − 1`
/// threads that drain a shared queue — never one thread per job. The
/// calling thread drains alongside them; panics are captured per job and
/// the first one is re-thrown after the batch is fully drained, so
/// borrowed state is never left aliased.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ScopedExec {
    lanes: usize,
}

impl ScopedExec {
    /// Executor claiming `lanes` lanes (clamped to ≥ 1).
    pub(crate) fn new(lanes: usize) -> ScopedExec {
        ScopedExec { lanes: lanes.max(1) }
    }
}

impl LaneExec for ScopedExec {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn run_batch<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        use std::collections::VecDeque;
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        use std::sync::Mutex;

        if jobs.len() <= 1 {
            for job in jobs {
                job();
            }
            return;
        }
        let helpers = (self.lanes - 1).min(jobs.len() - 1);
        let queue: Mutex<VecDeque<Box<dyn FnOnce() + Send + 'scope>>> =
            Mutex::new(jobs.into_iter().collect());
        let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let drain = |queue: &Mutex<VecDeque<Box<dyn FnOnce() + Send + 'scope>>>| {
            loop {
                let Some(job) = queue.lock().unwrap().pop_front() else { break };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                    let mut slot = first_panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(|| drain(&queue));
            }
            drain(&queue);
        });
        if let Some(payload) = first_panic.into_inner().unwrap() {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sum_with(exec: &dyn LaneExec, jobs: usize) -> usize {
        let hits = AtomicUsize::new(0);
        let batch: Vec<Box<dyn FnOnce() + Send + '_>> = (0..jobs)
            .map(|i| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(i + 1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        exec.run_batch(batch);
        hits.load(Ordering::Relaxed)
    }

    #[test]
    fn serial_runs_everything() {
        assert_eq!(sum_with(&SerialExec, 5), 15);
        assert_eq!(SerialExec.lanes(), 1);
    }

    #[test]
    fn scoped_runs_everything() {
        let exec = ScopedExec::new(4);
        assert_eq!(exec.lanes(), 4);
        assert_eq!(sum_with(&exec, 7), 28);
        assert_eq!(sum_with(&exec, 1), 1);
        assert_eq!(sum_with(&exec, 0), 0);
    }

    #[test]
    fn zero_lanes_clamps_to_one() {
        assert_eq!(ScopedExec::new(0).lanes(), 1);
    }

    #[test]
    fn jobs_may_borrow_mutable_disjoint_state() {
        let mut data = vec![0u64; 8];
        let exec = ScopedExec::new(2);
        let (lo, hi) = data.split_at_mut(4);
        exec.run_batch(vec![
            Box::new(move || lo.iter_mut().for_each(|v| *v = 1)),
            Box::new(move || hi.iter_mut().for_each(|v| *v = 2)),
        ]);
        assert_eq!(data, [1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn scoped_never_uses_more_threads_than_lanes() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let exec = ScopedExec::new(3);
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..24)
            .map(|_| {
                let seen = &seen;
                Box::new(move || {
                    seen.lock().unwrap().insert(std::thread::current().id());
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        exec.run_batch(jobs);
        // 24 jobs over 3 lanes: at most 3 distinct threads ever touch them.
        assert!(seen.lock().unwrap().len() <= 3);
    }

    #[test]
    #[should_panic(expected = "lane job failed")]
    fn scoped_propagates_panics() {
        let exec = ScopedExec::new(2);
        // The first job runs inline on the caller, so its panic payload
        // unwinds through `run_batch` unchanged.
        exec.run_batch(vec![
            Box::new(|| panic!("lane job failed")),
            Box::new(|| {}),
        ]);
    }
}
