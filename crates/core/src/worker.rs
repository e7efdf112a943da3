//! Worker model: per-worker FIFO task queues and estimated busy time.
//!
//! Paper §IV-B: "With the versioning scheduler, each worker has its own
//! task queue. ... it will be used at runtime to assign tasks to threads
//! and keep track of the amount of work each thread has". The *estimated
//! busy time* of a worker "is computed as the addition of the estimated
//! execution time for each task version in its queue".

use crate::{DeviceKind, TaskId, VersionId, WorkerId};
use std::collections::VecDeque;
use std::time::Duration;
use versa_mem::MemSpace;

/// Static description of a worker thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerInfo {
    /// Worker id (dense, 0-based).
    pub id: WorkerId,
    /// The single device this worker drives (paper §IV-B: each worker is
    /// devoted to exactly one device).
    pub device: DeviceKind,
    /// The address space tasks run against on this worker: host for SMP
    /// workers, the device's space otherwise.
    pub space: MemSpace,
}

/// One entry of a worker queue: a task, the version it will run, and the
/// execution-time estimate the scheduler used when enqueueing it (0 if the
/// version had no profile information yet).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedTask {
    /// The task instance.
    pub task: TaskId,
    /// The implementation chosen for it.
    pub version: VersionId,
    /// Estimated execution time at assignment.
    pub estimate: Duration,
}

/// Mutable scheduling state of one worker: FIFO queue + busy estimate.
///
/// The runtime owns a `Vec<WorkerState>`; schedulers read busy times
/// through it and the runtime pushes/pops as tasks are assigned, started
/// and finished.
#[derive(Clone, Debug)]
pub struct WorkerState {
    /// Static description.
    pub info: WorkerInfo,
    queue: VecDeque<QueuedTask>,
    running: Option<QueuedTask>,
    busy: Duration,
    retired: bool,
}

impl WorkerState {
    /// Fresh idle worker.
    pub fn new(info: WorkerInfo) -> WorkerState {
        WorkerState {
            info,
            queue: VecDeque::new(),
            running: None,
            busy: Duration::ZERO,
            retired: false,
        }
    }

    /// Permanently remove this worker from scheduling consideration
    /// (its node died). Retired workers keep their history for reports
    /// but never receive another assignment.
    pub fn retire(&mut self) {
        self.retired = true;
    }

    /// Whether this worker has been retired (node lost).
    #[inline]
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// Drain and return every queued (not yet started) task, clearing
    /// their contribution to the busy estimate — used when a node dies
    /// with work still queued on its workers.
    pub fn drain_queue(&mut self) -> Vec<QueuedTask> {
        let drained: Vec<QueuedTask> = self.queue.drain(..).collect();
        for q in &drained {
            self.busy = self.busy.saturating_sub(q.estimate);
        }
        drained
    }

    /// Abandon the running task (node lost mid-task). Returns the
    /// abandoned entry, if any.
    pub fn abandon_running(&mut self) -> Option<QueuedTask> {
        let running = self.running.take()?;
        self.busy = self.busy.saturating_sub(running.estimate);
        Some(running)
    }

    /// Estimated time for this worker to drain its queue (running task
    /// included at its full estimate).
    #[inline]
    pub(crate) fn estimated_busy(&self) -> Duration {
        self.busy
    }

    /// Whether the worker has neither a running task nor queued work.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.queue.is_empty()
    }

    /// Number of queued (not yet started) tasks.
    #[inline]
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The task currently executing, if any.
    #[inline]
    pub fn running(&self) -> Option<&QueuedTask> {
        self.running.as_ref()
    }

    /// Enqueue an assigned task; its estimate is added to the busy time.
    pub fn enqueue(&mut self, task: TaskId, version: VersionId, estimate: Duration) {
        self.busy += estimate;
        self.queue.push_back(QueuedTask { task, version, estimate });
    }

    /// Pop the next task to execute, marking it running.
    ///
    /// Returns `None` if the queue is empty or a task is already running
    /// (workers execute one task at a time).
    pub fn start_next(&mut self) -> Option<QueuedTask> {
        if self.running.is_some() {
            return None;
        }
        let next = self.queue.pop_front()?;
        self.running = Some(next);
        Some(next)
    }

    /// Mark the running task finished, removing its estimate from the
    /// busy time.
    ///
    /// # Panics
    /// Panics if `task` is not the running task.
    pub fn finish(&mut self, task: TaskId) {
        let running = self.running.take().expect("finish with no running task");
        assert_eq!(running.task, task, "finish of a task that is not running");
        self.busy = self.busy.saturating_sub(running.estimate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker() -> WorkerState {
        WorkerState::new(WorkerInfo {
            id: WorkerId(0),
            device: DeviceKind::Smp,
            space: MemSpace::HOST,
        })
    }

    #[test]
    fn fresh_worker_is_idle() {
        let w = worker();
        assert!(w.is_idle());
        assert_eq!(w.estimated_busy(), Duration::ZERO);
        assert_eq!(w.queue_len(), 0);
    }

    #[test]
    fn busy_time_is_sum_of_estimates() {
        let mut w = worker();
        w.enqueue(TaskId(1), VersionId(0), Duration::from_millis(30));
        w.enqueue(TaskId(2), VersionId(1), Duration::from_millis(20));
        assert_eq!(w.estimated_busy(), Duration::from_millis(50));
        assert!(!w.is_idle());
    }

    #[test]
    fn fifo_order_and_one_task_at_a_time() {
        let mut w = worker();
        w.enqueue(TaskId(1), VersionId(0), Duration::from_millis(1));
        w.enqueue(TaskId(2), VersionId(0), Duration::from_millis(1));
        let first = w.start_next().unwrap();
        assert_eq!(first.task, TaskId(1));
        // Still running: no second start.
        assert!(w.start_next().is_none());
        w.finish(TaskId(1));
        let second = w.start_next().unwrap();
        assert_eq!(second.task, TaskId(2));
    }

    #[test]
    fn finish_releases_estimate() {
        let mut w = worker();
        w.enqueue(TaskId(1), VersionId(0), Duration::from_millis(30));
        w.start_next();
        // Running task still counts toward the busy estimate.
        assert_eq!(w.estimated_busy(), Duration::from_millis(30));
        w.finish(TaskId(1));
        assert_eq!(w.estimated_busy(), Duration::ZERO);
        assert!(w.is_idle());
    }

    #[test]
    fn zero_estimate_tasks_are_fine() {
        let mut w = worker();
        w.enqueue(TaskId(1), VersionId(0), Duration::ZERO);
        assert_eq!(w.estimated_busy(), Duration::ZERO);
        w.start_next();
        w.finish(TaskId(1));
        assert!(w.is_idle());
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn finishing_wrong_task_panics() {
        let mut w = worker();
        w.enqueue(TaskId(1), VersionId(0), Duration::ZERO);
        w.start_next();
        w.finish(TaskId(2));
    }

    #[test]
    #[should_panic(expected = "no running task")]
    fn finishing_idle_worker_panics() {
        let mut w = worker();
        w.finish(TaskId(1));
    }
}
