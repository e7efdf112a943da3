//! The unified event model shared by the simulator, the native engine
//! and versa-serve.

use crate::meta::TraceMeta;
use std::time::Duration;
use versa_core::scheduler::Decision;
use versa_core::{TaskId, TemplateId, VersionId, WorkerId};
use versa_mem::{DataId, MemSpace};

/// A trace timestamp: nanoseconds since the run's epoch (virtual time for
/// the simulator, wall time since engine start for the native engine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ts(pub u64);

impl Ts {
    /// The run epoch.
    pub const ZERO: Ts = Ts(0);

    /// The timestamp as an offset from the epoch.
    #[inline]
    pub fn as_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }
}

impl std::ops::Sub for Ts {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Ts) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add<Duration> for Ts {
    type Output = Ts;
    #[inline]
    fn add(self, rhs: Duration) -> Ts {
        Ts(self.0 + rhs.as_nanos() as u64)
    }
}

impl std::fmt::Display for Ts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

/// One traced event. Timestamps are [`Ts`] nanoseconds from the run
/// epoch; `Transfer` carries a span, everything else an instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A task instance entered the graph (dependences still unresolved).
    TaskCreated {
        /// When.
        time: Ts,
        /// Which task.
        task: TaskId,
        /// Its template.
        template: TemplateId,
    },
    /// All of a task's dependences resolved; it entered the ready pool.
    TaskReady {
        /// When.
        time: Ts,
        /// Which task.
        task: TaskId,
    },
    /// The scheduler assigned a task: the scheduler's own record of the
    /// decision (phase, every bid, and the policy input that replays it).
    Decision {
        /// When the engine drained the decision from the scheduler.
        time: Ts,
        /// The decision as the scheduler logged it.
        decision: Decision,
    },
    /// A task attempt began executing on a worker.
    TaskStart {
        /// When.
        time: Ts,
        /// Which task.
        task: TaskId,
        /// On which worker.
        worker: WorkerId,
        /// As which implementation.
        version: VersionId,
        /// Its template.
        template: TemplateId,
        /// 1-based attempt number (> 1 after retries).
        attempt: u32,
    },
    /// A task attempt completed successfully.
    TaskEnd {
        /// When.
        time: Ts,
        /// Which task.
        task: TaskId,
        /// On which worker.
        worker: WorkerId,
        /// Measured kernel time in ns — the exact duration the engine
        /// reports to the scheduler and sums into `worker_busy`.
        kernel_ns: u64,
    },
    /// A task attempt failed (kernel fault or staging fault); the task
    /// will be retried or abort the run.
    TaskFailed {
        /// When.
        time: Ts,
        /// Which task.
        task: TaskId,
        /// On which worker.
        worker: WorkerId,
        /// As which implementation.
        version: VersionId,
        /// 1-based attempt number (this failure included).
        attempt: u32,
    },
    /// A data transfer occupied a link from `start` to `end`.
    Transfer {
        /// Transfer start.
        start: Ts,
        /// Transfer completion.
        end: Ts,
        /// The allocation moved.
        data: DataId,
        /// Source space.
        from: MemSpace,
        /// Destination space.
        to: MemSpace,
        /// Bytes moved.
        bytes: u64,
        /// Destination worker the copy staged for (`None` for flushes
        /// and eviction write-backs).
        by: Option<WorkerId>,
    },
    /// A cluster node became unreachable (heartbeat timeout or transport
    /// error). Workers hosted on the node are retired; their in-flight
    /// tasks fail with `NodeLost` and requeue onto survivors.
    NodeLost {
        /// When the loss was detected.
        time: Ts,
        /// Which node (1-based; 0 is the coordinator and never lost).
        node: u16,
    },
    /// versa-serve admitted a job into the runtime.
    JobAdmitted {
        /// When.
        time: Ts,
        /// Job id.
        job: u64,
        /// Tasks the job submitted.
        tasks: u64,
    },
    /// versa-serve finished a job.
    JobCompleted {
        /// When.
        time: Ts,
        /// Job id.
        job: u64,
        /// Whether it completed cleanly.
        ok: bool,
    },
}

impl TraceEvent {
    /// The event's (primary) timestamp, for ordering.
    pub(crate) fn time(&self) -> Ts {
        match self {
            TraceEvent::TaskCreated { time, .. }
            | TraceEvent::TaskReady { time, .. }
            | TraceEvent::TaskStart { time, .. }
            | TraceEvent::TaskEnd { time, .. }
            | TraceEvent::TaskFailed { time, .. }
            | TraceEvent::NodeLost { time, .. }
            | TraceEvent::JobAdmitted { time, .. }
            | TraceEvent::JobCompleted { time, .. }
            | TraceEvent::Decision { time, .. } => *time,
            TraceEvent::Transfer { start, .. } => *start,
        }
    }

    /// Lifecycle rank used to break timestamp ties when merging lanes.
    /// Terminal events (`failed`/`end`) sort *before* `start` at equal
    /// timestamps: a retry can begin at the very instant the previous
    /// attempt failed (simulator requeue), and a chained task can start
    /// the instant its predecessor ends.
    pub(crate) fn order_rank(&self) -> u8 {
        match self {
            TraceEvent::JobAdmitted { .. } => 0,
            TraceEvent::TaskCreated { .. } => 1,
            TraceEvent::TaskReady { .. } => 2,
            TraceEvent::Decision { .. } => 3,
            TraceEvent::Transfer { .. } => 4,
            // A node loss sorts before the task failures it causes.
            TraceEvent::NodeLost { .. } => 5,
            TraceEvent::TaskFailed { .. } => 6,
            TraceEvent::TaskEnd { .. } => 7,
            TraceEvent::TaskStart { .. } => 8,
            TraceEvent::JobCompleted { .. } => 9,
        }
    }
}

/// A merged, time-ordered trace: metadata naming workers and templates,
/// the event stream, and how many events overflowed the ring buffers.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Engine/topology/naming metadata.
    pub meta: TraceMeta,
    events: Vec<TraceEvent>,
    /// Events lost to ring-buffer overflow (oldest dropped first).
    pub dropped: u64,
}

impl Trace {
    /// Build a trace, sorting events by `(time, lifecycle rank)` (stable,
    /// so intra-lane order is preserved for ties).
    pub fn new(meta: TraceMeta, mut events: Vec<TraceEvent>, dropped: u64) -> Trace {
        events.sort_by_key(|e| (e.time(), e.order_rank()));
        Trace { meta, events, dropped }
    }

    /// All events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduler decision ledger, in time order.
    pub fn decisions(&self) -> impl Iterator<Item = &Decision> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Decision { decision, .. } => Some(decision),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn start(t: u64, task: u64, w: u16) -> TraceEvent {
        TraceEvent::TaskStart {
            time: Ts(t),
            task: TaskId(task),
            worker: WorkerId(w),
            version: VersionId(0),
            template: TemplateId(0),
            attempt: 1,
        }
    }

    #[test]
    fn events_sort_by_time_then_rank() {
        let evs = vec![
            TraceEvent::TaskEnd { time: Ts(10), task: TaskId(1), worker: WorkerId(0), kernel_ns: 10 },
            start(10, 2, 0),
            start(0, 1, 0),
            TraceEvent::TaskReady { time: Ts(0), task: TaskId(1) },
        ];
        let tr = Trace::new(TraceMeta::default(), evs, 0);
        // ready(0) < start(0) < end(10) < start(10): terminal events sort
        // before starts at equal timestamps.
        assert!(matches!(tr.events()[0], TraceEvent::TaskReady { .. }));
        assert!(matches!(tr.events()[1], TraceEvent::TaskStart { task: TaskId(1), .. }));
        assert!(matches!(tr.events()[2], TraceEvent::TaskEnd { .. }));
        assert!(matches!(tr.events()[3], TraceEvent::TaskStart { task: TaskId(2), .. }));
    }

    #[test]
    fn ts_arithmetic() {
        assert_eq!(Ts(100) - Ts(40), Duration::from_nanos(60));
        assert_eq!(Ts(40) - Ts(100), Duration::ZERO); // saturating
        assert_eq!(Ts(40) + Duration::from_nanos(2), Ts(42));
        assert_eq!(Ts::ZERO.as_duration(), Duration::ZERO);
    }
}
