//! Runtime configuration — the analogue of Nanos++ environment variables.

use versa_core::SchedulerKind;
use versa_trace::TraceConfig;

/// Behavioural switches of the runtime. "We can decide which plug-ins
/// should be enabled through configuration arguments or environment
/// variables ... there is no need to recompile neither the OmpSs runtime
/// nor the application" (paper §III) — likewise, every knob here is a
/// run-time value, so the same application binary can sweep schedulers.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// Scheduling policy plug-in.
    pub scheduler: SchedulerKind,
    /// Start a task's transfers when it is *assigned* rather than when
    /// its worker picks it up, overlapping transfers with computation and
    /// prefetching queued tasks' data (paper §V-A2). On by default, and
    /// — as in the paper — independent of the scheduling policy.
    pub prefetch: bool,
    /// Whether the implicit `taskwait` at the end of a run flushes all
    /// device-resident data back to the host. Disable for the
    /// `taskwait(noflush)` behaviour of paper §III. In an unbounded
    /// native run a datum is written back as soon as no unfinished task
    /// uses it, so the flush overlaps the remaining kernels; the moved
    /// bytes are the same.
    pub flush_on_wait: bool,
    /// Structured execution tracing (both engines): task lifecycle,
    /// scheduler decision records, transfer spans. Off by default; when
    /// off the engines hold no recorder at all, so runs are byte-identical
    /// to pre-tracing builds. The resulting [`versa_trace::Trace`] lands
    /// in [`RunReport::trace`](crate::RunReport::trace).
    pub tracing: TraceConfig,
    /// How many times one task may be re-entered into the ready pool
    /// after a failed execution attempt before the run aborts with a
    /// [`RunError`](crate::RunError). Both engines honour it: kernel
    /// panics in the native engine and injected faults in the simulated
    /// one count against the same budget. In both engines a `NodeLost`
    /// attempt (the task's node died under it) advances the attempt
    /// number but never counts against the budget.
    pub max_task_retries: u32,
    /// Reorder the ready pool with weighted start-time fair queuing over
    /// job tags before each dispatch round, so concurrently submitted
    /// jobs interleave instead of running FIFO. Off by default — the
    /// one-shot API has a single implicit job, and keeping the flag off
    /// preserves the exact historical dispatch order.
    pub fair_scheduling: bool,
    /// Native engine: how many tasks beyond the running one may occupy a
    /// worker's staging pipeline, so the next task's inputs stage while
    /// the current kernel runs (the double-buffering the paper's M2090s
    /// did in hardware). `0` still stages on the worker's lane but
    /// without compute/copy overlap on the same worker. See DESIGN.md
    /// §2.2.
    pub lookahead_depth: usize,
}

impl RuntimeConfig {
    /// Defaults with a given scheduler.
    pub fn with_scheduler(scheduler: SchedulerKind) -> RuntimeConfig {
        RuntimeConfig { scheduler, ..RuntimeConfig::default() }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            scheduler: SchedulerKind::versioning(),
            prefetch: true,
            flush_on_wait: true,
            tracing: TraceConfig::default(),
            max_task_retries: 3,
            fair_scheduling: false,
            lookahead_depth: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = RuntimeConfig::default();
        assert!(c.prefetch, "paper enables transfer/compute overlap + prefetch");
        assert!(c.flush_on_wait);
        assert!(!c.tracing.enabled);
        assert!(c.tracing.lane_capacity > 0, "bounded but non-empty rings");
        assert_eq!(c.scheduler.label(), "ver");
        assert_eq!(c.max_task_retries, 3);
        assert_eq!(c.lookahead_depth, 2, "double-buffering depth");
    }

    #[test]
    fn with_scheduler_overrides_policy_only() {
        let c = RuntimeConfig::with_scheduler(SchedulerKind::Affinity);
        assert_eq!(c.scheduler, SchedulerKind::Affinity);
        assert!(c.prefetch);
    }
}
