//! The assignment pump shared by both execution engines.
//!
//! Ready tasks are either pushed eagerly onto a worker's queue
//! (look-ahead assignment, used by the baselines and by the versioning
//! scheduler's reliable phase) or held in a central pool and handed out
//! one at a time as workers run dry (the versioning scheduler's learning
//! phase — see [`Scheduler::eager`](versa_core::Scheduler::eager)).
//! [`Wave::dispatch`] is the head of both engines' dispatch step: it
//! pools what became ready, then drains the pool within the run's
//! dispatch budget.

use crate::Runtime;
use std::sync::Arc;
use versa_core::{Assignment, SchedCtx, TaskId};
use versa_trace::{TraceEvent, TraceSink, Ts};

/// One run's terms — its dispatch budget and whether it ends with the
/// `taskwait` flush — and the assignments of its latest drain.
pub(crate) struct Wave {
    /// Dispatch budget of this run (`u64::MAX` = unbounded).
    budget: u64,
    /// Whether the run ends by flushing device-resident data home.
    pub(crate) flush: bool,
    /// Tasks dispatched so far.
    dispatched: u64,
    /// The assignments of the latest drain (reused from drain to drain).
    pub(crate) assigned: Vec<(TaskId, Assignment)>,
}

impl Wave {
    /// A run to completion, with or without the flush.
    pub(crate) fn taskwait(flush: bool) -> Wave {
        Wave { budget: u64::MAX, flush, dispatched: 0, assigned: Vec::new() }
    }

    /// A bounded wave: at most `max_dispatch` dispatches, in fair order
    /// across jobs, and never a flush.
    pub(crate) fn bounded(max_dispatch: u64) -> Wave {
        Wave { budget: max_dispatch, ..Wave::taskwait(false) }
    }

    /// Whether the run has a dispatch budget.
    pub(crate) fn is_bounded(&self) -> bool {
        self.budget != u64::MAX
    }

    /// Whether the run has dispatched its whole budget.
    pub(crate) fn spent(&self) -> bool {
        self.dispatched >= self.budget
    }

    /// Pool the newly ready tasks (recording `TaskReady` at `now`), then,
    /// while the budget lasts, drain the pool — in a bounded wave after
    /// ordering it fairly across jobs:
    /// `assigned` holds what this call dispatched, and the scheduler's
    /// decisions go to the trace. The pool lives in the runtime, so
    /// tasks a bounded wave could not dispatch carry over to the next.
    pub(crate) fn dispatch(&mut self, rt: &mut Runtime, sink: &Option<Arc<TraceSink>>, now: Ts) {
        for tid in rt.graph.drain_newly_ready() {
            if let Some(sink) = sink {
                sink.record(sink.coordinator(), TraceEvent::TaskReady { time: now, task: tid });
            }
            rt.pending.push_back(tid);
        }
        self.assigned.clear();
        let remaining = self.budget - self.dispatched;
        if remaining == 0 {
            return;
        }
        let bounded = self.is_bounded();
        if bounded {
            rt.fair.order(&mut rt.pending, &rt.graph);
        }
        drain_pool(rt, bounded.then_some(remaining as usize), &mut self.assigned);
        self.dispatched += self.assigned.len() as u64;
        crate::tracing::drain_decisions(rt, sink, now);
        if bounded {
            rt.fair.note_dispatched(&rt.graph, self.assigned.iter().map(|(t, _)| t));
        }
    }
}

/// Move as many pooled ready tasks as possible onto worker queues.
///
/// A task is assigned when its scheduler wants eager placement, or when at
/// least one *idle* worker can run some version of it (pull-style
/// distribution during the learning phase). The assignments made, in
/// order, replace the contents of `out` (a buffer the engine reuses from
/// drain to drain); tasks that could not be placed stay pooled, in order,
/// for the next call (triggered by the next completion, which frees a
/// worker).
///
/// `limit` caps how many assignments this call may make (`None` =
/// unlimited) — the dispatch budget behind bounded waves.
///
/// Each pass visits the pool front to back and compacts it in place, so a
/// wave costs O(pool) per pass even when held-back learning-phase tasks
/// fill the front of a wide pool.
pub(crate) fn drain_pool(
    rt: &mut Runtime,
    limit: Option<usize>,
    out: &mut Vec<(TaskId, Assignment)>,
) {
    let Runtime { pending: pool, scheduler, templates, workers, directory, graph, .. } = rt;
    out.clear();
    let mut progress = true;
    while progress && limit.is_none_or(|l| out.len() < l) {
        progress = false;
        let mut kept = 0;
        for i in 0..pool.len() {
            let tid = pool[i];
            if limit.is_none_or(|l| out.len() < l) {
                let node = graph.node(tid);
                let ctx = SchedCtx { templates, workers, directory, chain_hint: node.chain_hint };
                let task = &node.instance;
                if scheduler.eager(task, &ctx) || idle_compatible_exists(&ctx, task) {
                    let a = scheduler.assign(task, &ctx);
                    workers[a.worker.index()].enqueue(tid, a.version, a.estimate);
                    graph.node_mut(tid).assignment = Some(a);
                    out.push((tid, a));
                    progress = true;
                    continue;
                }
            }
            pool[kept] = tid;
            kept += 1;
        }
        pool.truncate(kept);
    }
}

/// Whether some idle worker can run at least one version of the task.
fn idle_compatible_exists(ctx: &SchedCtx<'_>, task: &versa_core::TaskInstance) -> bool {
    let tpl = ctx.templates.get(task.template);
    ctx.workers
        .iter()
        .any(|w| !w.is_retired() && w.is_idle() && tpl.versions_for(w.info.device).next().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeConfig;
    use std::time::Duration;
    use versa_core::{DeviceKind, SchedulerKind, TemplateId, WorkerId};
    use versa_sim::PlatformConfig;

    /// One SMP worker (w0) and one GPU worker (w1); a template whose main
    /// version runs on the GPU and whose alternative runs on the SMP
    /// core; `n` independent ready tasks in the pool.
    fn setup(kind: SchedulerKind, n: usize) -> (Runtime, TemplateId) {
        let mut rt = Runtime::simulated(
            RuntimeConfig::with_scheduler(kind),
            PlatformConfig::minotauro(1, 1),
        );
        let tpl = rt
            .template("t")
            .main("gpu", &[DeviceKind::Cuda])
            .version("smp", &[DeviceKind::Smp])
            .register();
        let d = rt.alloc_bytes(64);
        for _ in 0..n {
            rt.task(tpl).read(d).submit();
        }
        let ready = rt.graph.take_newly_ready();
        rt.pending.extend(ready);
        (rt, tpl)
    }

    fn drain(rt: &mut Runtime, limit: Option<usize>) -> Vec<(TaskId, Assignment)> {
        let mut out = Vec::new();
        drain_pool(rt, limit, &mut out);
        out
    }

    #[test]
    fn eager_scheduler_drains_everything_at_once() {
        let (mut rt, _) = setup(SchedulerKind::DepAware, 10);
        let assigned = drain(&mut rt, None);
        assert_eq!(assigned.len(), 10, "baselines push eagerly");
        assert!(rt.pending.is_empty());
        // Everything went to the single GPU worker (main version is CUDA).
        assert!(assigned.iter().all(|(_, a)| a.worker == WorkerId(1)));
    }

    #[test]
    fn limit_caps_assignments_and_keeps_the_rest_pooled() {
        let (mut rt, _) = setup(SchedulerKind::DepAware, 10);
        let assigned = drain(&mut rt, Some(3));
        assert_eq!(assigned.len(), 3);
        let pooled: Vec<u64> = rt.pending.iter().map(|t| t.0).collect();
        assert_eq!(pooled, (3..10).collect::<Vec<_>>(), "the rest stay pooled, in order");
    }

    #[test]
    fn learning_phase_hands_out_one_task_per_idle_worker() {
        let (mut rt, _) = setup(SchedulerKind::versioning(), 10);
        let assigned = drain(&mut rt, None);
        // Group is in the learning phase → only idle workers got work:
        // two workers → two assignments, eight tasks held back.
        assert_eq!(assigned.len(), 2);
        assert_eq!(rt.pending.len(), 8);
        let versions: Vec<u16> = assigned.iter().map(|(_, a)| a.version.0).collect();
        assert_eq!(versions, vec![0, 1], "round-robin over versions");
    }

    #[test]
    fn pool_drains_as_workers_free_up() {
        let (mut rt, _) = setup(SchedulerKind::versioning(), 4);
        let first = drain(&mut rt, None);
        assert_eq!(first.len(), 2);
        // Complete the GPU worker's task: it becomes idle again.
        let (tid, a) = first.iter().find(|(_, a)| a.worker == WorkerId(1)).copied().unwrap();
        rt.workers[1].start_next();
        rt.workers[1].finish(tid);
        rt.graph.mark_running(tid);
        rt.graph.complete(tid, a.worker);
        rt.scheduler.task_finished(&rt.graph.node(tid).instance, a, Duration::from_millis(5));
        let second = drain(&mut rt, None);
        assert_eq!(second.len(), 1, "one more task for the freed worker");
        assert_eq!(rt.pending.len(), 1);
    }
}
