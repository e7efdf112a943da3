//! The assignment pump shared by both execution engines.
//!
//! Ready tasks are either pushed eagerly onto a worker's queue
//! (look-ahead assignment, used by the baselines and by the versioning
//! scheduler's reliable phase) or held in a central pool and handed out
//! one at a time as workers run dry (the versioning scheduler's learning
//! phase — see [`Scheduler::eager`]).

use crate::graph::TaskGraph;
use std::collections::VecDeque;
use versa_core::{Assignment, SchedCtx, Scheduler, TaskId, TemplateRegistry, WorkerState};
use versa_mem::Directory;

/// Move as many pooled ready tasks as possible onto worker queues.
///
/// A task is assigned when its scheduler wants eager placement, or when at
/// least one *idle* worker can run some version of it (pull-style
/// distribution during the learning phase). Returns the assignments made,
/// in order; tasks that could not be placed stay pooled for the next call
/// (triggered by the next completion, which frees a worker).
///
/// `limit` caps how many assignments this call may make (`None` =
/// unlimited) — the dispatch budget behind bounded waves.
///
/// The whole call is bracketed in one [`Scheduler::begin_wave`]/`end_wave`
/// pair over the pooled frontier, so the scheduler computes its
/// wave-invariant decision inputs once per wave instead of once per
/// `eager`/`assign` probe. The bracket is sound because nothing completes
/// inside this function: `task_finished` / `task_failed` /
/// `transfer_done` only fire between drains.
pub(crate) fn drain_pool(
    pool: &mut VecDeque<TaskId>,
    scheduler: &mut dyn Scheduler,
    templates: &TemplateRegistry,
    workers: &mut [WorkerState],
    directory: &Directory,
    graph: &mut TaskGraph,
    limit: Option<usize>,
) -> Vec<(TaskId, Assignment)> {
    let frontier: Vec<&versa_core::TaskInstance> =
        pool.iter().map(|&tid| &graph.node(tid).instance).collect();
    let ctx = SchedCtx { templates, workers, directory, chain_hint: None };
    scheduler.begin_wave(&frontier, &ctx);
    let mut out = Vec::new();
    let mut progress = true;
    while progress && limit.is_none_or(|l| out.len() < l) {
        progress = false;
        let mut i = 0;
        while i < pool.len() && limit.is_none_or(|l| out.len() < l) {
            let tid = pool[i];
            let assignment = {
                let node = graph.node(tid);
                let ctx = SchedCtx {
                    templates,
                    workers,
                    directory,
                    chain_hint: node.chain_hint,
                };
                let task = &node.instance;
                if scheduler.eager(task, &ctx) || idle_compatible_exists(&ctx, task) {
                    Some(scheduler.assign(task, &ctx))
                } else {
                    None
                }
            };
            match assignment {
                Some(a) => {
                    workers[a.worker.index()].enqueue(tid, a.version, a.estimate);
                    graph.node_mut(tid).assignment = Some(a);
                    out.push((tid, a));
                    pool.remove(i);
                    progress = true;
                }
                None => i += 1,
            }
        }
    }
    scheduler.end_wave();
    out
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
    use versa_core::{
        make_scheduler, DeviceKind, SchedulerKind, TaskInstance, WorkerId, WorkerInfo,
    };
    use versa_mem::{AccessMode, DataId, MemSpace, Region};

    fn setup() -> (TemplateRegistry, versa_core::TemplateId, Vec<WorkerState>, Directory) {
        let mut templates = TemplateRegistry::new();
        let tpl = templates
            .template("t")
            .main("gpu", &[DeviceKind::Cuda])
            .version("smp", &[DeviceKind::Smp])
            .register();
        let workers = vec![
            WorkerState::new(WorkerInfo {
                id: WorkerId(0),
                device: DeviceKind::Smp,
                space: MemSpace::HOST,
            }),
            WorkerState::new(WorkerInfo {
                id: WorkerId(1),
                device: DeviceKind::Cuda,
                space: MemSpace::device(0),
            }),
        ];
        let directory = Directory::new();
        directory.register(DataId(0), 64, MemSpace::HOST);
        (templates, tpl, workers, directory)
    }

    fn submit_n(graph: &mut TaskGraph, tpl: versa_core::TemplateId, n: u64) -> Vec<TaskId> {
        (0..n)
            .map(|i| {
                // Each task touches its own region so they are independent.
                let accesses =
                    vec![(Region::range(DataId(0), i % 64, 0), AccessMode::In)];
                graph.submit(TaskInstance {
                    id: TaskId(i),
                    template: tpl,
                    accesses,
                    data_set_size: 64,
                    job: None,
                })
            })
            .collect()
    }

    #[test]
    fn eager_scheduler_drains_everything_at_once() {
        let (templates, tpl, mut workers, directory) = setup();
        let mut graph = TaskGraph::new();
        submit_n(&mut graph, tpl, 10);
        let mut pool: VecDeque<TaskId> = graph.take_newly_ready().into();
        let mut sched = make_scheduler(&SchedulerKind::DepAware);
        let assigned = drain_pool(
            &mut pool,
            sched.as_mut(),
            &templates,
            &mut workers,
            &directory,
            &mut graph,
            None,
        );
        assert_eq!(assigned.len(), 10, "baselines push eagerly");
        assert!(pool.is_empty());
        // Everything went to the single GPU worker (main version is CUDA).
        assert!(assigned.iter().all(|(_, a)| a.worker == WorkerId(1)));
    }

    #[test]
    fn limit_caps_assignments_and_keeps_the_rest_pooled() {
        let (templates, tpl, mut workers, directory) = setup();
        let mut graph = TaskGraph::new();
        submit_n(&mut graph, tpl, 10);
        let mut pool: VecDeque<TaskId> = graph.take_newly_ready().into();
        let mut sched = make_scheduler(&SchedulerKind::DepAware);
        let assigned = drain_pool(
            &mut pool,
            sched.as_mut(),
            &templates,
            &mut workers,
            &directory,
            &mut graph,
            Some(3),
        );
        assert_eq!(assigned.len(), 3);
        assert_eq!(pool.len(), 7, "tasks beyond the budget stay pooled");
    }

    #[test]
    fn learning_phase_hands_out_one_task_per_idle_worker() {
        let (templates, tpl, mut workers, directory) = setup();
        let mut graph = TaskGraph::new();
        submit_n(&mut graph, tpl, 10);
        let mut pool: VecDeque<TaskId> = graph.take_newly_ready().into();
        let mut sched = make_scheduler(&SchedulerKind::versioning());
        let assigned = drain_pool(
            &mut pool,
            sched.as_mut(),
            &templates,
            &mut workers,
            &directory,
            &mut graph,
            None,
        );
        // Group is in the learning phase → only idle workers got work:
        // two workers → two assignments, eight tasks held back.
        assert_eq!(assigned.len(), 2);
        assert_eq!(pool.len(), 8);
        let versions: Vec<u16> = assigned.iter().map(|(_, a)| a.version.0).collect();
        assert_eq!(versions, vec![0, 1], "round-robin over versions");
    }

    #[test]
    fn pool_drains_as_workers_free_up() {
        let (templates, tpl, mut workers, directory) = setup();
        let mut graph = TaskGraph::new();
        submit_n(&mut graph, tpl, 4);
        let mut pool: VecDeque<TaskId> = graph.take_newly_ready().into();
        let mut sched = make_scheduler(&SchedulerKind::versioning());
        let first = drain_pool(
            &mut pool,
            sched.as_mut(),
            &templates,
            &mut workers,
            &directory,
            &mut graph,
            None,
        );
        assert_eq!(first.len(), 2);
        // Complete the GPU worker's task: it becomes idle again.
        let (tid, a) = first.iter().find(|(_, a)| a.worker == WorkerId(1)).copied().unwrap();
        workers[1].start_next();
        workers[1].finish(tid);
        graph.mark_running(tid);
        graph.complete(tid, a.worker);
        sched.task_finished(
            &graph.node(tid).instance,
            a,
            std::time::Duration::from_millis(5),
        );
        let second = drain_pool(
            &mut pool,
            sched.as_mut(),
            &templates,
            &mut workers,
            &directory,
            &mut graph,
            None,
        );
        assert_eq!(second.len(), 1, "one more task for the freed worker");
        assert_eq!(pool.len(), 1);
    }
}
