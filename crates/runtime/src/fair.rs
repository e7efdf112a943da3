//! Cross-job fair dispatch ordering.
//!
//! When several jobs share one runtime (the `versa-serve` setting), the
//! ready pool can hold tasks of many jobs at once, and plain FIFO order
//! lets one huge job monopolize every dispatch slot of a wave. Every
//! bounded wave ([`Runtime::run_bounded`](crate::Runtime::run_bounded))
//! therefore reorders the pool with start-time fair queuing: each job's
//! tasks are laid out at virtual positions `dispatched + k`, so jobs
//! take dispatch slots in turn, and a newly admitted job's first task
//! sorts near the front regardless of how many tasks the big job
//! already pooled.
//!
//! The ordering only permutes *which ready task is considered next*; the
//! scheduler still picks worker and version per task. Untagged tasks
//! (the one-shot API) form a single implicit job, so on their pool the
//! order is the identity.

use crate::graph::TaskGraph;
use std::collections::VecDeque;
use versa_core::TaskId;
use versa_mem::IdMap;

/// Per-job dispatch accounting, persistent across waves. Keyed by the
/// task's job id; `None` is the one implicit job of untagged tasks.
#[derive(Default, Debug)]
pub(crate) struct FairState {
    /// Tasks dispatched so far per job.
    dispatched: IdMap<Option<u64>, u64>,
    /// Scratch of [`FairState::order`], kept so a wave allocates nothing:
    /// pooled tasks per job so far, and the sort keys.
    pending: IdMap<Option<u64>, u64>,
    keyed: Vec<(u64, usize, TaskId)>,
}

fn job_of(graph: &TaskGraph, tid: TaskId) -> Option<u64> {
    graph.node(tid).instance.job
}

impl FairState {
    /// Stable-reorder the ready pool: virtual start position, then
    /// original pool order.
    pub(crate) fn order(&mut self, pool: &mut VecDeque<TaskId>, graph: &TaskGraph) {
        if pool.len() < 2 {
            return;
        }
        let Self { dispatched, pending, keyed } = self;
        pending.clear();
        keyed.extend(pool.iter().enumerate().map(|(seq, &tid)| {
            let job = job_of(graph, tid);
            let k = pending.entry(job).or_insert(0);
            let vstart = dispatched.get(&job).copied().unwrap_or(0) + *k;
            *k += 1;
            (vstart, seq, tid)
        }));
        // Pool order `seq` makes every key distinct, so an unstable sort
        // (no scratch buffer) orders exactly as a stable one.
        keyed.sort_unstable();
        pool.clear();
        pool.extend(keyed.drain(..).map(|(_, _, tid)| tid));
    }

    /// Forget a finished job's dispatch account (it has no tasks left,
    /// so its share can never be consulted again).
    pub(crate) fn forget_job(&mut self, job: u64) {
        self.dispatched.remove(&Some(job));
    }

    /// Account dispatched tasks against their jobs' shares.
    pub(crate) fn note_dispatched<'a>(
        &mut self,
        graph: &TaskGraph,
        tids: impl Iterator<Item = &'a TaskId>,
    ) {
        for &tid in tids {
            *self.dispatched.entry(job_of(graph, tid)).or_insert(0) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use versa_core::{TaskInstance, TemplateId};
    use versa_mem::{AccessMode, DataId, Region};

    fn graph_with_jobs<const N: usize>(jobs: [Option<u64>; N]) -> (TaskGraph, VecDeque<TaskId>) {
        let mut g = TaskGraph::new();
        let mut pool = VecDeque::new();
        for (i, job) in jobs.into_iter().enumerate() {
            let id = TaskId(i as u64);
            g.submit(TaskInstance {
                id,
                template: TemplateId(0),
                // Disjoint regions: every task independent.
                accesses: vec![(Region::range(DataId(0), i as u64, 1), AccessMode::In)],
                data_set_size: 1,
                job,
            });
            pool.push_back(id);
        }
        g.take_newly_ready();
        (g, pool)
    }

    fn jobs_of(pool: &VecDeque<TaskId>, g: &TaskGraph) -> Vec<u64> {
        pool.iter().map(|&t| job_of(g, t).expect("tagged")).collect()
    }

    #[test]
    fn jobs_interleave_round_robin() {
        // Job 0's four tasks pooled first, then job 1's four.
        let (g, mut pool) = graph_with_jobs([0, 0, 0, 0, 1, 1, 1, 1].map(Some));
        FairState::default().order(&mut pool, &g);
        assert_eq!(jobs_of(&pool, &g), vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn dispatch_history_moves_heavy_job_back() {
        // Job 0 already consumed four slots; job 1 is brand new — its tasks
        // sort to the front even though job 0's were pooled first.
        let (g, mut pool) = graph_with_jobs([0, 0, 0, 1, 1, 1].map(Some));
        let mut fair = FairState::default();
        let job0: Vec<TaskId> = (0..3).map(|i| TaskId(i as u64)).collect();
        for _ in 0..4 {
            fair.note_dispatched(&g, job0[..1].iter());
        }
        fair.order(&mut pool, &g);
        assert_eq!(jobs_of(&pool, &g), vec![1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn untagged_tasks_keep_submission_order() {
        let (g, mut pool) = graph_with_jobs([None; 5]);
        let before: Vec<TaskId> = pool.iter().copied().collect();
        FairState::default().order(&mut pool, &g);
        let after: Vec<TaskId> = pool.iter().copied().collect();
        assert_eq!(before, after);
    }
}
