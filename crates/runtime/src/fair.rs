//! Cross-job fair dispatch ordering.
//!
//! When several jobs share one runtime (the `versa-serve` setting), the
//! ready pool can hold tasks of many jobs at once, and plain FIFO order
//! lets one huge job monopolize every dispatch slot of a wave. This
//! module reorders the pool with start-time fair queuing: within a
//! priority class, each job's tasks are laid out at virtual positions
//! `(dispatched + k) / weight`, so a job with weight 2 gets two dispatch
//! slots for every slot of a weight-1 job, and a newly admitted job's
//! first task sorts near the front regardless of how many tasks the big
//! job already pooled. Higher classes sort strictly first.
//!
//! The ordering only permutes *which ready task is considered next*; the
//! scheduler still picks worker and version per task. Untagged tasks
//! (the one-shot API) form a single implicit job, so enabling
//! [`RuntimeConfig::fair_scheduling`](crate::RuntimeConfig) changes
//! nothing for single-job workloads.

use crate::graph::TaskGraph;
use std::collections::VecDeque;
use versa_core::{JobTag, TaskId};
use versa_mem::IdMap;

/// Virtual-position scale: keeps integer division by the weight precise
/// enough that distinct positions never collide spuriously.
const SCALE: u128 = 1 << 20;

/// Tag used for tasks submitted outside any job.
const UNTAGGED: JobTag = JobTag { job: u64::MAX, tenant: u32::MAX, class: 1, weight: 1 };

/// Per-job dispatch accounting, persistent across waves.
#[derive(Default, Debug)]
pub(crate) struct FairState {
    /// Tasks dispatched so far per job id.
    dispatched: IdMap<u64, u64>,
    /// Scratch of [`FairState::order`], kept so a wave allocates nothing:
    /// pooled tasks per job so far, and the sort keys.
    pending: IdMap<u64, u64>,
    keyed: Vec<(u8, u128, usize, TaskId)>,
}

fn tag_of(graph: &TaskGraph, tid: TaskId) -> JobTag {
    graph.node(tid).instance.job.unwrap_or(UNTAGGED)
}

impl FairState {
    /// Stable-reorder the ready pool: priority class descending, then
    /// weighted virtual start position, then original pool order.
    pub(crate) fn order(&mut self, pool: &mut VecDeque<TaskId>, graph: &TaskGraph) {
        if pool.len() < 2 {
            return;
        }
        let Self { dispatched, pending, keyed } = self;
        pending.clear();
        keyed.extend(pool.iter().enumerate().map(|(seq, &tid)| {
            let tag = tag_of(graph, tid);
            let k = pending.entry(tag.job).or_insert(0);
            let base = dispatched.get(&tag.job).copied().unwrap_or(0);
            let vstart = u128::from(base + *k) * SCALE / u128::from(tag.weight.max(1));
            *k += 1;
            (tag.class, vstart, seq, tid)
        }));
        // Pool order `seq` makes every key distinct, so an unstable sort
        // (no scratch buffer) orders exactly as a stable one.
        keyed.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        pool.clear();
        pool.extend(keyed.drain(..).map(|(_, _, _, tid)| tid));
    }

    /// Forget a finished job's dispatch account (it has no tasks left,
    /// so its share can never be consulted again).
    pub(crate) fn forget_job(&mut self, job: u64) {
        self.dispatched.remove(&job);
    }

    /// Account dispatched tasks against their jobs' shares.
    pub(crate) fn note_dispatched<'a>(
        &mut self,
        graph: &TaskGraph,
        tids: impl Iterator<Item = &'a TaskId>,
    ) {
        for &tid in tids {
            *self.dispatched.entry(tag_of(graph, tid).job).or_insert(0) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use versa_core::{TaskInstance, TemplateId};
    use versa_mem::{AccessMode, DataId, Region};

    fn graph_with_jobs(specs: &[(u64, u8, u32)]) -> (TaskGraph, VecDeque<TaskId>) {
        let mut g = TaskGraph::new();
        let mut pool = VecDeque::new();
        for (i, &(job, class, weight)) in specs.iter().enumerate() {
            let id = TaskId(i as u64);
            g.submit(TaskInstance {
                id,
                template: TemplateId(0),
                // Disjoint regions: every task independent.
                accesses: vec![(Region::range(DataId(0), i as u64, 1), AccessMode::In)],
                data_set_size: 1,
                job: Some(JobTag { job, tenant: 0, class, weight }),
            });
            pool.push_back(id);
        }
        g.take_newly_ready();
        (g, pool)
    }

    fn jobs_of(pool: &VecDeque<TaskId>, g: &TaskGraph) -> Vec<u64> {
        pool.iter().map(|&t| tag_of(g, t).job).collect()
    }

    #[test]
    fn equal_weights_interleave_round_robin() {
        // Job 0's four tasks pooled first, then job 1's four.
        let specs: Vec<(u64, u8, u32)> =
            (0..4).map(|_| (0, 1, 1)).chain((0..4).map(|_| (1, 1, 1))).collect();
        let (g, mut pool) = graph_with_jobs(&specs);
        FairState::default().order(&mut pool, &g);
        assert_eq!(jobs_of(&pool, &g), vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn weights_skew_the_interleave() {
        let specs: Vec<(u64, u8, u32)> =
            (0..6).map(|_| (0, 1, 2)).chain((0..3).map(|_| (1, 1, 1))).collect();
        let (g, mut pool) = graph_with_jobs(&specs);
        FairState::default().order(&mut pool, &g);
        let jobs = jobs_of(&pool, &g);
        // Weight 2 gets two slots per weight-1 slot.
        assert_eq!(jobs, vec![0, 1, 0, 0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn higher_class_preempts_ordering() {
        let specs: Vec<(u64, u8, u32)> =
            (0..3).map(|_| (0, 1, 1)).chain((0..2).map(|_| (1, 2, 1))).collect();
        let (g, mut pool) = graph_with_jobs(&specs);
        FairState::default().order(&mut pool, &g);
        assert_eq!(jobs_of(&pool, &g), vec![1, 1, 0, 0, 0]);
    }

    #[test]
    fn dispatch_history_moves_heavy_job_back() {
        // Job 0 already consumed 10 slots; job 1 is brand new — its tasks
        // sort to the front even though job 0's were pooled first.
        let specs: Vec<(u64, u8, u32)> =
            (0..3).map(|_| (0, 1, 1)).chain((0..3).map(|_| (1, 1, 1))).collect();
        let (g, mut pool) = graph_with_jobs(&specs);
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
        let mut g = TaskGraph::new();
        let mut pool = VecDeque::new();
        for i in 0..5u64 {
            let id = TaskId(i);
            g.submit(TaskInstance {
                id,
                template: TemplateId(0),
                accesses: vec![(Region::range(DataId(0), i, 1), AccessMode::In)],
                data_set_size: 1,
                job: None,
            });
            pool.push_back(id);
        }
        g.take_newly_ready();
        let before: Vec<TaskId> = pool.iter().copied().collect();
        FairState::default().order(&mut pool, &g);
        let after: Vec<TaskId> = pool.iter().copied().collect();
        assert_eq!(before, after);
    }
}
