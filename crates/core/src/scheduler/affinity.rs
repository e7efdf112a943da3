//! The affinity (minimum-transfer) baseline scheduler.

use super::{compatible_workers, least_loaded, queue_pressure, Assignment, SchedCtx, Scheduler};
use crate::{TaskInstance, VersionId};
use std::time::Duration;

/// "A smarter implementation that tries to minimize the amount of
/// transfers between devices. For each task, it evaluates the amount of
/// data that should be transferred to a certain device in order to
/// execute the task. The scheduler chooses the device where the minimum
/// amount of data must be transferred." (paper §V-A)
///
/// A pure minimum-transfer policy collapses under load imbalance, so —
/// like the Nanos++ implementation the paper measures, where "there is
/// one GPU that steals tasks from the other one and this increases the
/// number of memory transfers" (§V-B2) — a starving worker steals: if the
/// minimum-transfer worker's queue exceeds the least-loaded compatible
/// worker's queue by more than the steal threshold
/// ([`AffinityScheduler::with_steal_threshold`]) tasks, the task goes to
/// the least-loaded worker instead. Only the **main** implementation is
/// ever used (paper footnote 1).
#[derive(Debug)]
pub struct AffinityScheduler {
    steal_threshold: usize,
}

impl Default for AffinityScheduler {
    fn default() -> Self {
        AffinityScheduler { steal_threshold: 4 }
    }
}

const MAIN: VersionId = VersionId(0);

impl AffinityScheduler {
    /// Scheduler with the default steal threshold (4 queued tasks).
    pub(crate) fn new() -> AffinityScheduler {
        AffinityScheduler::default()
    }

    /// Scheduler with a custom steal threshold. `usize::MAX` disables
    /// stealing entirely (pure minimum-transfer affinity).
    pub fn with_steal_threshold(steal_threshold: usize) -> AffinityScheduler {
        AffinityScheduler { steal_threshold }
    }
}

impl Scheduler for AffinityScheduler {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn assign(&mut self, task: &TaskInstance, ctx: &SchedCtx<'_>) -> Assignment {
        let tpl = ctx.templates.get(task.template);
        let best = compatible_workers(ctx, task, MAIN)
            .min_by_key(|w| {
                let bytes = ctx.directory.bytes_missing_for(&task.accesses, w.info.space);
                (bytes, queue_pressure(w), w.estimated_busy(), w.info.id)
            })
            .unwrap_or_else(|| {
                panic!(
                    "no worker can run the main version of {:?} (devices {:?})",
                    tpl.name,
                    tpl.main_version().devices
                )
            });

        let chosen = if self.steal_threshold == usize::MAX {
            best
        } else {
            let least = least_loaded(compatible_workers(ctx, task, MAIN))
                .expect("candidate set verified non-empty");
            let imbalance = queue_pressure(best).saturating_sub(queue_pressure(least));
            if imbalance > self.steal_threshold {
                least
            } else {
                best
            }
        };
        Assignment { worker: chosen.info.id, version: MAIN, estimate: Duration::ZERO }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::{TaskId, WorkerId};
    use versa_mem::{AccessMode, DataId, MemSpace};

    #[test]
    fn picks_the_space_already_holding_the_data() {
        let (reg, tpl) = hybrid_registry();
        let workers = workers_2smp_2gpu();
        let dir = directory(DataId(0), DataId(1), 1024);
        // Move both inputs to GPU 1's space (dev1 → worker 3).
        dir.acquire(DataId(0), MemSpace::device(1), AccessMode::In);
        dir.acquire(DataId(1), MemSpace::device(1), AccessMode::InOut);
        let t = task(0, tpl, DataId(0), DataId(1), 1024);
        let ctx =
            SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
        let a = AffinityScheduler::new().assign(&t, &ctx);
        assert_eq!(a.worker, WorkerId(3));
    }

    #[test]
    fn ties_broken_by_load_then_id() {
        let (reg, tpl) = hybrid_registry();
        let mut workers = workers_2smp_2gpu();
        workers[2].enqueue(TaskId(9), VersionId(0), Duration::ZERO);
        // Data only on host: both GPUs need the same transfers → pick the
        // idle one (w3).
        let dir = directory(DataId(0), DataId(1), 1024);
        let t = task(0, tpl, DataId(0), DataId(1), 1024);
        let ctx =
            SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
        let a = AffinityScheduler::new().assign(&t, &ctx);
        assert_eq!(a.worker, WorkerId(3));
    }

    #[test]
    fn starving_worker_steals_despite_transfers() {
        let (reg, tpl) = hybrid_registry();
        let mut workers = workers_2smp_2gpu();
        // Data lives on GPU 0 (worker 2), but worker 2 is buried in work.
        let dir = directory(DataId(0), DataId(1), 1024);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::In);
        dir.acquire(DataId(1), MemSpace::device(0), AccessMode::InOut);
        for i in 0..6 {
            workers[2].enqueue(TaskId(100 + i), VersionId(0), Duration::from_millis(1));
        }
        let t = task(0, tpl, DataId(0), DataId(1), 1024);
        let ctx =
            SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
        let a = AffinityScheduler::new().assign(&t, &ctx);
        assert_eq!(a.worker, WorkerId(3), "idle GPU steals the task");
    }

    #[test]
    fn stealing_can_be_disabled() {
        let (reg, tpl) = hybrid_registry();
        let mut workers = workers_2smp_2gpu();
        let dir = directory(DataId(0), DataId(1), 1024);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::In);
        dir.acquire(DataId(1), MemSpace::device(0), AccessMode::InOut);
        for i in 0..50 {
            workers[2].enqueue(TaskId(100 + i), VersionId(0), Duration::from_millis(1));
        }
        let t = task(0, tpl, DataId(0), DataId(1), 1024);
        let ctx =
            SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
        let a = AffinityScheduler::with_steal_threshold(usize::MAX).assign(&t, &ctx);
        assert_eq!(a.worker, WorkerId(2), "pure affinity never steals");
    }

    #[test]
    fn main_version_only() {
        let (reg, tpl) = hybrid_registry();
        let workers = workers_2smp_2gpu();
        let dir = directory(DataId(0), DataId(1), 1024);
        let t = task(0, tpl, DataId(0), DataId(1), 1024);
        let ctx =
            SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
        let mut s = AffinityScheduler::new();
        assert_eq!(s.assign(&t, &ctx).version, VersionId(0));
    }
}
