//! Breadth-first baseline: Nanos++'s default scheduler.
//!
//! Not part of the paper's evaluated trio, but the runtime it extends
//! ships it as the default policy: ready tasks are taken in submission
//! order and handed to the least-loaded compatible worker, with no
//! locality or history awareness at all. Useful as the "no information"
//! floor in ablations.

use super::{compatible_workers, least_loaded, Assignment, SchedCtx, Scheduler};
use crate::{TaskInstance, VersionId};
use std::time::Duration;

/// First-come, first-served to the least-loaded compatible worker; main
/// version only (like every pre-`implements` Nanos++ policy).
#[derive(Default, Debug)]
pub(crate) struct BreadthFirstScheduler {
    _private: (),
}

impl BreadthFirstScheduler {
    /// Create the scheduler.
    pub(crate) fn new() -> BreadthFirstScheduler {
        BreadthFirstScheduler::default()
    }
}

const MAIN: VersionId = VersionId(0);

impl Scheduler for BreadthFirstScheduler {
    fn name(&self) -> &'static str {
        "breadth-first"
    }

    fn assign(&mut self, task: &TaskInstance, ctx: &SchedCtx<'_>) -> Assignment {
        let tpl = ctx.templates.get(task.template);
        let worker = least_loaded(compatible_workers(ctx, task, MAIN)).unwrap_or_else(|| {
            panic!(
                "no worker can run the main version of {:?} (devices {:?})",
                tpl.name,
                tpl.main_version().devices
            )
        });
        Assignment { worker: worker.info.id, version: MAIN, estimate: Duration::ZERO }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::{SchedCtx, TaskId, WorkerId};
    use versa_mem::DataId;

    #[test]
    fn spreads_over_least_loaded_compatible_workers() {
        let (reg, tpl) = hybrid_registry();
        let mut workers = workers_2smp_2gpu();
        let dir = directory(DataId(0), DataId(1), 64);
        let mut s = BreadthFirstScheduler::new();
        // Main version is CUDA-only → only the two GPU workers qualify,
        // and successive tasks alternate between them.
        let mut picks = Vec::new();
        for i in 0..4 {
            let t = task(i, tpl, DataId(0), DataId(1), 64);
            let ctx = SchedCtx {
                templates: &reg,
                workers: &workers,
                directory: &dir,
                chain_hint: Some(WorkerId(2)), // ignored by breadth-first
            };
            let a = s.assign(&t, &ctx);
            workers[a.worker.index()].enqueue(TaskId(i), a.version, Duration::ZERO);
            picks.push(a.worker);
        }
        assert_eq!(picks, vec![WorkerId(2), WorkerId(3), WorkerId(2), WorkerId(3)]);
    }

    #[test]
    fn main_version_only_and_no_version_support() {
        let (reg, tpl) = hybrid_registry();
        let workers = workers_2smp_2gpu();
        let dir = directory(DataId(0), DataId(1), 64);
        let mut s = BreadthFirstScheduler::new();
        assert!(!s.supports_versions());
        let t = task(0, tpl, DataId(0), DataId(1), 64);
        let ctx =
            SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
        assert_eq!(s.assign(&t, &ctx).version, VersionId(0));
        assert_eq!(s.name(), "breadth-first");
    }
}
