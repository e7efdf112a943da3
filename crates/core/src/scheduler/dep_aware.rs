//! The dependency-aware baseline scheduler.

use super::{compatible_workers, least_loaded, Assignment, SchedCtx, Scheduler};
use crate::{TaskInstance, VersionId};
use std::time::Duration;

/// "A simple implementation of a scheduler that tries to find chains of
/// dependencies and schedule consecutive tasks of the same chain to the
/// same device. Its decisions are fast, but in some cases cannot fully
/// exploit data locality." (paper §V-A)
///
/// Policy: if the runtime reports that one of the task's inputs was
/// produced by worker *w* (the chain hint), *w* can run the task's main
/// version, and *w* is not grossly over-committed relative to the
/// least-loaded compatible worker, assign it there; otherwise fall back
/// to the least-loaded compatible worker. The balance guard is what keeps
/// a single connected dependency graph from collapsing onto one device —
/// chains are followed locally, but the frontier still spreads. Like
/// every pre-existing Nanos++ scheduler, it only ever runs the **main**
/// implementation (paper footnote 1).
#[derive(Debug)]
pub(crate) struct DepAwareScheduler {
    balance_threshold: usize,
}

impl Default for DepAwareScheduler {
    fn default() -> Self {
        DepAwareScheduler { balance_threshold: 2 }
    }
}

impl DepAwareScheduler {
    /// Create the scheduler with the default balance threshold (2
    /// queued tasks of imbalance tolerated before leaving the chain).
    pub(crate) fn new() -> DepAwareScheduler {
        DepAwareScheduler::default()
    }
}

const MAIN: VersionId = VersionId(0);

impl Scheduler for DepAwareScheduler {
    fn name(&self) -> &'static str {
        "dependency-aware"
    }

    fn assign(&mut self, task: &TaskInstance, ctx: &SchedCtx<'_>) -> Assignment {
        let tpl = ctx.templates.get(task.template);
        let least = least_loaded(compatible_workers(ctx, task, MAIN)).unwrap_or_else(|| {
            panic!(
                "no worker can run the main version of {:?} (devices {:?})",
                tpl.name,
                tpl.main_version().devices
            )
        });
        if let Some(hint) = ctx.chain_hint {
            let w = &ctx.workers[hint.index()];
            let imbalance =
                super::queue_pressure(w).saturating_sub(super::queue_pressure(least));
            if tpl.version(MAIN).runs_on(w.info.device) && imbalance <= self.balance_threshold {
                return Assignment { worker: hint, version: MAIN, estimate: Duration::ZERO };
            }
        }
        Assignment { worker: least.info.id, version: MAIN, estimate: Duration::ZERO }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::{TaskId, WorkerId};
    use versa_mem::DataId;

    fn ctx_fixture() -> (crate::TemplateRegistry, crate::TemplateId, Vec<crate::WorkerState>) {
        let (reg, tpl) = hybrid_registry();
        (reg, tpl, workers_2smp_2gpu())
    }

    #[test]
    fn follows_the_chain_when_compatible() {
        let (reg, tpl, workers) = ctx_fixture();
        let dir = directory(DataId(0), DataId(1), 64);
        let t = task(0, tpl, DataId(0), DataId(1), 64);
        let mut s = DepAwareScheduler::new();
        // Producer ran on GPU worker 3; main version is CUDA → follow.
        let ctx = SchedCtx {
            templates: &reg,
            workers: &workers,
            directory: &dir,
            chain_hint: Some(WorkerId(3)),
        };
        let a = s.assign(&t, &ctx);
        assert_eq!(a.worker, WorkerId(3));
        assert_eq!(a.version, VersionId(0));
    }

    #[test]
    fn ignores_incompatible_chain_hint() {
        let (reg, tpl, workers) = ctx_fixture();
        let dir = directory(DataId(0), DataId(1), 64);
        let t = task(0, tpl, DataId(0), DataId(1), 64);
        let mut s = DepAwareScheduler::new();
        // Producer ran on SMP worker 0, but main is CUDA-only → fall back
        // to a GPU worker.
        let ctx = SchedCtx {
            templates: &reg,
            workers: &workers,
            directory: &dir,
            chain_hint: Some(WorkerId(0)),
        };
        let a = s.assign(&t, &ctx);
        assert!(a.worker == WorkerId(2) || a.worker == WorkerId(3));
    }

    #[test]
    fn no_hint_picks_least_loaded_compatible() {
        let (reg, tpl, mut workers) = ctx_fixture();
        // Load GPU worker 2 with a queued task.
        workers[2].enqueue(TaskId(99), VersionId(0), Duration::from_millis(5));
        let dir = directory(DataId(0), DataId(1), 64);
        let t = task(0, tpl, DataId(0), DataId(1), 64);
        let mut s = DepAwareScheduler::new();
        let ctx =
            SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
        let a = s.assign(&t, &ctx);
        assert_eq!(a.worker, WorkerId(3), "w3 is the idle GPU");
        assert_eq!(a.estimate, Duration::ZERO);
    }

    #[test]
    fn never_uses_alternative_versions() {
        let (reg, tpl, workers) = ctx_fixture();
        let dir = directory(DataId(0), DataId(1), 64);
        let mut s = DepAwareScheduler::new();
        for i in 0..16 {
            let t = task(i, tpl, DataId(0), DataId(1), 64);
            let ctx = SchedCtx {
                templates: &reg,
                workers: &workers,
                directory: &dir,
                chain_hint: None,
            };
            assert_eq!(s.assign(&t, &ctx).version, VersionId(0));
        }
    }

    #[test]
    #[should_panic(expected = "no worker can run")]
    fn panics_without_compatible_worker() {
        let (reg, tpl) = {
            let mut reg = crate::TemplateRegistry::new();
            let tpl = reg
                .template("cell_only")
                .main("spe_impl", &[crate::DeviceKind::CellSpe])
                .register();
            (reg, tpl)
        };
        let workers = workers_2smp_2gpu();
        let dir = directory(DataId(0), DataId(1), 64);
        let t = task(0, tpl, DataId(0), DataId(1), 64);
        let ctx =
            SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
        let _ = DepAwareScheduler::new().assign(&t, &ctx);
    }
}
