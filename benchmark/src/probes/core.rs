//! `core.*` probes: the versioning scheduler's decision cost through the
//! public `make_scheduler` / `WorkerState` / `TemplateRegistry` /
//! `Directory` API — 5 versions × 6 workers, the shape of `mm_native`'s
//! version set on a 4 SMP + 2 GPU node.

use super::collect;
use crate::metrics::Samples;
use std::time::{Duration, Instant};
use versa_core::{
    make_scheduler, scheduler::DecisionPhase, Assignment, DeviceKind, SchedCtx, Scheduler,
    SchedulerKind, TaskId, TaskInstance, TemplateId, TemplateRegistry, WorkerId, WorkerInfo,
    WorkerState,
};
use versa_mem::{AccessMode, DataId, Directory, MemSpace, Region};

/// Tasks per wave: `serve_*`'s `wave_dispatch`.
const WAVE: usize = 64;
const TILE_BYTES: u64 = 512 << 10;

struct Bench {
    templates: TemplateRegistry,
    template: TemplateId,
    workers: Vec<WorkerState>,
    directory: Directory,
    scheduler: Box<dyn Scheduler>,
    next_task: u64,
}

impl Bench {
    fn new() -> Bench {
        let mut templates = TemplateRegistry::new();
        let template = templates
            .template("tile")
            .main("cublas", &[DeviceKind::Cuda])
            .version("cuda", &[DeviceKind::Cuda])
            .version("simd", &[DeviceKind::Smp])
            .version("cblas", &[DeviceKind::Smp])
            .version("naive", &[DeviceKind::Smp])
            .register();
        let worker = |id: u16, device, space| {
            WorkerState::new(WorkerInfo {
                id: WorkerId(id),
                device,
                space,
            })
        };
        let mut workers: Vec<WorkerState> = (0..4)
            .map(|i| worker(i, DeviceKind::Smp, MemSpace::HOST))
            .collect();
        workers.extend((0..2).map(|g| worker(4 + g, DeviceKind::Cuda, MemSpace::device(g))));
        let directory = Directory::new();
        for d in 0..3 {
            directory.register(DataId(d), TILE_BYTES, MemSpace::HOST);
        }
        Bench {
            templates,
            template,
            workers,
            directory,
            scheduler: make_scheduler(&SchedulerKind::versioning()),
            next_task: 0,
        }
    }

    fn task(&mut self) -> TaskInstance {
        self.next_task += 1;
        let region = |d: u32| Region::whole(DataId(d), TILE_BYTES);
        TaskInstance {
            id: TaskId(self.next_task),
            template: self.template,
            accesses: vec![
                (region(0), AccessMode::In),
                (region(1), AccessMode::In),
                (region(2), AccessMode::InOut),
            ],
            data_set_size: 3 * TILE_BYTES,
            job: None,
        }
    }

    /// Assign `tasks` the way `drain_pool` does (decide, then enqueue),
    /// optionally inside one `begin_wave`/`end_wave` bracket; returns the
    /// time spent.
    fn assign(&mut self, tasks: &[TaskInstance], bracket: bool) -> (Duration, Vec<Assignment>) {
        let mut made = Vec::with_capacity(tasks.len());
        let t = Instant::now();
        if bracket {
            let frontier: Vec<&TaskInstance> = tasks.iter().collect();
            let ctx = SchedCtx {
                templates: &self.templates,
                workers: &self.workers,
                directory: &self.directory,
                chain_hint: None,
            };
            self.scheduler.begin_wave(&frontier, &ctx);
        }
        for task in tasks {
            let ctx = SchedCtx {
                templates: &self.templates,
                workers: &self.workers,
                directory: &self.directory,
                chain_hint: None,
            };
            let a = self.scheduler.assign(task, &ctx);
            self.workers[a.worker.index()].enqueue(task.id, a.version, a.estimate);
            made.push(a);
        }
        if bracket {
            self.scheduler.end_wave();
        }
        (t.elapsed(), made)
    }

    /// Run the assigned tasks to completion, feeding the scheduler a
    /// fixed per-version time; returns the time inside `task_finished`.
    fn complete(&mut self, tasks: &[TaskInstance], made: &[Assignment]) -> Duration {
        for (task, a) in tasks.iter().zip(made) {
            let w = &mut self.workers[a.worker.index()];
            // Per-worker queues are FIFO, so the next one is this task.
            w.start_next()
                .expect("the task was enqueued on this worker");
            w.finish(task.id);
        }
        let t = Instant::now();
        for (task, a) in tasks.iter().zip(made) {
            let measured =
                Duration::from_micros([1_000, 1_200, 4_000, 8_000, 30_000][a.version.index()]);
            self.scheduler.task_finished(task, *a, measured);
        }
        t.elapsed()
    }

    fn wave(&mut self) -> Vec<TaskInstance> {
        (0..WAVE).map(|_| self.task()).collect()
    }

    /// A bench whose profiles are all reliable (every version ran ≥ λ).
    fn trained() -> Bench {
        let mut b = Bench::new();
        for _ in 0..4 {
            let tasks = b.wave();
            let (_, made) = b.assign(&tasks, false);
            b.complete(&tasks, &made);
        }
        b
    }

    /// The phase of every decision for `tasks` (logging on, untimed).
    fn phases(&mut self, tasks: &[TaskInstance]) -> Vec<DecisionPhase> {
        let v = self
            .scheduler
            .as_versioning_mut()
            .expect("versioning scheduler");
        v.set_decision_logging(true);
        let (_, made) = self.assign(tasks, false);
        let v = self
            .scheduler
            .as_versioning_mut()
            .expect("versioning scheduler");
        let phases = v.drain_decisions().iter().map(|d| d.phase).collect();
        v.set_decision_logging(false);
        self.complete(tasks, &made);
        phases
    }
}

pub fn run(budget: Duration, samples: &mut Samples) {
    // What the two regimes are is checked, not assumed.
    let mut fresh = Bench::new();
    let first: Vec<TaskInstance> = (0..6).map(|_| fresh.task()).collect();
    assert!(
        fresh
            .phases(&first)
            .iter()
            .all(|&p| p == DecisionPhase::Learning),
        "a fresh scheduler starts learning"
    );
    let mut warm = Bench::trained();
    let tasks = warm.wave();
    assert!(
        warm.phases(&tasks)
            .iter()
            .all(|&p| p == DecisionPhase::Reliable),
        "a trained scheduler bids"
    );

    // Learning: the first 3 × 5 decisions of a fresh scheduler, over and
    // over (construction is outside the clock).
    let per = |d: Duration, n: usize| d.as_nanos() as f64 / n as f64;
    samples.set_samples(
        "core.assign_ns_learning",
        &collect(budget, || {
            let mut b = Bench::new();
            let tasks: Vec<TaskInstance> = (0..15).map(|_| b.task()).collect();
            per(b.assign(&tasks, false).0, tasks.len())
        }),
    );
    let (mut assign_ns, mut finished_ns) = (Vec::new(), Vec::new());
    collect(budget * 2, || {
        let tasks = warm.wave();
        let (t, made) = warm.assign(&tasks, false);
        assign_ns.push(per(t, WAVE));
        finished_ns.push(per(warm.complete(&tasks, &made), WAVE));
        0.0
    });
    samples.set_samples("core.assign_ns_reliable", &assign_ns);
    samples.set_samples("core.task_finished_ns", &finished_ns);
    samples.set_samples(
        "core.wave_ns_per_task",
        &collect(budget, || {
            let tasks = warm.wave();
            let (t, made) = warm.assign(&tasks, true);
            warm.complete(&tasks, &made);
            per(t, WAVE)
        }),
    );
}
