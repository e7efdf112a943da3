//! Allocation budget of the per-task coordinator path.
//!
//! A counting global allocator measures heap allocations on the calling
//! thread (the sim engine runs entirely on it), so the counts are exact
//! and repeat run for run — unlike wall time. The shape is the
//! `sim_drain` benchmark's: `minotauro(4,2)`, one 2-version template,
//! tasks `read(d[(7i+3)%64]) + read_write(d[i%64])` over 64 handles.
//!
//! Budgets (each with headroom over what the code makes today):
//! * submit: ≤ 1.1 allocations per task (today 1: the task's access
//!   list; successor edges sit in the node's inline slots);
//! * `run()`: ≤ 1 allocation per task (today none beyond the amortised
//!   growth of reused buffers);
//! * a reliable-phase `assign` with the decision log off: none at all,
//!   with or without the locality-aware objective.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;
use versa_core::scheduler::DecisionPhase;
use versa_core::{
    make_scheduler, DeviceKind, SchedCtx, Scheduler, SchedulerKind, TaskId, TaskInstance,
    TemplateRegistry, VersionId, WorkerId, WorkerInfo, WorkerState,
};
use versa_mem::{AccessMode, DataId, Directory, MemSpace, Region};
use versa_runtime::{Runtime, RuntimeConfig};
use versa_sim::PlatformConfig;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

const HANDLES: usize = 64;
const TASKS: usize = 20_000;

fn submit_drain_tasks(rt: &mut Runtime, tpl: versa_core::TemplateId, d: &[DataId], n: usize) {
    for i in 0..n {
        rt.task(tpl).read(d[(7 * i + 3) % HANDLES]).read_write(d[i % HANDLES]).submit();
    }
}

#[test]
fn sim_drain_shape_stays_inside_its_allocation_budget() {
    let mut rt = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        PlatformConfig::minotauro(4, 2),
    );
    let tpl = rt
        .template("drain")
        .main("drain_gpu", &[DeviceKind::Cuda])
        .version("drain_smp", &[DeviceKind::Smp])
        .register();
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_micros(1));
    rt.bind_cost(tpl, VersionId(1), |_| Duration::from_micros(2));
    let d: Vec<DataId> = (0..HANDLES).map(|_| rt.alloc_bytes(1024)).collect();

    // Warm the scheduler: its one size group leaves the learning phase.
    submit_drain_tasks(&mut rt, tpl, &d, 1_000);
    rt.run().expect("warm-up run");

    let ((), submit) = counted(|| submit_drain_tasks(&mut rt, tpl, &d, TASKS));
    let (report, run) = counted(|| rt.run().expect("measured run"));
    assert_eq!(report.tasks_executed, TASKS as u64);

    let per_task = |n: u64| n as f64 / TASKS as f64;
    println!("allocations per task: submit {:.2}, run {:.2}", per_task(submit), per_task(run));
    assert!(per_task(submit) <= 1.1, "submit made {:.2} allocations per task", per_task(submit));
    assert!(per_task(run) <= 1.0, "run() made {:.2} allocations per task", per_task(run));
}

#[test]
fn reliable_assign_allocates_nothing_with_the_log_off() {
    reliable_assigns_allocate_nothing(SchedulerKind::versioning());
}

/// The locality-aware objective asks the directory for each worker's
/// missing bytes on every decision.
#[test]
fn reliable_locality_assign_allocates_nothing_with_the_log_off() {
    reliable_assigns_allocate_nothing(SchedulerKind::locality_versioning());
}

/// The benchmark's `core` probe shape: 5 versions (2 GPU, 3 SMP) over 4
/// SMP workers and 2 GPUs.
fn reliable_assigns_allocate_nothing(kind: SchedulerKind) {
    let mut templates = TemplateRegistry::new();
    let tpl = templates
        .template("tile")
        .main("cublas", &[DeviceKind::Cuda])
        .version("cuda", &[DeviceKind::Cuda])
        .version("simd", &[DeviceKind::Smp])
        .version("cblas", &[DeviceKind::Smp])
        .version("naive", &[DeviceKind::Smp])
        .register();
    let worker =
        |id: u16, device, space| WorkerState::new(WorkerInfo { id: WorkerId(id), device, space });
    let mut workers: Vec<WorkerState> =
        (0..4).map(|i| worker(i, DeviceKind::Smp, MemSpace::HOST)).collect();
    workers.extend((0..2).map(|g| worker(4 + g, DeviceKind::Cuda, MemSpace::device(g))));
    let directory = Directory::new();
    for i in 0..3 {
        directory.register(DataId(i), 4096, MemSpace::HOST);
    }
    let tasks: Vec<TaskInstance> = (0..2_000u64)
        .map(|i| TaskInstance {
            id: TaskId(i),
            template: tpl,
            accesses: vec![
                (Region::whole(DataId(0), 4096), AccessMode::In),
                (Region::whole(DataId(1), 4096), AccessMode::In),
                (Region::whole(DataId(2), 4096), AccessMode::InOut),
            ],
            data_set_size: 3 * 4096,
            job: None,
        })
        .collect();
    let mut scheduler = make_scheduler(&kind);
    let assign = |scheduler: &mut Box<dyn Scheduler>,
                  workers: &mut [WorkerState],
                  t: &TaskInstance| {
        let ctx =
            SchedCtx { templates: &templates, workers, directory: &directory, chain_hint: None };
        let (a, n) = counted(|| scheduler.assign(t, &ctx));
        let w = &mut workers[a.worker.index()];
        w.enqueue(t.id, a.version, a.estimate);
        w.start_next();
        w.finish(t.id);
        let measured =
            Duration::from_micros([1_000, 1_200, 4_000, 8_000, 30_000][a.version.index()]);
        scheduler.task_finished(t, a, measured);
        n
    };

    // Train every version (λ = 3) and grow the decision buffers, with
    // the log on so the phase is checked, not assumed.
    let (warm, measured) = tasks.split_at(100);
    scheduler.as_versioning_mut().unwrap().set_decision_logging(true);
    for t in warm {
        assign(&mut scheduler, &mut workers, t);
    }
    let v = scheduler.as_versioning_mut().unwrap();
    assert_eq!(v.drain_decisions().last().map(|d| d.phase), Some(DecisionPhase::Reliable));
    v.set_decision_logging(false);

    let total: u64 = measured.iter().map(|t| assign(&mut scheduler, &mut workers, t)).sum();
    assert_eq!(total, 0, "{total} allocations over {} reliable-phase assigns", measured.len());
}
