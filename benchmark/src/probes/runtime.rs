//! `runtime.*` probes: the `TaskGraph` public API per task, and what it
//! costs to build a runtime (→ `setup_s`).

use super::collect;
use crate::metrics::Samples;
use std::hint::black_box;
use std::time::{Duration, Instant};
use versa_apps::matmul::{self, MatmulVariant};
use versa_core::{SchedulerKind, TaskId, TaskInstance, TemplateId, WorkerId};
use versa_mem::{AccessMode, DataId, Region};
use versa_runtime::{NativeConfig, Runtime, RuntimeConfig, TaskGraph};
use versa_sim::PlatformConfig;

/// Tasks per probed graph.
const N: u64 = 1024;

fn instance(id: u64, data: u32, mode: AccessMode) -> TaskInstance {
    TaskInstance {
        id: TaskId(id),
        template: TemplateId(0),
        accesses: vec![(Region::whole(DataId(data), 64), mode)],
        data_set_size: 64,
        job: None,
    }
}

/// ns per task to submit `N` tasks into a fresh graph; `chained` makes
/// them one inout chain over a single handle, otherwise each writes its
/// own. Returns the filled graph too.
fn submit(chained: bool) -> (f64, TaskGraph) {
    let tasks: Vec<TaskInstance> = (0..N)
        .map(|i| {
            if chained {
                instance(i, 0, AccessMode::InOut)
            } else {
                instance(i, i as u32, AccessMode::Out)
            }
        })
        .collect();
    let mut graph = TaskGraph::new();
    let t = Instant::now();
    for task in tasks {
        graph.submit(task);
    }
    (t.elapsed().as_nanos() as f64 / N as f64, graph)
}

pub fn run(budget: Duration, samples: &mut Samples) {
    samples.set_samples(
        "runtime.graph_submit_ns_indep",
        &collect(budget, || submit(false).0),
    );
    samples.set_samples(
        "runtime.graph_submit_ns_chained",
        &collect(budget, || submit(true).0),
    );

    // Walk a chain to completion (each complete releases its successor),
    // then recycle the finished prefix.
    let (mut complete_ns, mut prune_ns) = (Vec::new(), Vec::new());
    collect(budget * 2, || {
        let (_, mut graph) = submit(true);
        let t = Instant::now();
        let mut done = 0;
        while done < N {
            for id in graph.take_newly_ready() {
                graph.mark_running(id);
                graph.complete(id, WorkerId(0));
                done += 1;
            }
        }
        complete_ns.push(t.elapsed().as_nanos() as f64 / N as f64);
        let t = Instant::now();
        let pruned = graph.prune_done_prefix(TaskId(N));
        prune_ns.push(t.elapsed().as_nanos() as f64 / N as f64);
        assert_eq!(pruned as u64, N);
        0.0
    });
    samples.set_samples("runtime.graph_complete_ns", &complete_ns);
    samples.set_samples("runtime.graph_prune_ns_per_task", &prune_ns);

    let rc = || RuntimeConfig::with_scheduler(SchedulerKind::versioning());
    samples.set_samples(
        "runtime.build_native_ms",
        &collect(budget, || {
            let t = Instant::now();
            let mut rt = Runtime::native(
                rc(),
                NativeConfig {
                    smp_workers: 1,
                    gpus: 1,
                    gpu_lanes: 1,
                    link_bandwidth: None,
                },
            );
            black_box(matmul::register_native(&mut rt, MatmulVariant::Wide, 256));
            t.elapsed().as_secs_f64() * 1e3
        }),
    );
    samples.set_samples(
        "runtime.build_sim_ms",
        &collect(budget, || {
            let t = Instant::now();
            let mut rt = Runtime::simulated(rc(), PlatformConfig::minotauro(4, 2));
            black_box(matmul::register(&mut rt, MatmulVariant::Hybrid));
            t.elapsed().as_secs_f64() * 1e3
        }),
    );
}
