//! Five-minute tour of the versa runtime.
//!
//! Declares a task with two implementations (a fast "GPU" version and a
//! slow SMP version — paper Fig. 4's `implements` pattern), submits a
//! hundred instances, and lets the versioning scheduler learn which to
//! run where.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::time::Duration;
use versa::prelude::*;

fn main() {
    // A simulated node: 4 SMP cores + 1 GPU (see PlatformConfig for the
    // MinoTauro-calibrated defaults).
    let mut rt = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        PlatformConfig::minotauro(4, 1),
    );

    // #pragma omp target device(cuda) / implements(stencil) — Fig. 4.
    let stencil = rt
        .template("stencil")
        .main("stencil_cuda", &[DeviceKind::Cuda])
        .version("stencil_smp", &[DeviceKind::Smp])
        .register();

    // Simulated execution-time models (the scheduler never sees these —
    // it learns from observed completions).
    rt.bind_cost(stencil, VersionId(0), |_| Duration::from_millis(3));
    rt.bind_cost(stencil, VersionId(1), |_| Duration::from_millis(12));

    // One hundred independent grid tiles, updated in place.
    let tiles: Vec<DataId> = (0..100).map(|_| rt.alloc_bytes(1 << 20)).collect();
    for &tile in &tiles {
        rt.task(stencil).read_write(tile).submit();
    }

    // The implicit taskwait: run everything, flush results home.
    let report = rt.run().expect("run failed");

    println!("{}", report.summary(rt.templates()));
    println!(
        "makespan {:.1} ms across {} workers",
        report.makespan.as_secs_f64() * 1e3,
        report.worker_task_counts.len()
    );
    println!("\nlearned profile (paper Table I):");
    let versioning = rt.versioning().expect("versioning scheduler was active");
    println!("{}", versioning.profiles().render_table(rt.templates()));
}
