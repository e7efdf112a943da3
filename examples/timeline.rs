//! Execution-trace analysis: record a structured trace of a simulated
//! Cholesky run and print per-worker utilization plus an ASCII timeline
//! (the kind of view BSC engineers would pull from Paraver). Also writes
//! a CSV timeline for external tools.
//!
//! ```text
//! cargo run --release --example timeline
//! ```

use versa::apps::cholesky::{self, CholeskyConfig, CholeskyVariant};
use versa::prelude::*;
use versa::trace::{analysis, TraceAnalysis};

fn main() {
    let cfg = CholeskyConfig { n: 8192, bs: 1024 };
    let mut rc = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
    rc.tracing.enabled = true;
    let mut rt = Runtime::simulated(rc, PlatformConfig::minotauro(4, 2));
    let _app = cholesky::build(&mut rt, cfg, CholeskyVariant::PotrfHybrid);
    let report = rt.run().expect("run failed");
    let trace = report.trace.as_ref().expect("trace requested");
    let a = TraceAnalysis::new(trace);

    println!(
        "cholesky {}x{} (potrf-hyb, versioning): {} tasks, {} transfers, makespan {:.1} ms\n",
        cfg.n,
        cfg.n,
        a.task_count,
        a.transfer_count,
        report.makespan.as_secs_f64() * 1e3
    );
    println!("{}", a.utilization_table());

    // ASCII Gantt: 80 columns across the makespan, one row per worker.
    const COLS: usize = 80;
    let span_ns = report.makespan.as_nanos() as u64;
    let mut workers: Vec<WorkerId> = a.busy.keys().copied().collect();
    workers.sort_unstable();
    println!("timeline ('#' = computing, '.' = idle):");
    for w in workers {
        let mut row = vec!['.'; COLS];
        for iv in a.intervals.iter().filter(|iv| iv.worker == w) {
            let lo = (iv.start.0 as u128 * COLS as u128 / span_ns as u128) as usize;
            let hi = (iv.end.0 as u128 * COLS as u128 / span_ns as u128) as usize;
            for cell in row.iter_mut().take(hi.min(COLS - 1) + 1).skip(lo) {
                *cell = '#';
            }
        }
        println!("  {:<4} {}", w.to_string(), row.into_iter().collect::<String>());
    }

    let csv = analysis::to_csv(trace);
    let path = std::env::temp_dir().join("versa_cholesky_timeline.csv");
    std::fs::write(&path, &csv).expect("write CSV");
    println!("\nfull timeline written to {} ({} rows)", path.display(), csv.lines().count() - 1);
}
