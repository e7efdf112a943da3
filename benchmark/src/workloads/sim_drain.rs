//! `sim_drain` — sim engine `minotauro(4,2)`, versioning scheduler, one
//! 2-version template (1 µs / 2 µs), 100 000 tasks, each
//! `read(d[(7i+3)%64]) + read_write(d[i%64])` over 64 handles, a fresh
//! runtime per rep.
//!
//! Kernel time is virtual, so wall time *is* the coordinator:
//! `TaskGraph` insert/complete, reliable-phase bids, `Directory::acquire`,
//! `EventQueue`. The workload for every per-task-overhead optimisation
//! and for the one-drive-loop refactor.

use super::{
    conclude, finish_spans, overhead_pct, rep_loop, rss_mb, Ctx, RepTime, Reps, TraceCounts,
};
use crate::gen::derive;
use crate::metrics::{Outcome, Samples};
use crate::spans::{Layer, Recorder};
use crate::stats::median;
use std::time::{Duration, Instant};
use versa_core::{DeviceKind, SchedulerKind, VersionId};
use versa_mem::DataId;
use versa_runtime::{Runtime, RuntimeConfig};
use versa_sim::PlatformConfig;
use versa_trace::TraceConfig;

const HANDLES: usize = 64;

#[derive(Default)]
struct Segment {
    reps: Reps,
    submit_ns_per_task: Vec<f64>,
    run_ns_per_task: Vec<f64>,
    tasks: u64,
    failed_ops: u64,
    /// Virtual makespans, one per rep: must all be equal.
    makespans: Vec<Duration>,
    /// Reps whose executed count differed from the submitted count.
    short_reps: u64,
    traces: TraceCounts,
}

fn segment(
    seed: u64,
    tasks: usize,
    budget_s: f64,
    warmup: usize,
    traced: bool,
    rec: &mut Recorder,
) -> Segment {
    let mut seg = Segment::default();
    let mut one = |req: u64, seg: Option<&mut Segment>| -> RepTime {
        let rep_span = rec.begin("rep", Layer::Bench, req);
        let t_setup = Instant::now();
        let s = rec.begin("Runtime::simulated", Layer::Runtime, req);
        let mut rc = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
        if traced {
            // Five events per task on few lanes: the default 65 536-event
            // rings would drop the learning-phase decisions first.
            rc.tracing = TraceConfig {
                lane_capacity: 1 << 20,
                ..TraceConfig::on()
            };
        }
        let mut platform = PlatformConfig::minotauro(4, 2);
        platform.seed = derive(seed, 1);
        let mut rt = Runtime::simulated(rc, platform);
        rec.end(s);
        let s = rec.begin("template+alloc", Layer::Runtime, req);
        let tpl = rt
            .template("drain")
            .main("drain_gpu", &[DeviceKind::Cuda])
            .version("drain_smp", &[DeviceKind::Smp])
            .register();
        rt.bind_cost(tpl, VersionId(0), |_| Duration::from_micros(1));
        rt.bind_cost(tpl, VersionId(1), |_| Duration::from_micros(2));
        let d: Vec<DataId> = (0..HANDLES).map(|_| rt.alloc_bytes(1024)).collect();
        rec.end(s);
        let setup_s = t_setup.elapsed().as_secs_f64();

        let solve_span = rec.begin("solve", Layer::Bench, req);
        let t_solve = Instant::now();
        let s = rec.begin("Runtime::task().submit", Layer::Runtime, req);
        for i in 0..tasks {
            rt.task(tpl)
                .read(d[(7 * i + 3) % HANDLES])
                .read_write(d[i % HANDLES])
                .submit();
        }
        rec.end(s);
        let submit_s = t_solve.elapsed().as_secs_f64();
        let s = rec.begin("Runtime::run", Layer::Runtime, req);
        let report = rt.run().expect("sim_drain: run failed");
        rec.end(s);
        let solve_s = t_solve.elapsed().as_secs_f64();
        rec.end(solve_span);
        rec.end(rep_span);
        let rss_mb = rss_mb();

        if let Some(seg) = seg {
            seg.submit_ns_per_task.push(submit_s * 1e9 / tasks as f64);
            seg.run_ns_per_task
                .push((solve_s - submit_s) * 1e9 / tasks as f64);
            seg.tasks += report.tasks_executed;
            seg.failed_ops += report.failures.failure_count() + report.failures.retries;
            seg.short_reps += u64::from(report.tasks_executed != tasks as u64);
            seg.makespans.push(report.makespan);
            seg.traces.observe(report.trace.iter());
        }
        RepTime {
            setup_s,
            solve_s,
            rss_mb,
        }
    };
    for _ in 0..warmup {
        one(u64::MAX, None);
    }
    seg.reps = rep_loop(budget_s, |req| one(req, Some(&mut seg)));
    seg
}

pub fn run(ctx: &Ctx) -> Outcome {
    let tasks = if ctx.quick { 20_000 } else { 100_000 };
    let mut samples = Samples::default();
    let budget = if ctx.trace {
        ctx.reference_s()
    } else {
        ctx.seconds
    };
    let reference = segment(
        ctx.seed,
        tasks,
        budget,
        ctx.warmup_reps(),
        false,
        &mut Recorder::off(),
    );
    let solve_ms = reference.reps.solve_ms();
    let (mut attempted, mut failed) = (reference.tasks, reference.failed_ops);
    let mut short_reps = reference.short_reps;
    let mut makespans = reference.makespans.clone();

    if !ctx.trace {
        reference
            .reps
            .end_to_end(&mut samples, reference.tasks as f64 / solve_ms.len() as f64);
    } else {
        samples.set_samples("runtime.submit_ns_per_task", &reference.submit_ns_per_task);
        samples.set_samples("runtime.run_ns_per_task", &reference.run_ns_per_task);
        let mut rec = Recorder::on();
        let traced = segment(ctx.seed, tasks, ctx.traced_s(), 1, true, &mut rec);
        attempted += traced.tasks;
        failed += traced.failed_ops;
        short_reps += traced.short_reps;
        makespans.extend(&traced.makespans);
        traced.traces.report(&mut samples);
        samples.set(
            "trace.overhead_pct",
            overhead_pct(median(&solve_ms), median(&traced.reps.solve_ms()), true),
        );
        finish_spans(ctx, "sim_drain", "solve", &rec, &mut samples);
    }

    let identical = makespans.windows(2).all(|w| w[0] == w[1]);
    println!(
        "# sim_drain: {tasks} tasks/rep, {} reps, virtual makespan {:.6} ms identical across reps: {identical}, short reps: {short_reps}",
        makespans.len(),
        makespans[0].as_secs_f64() * 1e3
    );
    conclude(
        ctx,
        samples,
        attempted,
        failed,
        identical && short_reps == 0,
    )
}
