//! `sim_paper_apps` — sim engine `minotauro(8,2)` at the paper's sizes:
//! matmul `Hybrid` 16384/1024, Cholesky `PotrfHybrid` `paper()`, PBPI
//! `Hybrid` `paper()` (32 100 tasks).
//!
//! The virtual makespan is the paper's own result (Figs. 6/9/12) and
//! depends only on *decisions*: deterministic per seed, a policy or
//! default change moves it exactly, a pure-overhead optimisation must
//! leave it bit-identical. Same `core`/`sim` code as `sim_drain`, judged
//! on decision quality instead of decision cost. A rep builds the three
//! graphs (set-up) and runs them (solve).

use super::{
    conclude, finish_spans, overhead_pct, rep_loop, rss_mb, Ctx, RepTime, Reps, TraceCounts,
};
use crate::gen::derive;
use crate::metrics::{Outcome, Samples};
use crate::spans::{Layer, Recorder};
use crate::stats::median;
use std::time::{Duration, Instant};
use versa_apps::cholesky::{self, CholeskyConfig, CholeskyVariant};
use versa_apps::matmul::{self, MatmulConfig, MatmulVariant};
use versa_apps::pbpi::{self, PbpiConfig, PbpiVariant};
use versa_core::SchedulerKind;
use versa_runtime::{Runtime, RuntimeConfig};
use versa_sim::PlatformConfig;
use versa_trace::TraceConfig;

const APPS: [&str; 3] = ["matmul", "cholesky", "pbpi"];
const MAKESPAN_METRICS: [&str; 3] = [
    "virtual_makespan_ms.matmul",
    "virtual_makespan_ms.cholesky",
    "virtual_makespan_ms.pbpi",
];

#[derive(Default)]
struct Segment {
    reps: Reps,
    tasks: u64,
    submitted: u64,
    failed_ops: u64,
    /// Per app, one virtual makespan per rep.
    makespans: [Vec<Duration>; 3],
    traces: TraceCounts,
}

fn segment(ctx: &Ctx, budget_s: f64, warmup: usize, traced: bool, rec: &mut Recorder) -> Segment {
    let mut seg = Segment::default();
    let mut one = |req: u64, seg: Option<&mut Segment>| -> RepTime {
        let rep_span = rec.begin("rep", Layer::Bench, req);
        let t_setup = Instant::now();
        let s = rec.begin("build", Layer::Apps, req);
        let mut rts: Vec<Runtime> = (0..3)
            .map(|app| {
                let mut rc = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
                if traced {
                    rc.tracing = TraceConfig {
                        lane_capacity: 1 << 20,
                        ..TraceConfig::on()
                    };
                }
                let mut platform = PlatformConfig::minotauro(8, 2);
                platform.seed = derive(ctx.seed, 1);
                let mut rt = Runtime::simulated(rc, platform);
                let q = ctx.quick;
                match app {
                    0 => {
                        let config = if q {
                            MatmulConfig::quick()
                        } else {
                            MatmulConfig::paper()
                        };
                        matmul::build(&mut rt, config, MatmulVariant::Hybrid);
                    }
                    1 => {
                        let config = if q {
                            CholeskyConfig::quick()
                        } else {
                            CholeskyConfig::paper()
                        };
                        cholesky::build(&mut rt, config, CholeskyVariant::PotrfHybrid);
                    }
                    _ => {
                        let config = if q {
                            PbpiConfig::quick()
                        } else {
                            PbpiConfig::paper()
                        };
                        pbpi::build(&mut rt, config, PbpiVariant::Hybrid);
                    }
                }
                rt
            })
            .collect();
        rec.end(s);
        let setup_s = t_setup.elapsed().as_secs_f64();
        let submitted: u64 = rts.iter().map(|rt| rt.graph().len() as u64).sum();

        let solve_span = rec.begin("solve", Layer::Bench, req);
        let t_solve = Instant::now();
        let reports: Vec<_> = rts
            .iter_mut()
            .map(|rt| {
                let s = rec.begin("Runtime::run", Layer::Runtime, req);
                let report = rt.run().expect("sim_paper_apps: run failed");
                rec.end(s);
                report
            })
            .collect();
        let solve_s = t_solve.elapsed().as_secs_f64();
        rec.end(solve_span);
        rec.end(rep_span);
        let rss_mb = rss_mb();

        if let Some(seg) = seg {
            seg.submitted += submitted;
            for (app, report) in reports.iter().enumerate() {
                seg.tasks += report.tasks_executed;
                seg.failed_ops += report.failures.failure_count() + report.failures.retries;
                seg.makespans[app].push(report.makespan);
            }
            seg.traces
                .observe(reports.iter().filter_map(|r| r.trace.as_ref()));
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
    let mut samples = Samples::default();
    let budget = if ctx.trace {
        ctx.reference_s()
    } else {
        ctx.seconds
    };
    let reference = segment(ctx, budget, ctx.warmup_reps(), false, &mut Recorder::off());
    let solve_ms = reference.reps.solve_ms();
    let (mut attempted, mut executed, mut failed) =
        (reference.submitted, reference.tasks, reference.failed_ops);
    let mut makespans = reference.makespans.clone();

    if !ctx.trace {
        reference
            .reps
            .end_to_end(&mut samples, reference.tasks as f64 / solve_ms.len() as f64);
    } else {
        for (app, name) in MAKESPAN_METRICS.into_iter().enumerate() {
            samples.set(name, reference.makespans[app][0].as_secs_f64() * 1e3);
        }
        let mut rec = Recorder::on();
        let traced = segment(ctx, ctx.traced_s(), 1, true, &mut rec);
        attempted += traced.submitted;
        executed += traced.tasks;
        failed += traced.failed_ops;
        for (all, t) in makespans.iter_mut().zip(&traced.makespans) {
            all.extend(t);
        }
        traced.traces.report(&mut samples);
        samples.set(
            "trace.overhead_pct",
            overhead_pct(median(&solve_ms), median(&traced.reps.solve_ms()), true),
        );
        finish_spans(ctx, "sim_paper_apps", "solve", &rec, &mut samples);
    }

    let identical = makespans.iter().all(|m| m.windows(2).all(|w| w[0] == w[1]));
    for (app, m) in APPS.iter().zip(&makespans) {
        println!(
            "# sim_paper_apps: {app} virtual makespan {:.6} ms over {} reps",
            m[0].as_secs_f64() * 1e3,
            m.len()
        );
    }
    println!("# sim_paper_apps: makespans identical across reps: {identical}; executed {executed} of {attempted} tasks");
    conclude(
        ctx,
        samples,
        attempted,
        failed,
        identical && executed == attempted,
    )
}
