//! What the three native-engine workloads read out of a `RunReport`
//! (and, when the run was traced, out of its `versa_trace::Trace`).

use super::{finish_spans, overhead_pct, rep_loop, Ctx, RepTime, Reps};
use crate::metrics::Samples;
use crate::spans::{Layer, Recorder, Token};
use crate::stats::median;
use std::collections::{HashMap, HashSet};
use versa_runtime::RunReport;
use versa_trace::{Phase, TraceAnalysis, TraceEvent};

/// Per-rep observations, one vector entry per measured solve.
#[derive(Default)]
pub struct RunStats {
    pub tasks: u64,
    /// Failed attempts + retries across the segment.
    pub failed_ops: u64,
    per_rep: HashMap<&'static str, Vec<f64>>,
}

impl RunStats {
    fn push(&mut self, name: &'static str, v: f64) {
        self.per_rep.entry(name).or_default().push(v);
    }

    /// Record one solve. `run_span` is the benchmark span around
    /// `Runtime::run`; when the report carries a trace, its task
    /// intervals and transfers become child spans of it.
    pub fn observe(
        &mut self,
        report: &RunReport,
        solve_s: f64,
        rec: &mut Recorder,
        run_span: Token,
        req: u64,
    ) {
        self.tasks += report.tasks_executed;
        self.failed_ops += report.failures.failure_count() + report.failures.retries;
        let workers = report.worker_busy.len();
        let busy: f64 = report.worker_busy.iter().map(|d| d.as_secs_f64()).sum();
        self.push("kernels.busy_share", busy / (workers as f64 * solve_s));
        // Time the busiest worker was computing or staging (staging hidden
        // under its own kernels counted once).
        let occupied = report
            .worker_busy
            .iter()
            .zip(&report.worker_transfers)
            .map(|(b, t)| {
                b.as_secs_f64() + t.stage_time.saturating_sub(t.overlap_time).as_secs_f64()
            })
            .fold(0.0, f64::max);
        self.push(
            "runtime.unattributed_share",
            (1.0 - occupied / solve_s).max(0.0),
        );
        self.push("mem.input_bytes", report.transfers.input_bytes as f64);
        self.push("mem.output_bytes", report.transfers.output_bytes as f64);
        self.push("mem.device_bytes", report.transfers.device_bytes as f64);
        let staged: u64 = report.worker_transfers.iter().map(|t| t.staged_count).sum();
        let stage_s: f64 = report
            .worker_transfers
            .iter()
            .map(|t| t.stage_time.as_secs_f64())
            .sum();
        let overlap_s: f64 = report
            .worker_transfers
            .iter()
            .map(|t| t.overlap_time.as_secs_f64())
            .sum();
        self.push("mem.staged_count", staged as f64);
        self.push("mem.stage_s", stage_s);
        self.push(
            "mem.overlap_ratio",
            if stage_s > 0.0 {
                (overlap_s / stage_s).min(1.0)
            } else {
                0.0
            },
        );

        let Some(trace) = &report.trace else { return };
        let analysis = TraceAnalysis::new(trace);
        self.push("trace.events_per_solve", trace.len() as f64);
        self.push("trace.dropped", trace.dropped as f64);
        let link_s: f64 = analysis
            .transfer_time
            .values()
            .map(|d| d.as_secs_f64())
            .sum();
        self.push("mem.link_busy_share", link_s / solve_s);
        let learning = analysis
            .decisions
            .iter()
            .filter(|d| d.phase == Phase::Learning)
            .count();
        self.push("core.learning_decisions", learning as f64);
        self.push(
            "core.learning_share",
            learning as f64 / analysis.decisions.len().max(1) as f64,
        );

        // Remote workers (and the mirror spaces they run against) turn
        // kernel/transfer time into net time.
        let remote_workers: HashSet<u16> = trace
            .meta
            .workers
            .iter()
            .filter(|w| w.node != 0)
            .map(|w| w.id.0)
            .collect();
        let remote_spaces: HashSet<usize> = trace
            .meta
            .workers
            .iter()
            .filter(|w| w.node != 0)
            .map(|w| w.space.index())
            .collect();
        let device_of: HashMap<u16, &str> = trace
            .meta
            .workers
            .iter()
            .map(|w| (w.id.0, w.device.as_str()))
            .collect();

        // Wasted work: kernel time spent in a version other than the
        // fastest one (by mean) of its (template, device kind) group.
        let mut by_version: HashMap<(u32, &str, u16), (f64, u64)> = HashMap::new();
        for iv in analysis.intervals.iter().filter(|iv| !iv.failed) {
            let e = by_version
                .entry((iv.template.0, device_of[&iv.worker.0], iv.version.0))
                .or_default();
            e.0 += iv.kernel.as_secs_f64();
            e.1 += 1;
        }
        let mut best: HashMap<(u32, &str), (f64, u16)> = HashMap::new();
        for (&(tpl, dev, ver), &(total, count)) in &by_version {
            let mean = total / count as f64;
            let e = best.entry((tpl, dev)).or_insert((mean, ver));
            if (mean, ver) < *e {
                *e = (mean, ver);
            }
        }
        let kernel_total: f64 = by_version.values().map(|v| v.0).sum();
        let offbest: f64 = by_version
            .iter()
            .filter(|(&(tpl, dev, ver), _)| best[&(tpl, dev)].1 != ver)
            .map(|(_, v)| v.0)
            .sum();
        self.push(
            "core.offbest_kernel_share",
            if kernel_total > 0.0 {
                offbest / kernel_total
            } else {
                0.0
            },
        );

        let remote_tasks = analysis
            .intervals
            .iter()
            .filter(|iv| remote_workers.contains(&iv.worker.0))
            .count();
        self.push(
            "net.remote_task_share",
            remote_tasks as f64 / analysis.intervals.len().max(1) as f64,
        );
        let mut shipped = 0u64;

        let Some(run_id) = run_span else { return };
        let base = rec.spans()[run_id as usize].start_ns;
        for iv in &analysis.intervals {
            let (start, end) = (base + iv.start.0, base + iv.end.0);
            let track = 1 + u32::from(iv.worker.0);
            let kernel_ns = iv.kernel.as_nanos() as u64;
            if remote_workers.contains(&iv.worker.0) {
                // The interval is the Exec round trip; where inside it the
                // remote kernel ran is not known — centre it.
                let outer = rec.add("remote_exec", Layer::Net, start, end, run_span, req, track);
                let slack = (end - start).saturating_sub(kernel_ns) / 2;
                rec.add(
                    "kernel",
                    Layer::Kernels,
                    start + slack,
                    start + slack + kernel_ns,
                    outer,
                    req,
                    track,
                );
            } else {
                rec.add(
                    "kernel",
                    Layer::Kernels,
                    end.saturating_sub(kernel_ns).max(start),
                    end,
                    run_span,
                    req,
                    track,
                );
            }
        }
        for ev in trace.events() {
            if let TraceEvent::Transfer {
                start,
                end,
                to,
                bytes,
                ..
            } = *ev
            {
                // Only copies *into* a mirror space cross the wire (results
                // come back inside the ExecOk frame).
                let over_net = remote_spaces.contains(&to.index());
                if over_net {
                    shipped += bytes;
                }
                let (name, layer) = if over_net {
                    ("ship", Layer::Net)
                } else {
                    ("transfer", Layer::Mem)
                };
                rec.add(
                    name,
                    layer,
                    base + start.0,
                    base + end.0,
                    run_span,
                    req,
                    100 + to.index() as u32,
                );
            }
        }
        self.push("net.shipped_bytes", shipped as f64);
    }

    /// Medians of everything observed, under the metrics' own names.
    pub fn report(&self, samples: &mut Samples) {
        for (name, v) in &self.per_rep {
            samples.set_samples(name, v);
        }
    }
}

/// One fresh-runtime rep of a native workload.
pub struct Rep {
    pub setup_s: f64,
    pub solve_s: f64,
    /// Resident set right after `run()` returned.
    pub rss_mb: f64,
    pub report: RunReport,
    /// The span around `Runtime::run`.
    pub run_span: Token,
    /// The output check's error, when the rep was asked to verify.
    pub error: Option<f64>,
}

/// A workload that builds a fresh native `Runtime` per rep and times
/// `submit_tasks` + `run()` through the final flush.
pub trait NativeWorkload {
    const NAME: &'static str;
    /// Useful floating-point operations of one solve.
    fn flops(&self) -> f64;
    /// The output check passes below this error.
    fn tolerance(&self) -> f64;
    fn rep(&mut self, traced: bool, rec: &mut Recorder, req: u64, verify: bool) -> Rep;
}

struct Segment {
    reps: Reps,
    stats: RunStats,
    worst_error: f64,
}

fn segment<W: NativeWorkload>(
    w: &mut W,
    budget_s: f64,
    warmup: usize,
    traced: bool,
    rec: &mut Recorder,
) -> Segment {
    for _ in 0..warmup {
        w.rep(traced, rec, u64::MAX, false);
    }
    let mut stats = RunStats::default();
    let mut worst_error = 0.0f64;
    let reps = rep_loop(budget_s, |req| {
        // The first measured rep of every segment is checked.
        let rep = w.rep(traced, rec, req, req == 0);
        stats.observe(&rep.report, rep.solve_s, rec, rep.run_span, req);
        worst_error = worst_error.max(rep.error.unwrap_or(0.0));
        RepTime {
            setup_s: rep.setup_s,
            solve_s: rep.solve_s,
            rss_mb: rep.rss_mb,
        }
    });
    Segment {
        reps,
        stats,
        worst_error,
    }
}

/// What [`run`] hands back for the workload to finish.
pub struct NativeRun {
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// The whole untraced or traced pass of a native workload.
pub fn run<W: NativeWorkload>(ctx: &Ctx, w: &mut W) -> NativeRun {
    let mut samples = Samples::default();
    let budget = if ctx.trace {
        ctx.reference_s()
    } else {
        ctx.seconds
    };
    let reference = segment(w, budget, ctx.warmup_reps(), false, &mut Recorder::off());
    let (mut attempted, mut failed) = (reference.stats.tasks, reference.stats.failed_ops);
    let mut worst = reference.worst_error;
    let solve_ms = reference.reps.solve_ms();
    if !ctx.trace {
        reference
            .reps
            .end_to_end(&mut samples, attempted as f64 / solve_ms.len() as f64);
    } else {
        let gflops: Vec<f64> = solve_ms.iter().map(|ms| w.flops() / ms / 1e6).collect();
        samples.set_samples("gflops", &gflops);
        let mut rec = Recorder::on();
        let traced = segment(w, ctx.traced_s(), 1, true, &mut rec);
        attempted += traced.stats.tasks;
        failed += traced.stats.failed_ops;
        worst = worst.max(traced.worst_error);
        traced.stats.report(&mut samples);
        samples.set(
            "trace.overhead_pct",
            overhead_pct(median(&solve_ms), median(&traced.reps.solve_ms()), true),
        );
        finish_spans(ctx, W::NAME, "solve", &rec, &mut samples);
    }
    println!(
        "# {}: output check error {worst:.3e} (gate {:e})",
        W::NAME,
        w.tolerance()
    );
    NativeRun {
        samples,
        attempted,
        failed,
        correct: worst < w.tolerance(),
    }
}
