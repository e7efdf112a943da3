//! The seven named workloads and the plumbing they share.
//!
//! Every workload has the same shape. Untraced (`--trace 0`): warm up,
//! then measure for `--seconds` with no recorder and runtime tracing
//! off → the end-to-end metrics. Traced (`--trace 1`): half the time on
//! an untraced reference segment (the basis of `trace.overhead_pct` and
//! of the end-to-end figures that only some workloads have), a quarter
//! on a traced segment (`RuntimeConfig::tracing` on, benchmark spans
//! recorded) → the run-derived per-layer metrics; `main` spends the last
//! quarter on the layer probes.

use crate::metrics::{Outcome, Samples};
use crate::spans::{Breakdown, Layer, Recorder};
use std::path::PathBuf;
use std::time::Instant;

mod chol_native_link;
mod cluster_mm_loopback;
mod mm_native;
pub mod native;
mod serve_tiny;
mod sim_drain;
mod sim_paper_apps;

/// Fixed: later issues cite these names.
pub const NAMES: [&str; 7] = [
    "mm_native",
    "chol_native_link",
    "sim_drain",
    "sim_paper_apps",
    "serve_closed_tiny",
    "serve_open_tiny",
    "cluster_mm_loopback",
];

pub struct Ctx {
    pub seed: u64,
    /// How long one run measures.
    pub seconds: f64,
    /// Smaller problems, labelled `quick`; exercises every path and
    /// check but is never a baseline.
    pub quick: bool,
    pub trace: bool,
    /// Where `.spans.json` files (and scratch files) go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Seconds the untraced reference segment of a traced run gets.
    pub fn reference_s(&self) -> f64 {
        self.seconds * 0.5
    }

    /// Seconds the traced segment gets.
    pub fn traced_s(&self) -> f64 {
        self.seconds * 0.25
    }

    /// Warm-up reps every rep-based workload discards.
    pub fn warmup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            2
        }
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "mm_native" => mm_native::run(ctx),
        "chol_native_link" => chol_native_link::run(ctx),
        "sim_drain" => sim_drain::run(ctx),
        "sim_paper_apps" => sim_paper_apps::run(ctx),
        "serve_closed_tiny" => serve_tiny::run_closed(ctx),
        "serve_open_tiny" => serve_tiny::run_open(ctx),
        "cluster_mm_loopback" => cluster_mm_loopback::run(ctx),
        _ => return None,
    })
}

/// What one rep reports to [`rep_loop`].
pub struct RepTime {
    pub setup_s: f64,
    pub solve_s: f64,
    /// Resident set at the end of the solve, everything still live.
    pub rss_mb: f64,
}

/// Per-rep timings of one segment.
#[derive(Default)]
pub struct Reps {
    pub setup_s: Vec<f64>,
    pub solve_s: Vec<f64>,
    pub rss_mb: Vec<f64>,
}

impl Reps {
    /// Tasks per second of each rep, all reps running `tasks_per_rep`.
    pub fn rates(&self, tasks_per_rep: f64) -> Vec<f64> {
        self.solve_s.iter().map(|s| tasks_per_rep / s).collect()
    }

    pub fn solve_ms(&self) -> Vec<f64> {
        self.solve_s.iter().map(|s| s * 1e3).collect()
    }

    /// The end-to-end metrics of a rep-based workload whose every rep
    /// runs `tasks_per_rep` tasks.
    pub fn end_to_end(&self, samples: &mut Samples, tasks_per_rep: f64) {
        end_to_end(
            samples,
            &self.setup_s,
            &self.solve_ms(),
            &self.rates(tasks_per_rep),
            &self.rss_mb,
        );
    }
}

/// Run `rep` (which gets the measured-rep index) until `budget_s` of
/// wall time is spent, at least three times.
pub fn rep_loop(budget_s: f64, mut rep: impl FnMut(u64) -> RepTime) -> Reps {
    let mut reps = Reps::default();
    let start = Instant::now();
    while reps.solve_s.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let t = rep(reps.solve_s.len() as u64);
        reps.setup_s.push(t.setup_s);
        reps.solve_s.push(t.solve_s);
        reps.rss_mb.push(t.rss_mb);
    }
    reps
}

/// The end-to-end metrics every workload reports from its untraced
/// segment. The timings are medians of per-rep (or per-job, per-window)
/// figures, so one host hiccup moves none of them; `rates` are tasks/s.
/// `rss_mb` is the *smallest* of the resident-set samples: what a solve
/// needs. The samples of identical reps differ by up to 100 MB on
/// `mm_native` with how much of the previous reps' memory the allocator
/// still holds, and their median wanders with it (10–14 % IQR over ten
/// runs); their minimum does not.
pub fn end_to_end(
    samples: &mut Samples,
    setup_s: &[f64],
    unit_ms: &[f64],
    rates: &[f64],
    rss_mb: &[f64],
) {
    samples.set_samples("setup_s", setup_s);
    samples.set_samples("solve_ms_p50", unit_ms);
    samples.set_samples("tasks_per_s", rates);
    samples.set_min("rss_mb", rss_mb);
}

/// What the sim-engine workloads read out of their runtime traces, one
/// entry per traced rep (a rep may run several runtimes).
#[derive(Default)]
pub struct TraceCounts {
    learning: Vec<f64>,
    learning_share: Vec<f64>,
    events: Vec<f64>,
    dropped: Vec<f64>,
}

impl TraceCounts {
    /// Count one rep's traces; an untraced rep (no traces) counts nothing.
    pub fn observe<'a>(&mut self, traces: impl Iterator<Item = &'a versa_trace::Trace>) {
        let (mut decisions, mut learning, mut events, mut dropped) = (0u64, 0u64, 0usize, 0u64);
        for trace in traces {
            events += trace.len();
            dropped += trace.dropped;
            for d in trace.decisions() {
                decisions += 1;
                learning += u64::from(d.phase == versa_trace::Phase::Learning);
            }
        }
        if events > 0 {
            self.learning.push(learning as f64);
            self.learning_share
                .push(learning as f64 / decisions.max(1) as f64);
            self.events.push(events as f64);
            self.dropped.push(dropped as f64);
        }
    }

    pub fn report(&self, samples: &mut Samples) {
        samples.set_samples("core.learning_decisions", &self.learning);
        samples.set_samples("core.learning_share", &self.learning_share);
        samples.set_samples("trace.events_per_solve", &self.events);
        samples.set_samples("trace.dropped", &self.dropped);
    }
}

/// Close a run: a failed check fails every operation; the traced pass
/// also reports the failed fraction as a metric.
pub fn conclude(
    ctx: &Ctx,
    mut samples: Samples,
    attempted: u64,
    failed: u64,
    correct: bool,
) -> Outcome {
    let failed = if correct { failed } else { attempted };
    if ctx.trace {
        samples.set("failed_fraction", failed as f64 / attempted.max(1) as f64);
        samples.set("peak_rss_mb", status_mb("VmHWM:"));
    }
    Outcome {
        correct,
        attempted,
        failed,
        samples,
    }
}

/// One `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set of this process right now, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Tracing cost: how much worse the traced segment's figure is than the
/// untraced reference's, in percent (`lower_is_better` says which way
/// "worse" points).
pub fn overhead_pct(reference: f64, traced: f64, lower_is_better: bool) -> f64 {
    let ratio = if lower_is_better {
        traced / reference
    } else {
        reference / traced
    };
    (ratio - 1.0) * 100.0
}

/// Write `<workload>.spans.json`, print where the traced time went, and
/// record the per-layer self-time shares.
pub fn finish_spans(
    ctx: &Ctx,
    workload: &str,
    anchor: &str,
    rec: &Recorder,
    samples: &mut Samples,
) {
    let path = ctx.out_dir.join(format!("{workload}.spans.json"));
    std::fs::create_dir_all(&ctx.out_dir).expect("create the benchmark's out directory");
    std::fs::write(&path, rec.to_chrome_json(workload, anchor)).expect("write spans.json");
    let b: Breakdown = rec.breakdown(anchor);
    let attributed: u64 = b.by_layer.iter().sum::<u64>() + b.residual_ns;
    let mut line = format!(
        "# {workload} spans: {} `{anchor}` spans, {:.3} ms traced =",
        b.anchors,
        b.total_ns as f64 / 1e6
    );
    for layer in Layer::ALL {
        let ns = b.by_layer[layer as usize];
        if ns > 0 {
            line.push_str(&format!(" {} {:.3} ms +", layer.name(), ns as f64 / 1e6));
        }
    }
    line.push_str(&format!(" residual {:.3} ms", b.residual_ns as f64 / 1e6));
    println!(
        "{line} (sum {:.3} ms; {} spans, {} dropped) -> {}",
        attributed as f64 / 1e6,
        rec.spans().len(),
        rec.dropped,
        path.display()
    );
    for (name, layer) in [
        ("kernels.self_share", Layer::Kernels),
        ("mem.self_share", Layer::Mem),
        ("net.self_share", Layer::Net),
        ("serve.self_share", Layer::Serve),
        ("runtime.self_share", Layer::Runtime),
    ] {
        samples.set(name, b.share(layer));
    }
    samples.set("benchmark.residual_share", b.residual_share());
}
