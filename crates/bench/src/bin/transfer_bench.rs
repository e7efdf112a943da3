//! Overlapped-transfer benchmark: per-worker staging lanes without and
//! with prefetch lookahead.
//!
//! Runs tiled matmul (primary) and Cholesky (secondary) on the native
//! engine with ≥ 2 emulated-GPU workers and a throttled interconnect
//! (`NativeConfig::link_bandwidth`), at two staging depths:
//!
//! * `depth0` — `lookahead_depth = 0` (the baseline row): copies overlap
//!   *across* workers, but not with the same worker's compute.
//! * `lookahead` — `lookahead_depth = 2` (the default): the next tasks'
//!   inputs stage while the current kernel runs (double-buffering).
//!
//! The emulated link runs at 200 MB/s — software GEMM kernels are some
//! three orders of magnitude slower than the M2090s the paper measured,
//! so the interconnect is scaled down proportionally to keep the
//! compute/transfer ratio representative.
//!
//! Usage:
//! ```text
//! transfer_bench [--quick] [--out PATH]
//! ```
//! `--quick` shrinks problem sizes for CI smoke runs; the default writes
//! `BENCH_transfers.json` in the working directory. Regenerate the
//! committed baseline with:
//! `cargo run --release -p versa-bench --bin transfer_bench`.

use versa_apps::cholesky::{self, CholeskyConfig, CholeskyVariant};
use versa_apps::matmul::{self, MatmulConfig, MatmulVariant};
use versa_core::SchedulerKind;
use versa_runtime::{NativeConfig, RunReport, RuntimeConfig};

/// 200 MB/s emulated PCIe (see module docs for the scaling argument).
const LINK_BYTES_PER_SEC: u64 = 200_000_000;

#[derive(Clone, Copy)]
struct Mode {
    name: &'static str,
    lookahead_depth: usize,
}

/// Baseline row first.
const MODES: [Mode; 2] = [
    Mode { name: "depth0", lookahead_depth: 0 },
    Mode { name: "lookahead", lookahead_depth: 2 },
];

struct ModeResult {
    mode: &'static str,
    seconds: f64,
    tasks: u64,
    input_bytes: u64,
    device_bytes: u64,
    /// Per worker: (staged_bytes, stage_seconds, compute_seconds, overlap_ratio).
    workers: Vec<(u64, f64, f64, f64)>,
}

fn mode_config(mode: Mode) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::with_scheduler(SchedulerKind::DepAware);
    cfg.lookahead_depth = mode.lookahead_depth;
    cfg
}

fn native_config(gpu_lanes: usize) -> NativeConfig {
    NativeConfig {
        smp_workers: 0,
        gpus: 2,
        gpu_lanes,
        link_bandwidth: Some(LINK_BYTES_PER_SEC),
    }
}

fn summarize(mode: Mode, report: &RunReport) -> ModeResult {
    let workers = report
        .worker_transfers
        .iter()
        .map(|wt| {
            (
                wt.staged_bytes,
                wt.stage_time.as_secs_f64(),
                wt.compute_time.as_secs_f64(),
                wt.overlap_ratio(),
            )
        })
        .collect();
    ModeResult {
        mode: mode.name,
        seconds: report.makespan.as_secs_f64(),
        tasks: report.tasks_executed,
        input_bytes: report.transfers.input_bytes,
        device_bytes: report.transfers.device_bytes,
        workers,
    }
}

fn bench_matmul(quick: bool) -> Vec<ModeResult> {
    let cfg = if quick {
        MatmulConfig { n: 512, bs: 128 }
    } else {
        MatmulConfig { n: 2048, bs: 256 }
    };
    let lanes = if quick { 1 } else { 2 };
    eprintln!("matmul n={} bs={} ({} tasks), 2 GPUs, link {} MB/s:", cfg.n, cfg.bs, cfg.task_count(), LINK_BYTES_PER_SEC / 1_000_000);
    MODES
        .iter()
        .map(|&mode| {
            let (report, _) = matmul::run_native_with(
                mode_config(mode),
                cfg,
                MatmulVariant::Gpu,
                native_config(lanes),
                11,
            );
            let r = summarize(mode, &report);
            report_line(&r);
            r
        })
        .collect()
}

fn bench_cholesky(quick: bool) -> Vec<ModeResult> {
    let cfg = if quick {
        CholeskyConfig { n: 256, bs: 64 }
    } else {
        CholeskyConfig { n: 1024, bs: 128 }
    };
    let lanes = if quick { 1 } else { 2 };
    eprintln!("cholesky n={} bs={} ({} tile cols), 2 GPUs, link {} MB/s:", cfg.n, cfg.bs, cfg.nb(), LINK_BYTES_PER_SEC / 1_000_000);
    MODES
        .iter()
        .map(|&mode| {
            let (report, _) = cholesky::run_native_with(
                mode_config(mode),
                cfg,
                CholeskyVariant::PotrfGpu,
                native_config(lanes),
                11,
            );
            let r = summarize(mode, &report);
            report_line(&r);
            r
        })
        .collect()
}

fn report_line(r: &ModeResult) {
    let overlaps: Vec<String> =
        r.workers.iter().map(|w| format!("{:.2}", w.3)).collect();
    eprintln!(
        "  {:<16} {:8.3}s  {:4} tasks  {:6.1} MB in  overlap [{}]",
        r.mode,
        r.seconds,
        r.tasks,
        r.input_bytes as f64 / 1e6,
        overlaps.join(", ")
    );
}

fn emit_app(json: &mut String, app: &str, results: &[ModeResult], last: bool) {
    let baseline = results[0].seconds;
    json.push_str(&format!("    {{\"app\": \"{app}\", \"modes\": [\n"));
    for (i, r) in results.iter().enumerate() {
        let workers: Vec<String> = r
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"staged_bytes\": {}, \"stage_seconds\": {:.6}, \"compute_seconds\": {:.6}, \"overlap_ratio\": {:.4}}}",
                    w.0, w.1, w.2, w.3
                )
            })
            .collect();
        json.push_str(&format!(
            "      {{\"mode\": \"{}\", \"seconds\": {:.6}, \"tasks\": {}, \"input_bytes\": {}, \"device_bytes\": {}, \"speedup_vs_depth0\": {:.4}, \"workers\": [{}]}}{}\n",
            r.mode,
            r.seconds,
            r.tasks,
            r.input_bytes,
            r.device_bytes,
            baseline / r.seconds,
            workers.join(", "),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!("    ]}}{}\n", if last { "" } else { "," }));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_transfers.json".to_string());

    let mm = bench_matmul(quick);
    let ch = bench_cholesky(quick);

    let speedup = mm[0].seconds / mm[1].seconds;
    eprintln!("matmul lookahead speedup vs depth 0: {speedup:.2}x");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"generated_by\": \"transfer_bench\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    json.push_str(&format!("  \"link_bytes_per_sec\": {LINK_BYTES_PER_SEC},\n"));
    json.push_str(&format!("  \"matmul_lookahead_speedup_vs_depth0\": {speedup:.4},\n"));
    json.push_str("  \"apps\": [\n");
    emit_app(&mut json, "matmul", &mm, false);
    emit_app(&mut json, "cholesky", &ch, true);
    json.push_str("  ]\n");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
