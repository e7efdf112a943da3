//! `versa-run` — command-line driver for the simulated applications.
//!
//! Run any paper application, variant, and scheduler on a custom
//! simulated platform without writing code:
//!
//! ```text
//! versa-run --app matmul   --variant hybrid --scheduler ver --smp 8 --gpus 2
//! versa-run --app cholesky --variant gpu    --scheduler aff --smp 4 --gpus 2 --n 16384 --bs 1024
//! versa-run --app pbpi     --variant smp    --scheduler dep --generations 50
//! versa-run --app matmul --scheduler ver --trace --gpu-mem 2000000000
//! versa-run --app matmul --scheduler ver --trace-out matmul.vtrace
//! ```
//!
//! Prints the run report (makespan, GFLOP/s where defined, transfer
//! volumes, per-version execution counts) and, with `--trace`, a
//! per-worker utilization table. `--trace-out PATH` additionally writes
//! the raw event trace in the `vtrace` text format for `versa-analyze`.

use versa::apps::{cholesky, matmul, pbpi};
use versa::prelude::*;
use versa::trace::TraceAnalysis;

#[derive(Debug)]
struct Args {
    app: String,
    variant: String,
    scheduler: String,
    smp: usize,
    gpus: usize,
    n: Option<usize>,
    bs: Option<usize>,
    generations: Option<usize>,
    lambda: Option<u64>,
    gpu_mem: Option<u64>,
    trace: bool,
    trace_out: Option<String>,
    no_prefetch: bool,
    seed: Option<u64>,
}

impl Args {
    fn usage() -> ! {
        eprintln!(
            "usage: versa-run [--app matmul|cholesky|pbpi] [--variant gpu|hybrid|smp]\n\
             \x20               [--scheduler bf|dep|aff|ver|locver] [--smp N] [--gpus N]\n\
             \x20               [--n ELEMS] [--bs TILE] [--generations N] [--lambda N]\n\
             \x20               [--gpu-mem BYTES] [--seed N] [--trace] [--trace-out PATH]\n\
             \x20               [--no-prefetch]"
        );
        std::process::exit(2);
    }

    fn parse() -> Args {
        let mut args = Args {
            app: "matmul".into(),
            variant: "hybrid".into(),
            scheduler: "ver".into(),
            smp: 4,
            gpus: 2,
            n: None,
            bs: None,
            generations: None,
            lambda: None,
            gpu_mem: None,
            trace: false,
            trace_out: None,
            no_prefetch: false,
            seed: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = |it: &mut dyn Iterator<Item = String>| {
                it.next().unwrap_or_else(|| Args::usage())
            };
            match flag.as_str() {
                "--app" => args.app = value(&mut it),
                "--variant" => args.variant = value(&mut it),
                "--scheduler" => args.scheduler = value(&mut it),
                "--smp" => args.smp = value(&mut it).parse().unwrap_or_else(|_| Args::usage()),
                "--gpus" => args.gpus = value(&mut it).parse().unwrap_or_else(|_| Args::usage()),
                "--n" => args.n = Some(value(&mut it).parse().unwrap_or_else(|_| Args::usage())),
                "--bs" => args.bs = Some(value(&mut it).parse().unwrap_or_else(|_| Args::usage())),
                "--generations" => {
                    args.generations =
                        Some(value(&mut it).parse().unwrap_or_else(|_| Args::usage()))
                }
                "--lambda" => {
                    args.lambda = Some(value(&mut it).parse().unwrap_or_else(|_| Args::usage()))
                }
                "--gpu-mem" => {
                    args.gpu_mem = Some(value(&mut it).parse().unwrap_or_else(|_| Args::usage()))
                }
                "--seed" => {
                    args.seed = Some(value(&mut it).parse().unwrap_or_else(|_| Args::usage()))
                }
                "--trace" => args.trace = true,
                "--trace-out" => args.trace_out = Some(value(&mut it)),
                "--no-prefetch" => args.no_prefetch = true,
                "--help" | "-h" => Args::usage(),
                other => {
                    eprintln!("unknown flag {other:?}");
                    Args::usage()
                }
            }
        }
        args
    }

    fn scheduler_kind(&self) -> SchedulerKind {
        let mut kind = match self.scheduler.as_str() {
            "bf" => SchedulerKind::BreadthFirst,
            "dep" => SchedulerKind::DepAware,
            "aff" => SchedulerKind::Affinity,
            "ver" => SchedulerKind::versioning(),
            "locver" => SchedulerKind::locality_versioning(),
            other => {
                eprintln!("unknown scheduler {other:?}");
                Args::usage()
            }
        };
        if let (Some(lambda), SchedulerKind::Versioning(cfg)) = (self.lambda, &mut kind) {
            cfg.lambda = lambda;
        }
        kind
    }

    fn platform(&self) -> PlatformConfig {
        let mut p = PlatformConfig::minotauro(self.smp, self.gpus);
        p.gpu_mem_capacity = self.gpu_mem;
        if let Some(seed) = self.seed {
            p.seed = seed;
        }
        p
    }

    fn runtime_config(&self) -> RuntimeConfig {
        let mut rc = RuntimeConfig::with_scheduler(self.scheduler_kind());
        rc.tracing.enabled = self.trace || self.trace_out.is_some();
        rc.prefetch = !self.no_prefetch;
        rc
    }
}

fn finish(report: &RunReport, rt: &Runtime, flops: Option<f64>, trace_out: Option<&str>) {
    println!("{}", report.summary(rt.templates()));
    if let Some(f) = flops {
        println!("performance: {:.1} GFLOP/s", report.gflops(f));
    }
    if let Some(trace) = &report.trace {
        let a = TraceAnalysis::new(trace);
        println!("\nper-worker utilization:\n{}", a.utilization_table());
        if let Some(path) = trace_out {
            std::fs::write(path, trace.to_text()).unwrap_or_else(|e| {
                eprintln!("cannot write trace to {path}: {e}");
                std::process::exit(1);
            });
            println!("\ntrace written to {path} (inspect with versa-analyze)");
        }
    }
    if let Some(v) = rt.versioning() {
        let table = v.profiles().render_table(rt.templates());
        println!("\nlearned profile (paper Table I):\n{table}");
    }
}

fn main() {
    let args = Args::parse();
    let rc = args.runtime_config();
    let platform = args.platform();

    match args.app.as_str() {
        "matmul" => {
            let mut cfg = matmul::MatmulConfig::paper();
            if let Some(n) = args.n {
                cfg.n = n;
            }
            if let Some(bs) = args.bs {
                cfg.bs = bs;
            }
            let variant = match args.variant.as_str() {
                "gpu" => matmul::MatmulVariant::Gpu,
                "hybrid" => matmul::MatmulVariant::Hybrid,
                other => {
                    eprintln!("matmul has variants gpu|hybrid, not {other:?}");
                    Args::usage()
                }
            };
            println!(
                "matmul {}x{} f64, {}x{} tiles, {} tasks, {} — {} SMP + {} GPU\n",
                cfg.n,
                cfg.n,
                cfg.bs,
                cfg.bs,
                cfg.task_count(),
                variant.label(),
                args.smp,
                args.gpus
            );
            let mut rt = Runtime::simulated(rc, platform);
            let _app = matmul::build(&mut rt, cfg, variant);
            let report = rt.run().expect("run failed");
            finish(&report, &rt, Some(cfg.flops()), args.trace_out.as_deref());
        }
        "cholesky" => {
            let mut cfg = cholesky::CholeskyConfig::paper();
            if let Some(n) = args.n {
                cfg.n = n;
            }
            if let Some(bs) = args.bs {
                cfg.bs = bs;
            }
            let variant = match args.variant.as_str() {
                "smp" => cholesky::CholeskyVariant::PotrfSmp,
                "gpu" => cholesky::CholeskyVariant::PotrfGpu,
                "hybrid" => cholesky::CholeskyVariant::PotrfHybrid,
                other => {
                    eprintln!("cholesky has variants smp|gpu|hybrid, not {other:?}");
                    Args::usage()
                }
            };
            println!(
                "cholesky {}x{} f32, {}x{} tiles, {} — {} SMP + {} GPU\n",
                cfg.n,
                cfg.n,
                cfg.bs,
                cfg.bs,
                variant.label(),
                args.smp,
                args.gpus
            );
            let mut rt = Runtime::simulated(rc, platform);
            let _app = cholesky::build(&mut rt, cfg, variant);
            let report = rt.run().expect("run failed");
            finish(&report, &rt, Some(cfg.flops()), args.trace_out.as_deref());
        }
        "pbpi" => {
            let mut cfg = pbpi::PbpiConfig::paper();
            if let Some(g) = args.generations {
                cfg.generations = g;
            }
            let variant = match args.variant.as_str() {
                "smp" => pbpi::PbpiVariant::Smp,
                "gpu" => pbpi::PbpiVariant::Gpu,
                "hybrid" => pbpi::PbpiVariant::Hybrid,
                other => {
                    eprintln!("pbpi has variants smp|gpu|hybrid, not {other:?}");
                    Args::usage()
                }
            };
            println!(
                "pbpi {} sites x {} generations, {} — {} SMP + {} GPU\n",
                cfg.sites(),
                cfg.generations,
                variant.label(),
                args.smp,
                args.gpus
            );
            let mut rt = Runtime::simulated(rc, platform);
            let _app = pbpi::build(&mut rt, cfg, variant);
            let report = rt.run().expect("run failed");
            finish(&report, &rt, None, args.trace_out.as_deref());
        }
        other => {
            eprintln!("unknown app {other:?}");
            Args::usage()
        }
    }
}
