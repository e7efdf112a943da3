//! The one layered benchmark of the versa workspace.
//!
//! ```text
//! versa-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! versa-benchmark --suite [--seed N] [--seconds S] [--quick] [--aa]
//! versa-benchmark --probe LAYER|all [--seconds S]
//! versa-benchmark --list
//! ```
//!
//! The first form is the contract of `BENCHMARK.json`: one workload, one
//! pass, one line per metric and a final JSON line. `run.sh` builds this
//! binary and hands its arguments through. See `README.md`.

mod check;
mod env;
mod gen;
mod metrics;
mod openloop;
mod probes;
mod spans;
mod stats;
mod suite;
mod workloads;

use metrics::Samples;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// The seed the suite uses when none is given.
const DEFAULT_SEED: u64 = 20130520;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: versa-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]\n\
         \x20      versa-benchmark --suite [--seed N] [--seconds S] [--quick] [--aa]\n\
         \x20      versa-benchmark --probe LAYER|all [--seconds S]\n\
         \x20      versa-benchmark --list"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("versa-benchmark: {msg}");
            usage()
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let quick = args.flag("--quick");
    let seed: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", if quick { 1.0 } else { DEFAULT_SECONDS })?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 60]"));
    }

    if args.flag("--list") {
        println!("workloads: {}", workloads::NAMES.join(" "));
        println!(
            "probes: {} all",
            probes::LAYERS.map(|(name, _)| name).join(" ")
        );
        for m in metrics::END_TO_END {
            println!(
                "end_to_end {} {} {} {}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            );
        }
        for m in metrics::PER_LAYER {
            println!("per_layer {} {} {}", m.name, m.unit, m.better.label());
        }
        return Ok(ExitCode::SUCCESS);
    }
    if args.flag("--suite") {
        let opts = suite::Options {
            seed,
            seconds,
            quick,
            aa: args.flag("--aa"),
        };
        return Ok(suite::run(&opts, bench_dir));
    }
    if let Some(layer) = args.value("--probe") {
        let mut samples = Samples::default();
        let per_probe = Duration::from_secs_f64(seconds.min(0.2));
        let mut found = false;
        for (name, probe) in probes::LAYERS {
            if layer == "all" || layer == name {
                probe(per_probe, &mut samples);
                found = true;
            }
        }
        if !found {
            return Err(format!("--probe {layer}: no such layer"));
        }
        print!("{}", metrics::human_lines("probe", true, &samples, true));
        return Ok(ExitCode::SUCCESS);
    }

    let Some(name) = args.value("--workload") else {
        return Err("nothing to do".into());
    };
    let trace = match args.value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let ctx = workloads::Ctx {
        seed,
        seconds,
        quick,
        trace,
        out_dir: bench_dir.join("out"),
    };
    let Some(mut outcome) = workloads::run(name, &ctx) else {
        return Err(format!(
            "--workload {name}: not one of {}",
            workloads::NAMES.join(" ")
        ));
    };
    if trace {
        let mut probed = Samples::default();
        probes::run_all(Duration::from_secs_f64(seconds * 0.25), &mut probed);
        outcome.samples.merge(probed);
    }
    print!(
        "{}",
        metrics::human_lines(name, trace, &outcome.samples, false)
    );
    // The result line carries `correct`; the exit code says it was printed.
    println!("{}", metrics::json_line(trace, &outcome));
    Ok(ExitCode::SUCCESS)
}
