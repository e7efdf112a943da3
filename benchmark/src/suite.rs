//! The whole suite from one command: every workload in a child process
//! of its own (isolation, per-workload peak RSS), an untraced then a
//! traced pass each; one line per metric, `out/latest.json`, and with
//! `--aa` a second set of runs compared against the bounds.

use crate::env::Env;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::NAMES;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use versa_trace::json::{parse, JsonValue};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub aa: bool,
}

/// Per-layer metrics that must repeat exactly between two sets of runs:
/// they depend on decisions only, never on timing.
const EXACT: [&str; 4] = [
    "virtual_makespan_ms.matmul",
    "virtual_makespan_ms.cholesky",
    "virtual_makespan_ms.pbpi",
    "core.learning_decisions",
];
/// Workloads whose decisions are a function of the seed alone (the sim
/// engine, one solve at a time).
const DETERMINISTIC: [&str; 2] = ["sim_drain", "sim_paper_apps"];

struct Row {
    metric: String,
    value: f64,
    unit: String,
    n: u64,
    q1: f64,
    q3: f64,
    verified: bool,
}

struct Pass {
    rows: Vec<Row>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Pass {
    fn value(&self, metric: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.value)
    }

    fn ok(&self) -> bool {
        self.correct && self.failed == 0
    }
}

/// One set of runs: per workload, the untraced and the traced pass.
struct Set {
    passes: Vec<(&'static str, Pass, Pass)>,
    wall_s: f64,
}

fn run_child(workload: &str, opts: &Options, trace: bool) -> Pass {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn a workload child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut pass = Pass {
        rows: Vec::new(),
        correct: false,
        attempted: 0,
        failed: 0,
    };
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, body) = lines.split_last().map_or(("", &[][..]), |(l, b)| (*l, b));
    for line in body {
        println!("{line}");
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() >= 7 && f[0] == workload {
            let num = |s: &str| s.parse::<f64>().unwrap_or(f64::NAN);
            pass.rows.push(Row {
                metric: f[1].into(),
                value: num(f[2]),
                unit: f[3].into(),
                n: f[4].parse().unwrap_or(0),
                q1: num(f[5]),
                q3: num(f[6]),
                verified: f.get(7).is_none(),
            });
        }
    }
    match parse(last) {
        Ok(doc) if out.status.success() => {
            pass.correct = doc.get("correct") == Some(&JsonValue::Bool(true));
            pass.attempted = doc
                .get("attempted")
                .and_then(JsonValue::as_num)
                .unwrap_or(0.0) as u64;
            pass.failed = doc.get("failed").and_then(JsonValue::as_num).unwrap_or(0.0) as u64;
        }
        _ => println!(
            "# {workload}: child failed ({}) without a result line",
            out.status
        ),
    }
    println!(
        "# {workload} {} pass: correct={} attempted={} failed={}",
        if trace { "traced" } else { "untraced" },
        pass.correct,
        pass.attempted,
        pass.failed
    );
    pass
}

fn run_set(opts: &Options) -> Set {
    let start = Instant::now();
    let passes = NAMES
        .iter()
        .map(|&w| (w, run_child(w, opts, false), run_child(w, opts, true)))
        .collect();
    Set {
        passes,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn pass_json(pass: &Pass, label: &str) -> String {
    let mut out = format!(
        "\"{label}\": {{\"pass\": \"{label}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        pass.correct, pass.attempted, pass.failed
    );
    for (i, r) in pass.rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let verified = if r.verified {
            ""
        } else {
            ", \"verified\": false"
        };
        let _ = write!(
            out,
            "{sep}\n      \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"q1\": {}, \"q3\": {}{verified}}}",
            r.metric, r.value, r.unit, r.n, r.q1, r.q3
        );
    }
    out.push_str("}}");
    out
}

fn latest_json(opts: &Options, env: &Env, set: &Set) -> String {
    let mut out = format!(
        "{{\n  \"mode\": \"{}\", \"seed\": {}, \"run_seconds\": {}, \"suite_wall_s\": {:.1},\n  \"env\": {{{}}},\n  \"workloads\": {{",
        if opts.quick { "quick" } else { "full" },
        opts.seed,
        opts.seconds,
        set.wall_s,
        env.json_members()
    );
    for (i, (w, untraced, traced)) in set.passes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{w}\": {{\n    {},\n    {}}}",
            pass_json(untraced, "untraced"),
            pass_json(traced, "traced")
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Markdown A/A report and the number of breaches.
fn aa_report(opts: &Options, env: &Env, a: &Set, b: &Set) -> (String, usize) {
    let mut breaches = 0;
    let mut md = String::from("# A/A: the suite twice on one build\n\n");
    let _ = writeln!(
        md,
        "mode {}, seed {}, {} s per run, {} cores ({}), SIMD tier {}, {}, rev {}. Runs took {:.0} s and {:.0} s.\n",
        if opts.quick { "quick" } else { "full" },
        opts.seed,
        opts.seconds,
        env.nproc,
        env.cpu_model,
        env.simd_tier,
        env.rustc,
        env.git_rev,
        a.wall_s,
        b.wall_s
    );
    md.push_str("End-to-end metrics (untraced pass): relative difference of the second run against its bound.\n\n");
    md.push_str("| workload | metric | unit | run A | run B | B vs A | bound | |\n|---|---|---|---|---|---|---|---|\n");
    for ((w, ua, _), (_, ub, _)) in a.passes.iter().zip(&b.passes) {
        for m in END_TO_END {
            let (va, vb) = (
                ua.value(m.name).unwrap_or(f64::NAN),
                ub.value(m.name).unwrap_or(f64::NAN),
            );
            let rel = (vb - va) / va;
            let ok = rel.abs() <= m.bound;
            breaches += usize::from(!ok);
            let _ = writeln!(
                md,
                "| {w} | {} | {} | {va:.6} | {vb:.6} | {:+.2} % | ±{:.0} % | {} |",
                m.name,
                m.unit,
                rel * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "BREACH" }
            );
        }
    }
    md.push_str("\nDecision-only metrics (traced pass) must agree exactly on the deterministic workloads.\n\n");
    md.push_str("| workload | metric | run A | run B | |\n|---|---|---|---|---|\n");
    for ((w, _, ta), (_, _, tb)) in a.passes.iter().zip(&b.passes) {
        for metric in EXACT {
            let (va, vb) = (
                ta.value(metric).unwrap_or(f64::NAN),
                tb.value(metric).unwrap_or(f64::NAN),
            );
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let must = DETERMINISTIC.contains(w);
            let same = va == vb;
            breaches += usize::from(must && !same);
            let verdict = match (same, must) {
                (true, _) => "identical",
                (false, true) => "BREACH",
                (false, false) => "differs (timing-dependent engine; not gated)",
            };
            let _ = writeln!(md, "| {w} | {metric} | {va} | {vb} | {verdict} |");
        }
    }
    let checks_failed = a
        .passes
        .iter()
        .chain(&b.passes)
        .filter(|(_, u, t)| !u.ok() || !t.ok())
        .count();
    let _ = writeln!(
        md,
        "\nOutput checks failed: {checks_failed}. Bound breaches: {breaches}."
    );
    (md, breaches)
}

pub fn run(opts: &Options, bench_dir: &Path) -> ExitCode {
    let env = Env::capture();
    println!(
        "# env: nproc={} cpu=\"{}\" llc_bytes={} simd={} rustc=\"{}\" git_rev={} seed={} mode={}",
        env.nproc,
        env.cpu_model,
        env.llc_bytes,
        env.simd_tier,
        env.rustc,
        env.git_rev,
        opts.seed,
        if opts.quick { "quick" } else { "full" }
    );
    if env.nproc < 4 {
        println!(
            "# fewer than 4 cores: lane/striping/contention figures are marked unverified<4cores"
        );
    }
    let out_dir = bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).expect("create benchmark/out");

    let first = run_set(opts);
    let latest = out_dir.join("latest.json");
    std::fs::write(&latest, latest_json(opts, &env, &first)).expect("write latest.json");
    println!(
        "# wrote {} ({:.0} s for the whole suite)",
        latest.display(),
        first.wall_s
    );
    let mut ok = first.passes.iter().all(|(_, u, t)| u.ok() && t.ok());
    let expected = END_TO_END.len() + PER_LAYER.len();
    for (w, u, t) in &first.passes {
        if u.rows.len() + t.rows.len() != expected {
            println!(
                "# {w}: printed {} of {expected} metrics",
                u.rows.len() + t.rows.len()
            );
            ok = false;
        }
    }

    if opts.aa {
        let second = run_set(opts);
        ok &= second.passes.iter().all(|(_, u, t)| u.ok() && t.ok());
        let (md, breaches) = aa_report(opts, &env, &first, &second);
        print!("{md}");
        // Only a full run is a result worth committing.
        let path = if opts.quick {
            out_dir.join("aa.quick.md")
        } else {
            bench_dir.join("results").join("aa.md")
        };
        std::fs::create_dir_all(path.parent().expect("report path has a parent"))
            .expect("create the report directory");
        std::fs::write(&path, md).expect("write the A/A report");
        println!("# wrote {}", path.display());
        ok &= breaches == 0;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("# FAILED: an output check, a missing metric or an A/A bound");
        ExitCode::FAILURE
    }
}
