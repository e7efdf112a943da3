//! `versa-gym` — record, replay, and score scheduler policies offline.
//!
//! ```text
//! versa-gym record [--out-dir DIR] [--native] [WORKLOAD...]
//! versa-gym replay [--policy NAME] [--check-identity] FILE.vtrace...
//! versa-gym score  [--out FILE.json] FILE.vtrace...
//! ```
//!
//! `record` runs the named workloads (default: all of them) with tracing
//! on and writes one `.vtrace` per `(workload, engine)` into `--out-dir`
//! (default `traces/`). `replay` re-runs one policy over each ledger and
//! reports agreement with the recording — `--check-identity` exits
//! non-zero on any divergence, which is the CI `gym-smoke` gate. `score`
//! replays every shipped policy and prints the `gym_report` table.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use versa_core::PolicyKind;
use versa_gym::{record, replay, score};
use versa_trace::Trace;

fn usage() -> ExitCode {
    eprintln!(
        "usage: versa-gym record [--out-dir DIR] [--native] [WORKLOAD...]\n\
        \x20      versa-gym replay [--policy NAME] [--check-identity] FILE.vtrace...\n\
        \x20      versa-gym score  [--out FILE.json] FILE.vtrace...\n\
        workloads: {:?}\n\
        policies:  {:?}",
        record::WORKLOADS,
        PolicyKind::shipped().iter().map(|k| k.label()).collect::<Vec<_>>(),
    );
    ExitCode::from(2)
}

/// Read, parse and ledger one trace file: `(file stem, engine, ledger)`.
fn load_ledger(path: &Path) -> Result<(String, String, replay::Ledger), String> {
    let at = |e: String| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| at(e.to_string()))?;
    let trace = Trace::parse(&text).map_err(at)?;
    let ledger = replay::Ledger::from_trace(&trace).map_err(at)?;
    let name = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
    Ok((name, trace.meta.engine, ledger))
}

fn cmd_record(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("traces");
    let mut native = false;
    let mut workloads: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out-dir" => match it.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => return usage(),
            },
            "--native" => native = true,
            w if !w.starts_with('-') => workloads.push(w.to_string()),
            _ => return usage(),
        }
    }
    if workloads.is_empty() {
        workloads = record::WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("versa-gym: create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    for w in &workloads {
        let (engine, traced) =
            if native { ("native", record::record_native(w)) } else { ("sim", record::record_sim(w)) };
        let trace = match traced {
            Ok(t) => t,
            Err(e) => {
                eprintln!("versa-gym: record {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = out_dir.join(format!("{}_{engine}.vtrace", w.replace('-', "_")));
        if let Err(e) = std::fs::write(&path, trace.to_text()) {
            eprintln!("versa-gym: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let decisions = trace.decisions().count();
        println!("recorded {} ({decisions} decisions, {} events)", path.display(), trace.len());
    }
    ExitCode::SUCCESS
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let mut kind = PolicyKind::RoundRobin;
    let mut check_identity = false;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--policy" => match it.next().and_then(|n| PolicyKind::parse(n)) {
                Some(k) => kind = k,
                None => return usage(),
            },
            "--check-identity" => check_identity = true,
            f if !f.starts_with('-') => files.push(PathBuf::from(f)),
            _ => return usage(),
        }
    }
    if files.is_empty() {
        return usage();
    }
    let mut failed = false;
    for f in &files {
        let (name, ledger) = match load_ledger(f) {
            Ok((stem, engine, ledger)) => (format!("{stem} [{engine}]"), ledger),
            Err(e) => {
                eprintln!("versa-gym: {e}");
                return ExitCode::FAILURE;
            }
        };
        if check_identity {
            match replay::check_identity(&ledger) {
                Ok(n) => println!("{name}: identity OK over {n} decisions"),
                Err(e) => {
                    eprintln!("{name}: {e}");
                    failed = true;
                }
            }
        }
        let r = replay::replay(&ledger, kind.clone());
        println!(
            "{name}: {} over {} decisions — version agreement {:.3}, placement {:.3}, \
             {} mismatches, regret {:.3} ms, makespan proxy {:.3} ms",
            r.policy,
            r.score.decisions,
            r.score.version_agreement,
            r.score.placement_agreement,
            r.mismatches.len(),
            r.score.learning_cost.as_secs_f64() * 1e3,
            r.score.makespan_proxy.as_secs_f64() * 1e3,
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_score(args: &[String]) -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            f if !f.starts_with('-') => files.push(PathBuf::from(f)),
            _ => return usage(),
        }
    }
    if files.is_empty() {
        return usage();
    }
    let mut scores = Vec::new();
    for f in &files {
        let (name, engine, ledger) = match load_ledger(f) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("versa-gym: {e}");
                return ExitCode::FAILURE;
            }
        };
        scores.push(score::score_workload(&name, &engine, &ledger));
    }
    print!("{}", score::gym_report(&scores));
    if let Some(path) = out {
        let json = score::to_json(&scores);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("versa-gym: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("score") => cmd_score(&args[1..]),
        _ => usage(),
    }
}
