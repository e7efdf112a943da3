//! `versa-worker` — a remote worker process for a versa cluster.
//!
//! Dials a `versa-cluster` coordinator, advertises its SMP workers,
//! registers the same matmul kernels the coordinator registered, then
//! serves tile shipments and task dispatches until the coordinator shuts
//! the cluster down:
//!
//! ```text
//! versa-worker --connect 127.0.0.1:7070 --name node-a --workers 2
//! versa-worker --connect 127.0.0.1:7070 --variant wide --bs 256 \
//!              --hints-cache /tmp/node-a.hints
//! ```
//!
//! `--variant` and `--bs` must match the coordinator's flags — template
//! names resolve against the worker's own kernel registry, closures
//! never cross the wire. With `--hints-cache`, the coordinator's
//! shutdown gossip is cached to disk and handed back on the next join,
//! warming a fresh coordinator past its learning phase.

use versa::cluster_cli::{self, WorkerOpts};

fn usage() -> ! {
    eprintln!(
        "usage: versa-worker --connect HOST:PORT [--name NAME] [--workers N]\n\
         \x20                 [--variant gpu|hybrid|wide] [--bs TILE]\n\
         \x20                 [--hints-cache PATH] [--addr-file PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = WorkerOpts::default();
    let mut addr_file: Option<String> = None;
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => opts.connect = value(&mut it),
            "--name" => opts.name = value(&mut it),
            "--workers" => opts.workers = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--variant" => {
                opts.variant =
                    cluster_cli::parse_variant(&value(&mut it)).unwrap_or_else(|| usage())
            }
            "--bs" => opts.bs = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--hints-cache" => opts.hints_cache = Some(value(&mut it).into()),
            "--addr-file" => addr_file = Some(value(&mut it)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    // `--addr-file` reads the address a coordinator wrote with its own
    // `--addr-file` flag — lets scripts start both sides with port 0.
    if let Some(path) = addr_file {
        if !opts.connect.is_empty() {
            eprintln!("--connect and --addr-file are mutually exclusive");
            usage();
        }
        opts.connect = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| {
                eprintln!("cannot read coordinator address from {path}: {e}");
                std::process::exit(1);
            })
            .trim()
            .to_string();
    }
    if opts.connect.is_empty() {
        usage();
    }

    match cluster_cli::run_matmul_worker(&opts) {
        Ok(report) => {
            println!(
                "versa-worker: served as node {} — {} tasks executed, {} tiles received{}",
                report.node_id,
                report.execs,
                report.ships,
                match &report.hints_applied {
                    Ok(0) => ", joined cold".to_string(),
                    Ok(n) => format!(", joined gossip-warmed ({n} hints)"),
                    Err(e) => format!(", joined cold (welcome hints rejected: {e})"),
                }
            );
        }
        Err(e) => {
            eprintln!("versa-worker: {e}");
            std::process::exit(1);
        }
    }
}
