//! Shared driver code for the cluster binaries.
//!
//! `versa-cluster` and `versa-worker` speak the same job: a
//! native-engine tiled matmul whose coordinator accepts remote worker
//! processes before submitting, runs the graph across local + remote
//! workers, verifies the result against a serial recompute, and gossips
//! its learned profile at shutdown.
//! Keeping the driver here (rather than in each `src/bin/*.rs`) means
//! the CLIs, the CI smoke job, and `cluster_bench` cannot drift apart
//! on registration order or verification policy.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use versa_apps::matmul::{self, MatmulConfig, MatmulVariant, NativeMatmulData};
use versa_core::SchedulerKind;
use versa_mem::DataId;
use versa_net::{Cluster, JoinInfo, WorkerConfig, WorkerReport};
use versa_runtime::{NativeConfig, RunReport, Runtime, RuntimeConfig};

/// The result-verification gate shared by the CLIs and CI: a tiled
/// matmul over f64 data recomputed serially must agree to this bound.
pub const MAX_ERROR: f64 = 1e-9;

/// Parse a matmul variant name as the cluster CLIs spell them.
pub fn parse_variant(s: &str) -> Option<MatmulVariant> {
    match s {
        "gpu" => Some(MatmulVariant::Gpu),
        "hybrid" => Some(MatmulVariant::Hybrid),
        "wide" | "mm-wide" => Some(MatmulVariant::Wide),
        _ => None,
    }
}

/// One coordinator-side cluster job.
#[derive(Clone, Debug)]
pub struct CoordinatorOpts {
    /// Listen address (`host:port`; port 0 picks a free one).
    pub listen: String,
    /// Remote worker processes to wait for before submitting.
    pub expect: usize,
    /// Local SMP workers.
    pub smp: usize,
    /// Local (emulated) GPU workers.
    pub gpus: usize,
    /// Scheduler driving placement.
    pub scheduler: SchedulerKind,
    /// Which matmul version set to run.
    pub variant: MatmulVariant,
    /// Problem dimensions.
    pub config: MatmulConfig,
    /// Tile-content seed (workers verify against the same data).
    pub seed: u64,
    /// Write the bound address here once listening (lets scripts start
    /// the coordinator first and scrape the port for the workers).
    pub addr_file: Option<PathBuf>,
    /// Profile hints to warm the scheduler with before the run.
    pub warm_hints: Option<String>,
}

impl Default for CoordinatorOpts {
    fn default() -> CoordinatorOpts {
        CoordinatorOpts {
            listen: "127.0.0.1:0".into(),
            expect: 2,
            smp: 2,
            gpus: 1,
            scheduler: SchedulerKind::versioning(),
            variant: MatmulVariant::Hybrid,
            config: MatmulConfig { n: 1024, bs: 256 },
            seed: 42,
            addr_file: None,
            warm_hints: None,
        }
    }
}

/// What one coordinator job produced — everything a caller gates on.
pub struct CoordinatorOutcome {
    /// The bound listen address.
    pub addr: String,
    /// Per-node join outcomes, in accept order.
    pub joins: Vec<JoinInfo>,
    /// Wall time of each `accept_node` (handshake + gossip + attach).
    pub join_latencies: Vec<Duration>,
    /// The run report.
    pub report: RunReport,
    /// Largest deviation of the computed `C` from a serial recompute.
    pub max_error: f64,
    /// Wall time of the run itself.
    pub run_wall: Duration,
    /// The profile the coordinator learned (gossiped at shutdown).
    pub final_hints: Option<String>,
}

impl CoordinatorOutcome {
    /// The CI gate: run completed and the result verifies.
    pub fn verified(&self) -> bool {
        self.report.completed && self.max_error < MAX_ERROR
    }
}

/// Run one cluster coordinator job to completion: listen, accept
/// `expect` workers, run the matmul across local + remote workers,
/// verify, shut the cluster down cleanly.
pub fn run_coordinator(opts: &CoordinatorOpts) -> Result<CoordinatorOutcome, String> {
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(opts.scheduler.clone()),
        NativeConfig::new(opts.smp, opts.gpus),
    );
    if let Some(hints) = &opts.warm_hints {
        rt.load_hints(hints).map_err(|e| format!("bad warm hints: {e:?}"))?;
    }
    let template = matmul::register_native(&mut rt, opts.variant, opts.config.bs);

    let mut cluster =
        Cluster::listen(&opts.listen).map_err(|e| format!("listen on {}: {e}", opts.listen))?;
    let addr = cluster.local_addr().map_err(|e| e.to_string())?.to_string();
    if let Some(path) = &opts.addr_file {
        std::fs::write(path, &addr).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    eprintln!(
        "versa-cluster: listening on {addr}, waiting for {} worker(s), app matmul ({})",
        opts.expect,
        opts.variant.label()
    );

    let mut joins = Vec::with_capacity(opts.expect);
    let mut join_latencies = Vec::with_capacity(opts.expect);
    for _ in 0..opts.expect {
        let t0 = Instant::now();
        let j = cluster.accept_node(&mut rt).map_err(|e| format!("worker handshake: {e}"))?;
        join_latencies.push(t0.elapsed());
        let warmth = match cluster.membership.record(&j.name).map(|r| &r.hints_applied) {
            Some(Err(e)) => format!("cold (cached hints rejected: {e})"),
            _ if j.hints_applied > 0 => "gossip-warmed".to_string(),
            _ => "cold".to_string(),
        };
        eprintln!(
            "versa-cluster: node {} ({}) joined with {} workers, {warmth}{}",
            j.node_id,
            j.name,
            j.smp_workers,
            if j.probation { ", on probation" } else { "" },
        );
        joins.push(j);
    }

    // Real tile data: the verification gate recomputes C serially.
    let nb = opts.config.nb();
    let bs = opts.config.bs;
    let mk = |off: u64, rt: &mut Runtime| -> Vec<DataId> {
        (0..nb * nb)
            .map(|t| {
                let tile =
                    versa_kernels::verify::random_matrix_f64(bs, opts.seed + off + t as u64);
                rt.alloc_from_f64(&tile)
            })
            .collect()
    };
    let a = mk(1000, &mut rt);
    let b = mk(2000, &mut rt);
    let c: Vec<DataId> = (0..nb * nb).map(|_| rt.alloc_from_f64(&vec![0.0; bs * bs])).collect();
    matmul::submit_tasks(&mut rt, template, nb, &a, &b, &c);

    let t_run = Instant::now();
    let report = rt
        .run()
        .map_err(|e| format!("run aborted on {:?} ({:?}): {}", e.task, e.kind, e.message))?;
    let run_wall = t_run.elapsed();

    let mut read_all =
        |ids: &[DataId]| -> Vec<Vec<f64>> { ids.iter().map(|&t| rt.read_f64(t)).collect() };
    let data =
        NativeMatmulData { nb, bs, a: read_all(&a), b: read_all(&b), c: read_all(&c) };
    let max_error = data.max_error();
    let final_hints = rt.save_hints();
    cluster.shutdown(&rt);

    Ok(CoordinatorOutcome {
        addr,
        joins,
        join_latencies,
        report,
        max_error,
        run_wall,
        final_hints,
    })
}

/// How a worker-process CLI joins a cluster.
#[derive(Clone, Debug)]
pub struct WorkerOpts {
    /// Coordinator address to dial.
    pub connect: String,
    /// Self-reported node name (empty = peer address).
    pub name: String,
    /// SMP workers to advertise.
    pub workers: usize,
    /// Must match the coordinator's `--variant` (same version set).
    pub variant: MatmulVariant,
    /// Must match the coordinator's `--bs` (kernels bake the tile dim).
    pub bs: usize,
    /// Cache gossiped hints here across memberships.
    pub hints_cache: Option<PathBuf>,
}

impl Default for WorkerOpts {
    fn default() -> WorkerOpts {
        WorkerOpts {
            connect: String::new(),
            name: String::new(),
            workers: 2,
            variant: MatmulVariant::Hybrid,
            bs: 256,
            hints_cache: None,
        }
    }
}

/// Run a worker process to completion: dial, register the same matmul
/// kernels the coordinator registered, serve until shutdown.
pub fn run_matmul_worker(opts: &WorkerOpts) -> Result<WorkerReport, String> {
    let mut cfg = WorkerConfig::new(opts.connect.clone(), opts.workers);
    cfg.name = opts.name.clone();
    cfg.hints_cache = opts.hints_cache.clone();
    let (variant, bs) = (opts.variant, opts.bs);
    versa_net::run_worker(cfg, move |rt| {
        let _ = matmul::register_native(rt, variant, bs);
    })
    .map_err(|e| format!("worker failed: {e}"))
}
