//! `cluster_mm_loopback` — one process: coordinator `Runtime::native`
//! (1 SMP, 0 GPU) + 2 `versa_net::run_worker` threads × 1 SMP over
//! 127.0.0.1 TCP, matmul `Wide` n=1024 bs=128 (512 tasks, 128 KB tiles).
//! The first rep joins cold; every later rep is a fresh coordinator
//! whose workers hand back the profile gossiped to them at the previous
//! shutdown.
//!
//! Every remote task pays `Ship`/`Exec` frames on the synchronous native
//! loop, so `net` does most of the work: this is the workload the "one
//! coordinator drive loop" item must move. A same-size single-node
//! reference is measured alongside so the cluster/single ratio is
//! derivable.

use super::mm_native::{runtime_config, Tiles, MAX_ERROR};
use super::native::{self, NativeWorkload, Rep};
use super::{conclude, rep_loop, Ctx, RepTime};
use crate::metrics::Outcome;
use crate::spans::{Layer, Recorder};
use std::path::PathBuf;
use std::time::Instant;
use versa_apps::matmul::{self, MatmulConfig, MatmulVariant};
use versa_net::{Cluster, WorkerConfig};
use versa_runtime::{NativeConfig, Runtime};

const NODES: usize = 2;

struct ClusterMm {
    tiles: Tiles,
    /// Where the workers cache gossiped hints between memberships.
    hints_dir: PathBuf,
    accept_ms: Vec<f64>,
    /// Joins that arrived with hints, and joins in total.
    warm_joins: (u64, u64),
}

impl ClusterMm {
    fn hints_path(&self, node: usize) -> PathBuf {
        self.hints_dir.join(format!("w{node}.hints"))
    }
}

impl NativeWorkload for ClusterMm {
    const NAME: &'static str = "cluster_mm_loopback";

    fn flops(&self) -> f64 {
        self.tiles.config.flops()
    }

    fn tolerance(&self) -> f64 {
        MAX_ERROR
    }

    fn rep(&mut self, traced: bool, rec: &mut Recorder, req: u64, verify: bool) -> Rep {
        let bs = self.tiles.config.bs;
        let rep_span = rec.begin("rep", Layer::Bench, req);
        let t_setup = Instant::now();
        let s = rec.begin("Runtime::native", Layer::Runtime, req);
        let local = NativeConfig {
            smp_workers: 1,
            gpus: 0,
            gpu_lanes: 1,
            link_bandwidth: None,
        };
        let mut rt = Runtime::native(runtime_config(traced), local);
        rec.end(s);
        let s = rec.begin("matmul::register_native", Layer::Apps, req);
        let template = matmul::register_native(&mut rt, MatmulVariant::Wide, bs);
        rec.end(s);

        let s = rec.begin("Cluster::listen", Layer::Net, req);
        let mut cluster = Cluster::listen("127.0.0.1:0").expect("bind a loopback port");
        let addr = cluster.local_addr().expect("bound address").to_string();
        rec.end(s);
        let workers: Vec<_> = (0..NODES)
            .map(|i| {
                let mut cfg = WorkerConfig::new(addr.clone(), 1);
                cfg.name = format!("bench-w{i}");
                cfg.hints_cache = Some(self.hints_path(i));
                std::thread::spawn(move || {
                    versa_net::run_worker(cfg, move |rt| {
                        matmul::register_native(rt, MatmulVariant::Wide, bs);
                    })
                })
            })
            .collect();
        for _ in 0..NODES {
            let s = rec.begin("Cluster::accept_node", Layer::Net, req);
            let t0 = Instant::now();
            let join = cluster.accept_node(&mut rt).expect("worker handshake");
            self.accept_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rec.end(s);
            self.warm_joins.0 += u64::from(join.hints_applied > 0);
            self.warm_joins.1 += 1;
        }

        let rep = self.tiles.solve(
            &mut rt,
            template,
            t_setup.elapsed().as_secs_f64(),
            rec,
            req,
            verify,
        );

        let s = rec.begin("Cluster::shutdown", Layer::Net, req);
        cluster.shutdown(&rt);
        for w in workers {
            w.join()
                .expect("worker thread panicked")
                .expect("worker ended with a protocol error");
        }
        rec.end(s);
        rec.end(rep_span);
        rep
    }
}

/// The same problem on one node: 3 local SMP workers, no network.
fn single_node_solve_ms(tiles: &Tiles, budget_s: f64) -> Vec<f64> {
    let one = || {
        let mut rt = Runtime::native(
            runtime_config(false),
            NativeConfig {
                smp_workers: 1 + NODES,
                gpus: 0,
                gpu_lanes: 1,
                link_bandwidth: None,
            },
        );
        let template = matmul::register_native(&mut rt, MatmulVariant::Wide, tiles.config.bs);
        let rep = tiles.solve(&mut rt, template, 0.0, &mut Recorder::off(), 0, false);
        RepTime {
            setup_s: rep.setup_s,
            solve_s: rep.solve_s,
            rss_mb: rep.rss_mb,
        }
    };
    one();
    rep_loop(budget_s, |_| one()).solve_ms()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let config = if ctx.quick {
        MatmulConfig { n: 512, bs: 128 }
    } else {
        MatmulConfig { n: 1024, bs: 128 }
    };
    let hints_dir = ctx
        .out_dir
        .join(format!("cluster-hints-{}", std::process::id()));
    std::fs::create_dir_all(&hints_dir).expect("create the hint-cache directory");
    let mut w = ClusterMm {
        tiles: Tiles::new(config, ctx.seed),
        hints_dir,
        accept_ms: Vec::new(),
        warm_joins: (0, 0),
    };

    // Rep 0: empty hint caches, the scheduler learns over the wire.
    let cold = w.rep(false, &mut Recorder::off(), u64::MAX, true);
    let cold_ok = cold.error.is_some_and(|e| e < MAX_ERROR) && w.warm_joins.0 == 0;
    w.warm_joins = (0, 0);

    let mut r = native::run(ctx, &mut w);
    let all_warm = w.warm_joins.0 == w.warm_joins.1;
    if ctx.trace {
        r.samples.set("net.cold_solve_ms", cold.solve_s * 1e3);
        r.samples.set_samples("net.accept_node_ms", &w.accept_ms);
        r.samples.set_samples(
            "net.single_node_solve_ms_p50",
            &single_node_solve_ms(&w.tiles, ctx.seconds * 0.05),
        );
    }
    std::fs::remove_dir_all(&w.hints_dir).expect("remove the hint-cache directory");
    println!(
        "# cluster_mm_loopback: cold solve {:.1} ms (verified: {cold_ok}); {} of {} later joins gossip-warmed",
        cold.solve_s * 1e3,
        w.warm_joins.0,
        w.warm_joins.1
    );
    conclude(
        ctx,
        r.samples,
        r.attempted,
        r.failed,
        r.correct && cold_ok && all_warm,
    )
}
