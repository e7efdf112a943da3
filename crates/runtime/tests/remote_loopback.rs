//! In-process loopback tests for the remote-node data plane: a mock
//! [`RemoteNode`] standing in for a `versa-net` worker process. These
//! prove the coordinator-side machinery — staged mirror-space shipping
//! overlapped with execution, name-based dispatch, write-back, node-loss
//! retirement/requeue, NIC bandwidth learning — without any sockets.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use versa_core::{DeviceKind, FailureKind, SchedulerKind, VersionId};
use versa_mem::{DataId, IdMap, MemSpace};
use versa_runtime::{
    NativeConfig, RemoteCaps, RemoteDone, RemoteError, RemoteExec, RemoteNode, Runtime,
    RuntimeConfig,
};
use versa_trace::TraceEvent;

/// A stand-in for a remote worker process: its own byte store (the
/// "remote arena") plus the same `scale2` kernel the coordinator binds
/// locally. Optionally dies after a fixed number of executions or
/// shipments, and optionally takes a fixed time per call.
struct MockNode {
    workers: usize,
    store: Mutex<IdMap<DataId, Vec<u8>>>,
    execs: AtomicU32,
    ships: AtomicU32,
    /// Executions before the node "dies" (`u32::MAX` = immortal).
    fail_after: u32,
    /// Shipments before the link "dies" (`u32::MAX` = never).
    fail_ship_after: AtomicU32,
    /// Wall time every `ship` / `exec` call takes.
    ship_latency: Duration,
    exec_latency: Duration,
}

impl MockNode {
    fn new(workers: usize, fail_after: u32) -> MockNode {
        MockNode {
            workers,
            store: Mutex::new(IdMap::default()),
            execs: AtomicU32::new(0),
            ships: AtomicU32::new(0),
            fail_after,
            fail_ship_after: AtomicU32::new(u32::MAX),
            ship_latency: Duration::ZERO,
            exec_latency: Duration::ZERO,
        }
    }
}

impl RemoteNode for MockNode {
    fn caps(&self) -> RemoteCaps {
        RemoteCaps {
            name: "mock:0".into(),
            smp_workers: self.workers,
            simd_tier: "scalar".into(),
        }
    }

    fn ship(&self, data: DataId, bytes: &[u8]) -> Result<(), RemoteError> {
        if self.execs.load(Ordering::SeqCst) >= self.fail_after
            || self.ships.fetch_add(1, Ordering::SeqCst) >= self.fail_ship_after.load(Ordering::SeqCst)
        {
            return Err(RemoteError::Lost("connection reset".into()));
        }
        std::thread::sleep(self.ship_latency);
        self.store.lock().unwrap().insert(data, bytes.to_vec());
        Ok(())
    }

    fn exec(&self, req: &RemoteExec) -> Result<RemoteDone, RemoteError> {
        let n = self.execs.fetch_add(1, Ordering::SeqCst);
        if n >= self.fail_after {
            return Err(RemoteError::Lost("connection reset".into()));
        }
        if req.template != "scale2" {
            return Err(RemoteError::Task(format!("unknown template {:?}", req.template)));
        }
        let mut store = self.store.lock().unwrap();
        let acc = &req.accesses[0];
        // Out-only buffers were never shipped; materialize them zeroed,
        // exactly as the real worker process does.
        let bytes = store
            .entry(acc.region.data)
            .or_insert_with(|| vec![0u8; acc.alloc_len as usize]);
        for chunk in bytes.chunks_exact_mut(8) {
            let v = f64::from_ne_bytes(chunk.try_into().unwrap());
            chunk.copy_from_slice(&(v * 2.0).to_ne_bytes());
        }
        let writes = vec![(acc.region.data, bytes.clone())];
        drop(store);
        std::thread::sleep(self.exec_latency);
        Ok(RemoteDone { kernel_time: Duration::from_micros(50).max(self.exec_latency), writes })
    }
}

/// 2 local SMP workers, `scale2` bound; the caller decides whether to
/// attach a remote node before submitting.
fn scale2_runtime() -> (Runtime, versa_core::TemplateId) {
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        NativeConfig::new(2, 0),
    );
    let tpl = rt.template("scale2").main("smp", &[DeviceKind::Smp]).register();
    rt.bind_native(tpl, VersionId(0), |ctx| {
        for v in ctx.f64_mut(0) {
            *v *= 2.0;
        }
    });
    (rt, tpl)
}

/// Run `rounds` dependent `scale2` passes over `bufs` buffers and return
/// the final contents of each.
fn run_scale2(rt: &mut Runtime, tpl: versa_core::TemplateId, bufs: usize, rounds: usize) -> Vec<Vec<f64>> {
    let ids: Vec<DataId> =
        (0..bufs).map(|i| rt.alloc_from_f64(&[i as f64 + 1.0, 0.5, -3.25, 1e6])).collect();
    for _ in 0..rounds {
        for &id in &ids {
            rt.task(tpl).read_write(id).submit();
        }
    }
    rt.run().expect("run failed");
    ids.iter().map(|&id| rt.read_f64(id)).collect()
}

#[test]
fn loopback_cluster_matches_single_process() {
    let (mut local, tpl) = scale2_runtime();
    let expected = run_scale2(&mut local, tpl, 8, 3);

    let (mut clustered, tpl) = scale2_runtime();
    let node = Arc::new(MockNode::new(2, u32::MAX));
    let id = clustered.attach_remote_node(node.clone());
    assert_eq!(id, 1);
    assert_eq!(clustered.workers().len(), 4, "2 local + 2 remote workers");
    let got = run_scale2(&mut clustered, tpl, 8, 3);

    assert_eq!(got, expected, "cluster results must be numerically identical");
    assert!(
        node.execs.load(Ordering::SeqCst) > 0,
        "remote workers never executed anything"
    );
    assert!(node.ships.load(Ordering::SeqCst) > 0, "no tiles were shipped");
}

#[test]
fn node_loss_mid_job_requeues_and_completes() {
    let (mut rt, tpl) = scale2_runtime();
    rt.config_mut().tracing = versa_trace::TraceConfig::on();
    let node = Arc::new(MockNode::new(2, 3));
    rt.attach_remote_node(node.clone());

    let ids: Vec<DataId> = (0..12).map(|i| rt.alloc_from_f64(&[i as f64, 1.0])).collect();
    for _ in 0..3 {
        for &id in &ids {
            rt.task(tpl).read_write(id).submit();
        }
    }
    let report = rt.run().expect("node loss must not abort the run");
    assert!(report.completed, "all tasks must complete via requeue");
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(rt.read_f64(id), vec![i as f64 * 8.0, 8.0], "results correct after requeue");
    }

    let lost: Vec<_> = report
        .failures
        .events
        .iter()
        .filter(|f| f.kind == FailureKind::NodeLost)
        .collect();
    assert!(!lost.is_empty(), "the loss must be reported as NodeLost failures");
    assert!(report.failures.retries >= lost.len() as u64, "each loss requeues");
    assert!(
        report.failures.quarantined.is_empty(),
        "node loss must not quarantine versions: {:?}",
        report.failures.quarantined
    );

    // The trace records the loss, places remote workers on node 1, and
    // upholds the cross-node invariant (nothing starts on the dead node
    // after the loss).
    let trace = report.trace.expect("tracing was on");
    assert!(
        trace.events().iter().any(|e| matches!(e, TraceEvent::NodeLost { node: 1, .. })),
        "trace must record the node loss"
    );
    assert!(trace.meta.workers.iter().any(|w| w.node == 1));
    let violations = versa_trace::invariants::check(&trace);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn remote_link_bandwidth_is_learned() {
    let (mut rt, tpl) = scale2_runtime();
    rt.attach_remote_node(Arc::new(MockNode::new(2, u32::MAX)));
    // NativeConfig::new(2, 0) has no GPUs, so the mirror space of node 1
    // is the arena's first device space.
    let mirror = MemSpace::device(0);
    assert!(
        rt.versioning().unwrap().measured_bandwidth(mirror).is_none(),
        "no NIC samples before any shipment"
    );
    run_scale2(&mut rt, tpl, 6, 2);
    let bw = rt
        .versioning()
        .unwrap()
        .measured_bandwidth(mirror)
        .expect("shipping tiles must feed the bandwidth EWMA");
    assert!(bw > 0.0, "learned NIC bandwidth must be positive, got {bw}");
}

/// A coordinator whose only local worker is an emulated GPU, with
/// `scale2` as `smp` (runnable only on a remote node's SMP workers —
/// there are no local ones) and, with `cuda_cost` set, also as `cuda`
/// (the local GPU, taking that long per task).
fn gpu_coordinator(cuda_cost: Option<Duration>) -> (Runtime, versa_core::TemplateId) {
    let mut cfg = RuntimeConfig::with_scheduler(SchedulerKind::versioning());
    cfg.tracing = versa_trace::TraceConfig::on();
    let mut rt = Runtime::native(cfg, NativeConfig::new(0, 1));
    let builder = rt.template("scale2").main("smp", &[DeviceKind::Smp]);
    let tpl = match cuda_cost {
        Some(_) => builder.version("cuda", &[DeviceKind::Cuda]).register(),
        None => builder.register(),
    };
    // Never runs here (no local SMP worker); the node has its own.
    rt.bind_native(tpl, VersionId(0), |_| {});
    if let Some(cost) = cuda_cost {
        rt.bind_native(tpl, VersionId(1), move |ctx| {
            std::thread::sleep(cost);
            for v in ctx.f64_mut(0) {
                *v *= 2.0;
            }
        });
    }
    (rt, tpl)
}

#[test]
fn shipment_overlaps_remote_execution() {
    // Every task must run on the single remote worker: 2 ms to ship its
    // tile, 2 ms to execute. The old engine paid those back to back on
    // the coordinator thread; the staged lane ships task k+1 while task
    // k executes.
    let (mut rt, tpl) = gpu_coordinator(None);
    let latency = Duration::from_millis(2);
    let node = Arc::new(MockNode {
        ship_latency: latency,
        exec_latency: latency,
        ..MockNode::new(1, u32::MAX)
    });
    rt.attach_remote_node(node.clone());
    let remote = rt.workers().len() - 1;

    let tasks = 12;
    let ids: Vec<DataId> = (0..tasks).map(|i| rt.alloc_from_f64(&[i as f64, 1.0])).collect();
    for &id in &ids {
        rt.task(tpl).read_write(id).submit();
    }
    let report = rt.run().expect("run failed");
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(rt.read_f64(id), vec![i as f64 * 2.0, 2.0]);
    }
    assert_eq!(report.worker_task_counts[remote], tasks as u64, "only the node can run `smp`");

    let lane = &report.worker_transfers[remote];
    assert_eq!(lane.staged_count, tasks as u64, "one tile shipped per task");
    assert!(lane.stage_time >= latency * tasks as u32, "ship time is staged time: {lane:?}");
    assert!(lane.overlap_ratio() > 0.0, "shipment must hide under execution: {lane:?}");
    let serial = lane.stage_time + lane.compute_time;
    assert!(
        report.makespan < serial,
        "makespan {:?} must beat shipping and executing back to back ({serial:?})",
        report.makespan
    );
    assert!(versa_trace::invariants::check(&report.trace.unwrap()).is_empty());
}

#[test]
fn lost_shipment_requeues_the_lane_without_charging_anyone() {
    // The local GPU is slow next to the node, so once the scheduler has
    // learned both versions it queues most of a batch on the node's lane
    // in one planning pass.
    let (mut rt, tpl) = gpu_coordinator(Some(Duration::from_micros(500)));
    rt.config_mut().max_task_retries = 0;
    let node = Arc::new(MockNode::new(1, u32::MAX));
    rt.attach_remote_node(node.clone());
    let remote = versa_core::WorkerId((rt.workers().len() - 1) as u16);
    let batch = |rt: &mut Runtime| -> Vec<DataId> {
        let ids: Vec<DataId> = (0..16).map(|i| rt.alloc_from_f64(&[i as f64, 1.0])).collect();
        for &id in &ids {
            rt.task(tpl).read_write(id).submit();
        }
        ids
    };

    // Batch 1, healthy node: the learning phase completes.
    batch(&mut rt);
    let warm = rt.run().expect("healthy run failed");
    assert!(warm.worker_task_counts[remote.index()] > 0 && warm.failures.is_clean());

    // Batch 2: the link dies on its first shipment. Everything the
    // coordinator queued on the node's lane behind that task is bounced
    // back uncharged; the task itself is a NodeLost failure that costs
    // neither a retry (the budget here is zero) nor a quarantine strike;
    // all of it completes on the local GPU.
    node.fail_ship_after.store(node.ships.load(Ordering::SeqCst), Ordering::SeqCst);
    let execs_before = node.execs.load(Ordering::SeqCst);
    let ids = batch(&mut rt);
    let report = rt.run().expect("a lost node must not abort a run, even with no retry budget");
    assert!(report.completed);
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(rt.read_f64(id), vec![i as f64 * 2.0, 2.0], "results correct after requeue");
    }
    assert_eq!(node.execs.load(Ordering::SeqCst), execs_before, "nothing shipped, nothing ran");
    assert_eq!(report.worker_task_counts[remote.index()], 0);

    // One task owned the failing shipment; the rest of the lane was
    // planned onto the node before the loss and bounced without a
    // failure event.
    let trace = report.trace.expect("tracing was on");
    let planned_remote = trace.decisions().filter(|d| d.worker == remote).count();
    assert!(planned_remote >= 2, "the scenario needs a queue behind the failing task");
    assert_eq!(report.failures.events.len(), 1, "{:?}", report.failures.events);
    assert_eq!(report.failures.events[0].kind, FailureKind::NodeLost);
    assert_eq!(report.failures.retries, 1);
    assert!(report.failures.quarantined.is_empty(), "{:?}", report.failures.quarantined);

    assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::NodeLost { node: 1, .. })));
    assert!(
        !trace.events().iter().any(
            |e| matches!(e, TraceEvent::TaskStart { worker, .. } if *worker == remote)
        ),
        "no task may start on the lost node"
    );
    let violations = versa_trace::invariants::check(&trace);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn queued_work_of_a_lost_node_returns_to_the_pool_unplanned() {
    // As above, but with no lookahead: the node's lane holds the one
    // task whose shipment fails, and the rest of what the scheduler
    // queued on the node waits unplanned behind it.
    let (mut rt, tpl) = gpu_coordinator(Some(Duration::from_micros(500)));
    rt.config_mut().lookahead_depth = 0;
    let node = Arc::new(MockNode::new(1, u32::MAX));
    rt.attach_remote_node(node.clone());
    let remote = versa_core::WorkerId((rt.workers().len() - 1) as u16);
    let batch = |rt: &mut Runtime| -> Vec<DataId> {
        let ids: Vec<DataId> = (0..16).map(|i| rt.alloc_from_f64(&[i as f64, 1.0])).collect();
        for &id in &ids {
            rt.task(tpl).read_write(id).submit();
        }
        ids
    };
    batch(&mut rt);
    let warm = rt.run().expect("healthy run failed");
    assert!(warm.worker_task_counts[remote.index()] > 0 && warm.failures.is_clean());

    node.fail_ship_after.store(node.ships.load(Ordering::SeqCst), Ordering::SeqCst);
    let ids = batch(&mut rt);
    let report = rt.run().expect("a lost node must not abort the run");
    assert!(report.completed);
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(rt.read_f64(id), vec![i as f64 * 2.0, 2.0], "results correct after requeue");
    }
    let trace = report.trace.expect("tracing was on");
    let queued_remote = trace.decisions().filter(|d| d.worker == remote).count();
    assert!(queued_remote >= 4, "the scenario needs 3 queued behind the failing task");
    // Only the planned task made a copy toward the node, and only it is
    // charged: the queued ones went back to the pool without a failure.
    assert_eq!(report.worker_transfers[remote.index()].staged_count, 1);
    assert_eq!(report.failures.events.len(), 1, "{:?}", report.failures.events);
    assert_eq!(report.failures.events[0].kind, FailureKind::NodeLost);
    assert_eq!(report.failures.retries, 1);
    let failed = trace.events().iter().filter(|e| matches!(e, TraceEvent::TaskFailed { .. }));
    assert_eq!(failed.count(), 1);
    assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::NodeLost { node: 1, .. })));
    let violations = versa_trace::invariants::check(&trace);
    assert!(violations.is_empty(), "{violations:?}");
}
