//! Multi-node simulation: remote-node workers behind NIC links, and
//! node-level fault injection (satellite of the versa-net subsystem).
//! Proves the virtual-time cluster honours the same failure contract as
//! the TCP one: a lost node's tasks are requeued, the node is never
//! rescheduled, no version is quarantined for a node's death, and the
//! run completes on the surviving workers with a coherent report.

use std::time::Duration;
use versa_core::{DeviceKind, FailureKind, SchedulerKind, VersionId, WorkerId};
use versa_mem::DataId;
use versa_runtime::{Runtime, RuntimeConfig};
use versa_sim::{FaultRule, NodeFaultRule, PlatformConfig, SimNode, TraceEvent};
use versa_trace::TraceConfig;

const TASKS: usize = 48;
const TILE: u64 = 1 << 20;

/// 2 local SMP workers + the given remote nodes, one 1 ms template,
/// `TASKS` independent tasks over 1 MB tiles.
fn cluster_rt(nodes: Vec<SimNode>, node_rules: Vec<NodeFaultRule>) -> Runtime {
    cluster_rt_with(nodes, node_rules, SchedulerKind::versioning())
}

fn cluster_rt_with(
    nodes: Vec<SimNode>,
    node_rules: Vec<NodeFaultRule>,
    scheduler: SchedulerKind,
) -> Runtime {
    let mut platform = PlatformConfig::minotauro(2, 0);
    platform.nodes = nodes;
    platform.faults.node_rules = node_rules;
    let config = RuntimeConfig {
        tracing: TraceConfig::on(),
        ..RuntimeConfig::with_scheduler(scheduler)
    };
    let mut rt = Runtime::simulated(config, platform);
    let tpl = rt.template("work").main("smp", &[DeviceKind::Smp]).register();
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(1));
    let tiles: Vec<DataId> = (0..TASKS).map(|_| rt.alloc_bytes(TILE)).collect();
    for &t in &tiles {
        rt.task(tpl).read_write(t).submit();
    }
    rt
}

/// A node with `workers` workers behind a deliberately slow NIC
/// (100 MB/s, so 1 MB tile shipments dominate and the learned-bandwidth
/// bids become visible).
fn slow_node(workers: usize) -> SimNode {
    let mut n = SimNode::new(workers);
    n.nic.bandwidth = 1e8;
    n.nic.latency = Duration::from_micros(50);
    n
}

#[test]
fn nodes_extend_the_worker_pool_and_map_to_node_ids() {
    let rt = cluster_rt(vec![SimNode::new(2), SimNode::new(3)], vec![]);
    let workers = rt.workers();
    assert_eq!(workers.len(), 2 + 2 + 3);
    assert!(workers.iter().all(|w| w.device == DeviceKind::Smp));
    let nodes: Vec<u16> = (0..workers.len())
        .map(|i| rt.node_of_worker(WorkerId(i as u16)))
        .collect();
    assert_eq!(nodes, vec![0, 0, 1, 1, 2, 2, 2]);
}

#[test]
fn node_drop_mid_run_requeues_and_completes() {
    let mut rt = cluster_rt(
        vec![slow_node(2)],
        vec![NodeFaultRule::drop_node(1, Duration::from_millis(4))],
    );
    let report = rt.run().expect("node loss alone must never abort a run");

    assert!(report.completed, "all tasks completed on the survivors");
    assert_eq!(report.tasks_executed, TASKS as u64);
    let lost: Vec<_> = report
        .failures
        .events
        .iter()
        .filter(|f| f.kind == FailureKind::NodeLost)
        .collect();
    assert!(!lost.is_empty(), "tasks were running on the node when it died");
    assert!(
        lost.iter().all(|f| rt.node_of_worker(f.worker) == 1),
        "NodeLost failures are all attributed to the dead node's workers"
    );
    assert!(
        report.failures.quarantined.is_empty(),
        "a node's death must not quarantine any version"
    );
    assert_eq!(
        report.failures.retries as usize,
        report.failures.events.len(),
        "every lost attempt was retried"
    );
    // Coherent partial accounting: per-worker completions sum to the
    // total, and the dead node's workers stop contributing after the
    // loss (they executed a handful of tasks at most).
    assert_eq!(report.worker_task_counts.iter().sum::<u64>(), TASKS as u64);
    let on_dead_node: u64 = report.worker_task_counts[2..4].iter().sum();
    assert!(
        on_dead_node < TASKS as u64 / 2,
        "retired workers kept executing: {on_dead_node} tasks on the dead node"
    );

    let trace = report.trace.as_ref().expect("tracing was on");
    let violations = versa_trace::invariants::check(trace);
    assert!(violations.is_empty(), "trace invariants violated: {violations:?}");
    assert!(
        trace.events().iter().any(|e| matches!(e, TraceEvent::NodeLost { node: 1, .. })),
        "the loss itself is a first-class trace event"
    );
}

#[test]
fn heartbeat_timeout_is_detected_late_but_handled_identically() {
    // Default (fast) NICs: tasks start promptly, so the recorded loss
    // stamps track detection times rather than straggling starts.
    let mut rt = cluster_rt(
        vec![SimNode::new(1), SimNode::new(1)],
        vec![
            NodeFaultRule::drop_node(1, Duration::from_millis(3)),
            NodeFaultRule::heartbeat_timeout(2, Duration::from_millis(3)),
        ],
    );
    let report = rt.run().expect("losing every remote node still completes locally");
    assert!(report.completed);
    assert_eq!(report.tasks_executed, TASKS as u64);

    let trace = report.trace.as_ref().expect("tracing was on");
    let losses: Vec<(u64, u16)> = trace
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::NodeLost { time, node } => Some((time.0, node)),
            _ => None,
        })
        .collect();
    let drop_at = losses.iter().find(|&&(_, n)| n == 1).expect("node 1 loss recorded").0;
    let hb_at = losses.iter().find(|&&(_, n)| n == 2).expect("node 2 loss recorded").0;
    assert!(
        hb_at > drop_at,
        "same fault time, but heartbeat silence is detected a timeout later \
         (drop at {drop_at} ns, heartbeat at {hb_at} ns)"
    );
    let violations = versa_trace::invariants::check(trace);
    assert!(violations.is_empty(), "trace invariants violated: {violations:?}");
}

#[test]
fn node_loss_does_not_spend_the_retry_budget() {
    // One local worker (w0) and a one-worker node (w1) that drops at
    // 0.5 ms. Task `b` is lost with its node, then faults once on w0:
    // with a budget of one retry it must still complete, because the
    // node loss was charged to the node, not to the task.
    let mut platform = PlatformConfig::minotauro(1, 0);
    platform.nodes = vec![SimNode::new(1)];
    let config = RuntimeConfig { max_task_retries: 1, ..RuntimeConfig::default() };
    let mut rt = Runtime::simulated(config, platform);
    let a = rt.template("a").main("a_smp", &[DeviceKind::Smp]).register();
    let b = rt.template("b").main("b_smp", &[DeviceKind::Smp]).register();
    for tpl in [a, b] {
        rt.bind_cost(tpl, VersionId(0), |_| Duration::from_millis(1));
        let d = rt.alloc_bytes(TILE);
        rt.task(tpl).read_write(d).submit();
    }
    rt.set_fault_plan(versa_sim::FaultPlan {
        rules: vec![FaultRule {
            template: Some(b),
            version: None,
            worker: Some(WorkerId(0)),
            probability: 1.0,
            max_failures: Some(1),
        }],
        node_rules: vec![NodeFaultRule::drop_node(1, Duration::from_micros(500))],
    });

    let report = rt.run().expect("a node loss must not spend the retry budget");
    assert!(report.completed);
    assert_eq!(report.tasks_executed, 2);
    let failures: Vec<(FailureKind, u32, WorkerId)> =
        report.failures.events.iter().map(|f| (f.kind, f.attempt, f.worker)).collect();
    assert_eq!(
        failures,
        [(FailureKind::NodeLost, 1, WorkerId(1)), (FailureKind::Fault, 2, WorkerId(0))]
    );
    assert_eq!(report.failures.retries, 2);
}

#[test]
fn remote_bids_price_the_nic_link() {
    // The §VII locality-aware extension is what turns the learned
    // bandwidth EWMA into a transfer term inside each bid.
    let mut rt = cluster_rt_with(
        vec![slow_node(2)],
        vec![],
        SchedulerKind::locality_versioning(),
    );
    let report = rt.run().expect("run failed");
    assert!(report.completed);

    // With tracing on, the engine drains every scheduler decision into
    // the trace. Reliable-phase decisions carry every bid considered;
    // remote-node workers must be bidding, and once the bandwidth EWMA
    // has observed NIC shipments their transfer estimates are non-zero
    // (the scheduler has learned the link like a PCIe lane).
    let trace = report.trace.as_ref().expect("tracing was on");
    let remote_bids: Vec<&versa_trace::Bid> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Decision(d) => Some(d.bids.iter()),
            _ => None,
        })
        .flatten()
        .filter(|b| rt.node_of_worker(b.worker) == 1)
        .collect();
    assert!(!remote_bids.is_empty(), "remote workers never entered an auction");
    assert!(
        remote_bids.iter().any(|b| b.transfer > Duration::ZERO),
        "no remote bid priced the NIC shipment: the link EWMA never learned"
    );
}
