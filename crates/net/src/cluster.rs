//! Coordinator-side cluster membership: listen, handshake, profile
//! gossip, loss accounting.
//!
//! The coordinator owns a [`Cluster`] next to its [`Runtime`]. Each
//! accepted connection runs the hello/welcome handshake on the raw
//! stream (before any multiplexing):
//!
//! 1. worker → [`Frame::Hello`]: name, capabilities, and any profile
//!    hints cached from a previous membership — *inbound gossip* that
//!    warms the coordinator's scheduler;
//! 2. coordinator → [`Frame::Welcome`]: the node's dense id plus the
//!    coordinator's current hints — *outbound gossip* that lets the
//!    joining node cache warmth for its next life.
//!
//! The stream is then wrapped in a heartbeating [`Mux`] and attached to
//! the runtime via [`Runtime::attach_remote_node`]: the node's workers
//! become schedulable, its mirror space becomes a transfer destination.
//!
//! [`Membership`] persists across joins: a node that was lost mid-job
//! and rejoins is flagged `probation` (its prior losses are on record),
//! so operators — and the `cluster_bench`/CI harnesses — can see flaky
//! nodes re-enter rather than silently churn.

use crate::link::{HeartbeatConfig, Mux};
use crate::node::TcpRemoteNode;
use crate::protocol::{read_frame, write_frame, Frame, ProtoError};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use versa_core::profile::HintsError;
use versa_runtime::{RemoteCaps, Runtime};

/// What [`Membership`] remembers about one node name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeRecord {
    /// How many times a node with this name joined.
    pub joins: u32,
    /// How many times it was declared lost.
    pub losses: u32,
    /// Profile-hint records its latest join's inbound gossip applied
    /// (`Ok(0)` = it joined cold), or why the coordinator rejected
    /// those hints. A rejected cache does not refuse the join: the node
    /// serves cold.
    pub hints_applied: Result<usize, HintsError>,
}

impl Default for NodeRecord {
    fn default() -> Self {
        NodeRecord { joins: 0, losses: 0, hints_applied: Ok(0) }
    }
}

/// Per-name join/loss history, persisting across reconnects.
#[derive(Default)]
pub struct Membership {
    records: HashMap<String, NodeRecord>,
}

impl Membership {
    /// Record a join and what its gossip applied; returns `true` when
    /// the node enters on probation (it has prior losses on record).
    pub(crate) fn on_join(&mut self, name: &str, hints_applied: Result<usize, HintsError>) -> bool {
        let rec = self.records.entry(name.to_string()).or_default();
        rec.joins += 1;
        rec.hints_applied = hints_applied;
        rec.losses > 0
    }

    /// Record a loss.
    pub(crate) fn on_loss(&mut self, name: &str) {
        self.records.entry(name.to_string()).or_default().losses += 1;
    }

    /// The history for `name`, if any.
    pub fn record(&self, name: &str) -> Option<&NodeRecord> {
        self.records.get(name)
    }
}

/// The outcome of one accepted join.
#[derive(Clone, Debug)]
pub struct JoinInfo {
    /// The node's self-reported name.
    pub name: String,
    /// Its dense node id (1-based).
    pub node_id: u16,
    /// SMP workers it contributed.
    pub smp_workers: usize,
    /// Whether it rejoined with prior losses on record.
    pub probation: bool,
    /// Profile-hint records the node's inbound gossip applied to the
    /// coordinator's scheduler: 0 when it joined cold, or when its hints
    /// were rejected ([`NodeRecord::hints_applied`] holds why).
    pub hints_applied: usize,
}

/// One attached node, coordinator-side.
struct ClusterNode {
    name: String,
    transport: Arc<TcpRemoteNode>,
    /// Set once this node's loss has been recorded (reap idempotence).
    reaped: bool,
}

/// The coordinator's view of the cluster: listener + membership +
/// attached nodes.
pub struct Cluster {
    listener: TcpListener,
    /// Join/loss history across reconnects.
    pub membership: Membership,
    nodes: Vec<ClusterNode>,
}

impl Cluster {
    /// Bind the coordinator's listening socket.
    pub fn listen(addr: &str) -> Result<Cluster, ProtoError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Cluster { listener, membership: Membership::default(), nodes: Vec::new() })
    }

    /// The bound address (port 0 resolves here).
    pub fn local_addr(&self) -> Result<SocketAddr, ProtoError> {
        Ok(self.listener.local_addr()?)
    }

    /// Block for one worker connection, run the handshake, and attach
    /// its workers to `rt`.
    pub fn accept_node(&mut self, rt: &mut Runtime) -> Result<JoinInfo, ProtoError> {
        let (mut stream, peer) = self.listener.accept()?;
        stream.set_nodelay(true).ok();

        let (frame, tag) = read_frame(&mut stream)?.ok_or(ProtoError::Truncated)?;
        let Frame::Hello { name, smp_workers, simd_tier, hints } = frame else {
            return Err(ProtoError::BadPayload);
        };
        let name = if name.is_empty() { peer.to_string() } else { name };

        // Inbound gossip: a rejoining worker hands back the profile it
        // cached at its last shutdown.
        let hints_applied = if hints.is_empty() {
            Ok(0)
        } else {
            rt.load_hints(&hints).map(|(applied, _)| applied)
        };

        let node_id = (self.nodes.len() + 1) as u16;
        // Outbound gossip: whatever the coordinator has learned so far.
        let welcome_hints = rt.save_hints().unwrap_or_default();
        write_frame(&mut stream, &Frame::Welcome { node_id, hints: welcome_hints }, tag)?;

        let caps = RemoteCaps { name: name.clone(), smp_workers: smp_workers as usize, simd_tier };
        let mux = Mux::spawn(stream, Some(HeartbeatConfig::default()))?;
        let transport = Arc::new(TcpRemoteNode::new(caps, mux));
        let attached = rt.attach_remote_node(transport.clone());
        debug_assert_eq!(attached, node_id, "cluster and runtime node ids must agree");

        let applied = *hints_applied.as_ref().unwrap_or(&0);
        let probation = self.membership.on_join(&name, hints_applied);
        self.nodes.push(ClusterNode { name: name.clone(), transport, reaped: false });
        Ok(JoinInfo {
            name,
            node_id,
            smp_workers: smp_workers as usize,
            probation,
            hints_applied: applied,
        })
    }

    /// Record losses for nodes whose links died since the last call.
    /// Returns the names newly declared lost.
    pub fn reap(&mut self) -> Vec<String> {
        let mut lost = Vec::new();
        for n in &mut self.nodes {
            if !n.reaped && !n.transport.is_alive() {
                n.reaped = true;
                self.membership.on_loss(&n.name);
                lost.push(n.name.clone());
            }
        }
        lost
    }

    /// Cleanly shut down every live node, gossiping `rt`'s final hints
    /// so workers cache warmth for their next join.
    pub fn shutdown(&mut self, rt: &Runtime) {
        let hints = rt.save_hints().unwrap_or_default();
        for n in &self.nodes {
            if n.transport.is_alive() {
                n.transport.shutdown_with_hints(&hints);
            }
        }
        self.reap();
    }
}
