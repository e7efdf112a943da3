//! Remote node attachment: the coordinator-side abstraction that makes a
//! remote machine's workers schedulable like local ones.
//!
//! A remote node registers with its capabilities ([`RemoteCaps`]) and is
//! attached via [`Runtime::attach_remote_node`]. Attachment grows the
//! native arena by one *mirror space* — the coordinator's local image of
//! the node's memory — and appends one [`WorkerState`](versa_core::WorkerState)
//! per advertised worker, all bound to that space. From the scheduler's
//! point of view nothing is special: the mirror space is just another
//! [`MemSpace`] whose copy-in cost the per-destination bandwidth EWMA
//! learns online, so NIC links are priced exactly like PCIe links.
//!
//! Data plane — the node boundary is just another device boundary, so a
//! remote worker gets the same stager → exec lane pair as a local one
//! (DESIGN.md §2.2, §7). The coordinator thread only *plans*; it never
//! touches the wire:
//!
//! * **Copy-in**: a transfer the directory plans into a mirror space is
//!   an ordinary staged copy on the destination lane, with an epilogue:
//!   the lane's stager performs the local `memcpy` into the mirror and
//!   puts the bytes on the wire ([`RemoteNode::ship_begin`]). All of a
//!   task's tiles may be in flight at once; the stager collects every
//!   acknowledgement before it forwards the task, so the node holds all
//!   inputs before it is asked to execute. Each copy's measured window
//!   (copy + wire + ack) is the sample fed to `transfer_done`, so the
//!   bandwidth EWMA measures the real NIC.
//! * **Execution**: the lane's exec thread forwards the task through
//!   [`RemoteNode::exec`] (template *name* + version — closures don't
//!   cross the wire; the remote process binds its own kernels) and
//!   writes the returned output buffers back into the mirror space. All
//!   later reads (flushes, dependent tasks) hit the mirror, never the
//!   network. While it waits, the stager is already shipping the next
//!   task's tiles (`lookahead_depth`), so shipment overlaps both local
//!   and remote kernels.
//! * **Loss**: a transport error surfaces as [`RemoteError::Lost`]; the
//!   engine retires every worker of the node, fails the tasks whose own
//!   shipment or execution hit the error with
//!   [`FailureKind::NodeLost`](versa_core::FailureKind) (no
//!   version-quarantine strike, no retry-budget check), returns what
//!   was queued behind them on the dead lanes to the ready pool
//!   uncharged, and requeues everything onto surviving workers.

use std::sync::Arc;
use std::time::Duration;
use versa_core::{TaskId, VersionId};
use versa_mem::{AccessMode, DataId, IdMap, MemSpace, Region};

/// Capabilities a remote node advertises at registration (the hello
/// handshake's payload, transport-agnostic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteCaps {
    /// Human-readable node name (host:port for TCP nodes).
    pub name: String,
    /// Number of SMP workers the node contributes.
    pub smp_workers: usize,
    /// SIMD tier the node's kernels dispatch to (informational; results
    /// are bitwise-identical across tiers, so mixing tiers is safe).
    pub simd_tier: String,
}

/// Why a remote operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteError {
    /// The remote kernel itself failed (panic or typed error on the
    /// node). Retryable; charged to the version like a local panic.
    Task(String),
    /// The node is unreachable (connection reset, heartbeat timeout).
    /// Charged to the *node*, not the version: the engine retires the
    /// node's workers and requeues its tasks.
    Lost(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Task(m) => write!(f, "remote task failed: {m}"),
            RemoteError::Lost(m) => write!(f, "node lost: {m}"),
        }
    }
}

/// One access clause of a remote execution request, in wire-friendly
/// form: the region plus the full allocation length (the node must
/// materialize output-only buffers it never received bytes for).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteAccess {
    /// The accessed region.
    pub region: Region,
    /// Access mode.
    pub mode: AccessMode,
    /// Full length of the allocation backing the region.
    pub alloc_len: u64,
}

/// A task execution request forwarded to a remote node. Templates travel
/// by *name*: the remote process registers the same templates and binds
/// its own kernel closures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteExec {
    /// Task id (for logging/acks only; the node holds no graph).
    pub task: TaskId,
    /// Template name (resolved against the node's own registry).
    pub template: String,
    /// Version to run.
    pub version: VersionId,
    /// Attempt number (1-based).
    pub attempt: u32,
    /// Access clauses.
    pub accesses: Vec<RemoteAccess>,
}

/// A successful remote execution: the measured kernel time and the full
/// bytes of every written allocation, to be written back into the
/// coordinator's mirror space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteDone {
    /// Wall-clock kernel time on the node.
    pub kernel_time: Duration,
    /// `(allocation, full buffer bytes)` for every written allocation.
    pub writes: Vec<(DataId, Vec<u8>)>,
}

/// A shipment whose bytes are on the wire: call it to block until the
/// node acknowledges receipt (or the link fails).
pub type ShipTicket = Box<dyn FnOnce() -> Result<(), RemoteError> + Send>;

/// Transport to one remote node, as the engine's lanes drive it.
/// Blocking calls; every lane of the node calls concurrently (the TCP
/// transport in `versa-net` multiplexes one connection by request tag,
/// and tests use in-process loopback implementations).
pub trait RemoteNode: Send + Sync {
    /// The node's advertised capabilities.
    fn caps(&self) -> RemoteCaps;

    /// Ship the full bytes of `data` to the node, blocking until the
    /// node acknowledges receipt.
    fn ship(&self, data: DataId, bytes: &[u8]) -> Result<(), RemoteError>;

    /// Put the full bytes of `data` on the wire and return without
    /// waiting for the acknowledgement, so a task's tiles travel
    /// together; `bytes` is not referenced after the call returns. The
    /// engine times from this call to the ticket's resolution — that
    /// window is the NIC bandwidth sample. The default ships
    /// synchronously and hands back the settled result.
    fn ship_begin(&self, data: DataId, bytes: &[u8]) -> ShipTicket {
        let done = self.ship(data, bytes);
        Box::new(move || done)
    }

    /// Execute a task on the node, blocking until it completes or fails.
    fn exec(&self, req: &RemoteExec) -> Result<RemoteDone, RemoteError>;

    /// Ask the node to shut down cleanly (best-effort; default no-op).
    fn shutdown(&self) {}
}

/// Coordinator-side record of one attached node.
pub(crate) struct RemoteAttachment {
    /// The transport.
    pub node: Arc<dyn RemoteNode>,
    /// Dense node id (1-based; 0 is the coordinator itself).
    pub node_id: u16,
    /// The node's mirror space in the coordinator arena.
    pub space: MemSpace,
}

/// Lookup tables the native engine snapshots before a run: which spaces
/// are remote mirrors, and which node each worker belongs to.
#[derive(Clone, Default)]
pub(crate) struct RemotePlan {
    /// Mirror space → transport.
    pub by_space: IdMap<MemSpace, Arc<dyn RemoteNode>>,
    /// Worker index → node id (0 = local).
    pub node_of_worker: Vec<u16>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_error_display() {
        assert_eq!(RemoteError::Task("boom".into()).to_string(), "remote task failed: boom");
        assert_eq!(RemoteError::Lost("eof".into()).to_string(), "node lost: eof");
    }
}
