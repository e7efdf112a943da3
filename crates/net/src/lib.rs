//! versa-net: the multi-node distributed runtime (DESIGN.md §7).
//!
//! One coordinator process owns the task graph, the scheduler and the
//! canonical data; remote worker processes contribute SMP workers over
//! TCP. A remote node's workers are ordinary schedulable workers behind
//! a [`versa_runtime::RemoteNode`] transport: tiles ship to the node's
//! *mirror space* inside the engine's timed transfer window, so the
//! per-destination bandwidth EWMA learns NIC links exactly like PCIe
//! links, and the versioning scheduler prices remote placement with the
//! same earliest-finish bids it uses locally.
//!
//! Crate layout:
//!
//! * [`protocol`] — the versioned, checksummed wire format (pure
//!   encode/decode; property-tested against malformed input).
//! * `link` — [`Mux`]: one TCP connection multiplexed by request tag,
//!   with a heartbeat thread for liveness.
//! * `node` — `TcpRemoteNode`: the coordinator-side
//!   [`versa_runtime::RemoteNode`] transport.
//! * `cluster` — [`Cluster`]: coordinator membership: listen, handshake,
//!   profile gossip, loss accounting with rejoin probation.
//! * `worker` — [`run_worker`]: the remote worker process: serve loop, kernel
//!   execution, hint caching.

#![warn(missing_docs)]

pub(crate) mod cluster;
pub(crate) mod link;
pub(crate) mod node;
pub mod protocol;
pub(crate) mod worker;

pub use cluster::{Cluster, JoinInfo, Membership, NodeRecord};
pub use link::{HeartbeatConfig, Mux};
pub use protocol::{decode_frame, encode_frame, Frame, ProtoError, WireAccess};
pub use worker::{run_worker, WorkerConfig, WorkerReport};
