//! [`TcpRemoteNode`]: the coordinator-side transport implementing
//! [`RemoteNode`] over a [`Mux`].
//!
//! The engine's staging lanes call [`RemoteNode::ship_begin`] and its
//! exec lanes [`RemoteNode::exec`], all concurrently; the mux
//! interleaves them on one socket. Transport failures (dead link,
//! timeout, protocol violation)
//! map to [`RemoteError::Lost`] — the engine retires the node and
//! requeues its tasks — while a kernel failure reported by the worker
//! maps to [`RemoteError::Task`], charged to the version like a local
//! panic.

use crate::link::Mux;
use crate::protocol::{Frame, WireAccess, WireFrame};
use std::sync::Arc;
use std::time::Duration;
use versa_mem::{AccessMode, DataId};
use versa_runtime::{
    RemoteCaps, RemoteDone, RemoteError, RemoteExec, RemoteNode, ShipTicket,
};

/// A remote worker process reached over TCP.
pub(crate) struct TcpRemoteNode {
    caps: RemoteCaps,
    mux: Arc<Mux>,
}

impl TcpRemoteNode {
    /// Wrap an established, handshaken link.
    pub(crate) fn new(caps: RemoteCaps, mux: Arc<Mux>) -> TcpRemoteNode {
        TcpRemoteNode { caps, mux }
    }

    /// Whether the link to the node is still up.
    pub(crate) fn is_alive(&self) -> bool {
        self.mux.is_alive()
    }

    /// Clean shutdown carrying the coordinator's final profile hints
    /// (the worker caches them for a warm rejoin). Waits briefly for the
    /// ack, then tears the link down either way.
    pub(crate) fn shutdown_with_hints(&self, hints: &str) {
        let _ = self.mux.request_timeout(
            &Frame::Shutdown { hints: hints.to_string() },
            Some(Duration::from_secs(2)),
        );
        self.mux.kill();
    }
}

fn mode_byte(mode: AccessMode) -> u8 {
    match mode {
        AccessMode::In => 0,
        AccessMode::Out => 1,
        AccessMode::InOut => 2,
    }
}

impl RemoteNode for TcpRemoteNode {
    fn caps(&self) -> RemoteCaps {
        self.caps.clone()
    }

    fn ship(&self, data: DataId, bytes: &[u8]) -> Result<(), RemoteError> {
        self.ship_begin(data, bytes)()
    }

    fn ship_begin(&self, data: DataId, bytes: &[u8]) -> ShipTicket {
        // The frame is laid out (checksum included) and written straight
        // from the borrowed tile; only the ack is left to wait for.
        let started = self.mux.start(|tag| WireFrame::ship(data.0, bytes, tag));
        let mux = Arc::clone(&self.mux);
        Box::new(move || match started.and_then(|pending| mux.wait(pending, None)) {
            Ok(Frame::ShipAck) => Ok(()),
            Ok(other) => Err(RemoteError::Lost(format!(
                "protocol violation: expected ShipAck, got frame type {}",
                other.type_byte()
            ))),
            Err(e) => Err(RemoteError::Lost(e.to_string())),
        })
    }

    fn exec(&self, req: &RemoteExec) -> Result<RemoteDone, RemoteError> {
        let frame = Frame::Exec {
            task: req.task.0,
            template: req.template.clone(),
            version: req.version.0,
            attempt: req.attempt,
            accesses: req
                .accesses
                .iter()
                .map(|a| WireAccess {
                    data: a.region.data.0,
                    offset: a.region.offset,
                    len: a.region.len,
                    alloc_len: a.alloc_len,
                    mode: mode_byte(a.mode),
                })
                .collect(),
        };
        match self.mux.request(&frame) {
            Ok(Frame::ExecOk { kernel_ns, writes }) => Ok(RemoteDone {
                kernel_time: Duration::from_nanos(kernel_ns),
                writes: writes.into_iter().map(|(d, b)| (DataId(d), b)).collect(),
            }),
            Ok(Frame::ExecErr { message }) => Err(RemoteError::Task(message)),
            Ok(other) => Err(RemoteError::Lost(format!(
                "protocol violation: expected ExecOk/ExecErr, got frame type {}",
                other.type_byte()
            ))),
            Err(e) => Err(RemoteError::Lost(e.to_string())),
        }
    }

    fn shutdown(&self) {
        self.shutdown_with_hints("");
    }
}
