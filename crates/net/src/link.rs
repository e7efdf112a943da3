//! One TCP connection, many concurrent requests: the coordinator-side
//! link multiplexer.
//!
//! Every request carries a unique tag; the peer echoes the tag on its
//! response. A dedicated reader thread routes incoming frames to the
//! requester waiting on that tag, so all of a node's staging and exec
//! lanes share one socket — shipments and executions interleave freely,
//! and one lane may have several shipments in flight
//! ([`Mux::start`] / [`Mux::wait`]).
//!
//! Liveness: an optional heartbeat thread sends [`Frame::Heartbeat`]
//! every `interval` and expects the ack within `timeout`. A missed ack,
//! a read error, or a write error *kills* the link: the socket is shut
//! down, every pending requester gets an error, and all later requests
//! fail fast. The engine maps those errors to
//! [`RemoteError::Lost`](versa_runtime::RemoteError) — node retirement
//! and task requeue, never a hang.

use crate::protocol::{read_frame, Frame, ProtoError, WireFrame};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Heartbeat cadence for a [`Mux`].
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// How often to probe.
    pub interval: Duration,
    /// How long to wait for the ack before declaring the node lost.
    pub timeout: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> HeartbeatConfig {
        HeartbeatConfig { interval: Duration::from_millis(500), timeout: Duration::from_secs(2) }
    }
}

type Reply = Result<Frame, ProtoError>;

/// What the link's own threads share with its owner. The threads hold
/// this, never the [`Mux`], so dropping the last `Arc<Mux>` runs
/// [`Drop for Mux`](Mux), which kills the link and joins them.
struct Shared {
    writer: Mutex<TcpStream>,
    /// Kept for `shutdown(Both)` on kill (unblocks the reader thread).
    stream: TcpStream,
    pending: Mutex<HashMap<u64, mpsc::Sender<Reply>>>,
    next_tag: AtomicU64,
    alive: AtomicBool,
    /// Dropped on kill: the heartbeat thread waits on the other end
    /// between probes, so it wakes at once instead of sleeping out its
    /// interval.
    stop: Mutex<Option<mpsc::Sender<()>>>,
}

/// A request whose frame is on the wire and whose response has not been
/// collected yet ([`Mux::start`] → [`Mux::wait`]). Several may be
/// outstanding at once on one link.
pub(crate) struct Pending {
    tag: u64,
    rx: mpsc::Receiver<Reply>,
}

/// A tag-multiplexed request/response link over one TCP stream.
pub struct Mux {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Mux {
    /// Wrap `stream`, spawning the reader thread and (when `heartbeat`
    /// is set) the heartbeat thread.
    pub fn spawn(stream: TcpStream, heartbeat: Option<HeartbeatConfig>) -> Result<Arc<Mux>, ProtoError> {
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        // Buffered: a frame's header and scalar fields cost one read, and
        // tile bodies larger than the buffer still land directly in place.
        let mut reader = std::io::BufReader::new(stream.try_clone()?);
        let (stop_tx, stop_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            writer: Mutex::new(writer),
            stream,
            pending: Mutex::new(HashMap::new()),
            // Tag 0 is reserved for the pre-mux handshake.
            next_tag: AtomicU64::new(1),
            alive: AtomicBool::new(true),
            stop: Mutex::new(Some(stop_tx)),
        });
        let mut threads = Vec::new();

        let s = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("versa-net-reader".into())
                .spawn(move || {
                    while let Ok(Some((frame, tag))) = read_frame(&mut reader) {
                        s.deliver(tag, Ok(frame));
                    }
                    s.kill();
                })
                .expect("spawn reader thread"),
        );

        if let Some(hb) = heartbeat {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("versa-net-heartbeat".into())
                    .spawn(move || {
                        // A timeout is the cadence; anything else means
                        // the link was killed.
                        while stop_rx.recv_timeout(hb.interval)
                            == Err(mpsc::RecvTimeoutError::Timeout)
                        {
                            let ack = s
                                .start(|tag| WireFrame::new(&Frame::Heartbeat, tag))
                                .and_then(|p| s.wait(p, Some(hb.timeout)));
                            if !matches!(ack, Ok(Frame::HeartbeatAck)) {
                                s.kill();
                                break;
                            }
                        }
                    })
                    .expect("spawn heartbeat thread"),
            );
        }

        Ok(Arc::new(Mux { shared, threads }))
    }

    /// Whether the link is still up.
    pub(crate) fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::SeqCst)
    }

    /// Send `frame` and block until the peer's response arrives.
    pub fn request(&self, frame: &Frame) -> Result<Frame, ProtoError> {
        self.request_timeout(frame, None)
    }

    /// [`Mux::request`] with an optional response deadline. A timeout
    /// kills the link (the peer is presumed gone).
    pub fn request_timeout(
        &self,
        frame: &Frame,
        timeout: Option<Duration>,
    ) -> Result<Frame, ProtoError> {
        let pending = self.start(|tag| WireFrame::new(frame, tag))?;
        self.wait(pending, timeout)
    }

    /// Put a request on the wire without waiting for its response.
    /// `build` lays the frame out for the tag it is given — the
    /// checksum pass over a tile happens there, *before* the writer
    /// lock is taken, so concurrent heartbeats and `Exec` frames never
    /// queue behind it.
    pub(crate) fn start<'a>(
        &self,
        build: impl FnOnce(u64) -> WireFrame<'a>,
    ) -> Result<Pending, ProtoError> {
        self.shared.start(build)
    }

    /// Collect the response to a started request. A timeout kills the
    /// link (the peer is presumed gone).
    pub(crate) fn wait(
        &self,
        pending: Pending,
        timeout: Option<Duration>,
    ) -> Result<Frame, ProtoError> {
        self.shared.wait(pending, timeout)
    }

    /// Tear the link down: shut the socket, fail every pending request,
    /// wake the heartbeat thread. Idempotent.
    pub fn kill(&self) {
        self.shared.kill();
    }
}

impl Shared {
    fn write(&self, wire: &WireFrame<'_>) -> Result<(), ProtoError> {
        wire.write_to(&mut *self.writer.lock().expect("link writer lock poisoned"))
    }

    fn start<'a>(&self, build: impl FnOnce(u64) -> WireFrame<'a>) -> Result<Pending, ProtoError> {
        if !self.alive.load(Ordering::SeqCst) {
            return Err(ProtoError::Io("link is down".into()));
        }
        let tag = self.next_tag.fetch_add(1, Ordering::SeqCst);
        let wire = build(tag);
        let (tx, rx) = mpsc::channel();
        self.pending.lock().expect("link pending lock poisoned").insert(tag, tx);
        if let Err(e) = self.write(&wire) {
            self.pending.lock().expect("link pending lock poisoned").remove(&tag);
            self.kill();
            return Err(e);
        }
        Ok(Pending { tag, rx })
    }

    fn wait(&self, pending: Pending, timeout: Option<Duration>) -> Reply {
        let lost = || ProtoError::Io("connection lost".into());
        match timeout {
            None => pending.rx.recv().map_err(|_| lost())?,
            Some(t) => match pending.rx.recv_timeout(t) {
                Ok(r) => r,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.pending.lock().expect("link pending lock poisoned").remove(&pending.tag);
                    self.kill();
                    Err(ProtoError::Io("response timeout".into()))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(lost()),
            },
        }
    }

    /// Runs from `Drop for Mux` too, so it must not panic: a poisoned
    /// lock is recovered (both maps are valid after any single update).
    fn kill(&self) {
        if self.alive.swap(false, Ordering::SeqCst) {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            self.stop.lock().unwrap_or_else(|e| e.into_inner()).take();
            let pending: Vec<_> =
                self.pending.lock().unwrap_or_else(|e| e.into_inner()).drain().collect();
            for (_, tx) in pending {
                let _ = tx.send(Err(ProtoError::Io("connection lost".into())));
            }
        }
    }

    fn deliver(&self, tag: u64, res: Reply) {
        if let Some(tx) = self.pending.lock().expect("link pending lock poisoned").remove(&tag) {
            let _ = tx.send(res);
        }
    }
}

/// Dropping the link kills it and joins its reader and heartbeat
/// threads: nothing of a dropped link keeps running.
impl Drop for Mux {
    fn drop(&mut self) {
        self.shared.kill();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn dropping_a_killed_link_joins_its_threads_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // The peer stays open and silent: only `kill` can end the link.
        let (_peer, _) = listener.accept().unwrap();
        let minute = Duration::from_secs(60);
        let mux = Mux::spawn(stream, Some(HeartbeatConfig { interval: minute, timeout: minute }))
            .unwrap();
        assert_eq!(mux.threads.len(), 2, "reader + heartbeat");

        let t0 = Instant::now();
        mux.kill();
        assert!(!mux.is_alive());
        assert!(mux.request(&Frame::Heartbeat).is_err(), "a killed link fails fast");
        // Drop joins both threads: the heartbeat thread must wake from
        // its minute-long wait, the reader from its blocked read.
        drop(mux);
        assert!(t0.elapsed() < minute / 4, "link threads outlived the link: {:?}", t0.elapsed());
    }
}
