//! `net.*` probes: wire-frame encode/decode (crc included) and loopback
//! `Mux::request` round trips against a real `run_worker` peer.

use super::{collect, ns_per_op};
use crate::metrics::Samples;
use std::hint::black_box;
use std::net::TcpListener;
use std::time::{Duration, Instant};
use versa_net::protocol::{read_frame, write_frame};
use versa_net::{decode_frame, encode_frame, Frame, Mux, WireAccess, WorkerConfig};

/// One f64 tile of `cluster_mm_loopback` (128 × 128 × 8 bytes).
const TILE: usize = 128 << 10;

fn exec_frame() -> Frame {
    let access = |data: u32, mode: u8| WireAccess {
        data,
        offset: 0,
        len: TILE as u64,
        alloc_len: TILE as u64,
        mode,
    };
    Frame::Exec {
        task: 7,
        template: "matmul_tile".into(),
        version: 2,
        attempt: 1,
        accesses: vec![access(1, 0), access(2, 0), access(3, 2)],
    }
}

/// Microseconds per `request` round trip.
fn rtt_us(budget: Duration, mux: &Mux, frame: &Frame) -> Vec<f64> {
    collect(budget, || {
        let t = Instant::now();
        black_box(mux.request(frame).expect("loopback peer answers"));
        t.elapsed().as_secs_f64() * 1e6
    })
}

pub fn run(budget: Duration, samples: &mut Samples) {
    let ship = Frame::Ship {
        data: 1,
        bytes: vec![0xA5; TILE],
    };
    let gbps = |ns: Vec<f64>| -> Vec<f64> { ns.iter().map(|ns| TILE as f64 / ns).collect() };
    samples.set_samples(
        "net.encode_ship_128k_gbps",
        &gbps(ns_per_op(budget, || {
            drop(black_box(encode_frame(&ship, 9)))
        })),
    );
    let wire = encode_frame(&ship, 9);
    samples.set_samples(
        "net.decode_ship_128k_gbps",
        &gbps(ns_per_op(budget, || drop(black_box(decode_frame(&wire))))),
    );
    let exec = exec_frame();
    samples.set_samples(
        "net.encode_exec_ns",
        &ns_per_op(budget, || drop(black_box(encode_frame(&exec, 9)))),
    );
    let wire = encode_frame(&exec, 9);
    samples.set_samples(
        "net.decode_exec_ns",
        &ns_per_op(budget, || drop(black_box(decode_frame(&wire)))),
    );

    // A worker thread dials in; this side plays the coordinator's half of
    // the handshake and then owns the link through a `Mux`.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let worker =
        std::thread::spawn(move || versa_net::run_worker(WorkerConfig::new(addr, 1), |_| {}));
    let (mut stream, _) = listener.accept().expect("worker dials in");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let (hello, tag) = read_frame(&mut stream)
        .expect("read Hello")
        .expect("worker sends Hello");
    assert!(matches!(hello, Frame::Hello { .. }), "first frame is Hello");
    write_frame(
        &mut stream,
        &Frame::Welcome {
            node_id: 1,
            hints: String::new(),
        },
        tag,
    )
    .expect("send Welcome");
    let mux = Mux::spawn(stream, None).expect("spawn the mux");

    samples.set_samples(
        "net.mux_heartbeat_rtt_us_p50",
        &rtt_us(budget, &mux, &Frame::Heartbeat),
    );
    samples.set_samples("net.mux_ship_128k_rtt_us_p50", &rtt_us(budget, &mux, &ship));

    let ack = mux.request_timeout(
        &Frame::Shutdown {
            hints: String::new(),
        },
        Some(Duration::from_secs(2)),
    );
    assert!(
        matches!(ack, Ok(Frame::ShutdownAck)),
        "worker acknowledges shutdown"
    );
    mux.kill();
    worker
        .join()
        .expect("worker thread panicked")
        .expect("worker ended cleanly");
}
