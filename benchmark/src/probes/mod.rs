//! Layer probes: tight loops over one public function each, so a
//! per-layer cost can be read without a workload around it. Every probe
//! gets the same wall budget and reports the median (with quartiles) of
//! its per-batch figures.

use crate::metrics::Samples;
use std::hint::black_box;
use std::time::{Duration, Instant};

mod core;
mod kernels;
mod mem;
mod net;
mod runtime;

/// One layer's probes: each timed loop gets the given wall budget.
type Probe = fn(Duration, &mut Samples);

/// The probe groups, by layer (`--probe <layer>`).
pub const LAYERS: [(&str, Probe); 7] = [
    ("kernels", kernels::run),
    ("core", core::run),
    ("mem", mem::run),
    ("runtime", runtime::run),
    ("sim", sim),
    ("net", net::run),
    ("trace", trace),
];

/// Timed loops across all layers (a few produce two metrics each).
const TIMED_LOOPS: u32 = 33;

/// Run every probe, `total` wall time split evenly between the loops.
pub fn run_all(total: Duration, samples: &mut Samples) {
    let per_probe = total / TIMED_LOOPS;
    for (_, run) in LAYERS {
        run(per_probe, samples);
    }
}

/// Call `sample` (which returns one figure) until `budget` is spent, at
/// least three times.
pub fn collect(budget: Duration, mut sample: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || start.elapsed() < budget {
        out.push(sample());
    }
    out
}

/// Nanoseconds per call of `op`, timed in batches of about 100 µs so the
/// clock reads are amortized.
pub fn ns_per_op(budget: Duration, mut op: impl FnMut()) -> Vec<f64> {
    let t = Instant::now();
    op();
    let one = t.elapsed().as_nanos().max(1) as u64;
    let batch = (100_000 / one).clamp(1, 1 << 16);
    collect(budget, || {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        t.elapsed().as_nanos() as f64 / batch as f64
    })
}

fn sim(budget: Duration, samples: &mut Samples) {
    use versa_mem::{DataId, MemSpace, Transfer};
    use versa_sim::{EventQueue, NoiseModel, PlatformConfig, SimTime, TransferEngine};

    // A push and a pop against a queue holding 1024 pending events.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    for i in 0..1024 {
        q.push(SimTime(i * 7 % 1024), i);
    }
    let per_pair = ns_per_op(budget, || {
        let (now, payload) = q.pop().expect("queue stays at 1024 events");
        t = t
            .wrapping_mul(6364136223846793005)
            .wrapping_add(payload | 1);
        q.push(SimTime(now.0 + 1 + (t >> 54)), payload);
    });
    samples.set_samples(
        "sim.event_queue_ns_per_op",
        &per_pair.iter().map(|ns| ns / 2.0).collect::<Vec<_>>(),
    );

    let mut engine = TransferEngine::new(&PlatformConfig::minotauro(4, 2));
    let mut now = 0u64;
    let mut i = 0u32;
    samples.set_samples(
        "sim.transfer_schedule_ns",
        &ns_per_op(budget, || {
            i = i.wrapping_add(1);
            now += 1_000;
            let (from, to) = if i.is_multiple_of(2) {
                (MemSpace::HOST, MemSpace::device(0))
            } else {
                (MemSpace::device(1), MemSpace::HOST)
            };
            let t = Transfer {
                data: DataId(i % 64),
                from,
                to,
                bytes: 1 << 18,
            };
            black_box(engine.schedule(&t, SimTime(now)));
        }),
    );

    let mut noise = NoiseModel::new(0.05, 42);
    samples.set_samples(
        "sim.noise_sample_ns",
        &ns_per_op(budget, || {
            black_box(noise.sample(black_box(Duration::from_micros(100))));
        }),
    );
}

fn trace(budget: Duration, samples: &mut Samples) {
    use versa_core::{TaskId, WorkerId};
    use versa_trace::{TraceEvent, TraceSink, Ts};

    // Steady state of a full ring: every record also drops the oldest.
    let sink = TraceSink::new(2, 1 << 12);
    let mut i = 0u64;
    samples.set_samples(
        "trace.record_ns",
        &ns_per_op(budget, || {
            i += 1;
            sink.record(
                0,
                TraceEvent::TaskEnd {
                    time: Ts(i),
                    task: TaskId(i),
                    worker: WorkerId(0),
                    kernel_ns: 1_000,
                },
            );
        }),
    );
    black_box(sink.dropped());
}
