//! `mem.*` probes: directory transitions, arena buffers and copies, the
//! staging ledger.

use super::{collect, ns_per_op};
use crate::metrics::Samples;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use versa_mem::{AccessMode, Arena, DataId, Directory, MemSpace, StagingLedger, Transfer};

const HANDLES: u32 = 64;

fn directory() -> Directory {
    let d = Directory::new();
    for i in 0..HANDLES {
        d.register(DataId(i), 1024, MemSpace::HOST);
    }
    d
}

/// GB/s of `Arena::perform` on `bytes`-sized host→device copies.
fn perform_gbps(budget: Duration, bytes: usize) -> Vec<f64> {
    let arena = Arena::new(1);
    arena.alloc_host(DataId(0), &vec![1u8; bytes]);
    let t = Transfer {
        data: DataId(0),
        from: MemSpace::HOST,
        to: MemSpace::device(0),
        bytes: bytes as u64,
    };
    ns_per_op(budget, || arena.perform(&t))
        .iter()
        .map(|ns| bytes as f64 / ns)
        .collect()
}

pub fn run(budget: Duration, samples: &mut Samples) {
    // Hit: a read of data already valid in the space — no transfer.
    let dir = directory();
    let mut i = 0u32;
    samples.set_samples(
        "mem.directory_acquire_ns_hit",
        &ns_per_op(budget, || {
            i = (i + 1) % HANDLES;
            black_box(dir.acquire(DataId(i), MemSpace::HOST, AccessMode::In));
        }),
    );
    // Miss: an inout bouncing between two devices — every acquire plans
    // a copy-in and invalidates the other copy.
    let mut i = 0u32;
    samples.set_samples(
        "mem.directory_acquire_ns_miss",
        &ns_per_op(budget, || {
            i += 1;
            let space = MemSpace::device((i / HANDLES % 2) as u16);
            black_box(dir.acquire(DataId(i % HANDLES), space, AccessMode::InOut));
        }),
    );
    // Two threads hitting disjoint handles: what lock striping buys (or
    // costs) under concurrent admission.
    let dir = directory();
    let barrier = Barrier::new(2);
    let per_thread = collect(budget, || {
        let times: Vec<f64> = std::thread::scope(|s| {
            let hammer = |offset: u32| {
                let (dir, barrier) = (&dir, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let t = Instant::now();
                    for k in 0..4096u32 {
                        black_box(dir.acquire(
                            DataId((2 * k + offset) % HANDLES),
                            MemSpace::HOST,
                            AccessMode::In,
                        ));
                    }
                    t.elapsed().as_nanos() as f64 / 4096.0
                })
            };
            let handles = [hammer(0), hammer(1)];
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    });
    samples.set_samples("mem.directory_acquire_ns_2threads", &per_thread);
    if std::thread::available_parallelism().map_or(1, |p| p.get()) < 4 {
        samples.mark_unverified("mem.directory_acquire_ns_2threads");
    }

    // One tiny-job buffer: allocate, free.
    let arena = Arena::new(0);
    let init = vec![0u8; 2048];
    let mut i = 0u32;
    samples.set_samples(
        "mem.arena_alloc_free_ns",
        &ns_per_op(budget, || {
            i = i.wrapping_add(1);
            arena.alloc_host(DataId(i), &init);
            arena.free(DataId(i));
        }),
    );
    samples.set_samples(
        "mem.arena_perform_gbps_256k",
        &perform_gbps(budget, 256 << 10),
    );
    samples.set_samples("mem.arena_perform_gbps_2m", &perform_gbps(budget, 2 << 20));

    let mut ledger = StagingLedger::new();
    let mut i = 0u32;
    samples.set_samples(
        "mem.staging_plan_copy_ns",
        &ns_per_op(budget, || {
            i = (i + 1) % HANDLES;
            let t = Transfer {
                data: DataId(i),
                from: MemSpace::HOST,
                to: MemSpace::device(0),
                bytes: 1024,
            };
            let (_, cell) = ledger.plan_copy(&t);
            cell.publish_ok();
        }),
    );
}
