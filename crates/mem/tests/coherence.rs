//! Directory-coherence and staging-protocol invariants under random
//! operation sequences and real thread interleavings.
//!
//! The async transfer pipeline leans on the directory behaving like a
//! textbook MSI-style validity set (single writer, additive readers) and
//! on the `ReadyCell` readiness protocol never dropping or inverting a
//! publication. These tests hammer both well beyond what the engine's
//! own integration tests reach.

use proptest::prelude::*;
use std::sync::Arc;
use versa_mem::{
    AccessMode, DataId, Directory, MemSpace, ReadyCell, StagingLedger, Transfer,
};

fn spaces() -> [MemSpace; 4] {
    [MemSpace::HOST, MemSpace::device(0), MemSpace::device(1), MemSpace::device(2)]
}

#[derive(Clone, Debug)]
enum Op {
    Acquire { data: u8, space: u8, mode: AccessMode },
    Retract { data: u8, space: u8 },
    SnapshotRestoreRoundtrip { data: u8 },
    FreeAndRecycle { data: u8 },
}

fn op_strategy(n_data: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n_data, 0..4u8, prop_oneof![
            Just(AccessMode::In),
            Just(AccessMode::Out),
            Just(AccessMode::InOut)
        ])
            .prop_map(|(data, space, mode)| Op::Acquire { data, space, mode }),
        (0..n_data, 0..4u8).prop_map(|(data, space)| Op::Retract { data, space }),
        (0..n_data).prop_map(|data| Op::SnapshotRestoreRoundtrip { data }),
        (0..n_data).prop_map(|data| Op::FreeAndRecycle { data }),
    ]
}

proptest! {
    // Single-writer / additive-reader coherence: any sequence of
    // acquires, rollback retracts, snapshot/restore roundtrips and
    // free-recycle cycles keeps every validity set non-empty, sorted,
    // duplicate-free; a write acquire always collapses it to exactly
    // the writer's space; a read acquire only ever grows it.
    #[test]
    fn directory_validity_invariants_hold(ops in proptest::collection::vec(op_strategy(4), 1..64)) {
        let dir = Directory::new();
        for d in 0..4u32 {
            dir.register(DataId(d), 256, MemSpace::HOST);
        }
        for op in ops {
            match op {
                Op::Acquire { data, space, mode } => {
                    let (data, space) = (DataId(u32::from(data)), spaces()[usize::from(space)]);
                    let before: Vec<MemSpace> =
                        dir.state(data).unwrap().valid_spaces().to_vec();
                    let t = dir.acquire(data, space, mode);
                    let after: Vec<MemSpace> =
                        dir.state(data).unwrap().valid_spaces().to_vec();
                    if mode.writes() {
                        prop_assert_eq!(&after, &vec![space], "writer owns the only copy");
                    } else {
                        prop_assert!(after.contains(&space), "reader's space became valid");
                        for s in &before {
                            prop_assert!(after.contains(s), "read acquire never invalidates");
                        }
                        prop_assert_eq!(t.is_some(), !before.contains(&space),
                            "a copy is planned iff the space was missing the value");
                    }
                    if let Some(t) = t {
                        prop_assert_eq!(t.to, space);
                        prop_assert!(before.contains(&t.from), "source held a valid copy");
                    }
                }
                Op::Retract { data, space } => {
                    let (data, space) = (DataId(u32::from(data)), spaces()[usize::from(space)]);
                    dir.retract(data, space);
                }
                Op::SnapshotRestoreRoundtrip { data } => {
                    let data = DataId(u32::from(data));
                    let before: Vec<MemSpace> =
                        dir.state(data).unwrap().valid_spaces().to_vec();
                    let snap = dir.snapshot(data).unwrap();
                    // Mutate arbitrarily, then restore: exact undo.
                    dir.acquire(data, MemSpace::device(1), AccessMode::InOut);
                    dir.restore(data, snap);
                    let after: Vec<MemSpace> =
                        dir.state(data).unwrap().valid_spaces().to_vec();
                    prop_assert_eq!(before, after, "restore is an exact inverse");
                }
                Op::FreeAndRecycle { data } => {
                    // Free and immediately recycle the id: the fresh
                    // registration must see pristine state, never the
                    // old validity set (use-after-free guard).
                    let data = DataId(u32::from(data));
                    dir.unregister(data);
                    prop_assert!(dir.state(data).is_none(), "freed data is gone");
                    dir.register(data, 256, MemSpace::HOST);
                    prop_assert_eq!(
                        dir.state(data).unwrap().valid_spaces(),
                        &[MemSpace::HOST][..],
                        "recycled id starts from its home space only"
                    );
                }
            }
            // Global invariants after every op.
            for d in 0..4u32 {
                let state = dir.state(DataId(d)).unwrap();
                let valid = state.valid_spaces();
                prop_assert!(!valid.is_empty(), "the value always lives somewhere");
                let mut sorted = valid.to_vec();
                sorted.sort();
                sorted.dedup();
                prop_assert_eq!(valid, &sorted[..], "validity set stays sorted and unique");
            }
        }
    }

    // Ledger epochs are per-key monotonic; `pending` always hands out
    // the latest-epoch cell; a write clears every cell of the datum but
    // preserves epoch counters (readers-see-latest-epoch).
    #[test]
    fn ledger_epochs_are_monotonic_and_latest_wins(
        plans in proptest::collection::vec((0..3u32, 1..4u8, (0..2u8).prop_map(|b| b == 1)), 1..40),
        write_at in proptest::collection::vec((0..2u8).prop_map(|b| b == 1), 1..40),
    ) {
        let mut ledger = StagingLedger::new();
        let mut last_epoch = versa_mem::IdMap::default();
        for ((data, space, publish_ok), write) in plans.into_iter().zip(write_at) {
            let (data, space) = (DataId(data), spaces()[usize::from(space)]);
            let t = Transfer { data, from: MemSpace::HOST, to: space, bytes: 64 };
            let (_, cell) = ledger.plan_copy(&t);
            let prev = last_epoch.insert((data, space), cell.epoch()).unwrap_or(0);
            prop_assert!(cell.epoch() > prev, "epochs strictly increase per key");
            prop_assert_eq!(ledger.epoch(data, space), cell.epoch());
            if publish_ok {
                cell.publish_ok();
                prop_assert!(ledger.pending(data, space).is_none(),
                    "landed copies need no synchronization");
            } else {
                cell.publish_failed("injected");
                let latest = ledger.pending(data, space).unwrap();
                prop_assert_eq!(latest.epoch(), cell.epoch(), "latest cell wins");
            }
            if write {
                ledger.note_write(data);
                for s in spaces() {
                    prop_assert!(ledger.pending(data, s).is_none(),
                        "a planned writer supersedes all cells of its datum");
                }
                prop_assert_eq!(ledger.epoch(data, space), cell.epoch(),
                    "note_write keeps epoch counters");
            }
            ledger.prune();
        }
    }
}

/// A simple deterministic PRNG so the thread stress is reproducible.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Readiness-protocol stress: chains of staged copies across real
/// threads, where each link waits on its upstream cell and publishes its
/// own (ok, or failed — by seed or by upstream propagation, exactly as a
/// staging lane would). Every chain's tail must observe failure iff any
/// link upstream failed, across many seeds and interleavings.
#[test]
fn readiness_chains_propagate_exactly_the_injected_failures() {
    for seed in 0..24u64 {
        let mut rng = Lcg(0x9E3779B97F4A7C15 ^ seed);
        let chain_len = 2 + (rng.next() % 7) as usize;
        let mut ledger = StagingLedger::new();

        // Plan the chain: host → dev0 → dev1 → dev0 → … each link
        // sourcing from the previous link's in-flight destination.
        let mut links: Vec<(Option<Arc<ReadyCell>>, Arc<ReadyCell>, bool)> = Vec::new();
        let mut expect_failure = false;
        for i in 0..chain_len {
            let from = if i == 0 { MemSpace::HOST } else { MemSpace::device((i as u16 - 1) % 2) };
            let to = MemSpace::device(i as u16 % 2);
            let t = Transfer { data: DataId(0), from, to, bytes: 64 };
            let (wait_src, publish) = ledger.plan_copy(&t);
            if i > 0 {
                assert!(wait_src.is_some(), "chained copy must latch its in-flight source");
            }
            let fail_here = rng.next().is_multiple_of(4);
            expect_failure |= fail_here;
            links.push((wait_src, publish, fail_here));
        }
        let tail = Arc::clone(&links.last().unwrap().1);

        // Execute every link on its own thread, in scrambled spawn order
        // with seeded start jitter, like staging lanes racing each other.
        std::thread::scope(|scope| {
            let mut order: Vec<usize> = (0..links.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
            }
            let jitter: Vec<u64> = order.iter().map(|_| rng.next() % 3).collect();
            for (&idx, &j) in order.iter().zip(&jitter) {
                let (wait_src, publish, fail_here) = &links[idx];
                scope.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_micros(j * 100));
                    let upstream_failed =
                        wait_src.as_ref().map(|c| c.wait().is_err()).unwrap_or(false);
                    if upstream_failed {
                        publish.publish_failed("upstream failed");
                    } else if *fail_here {
                        publish.publish_failed("injected");
                    } else {
                        publish.publish_ok();
                    }
                });
            }
        });

        assert_eq!(
            tail.wait().is_err(),
            expect_failure,
            "seed {seed}: tail must fail iff some link failed (chain {chain_len})"
        );
        // Publication is sticky: re-observing yields the same outcome.
        assert_eq!(tail.poll().unwrap().is_err(), expect_failure);
    }
}

/// Many concurrent waiters on one cell all observe the single
/// publication — none hang, none see a stale pending state.
#[test]
fn every_waiter_observes_the_publication() {
    for &fail in &[false, true] {
        let mut ledger = StagingLedger::new();
        let (_, cell) = ledger.plan_copy(&Transfer {
            data: DataId(0),
            from: MemSpace::HOST,
            to: MemSpace::device(0),
            bytes: 64,
        });
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..16)
                .map(|_| {
                    let c = Arc::clone(&cell);
                    scope.spawn(move || c.wait())
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(2));
            if fail {
                cell.publish_failed("boom");
            } else {
                cell.publish_ok();
            }
            for w in waiters {
                assert_eq!(w.join().unwrap().is_err(), fail);
            }
        });
    }
}
