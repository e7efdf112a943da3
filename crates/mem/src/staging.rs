//! Readiness/epoch protocol for asynchronously staged transfers.
//!
//! The native engine's coordinator *plans* transfers (so every
//! [`crate::Directory`] state transition stays single-threaded and
//! deterministic) but the byte movement itself executes on per-worker
//! staging lanes. That split needs a small synchronization protocol:
//! when the coordinator plans a copy of datum `D` into space `S`, the
//! directory immediately marks `(D, S)` valid — optimistically — while
//! the bytes are still in flight. Any *other* staged copy that wants to
//! read `(D, S)` as its source, and any later task that was planned
//! while `(D, S)` was still in flight, must wait for the bytes to land.
//!
//! [`StagingLedger`] is the coordinator-owned map from `(DataId,
//! MemSpace)` to the [`ReadyCell`] guarding the most recent planned copy
//! into that space. Cells carry an *epoch* (per `(D, S)` key, bumped on
//! every planned copy) so a replanned copy — e.g. after a staging fault
//! rolled the first attempt back — is distinguishable from the failed
//! attempt: waiters that latched the old cell observe its failure and
//! requeue; the replan installs a fresh cell at the next epoch, and new
//! readers only ever latch the latest one.
//!
//! The protocol leans on two plan-order invariants (argued in
//! DESIGN.md §2.2):
//!
//! 1. **Writers never see pending cells.** The task graph serializes
//!    every writer of `D` against all earlier readers/writers of `D`, so
//!    by the time a writer is *planned*, every planned copy of `D` has
//!    been published (its task completed). Only concurrent *readers*
//!    create staging concurrency.
//! 2. **Waits point strictly backwards.** A cell a staged copy waits on
//!    was installed by a copy planned strictly earlier; on the same
//!    worker that copy is earlier in the same FIFO, on another worker it
//!    proceeds independently — so the wait graph is acyclic and the
//!    protocol is deadlock-free.

use crate::{DataId, IdMap, MemSpace, Transfer};
use std::sync::{Arc, Condvar, Mutex};

/// Resolution state of one planned copy.
#[derive(Clone, Debug, PartialEq, Eq)]
enum CellState {
    /// Bytes still in flight.
    Pending,
    /// Bytes landed; the destination space really holds the value.
    Ready,
    /// The staging step panicked (or was abandoned); the destination
    /// space never received the value and the planner must roll back.
    Failed(String),
}

/// A one-shot readiness latch guarding one planned copy of one datum
/// into one space.
///
/// The coordinator creates the cell at plan time; the staging lane that
/// performs the copy publishes exactly once ([`ReadyCell::publish_ok`] /
/// [`ReadyCell::publish_failed`]); any number of staging lanes may
/// [`ReadyCell::wait`] for the resolution.
#[derive(Debug)]
pub struct ReadyCell {
    epoch: u64,
    state: Mutex<CellState>,
    cv: Condvar,
}

impl ReadyCell {
    fn new(epoch: u64) -> Arc<ReadyCell> {
        Arc::new(ReadyCell { epoch, state: Mutex::new(CellState::Pending), cv: Condvar::new() })
    }

    /// The epoch this cell was installed at (per `(DataId, MemSpace)`
    /// key, monotonically increasing across replans).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mark the copy as landed and wake all waiters.
    pub fn publish_ok(&self) {
        let mut st = self.state.lock().expect("ReadyCell mutex poisoned");
        debug_assert_eq!(*st, CellState::Pending, "ReadyCell published twice");
        *st = CellState::Ready;
        self.cv.notify_all();
    }

    /// Mark the copy as failed (staging panic or abandonment) and wake
    /// all waiters; they observe `Err(msg)`.
    pub fn publish_failed(&self, msg: impl Into<String>) {
        let mut st = self.state.lock().expect("ReadyCell mutex poisoned");
        if *st == CellState::Pending {
            *st = CellState::Failed(msg.into());
            self.cv.notify_all();
        }
    }

    /// Resolve the cell as failed only if nobody published it — used by
    /// drop guards so a copy that never ran (coordinator unwound with
    /// the plan still queued) cannot strand waiters forever.
    pub fn publish_failed_if_pending(&self, msg: &str) {
        self.publish_failed(msg);
    }

    /// Block until the copy resolves. `Ok(())` means the bytes are in
    /// place; `Err(msg)` means the copy failed and the caller must treat
    /// its own work as transitively failed.
    pub fn wait(&self) -> Result<(), String> {
        let mut st = self.state.lock().expect("ReadyCell mutex poisoned");
        while *st == CellState::Pending {
            st = self.cv.wait(st).expect("ReadyCell mutex poisoned");
        }
        match &*st {
            CellState::Ready => Ok(()),
            CellState::Failed(msg) => Err(msg.clone()),
            CellState::Pending => unreachable!(),
        }
    }

    /// Non-blocking probe: `true` once the copy landed successfully.
    pub(crate) fn is_ready(&self) -> bool {
        *self.state.lock().expect("ReadyCell mutex poisoned") == CellState::Ready
    }

    /// Non-blocking probe of the resolution, `None` while pending.
    pub fn poll(&self) -> Option<Result<(), String>> {
        match &*self.state.lock().expect("ReadyCell mutex poisoned") {
            CellState::Pending => None,
            CellState::Ready => Some(Ok(())),
            CellState::Failed(msg) => Some(Err(msg.clone())),
        }
    }
}

/// Coordinator-owned registry of in-flight staged copies.
///
/// Single-threaded by construction (only the coordinator touches it);
/// the [`ReadyCell`]s it hands out are the only shared state.
///
/// The maps are only ever iterated by `retain` with a side-effect-free
/// predicate, or counted: what survives does not depend on the order
/// visited, so [`IdMap`]'s order reaches no plan.
#[derive(Default, Debug)]
pub struct StagingLedger {
    cells: IdMap<(DataId, MemSpace), Arc<ReadyCell>>,
    epochs: IdMap<(DataId, MemSpace), u64>,
}

impl StagingLedger {
    /// Empty ledger.
    pub fn new() -> StagingLedger {
        StagingLedger::default()
    }

    /// Record a planned copy and return `(wait_src, publish)`:
    /// `wait_src` is the cell the copy must wait on before reading its
    /// source (if the source space's copy is itself still in flight),
    /// `publish` is the fresh cell the copy must resolve once its bytes
    /// land (or fail).
    pub fn plan_copy(&mut self, t: &Transfer) -> (Option<Arc<ReadyCell>>, Arc<ReadyCell>) {
        let wait_src = self.pending(t.data, t.from);
        let key = (t.data, t.to);
        let epoch = self.epochs.entry(key).or_insert(0);
        *epoch += 1;
        let cell = ReadyCell::new(*epoch);
        self.cells.insert(key, Arc::clone(&cell));
        (wait_src, cell)
    }

    /// The unresolved (or failed) cell guarding `(data, space)`, if any.
    /// Returns `None` once the copy landed successfully — readers then
    /// need no synchronization at all.
    pub fn pending(&self, data: DataId, space: MemSpace) -> Option<Arc<ReadyCell>> {
        self.cells.get(&(data, space)).filter(|c| !c.is_ready()).map(Arc::clone)
    }

    /// Latest epoch installed for `(data, space)` (0 if never staged).
    pub fn epoch(&self, data: DataId, space: MemSpace) -> u64 {
        self.epochs.get(&(data, space)).copied().unwrap_or(0)
    }

    /// Drop cells whose copies landed. Failed cells are kept until a
    /// write or replan supersedes them, so late planners still observe
    /// the failure conservatively.
    pub fn prune(&mut self) {
        self.cells.retain(|_, c| !c.is_ready());
    }

    /// A writer of `data` was planned: every staged copy of `data` is
    /// either published (invariant 1) or rolled back, so all remaining
    /// cells — in particular stale `Failed` ones whose rollback already
    /// ran — are moot and must not gate future readers.
    pub fn note_write(&mut self, data: DataId) {
        self.cells.retain(|(d, _), _| *d != data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tx(data: u32, from: MemSpace, to: MemSpace) -> Transfer {
        Transfer { data: DataId(data), from, to, bytes: 64 }
    }

    #[test]
    fn plan_publish_wait_roundtrip() {
        let mut ledger = StagingLedger::new();
        let (wait_src, publish) = ledger.plan_copy(&tx(0, MemSpace::HOST, MemSpace::device(0)));
        assert!(wait_src.is_none(), "host source has no in-flight copy");
        assert!(!publish.is_ready());
        assert!(ledger.pending(DataId(0), MemSpace::device(0)).is_some());
        publish.publish_ok();
        assert!(publish.is_ready());
        assert_eq!(publish.wait(), Ok(()));
        assert!(ledger.pending(DataId(0), MemSpace::device(0)).is_none());
    }

    #[test]
    fn chained_copy_waits_on_in_flight_source() {
        let mut ledger = StagingLedger::new();
        let (_, first) = ledger.plan_copy(&tx(0, MemSpace::HOST, MemSpace::device(0)));
        // Second copy sources from dev0 while dev0's bytes are in flight.
        let (wait_src, _second) = ledger.plan_copy(&tx(0, MemSpace::device(0), MemSpace::device(1)));
        let src = wait_src.expect("must latch the in-flight source cell");
        assert!(Arc::ptr_eq(&src, &first));
    }

    #[test]
    fn epochs_increase_per_key_and_latest_cell_wins() {
        let mut ledger = StagingLedger::new();
        let (_, c1) = ledger.plan_copy(&tx(0, MemSpace::HOST, MemSpace::device(0)));
        c1.publish_failed("injected");
        let (_, c2) = ledger.plan_copy(&tx(0, MemSpace::HOST, MemSpace::device(0)));
        assert_eq!(c1.epoch(), 1);
        assert_eq!(c2.epoch(), 2);
        assert_eq!(ledger.epoch(DataId(0), MemSpace::device(0)), 2);
        // Readers latch the latest (pending) cell, not the failed one.
        let latest = ledger.pending(DataId(0), MemSpace::device(0)).unwrap();
        assert_eq!(latest.epoch(), 2);
        // Independent key keeps its own epoch counter.
        let (_, other) = ledger.plan_copy(&tx(1, MemSpace::HOST, MemSpace::device(0)));
        assert_eq!(other.epoch(), 1);
    }

    #[test]
    fn failed_cell_propagates_message_to_waiters() {
        let mut ledger = StagingLedger::new();
        let (_, cell) = ledger.plan_copy(&tx(0, MemSpace::HOST, MemSpace::device(0)));
        let waiter = Arc::clone(&cell);
        let h = std::thread::spawn(move || waiter.wait());
        std::thread::sleep(Duration::from_millis(10));
        cell.publish_failed("copy exploded");
        assert_eq!(h.join().unwrap(), Err("copy exploded".to_string()));
        // Failed cells survive prune (late planners must still see them)…
        ledger.prune();
        assert!(ledger.pending(DataId(0), MemSpace::device(0)).is_some());
        // …until a writer supersedes them.
        ledger.note_write(DataId(0));
        assert!(ledger.pending(DataId(0), MemSpace::device(0)).is_none());
    }

    #[test]
    fn publish_failed_after_ok_is_a_noop() {
        let mut ledger = StagingLedger::new();
        let (_, cell) = ledger.plan_copy(&tx(0, MemSpace::HOST, MemSpace::device(0)));
        cell.publish_ok();
        cell.publish_failed_if_pending("dropped");
        assert_eq!(cell.wait(), Ok(()));
    }

    #[test]
    fn prune_drops_only_ready_cells() {
        let mut ledger = StagingLedger::new();
        let (_, a) = ledger.plan_copy(&tx(0, MemSpace::HOST, MemSpace::device(0)));
        let (_, _b) = ledger.plan_copy(&tx(1, MemSpace::HOST, MemSpace::device(0)));
        a.publish_ok();
        assert_eq!(ledger.cells.values().filter(|c| !c.is_ready()).count(), 1);
        ledger.prune();
        assert!(ledger.pending(DataId(0), MemSpace::device(0)).is_none());
        assert!(ledger.pending(DataId(1), MemSpace::device(0)).is_some());
    }
}
