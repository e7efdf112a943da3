//! Coherence directory.
//!
//! OmpSs replicates shared data across address spaces and manages coherence
//! transparently (paper §III: "Data can be replicated on different memory
//! spaces and coherency is transparently managed by the runtime"). This
//! module implements the decision side of that machinery: a directory that
//! tracks, for every allocation, the set of spaces currently holding the
//! *latest* value, and emits the minimal [`Transfer`]s needed before a task
//! may access the data in a given space.

use crate::{DataId, IdMap, MemSpace, Region, Transfer};
use std::sync::{Mutex, MutexGuard};

/// Number of lock stripes the directory is split into. Entries are
/// keyed to a stripe by data id, so concurrent admissions and staging
/// touching different allocations proceed without contending on one
/// map-wide lock. Power of two so the modulo compiles to a mask.
const SHARDS: usize = 16;

/// How a task accesses a datum. Mirrors the OmpSs dependence clauses
/// `input` / `output` / `inout`, which with `copy_deps` also carry copy
/// semantics (`copy_in` / `copy_out` / `copy_inout`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessMode {
    /// `input`: the task reads the datum; a valid copy must be present.
    In,
    /// `output`: the task overwrites the datum entirely; no copy-in needed.
    Out,
    /// `inout`: read-modify-write; a valid copy must be present and all
    /// other copies become stale.
    InOut,
}

impl AccessMode {
    /// Whether this access needs the current value to be present.
    #[inline]
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::In | AccessMode::InOut)
    }

    /// Whether this access produces a new value.
    #[inline]
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Out | AccessMode::InOut)
    }
}

/// Directory entry for one allocation.
#[derive(Clone, Debug)]
pub struct HandleState {
    /// Size of the allocation in bytes.
    pub bytes: u64,
    /// Spaces currently holding the latest value. Invariant: non-empty.
    /// Kept sorted for determinism.
    valid: Vec<MemSpace>,
}

impl HandleState {
    /// Spaces currently holding the latest value.
    pub fn valid_spaces(&self) -> &[MemSpace] {
        &self.valid
    }

    fn insert(&mut self, space: MemSpace) {
        if let Err(pos) = self.valid.binary_search(&space) {
            self.valid.insert(pos, space);
        }
    }
}

/// The coherence directory: one [`HandleState`] per registered allocation.
///
/// The directory is a *decision* structure — it answers "what transfers
/// must happen for space S to access datum D?" and updates its validity
/// bookkeeping as if those transfers were performed. Execution engines are
/// responsible for actually carrying the transfers out (in virtual or real
/// time) before the task body runs.
///
/// The directory is lock-striped internally ([`SHARDS`] stripes keyed
/// by data id), so every method takes `&self` and concurrent callers
/// touching different allocations never serialize on a common lock.
///
/// ```
/// use versa_mem::{AccessMode, DataId, Directory, MemSpace};
///
/// let dir = Directory::new();
/// let tile = DataId(0);
/// dir.register(tile, 8 << 20, MemSpace::HOST);
///
/// // A GPU task reads the tile: one host→device copy (Input Tx).
/// let t = dir.acquire(tile, MemSpace::device(0), AccessMode::In).unwrap();
/// assert_eq!(t.from, MemSpace::HOST);
///
/// // It then updates the tile in place: the GPU copy becomes the only
/// // valid one, and a taskwait needs a write-back (Output Tx).
/// assert!(dir.acquire(tile, MemSpace::device(0), AccessMode::InOut).is_none());
/// assert!(!dir.valid_in(tile, MemSpace::HOST));
/// let wb = dir.flush_to_host(tile).unwrap();
/// assert_eq!(wb.to, MemSpace::HOST);
/// ```
#[derive(Debug)]
pub struct Directory {
    shards: Vec<Mutex<IdMap<DataId, HandleState>>>,
}

impl Default for Directory {
    fn default() -> Self {
        Directory::new()
    }
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Directory {
        Directory { shards: (0..SHARDS).map(|_| Mutex::new(IdMap::default())).collect() }
    }

    /// The stripe holding `data`'s entry.
    fn shard(&self, data: DataId) -> MutexGuard<'_, IdMap<DataId, HandleState>> {
        self.shards[data.0 as usize % SHARDS].lock().expect("directory shard poisoned")
    }

    /// Register an allocation of `bytes` bytes whose initial valid copy
    /// lives in `home` (usually [`MemSpace::HOST`]).
    ///
    /// # Panics
    /// Panics if `data` is already registered.
    pub fn register(&self, data: DataId, bytes: u64, home: MemSpace) {
        let prev = self.shard(data).insert(data, HandleState { bytes, valid: vec![home] });
        assert!(prev.is_none(), "{data:?} registered twice");
    }

    /// Remove an allocation from the directory (user freed it).
    pub fn unregister(&self, data: DataId) {
        self.shard(data).remove(&data);
    }

    /// State of one allocation, if registered (a point-in-time copy —
    /// the entry lives behind a stripe lock).
    pub fn state(&self, data: DataId) -> Option<HandleState> {
        self.shard(data).get(&data).cloned()
    }

    /// Whether `space` holds the latest value of `data`.
    pub fn valid_in(&self, data: DataId, space: MemSpace) -> bool {
        self.shard(data)
            .get(&data)
            .map(|e| e.valid.binary_search(&space).is_ok())
            .unwrap_or(false)
    }

    /// Size in bytes of a registered allocation.
    ///
    /// # Panics
    /// Panics if `data` is not registered.
    pub fn bytes(&self, data: DataId) -> u64 {
        self.shard(data).get(&data).unwrap_or_else(|| panic!("{data:?} not registered")).bytes
    }

    /// Make `data` accessible in `space` for the given access mode,
    /// returning the transfer (if any) that must complete first.
    ///
    /// Source-selection policy when a copy-in is required: prefer the host
    /// if it holds a valid copy, otherwise the lowest-numbered valid device
    /// (deterministic). A device-to-device transfer is what the paper
    /// reports as *Device Tx*.
    ///
    /// # Panics
    /// Panics if `data` is not registered.
    pub fn acquire(&self, data: DataId, space: MemSpace, mode: AccessMode) -> Option<Transfer> {
        let mut shard = self.shard(data);
        let entry = shard.get_mut(&data).expect("acquire of unregistered data");
        let mut transfer = None;
        if mode.reads() && entry.valid.binary_search(&space).is_err() {
            // Need a copy-in. `valid` is sorted and HOST is the smallest
            // space id, so the first element implements "prefer host".
            let from = *entry.valid.first().expect("directory invariant: valid set non-empty");
            transfer = Some(Transfer { data, from, to: space, bytes: entry.bytes });
            entry.insert(space);
        }
        if mode.writes() {
            // The writer's copy becomes the only valid one (an `Out`
            // access needs no copy-in at all: the task produces the value).
            entry.valid.clear();
            entry.valid.push(space);
        }
        transfer
    }

    /// Drop the copy of `data` held by `space` (capacity eviction). If
    /// `space` holds the *only* valid copy, the caller must flush it to
    /// the host first — evicting a sole copy would lose the value, so
    /// this panics instead.
    ///
    /// # Panics
    /// Panics if `data` is unregistered, `space` holds no valid copy, or
    /// `space` holds the only valid copy.
    pub fn invalidate(&self, data: DataId, space: MemSpace) {
        let mut shard = self.shard(data);
        let entry = shard.get_mut(&data).expect("invalidate of unregistered data");
        let pos = entry
            .valid
            .binary_search(&space)
            .unwrap_or_else(|_| panic!("{data:?} has no valid copy in {space}"));
        assert!(
            entry.valid.len() > 1,
            "evicting the only valid copy of {data:?} from {space} — flush it first"
        );
        entry.valid.remove(pos);
    }

    /// Whether `space` holds the *only* valid copy of `data` (an
    /// eviction would require a write-back first).
    pub fn is_sole_copy(&self, data: DataId, space: MemSpace) -> bool {
        self.shard(data)
            .get(&data)
            .map(|e| e.valid.len() == 1 && e.valid[0] == space)
            .unwrap_or(false)
    }

    /// Ensure the host holds the latest value of `data` (an OmpSs
    /// `taskwait` flush), returning the transfer needed, if any.
    ///
    /// # Panics
    /// Panics if `data` is not registered.
    pub fn flush_to_host(&self, data: DataId) -> Option<Transfer> {
        let mut shard = self.shard(data);
        let entry = shard.get_mut(&data).expect("flush of unregistered data");
        if entry.valid.binary_search(&MemSpace::HOST).is_ok() {
            return None;
        }
        let from = *entry.valid.first().expect("directory invariant: valid set non-empty");
        entry.insert(MemSpace::HOST);
        Some(Transfer { data, from, to: MemSpace::HOST, bytes: entry.bytes })
    }

    /// Flush every allocation to the host, returning all needed transfers
    /// (a full `taskwait` without `noflush`). Ids are sorted before
    /// flushing so the transfer order stays deterministic regardless of
    /// stripe layout and of the stripes' hash order.
    pub fn flush_all_to_host(&self) -> Vec<Transfer> {
        let mut ids: Vec<DataId> = Vec::new();
        for shard in &self.shards {
            ids.extend(shard.lock().expect("directory shard poisoned").keys().copied());
        }
        ids.sort_unstable();
        ids.into_iter().filter_map(|d| self.flush_to_host(d)).collect()
    }

    /// Copy of one allocation's full state, for exact restore after a
    /// failed optimistic update (async staging rollback of a writer's
    /// acquire — see `versa-runtime`'s native engine).
    pub fn snapshot(&self, data: DataId) -> Option<HandleState> {
        self.shard(data).get(&data).cloned()
    }

    /// Overwrite one allocation's state with a previously taken
    /// [`Directory::snapshot`]. No-op if the allocation was unregistered
    /// in the meantime.
    pub fn restore(&self, data: DataId, state: HandleState) {
        if let Some(e) = self.shard(data).get_mut(&data) {
            *e = state;
        }
    }

    /// Undo one optimistic read copy-in: drop `space` from the valid set
    /// of `data` *if* it is present and not the sole copy. Unlike
    /// [`Directory::invalidate`] this never panics — retracting is
    /// commutative across any number of failed concurrent copy-ins, and
    /// a retraction can never strand the value because the copy being
    /// retracted was planned *from* another valid space which the
    /// planner never removed (readers only add validity).
    pub fn retract(&self, data: DataId, space: MemSpace) {
        if let Some(e) = self.shard(data).get_mut(&data) {
            if e.valid.len() > 1 {
                if let Ok(pos) = e.valid.binary_search(&space) {
                    e.valid.remove(pos);
                }
            }
        }
    }

    /// Bytes that would have to be copied into `space` for a task with the
    /// given accesses to run there (the affinity scheduler's objective:
    /// "the amount of data that should be transferred to a certain device
    /// in order to execute the task", paper §V-A).
    ///
    /// Each accessed allocation is counted once even if it appears in
    /// several access entries, matching the paper's footnote 2.
    pub fn bytes_missing_for(&self, accesses: &[(Region, AccessMode)], space: MemSpace) -> u64 {
        let mut seen: Vec<DataId> = Vec::with_capacity(accesses.len());
        let mut total = 0;
        for (region, mode) in accesses {
            if !mode.reads() || seen.contains(&region.data) {
                continue;
            }
            seen.push(region.data);
            // One stripe lock per datum: read validity and size together.
            let shard = self.shard(region.data);
            match shard.get(&region.data) {
                Some(e) if e.valid.binary_search(&space).is_err() => total += e.bytes,
                Some(_) => {}
                None => panic!("{:?} not registered", region.data),
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir_with(data: DataId, bytes: u64) -> Directory {
        let d = Directory::new();
        d.register(data, bytes, MemSpace::HOST);
        d
    }

    #[test]
    fn read_in_home_space_needs_no_transfer() {
        let dir = dir_with(DataId(0), 64);
        assert_eq!(dir.acquire(DataId(0), MemSpace::HOST, AccessMode::In), None);
    }

    #[test]
    fn read_on_device_copies_from_host() {
        let dir = dir_with(DataId(0), 64);
        let t = dir.acquire(DataId(0), MemSpace::device(0), AccessMode::In).unwrap();
        assert_eq!(t.from, MemSpace::HOST);
        assert_eq!(t.to, MemSpace::device(0));
        assert_eq!(t.bytes, 64);
        // Replicated: both copies valid, second read is free.
        assert!(dir.valid_in(DataId(0), MemSpace::HOST));
        assert!(dir.valid_in(DataId(0), MemSpace::device(0)));
        assert_eq!(dir.acquire(DataId(0), MemSpace::device(0), AccessMode::In), None);
    }

    #[test]
    fn inout_invalidates_other_copies() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::In);
        let t = dir.acquire(DataId(0), MemSpace::device(0), AccessMode::InOut);
        assert_eq!(t, None); // already valid there
        assert!(!dir.valid_in(DataId(0), MemSpace::HOST));
        assert!(dir.valid_in(DataId(0), MemSpace::device(0)));
    }

    #[test]
    fn out_needs_no_copy_in_but_claims_ownership() {
        let dir = dir_with(DataId(0), 64);
        let t = dir.acquire(DataId(0), MemSpace::device(1), AccessMode::Out);
        assert_eq!(t, None);
        assert!(dir.valid_in(DataId(0), MemSpace::device(1)));
        assert!(!dir.valid_in(DataId(0), MemSpace::HOST));
    }

    #[test]
    fn device_to_device_transfer_when_host_is_stale() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::InOut);
        let t = dir.acquire(DataId(0), MemSpace::device(1), AccessMode::In).unwrap();
        assert_eq!(t.from, MemSpace::device(0));
        assert_eq!(t.to, MemSpace::device(1));
        assert_eq!(t.kind(), crate::TransferKind::Device);
    }

    #[test]
    fn prefers_host_source_when_host_valid() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::In);
        // Host and dev0 both valid; dev1 should pull from host.
        let t = dir.acquire(DataId(0), MemSpace::device(1), AccessMode::In).unwrap();
        assert_eq!(t.from, MemSpace::HOST);
    }

    #[test]
    fn flush_to_host_after_device_write() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::InOut);
        let t = dir.flush_to_host(DataId(0)).unwrap();
        assert_eq!(t.from, MemSpace::device(0));
        assert_eq!(t.to, MemSpace::HOST);
        assert!(dir.valid_in(DataId(0), MemSpace::HOST));
        // Device copy stays valid (flush replicates, doesn't invalidate).
        assert!(dir.valid_in(DataId(0), MemSpace::device(0)));
        assert_eq!(dir.flush_to_host(DataId(0)), None);
    }

    #[test]
    fn flush_all_covers_every_dirty_allocation() {
        let dir = Directory::new();
        dir.register(DataId(0), 10, MemSpace::HOST);
        dir.register(DataId(1), 20, MemSpace::HOST);
        dir.register(DataId(2), 30, MemSpace::HOST);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::InOut);
        dir.acquire(DataId(2), MemSpace::device(1), AccessMode::Out);
        let ts = dir.flush_all_to_host();
        assert_eq!(ts.len(), 2);
        assert!(ts.iter().all(|t| t.to == MemSpace::HOST));
        assert!((0..3).all(|i| dir.valid_in(DataId(i), MemSpace::HOST)));
    }

    #[test]
    fn bytes_missing_counts_each_allocation_once() {
        let dir = Directory::new();
        dir.register(DataId(0), 100, MemSpace::HOST);
        dir.register(DataId(1), 50, MemSpace::HOST);
        let accesses = [
            (Region::whole(DataId(0), 100), AccessMode::In),
            (Region::whole(DataId(0), 100), AccessMode::InOut), // same datum twice
            (Region::whole(DataId(1), 50), AccessMode::Out),    // write-only: no copy-in
        ];
        assert_eq!(dir.bytes_missing_for(&accesses, MemSpace::device(0)), 100);
        assert_eq!(dir.bytes_missing_for(&accesses, MemSpace::HOST), 0);
    }

    #[test]
    fn invalidate_drops_replicas() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::In);
        assert!(!dir.is_sole_copy(DataId(0), MemSpace::device(0)));
        dir.invalidate(DataId(0), MemSpace::device(0));
        assert!(!dir.valid_in(DataId(0), MemSpace::device(0)));
        assert!(dir.valid_in(DataId(0), MemSpace::HOST));
        assert!(dir.is_sole_copy(DataId(0), MemSpace::HOST));
    }

    #[test]
    #[should_panic(expected = "only valid copy")]
    fn invalidating_sole_copy_panics() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::InOut);
        assert!(dir.is_sole_copy(DataId(0), MemSpace::device(0)));
        dir.invalidate(DataId(0), MemSpace::device(0));
    }

    #[test]
    fn eviction_after_flush_is_legal() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::InOut);
        let wb = dir.flush_to_host(DataId(0)).unwrap();
        assert_eq!(wb.to, MemSpace::HOST);
        dir.invalidate(DataId(0), MemSpace::device(0));
        assert!(dir.is_sole_copy(DataId(0), MemSpace::HOST));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_register_panics() {
        let dir = dir_with(DataId(0), 1);
        dir.register(DataId(0), 1, MemSpace::HOST);
    }

    #[test]
    fn snapshot_restore_roundtrip_undoes_a_write() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::In);
        let snap = dir.snapshot(DataId(0)).unwrap();
        dir.acquire(DataId(0), MemSpace::device(1), AccessMode::InOut);
        assert!(!dir.valid_in(DataId(0), MemSpace::HOST));
        dir.restore(DataId(0), snap);
        assert!(dir.valid_in(DataId(0), MemSpace::HOST));
        assert!(dir.valid_in(DataId(0), MemSpace::device(0)));
        assert!(!dir.valid_in(DataId(0), MemSpace::device(1)));
    }

    #[test]
    fn retract_undoes_a_read_copy_in() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::In);
        dir.retract(DataId(0), MemSpace::device(0));
        assert!(!dir.valid_in(DataId(0), MemSpace::device(0)));
        assert!(dir.is_sole_copy(DataId(0), MemSpace::HOST));
    }

    #[test]
    fn retract_never_strands_the_sole_copy() {
        let dir = dir_with(DataId(0), 64);
        // Sole copy: retract must be a no-op, not a panic.
        dir.retract(DataId(0), MemSpace::HOST);
        assert!(dir.valid_in(DataId(0), MemSpace::HOST));
        // Absent space / unregistered data: also no-ops.
        dir.retract(DataId(0), MemSpace::device(3));
        dir.retract(DataId(9), MemSpace::HOST);
        assert!(dir.is_sole_copy(DataId(0), MemSpace::HOST));
    }

    #[test]
    fn retract_is_commutative_across_failed_replicas() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::In);
        dir.acquire(DataId(0), MemSpace::device(1), AccessMode::In);
        // Both copies failed; either retraction order leaves only host.
        dir.retract(DataId(0), MemSpace::device(1));
        dir.retract(DataId(0), MemSpace::device(0));
        assert!(dir.is_sole_copy(DataId(0), MemSpace::HOST));
    }

    #[test]
    fn unregister_forgets_the_allocation() {
        let dir = dir_with(DataId(0), 1);
        assert!(dir.valid_in(DataId(0), MemSpace::HOST));
        dir.unregister(DataId(0));
        assert!(dir.state(DataId(0)).is_none());
        assert!(!dir.valid_in(DataId(0), MemSpace::HOST));
    }
}
