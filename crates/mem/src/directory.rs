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
/// All entries sit behind one lock, so every method takes `&self`. One
/// coordinator thread makes every transition, so the lock is
/// uncontended. No method panics while it holds the lock: a misuse
/// (unregistered data, evicting a sole copy) releases it first, so a
/// caught panic leaves the directory usable.
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
    entries: Mutex<IdMap<DataId, HandleState>>,
}

impl Default for Directory {
    fn default() -> Self {
        Directory::new()
    }
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Directory {
        // Room for 32 entries up front. The figure is empirical: grown from
        // empty, the table's reallocations moved `sim_drain`'s glibc heap
        // into a layout that keeps ~9 MB of freed pages resident (same
        // bytes in use, RSS 40 → 49 MB on x86-64 Linux); at 32 it does not.
        let entries = IdMap::with_capacity_and_hasher(32, Default::default());
        Directory { entries: Mutex::new(entries) }
    }

    fn entries(&self) -> MutexGuard<'_, IdMap<DataId, HandleState>> {
        self.entries.lock().expect("directory lock poisoned")
    }

    /// Run `f` on `data`'s entry under the lock. An unregistered `data`
    /// panics, naming `op`, once the lock is released.
    fn with_entry<R>(&self, data: DataId, op: &str, f: impl FnOnce(&mut HandleState) -> R) -> R {
        let result = self.entries().get_mut(&data).map(f);
        result.unwrap_or_else(|| panic!("{op}: {data:?} not registered"))
    }

    /// Register an allocation of `bytes` bytes whose initial valid copy
    /// lives in `home` (usually [`MemSpace::HOST`]).
    ///
    /// # Panics
    /// Panics if `data` is already registered.
    pub fn register(&self, data: DataId, bytes: u64, home: MemSpace) {
        let mut fresh = false;
        self.entries().entry(data).or_insert_with(|| {
            fresh = true;
            HandleState { bytes, valid: vec![home] }
        });
        assert!(fresh, "{data:?} registered twice");
    }

    /// Remove an allocation from the directory (user freed it).
    pub fn unregister(&self, data: DataId) {
        self.entries().remove(&data);
    }

    /// State of one allocation, if registered (a point-in-time copy —
    /// the entry lives behind the directory's lock).
    pub fn state(&self, data: DataId) -> Option<HandleState> {
        self.entries().get(&data).cloned()
    }

    /// Whether `space` holds the latest value of `data`.
    pub fn valid_in(&self, data: DataId, space: MemSpace) -> bool {
        self.entries()
            .get(&data)
            .map(|e| e.valid.binary_search(&space).is_ok())
            .unwrap_or(false)
    }

    /// Size in bytes of a registered allocation. Each call takes the
    /// lock and looks `data` up once; a task's accesses are sized all
    /// together by [`Directory::resolve_accesses`] instead.
    ///
    /// # Panics
    /// Panics if `data` is not registered.
    pub fn bytes(&self, data: DataId) -> u64 {
        self.with_entry(data, "bytes", |e| e.bytes)
    }

    /// Size a task's accesses in one visit — one lock, one lookup per
    /// access — and return its *data set size*: each accessed
    /// allocation counted once, "even if it is an input/output
    /// parameter" (paper footnote 2). A region of length
    /// [`Region::TO_END`] is cut to the end of its allocation; every
    /// region must then lie inside its allocation.
    ///
    /// # Panics
    /// Panics, once the lock is released, if an allocation is not
    /// registered or a region exceeds its allocation.
    pub fn resolve_accesses(&self, accesses: &mut [(Region, AccessMode)]) -> u64 {
        let entries = self.entries();
        let mut data_set = 0;
        for i in 0..accesses.len() {
            let data = accesses[i].0.data;
            let Some(bytes) = entries.get(&data).map(|e| e.bytes) else {
                drop(entries);
                panic!("resolve_accesses: {data:?} not registered");
            };
            // An allocation counts at its first access only; access lists
            // are a handful long, so the quadratic scan beats a set.
            if accesses[..i].iter().all(|(r, _)| r.data != data) {
                data_set += bytes;
            }
            let region = &mut accesses[i].0;
            if region.len == Region::TO_END {
                region.len = bytes.saturating_sub(region.offset);
            }
            if region.end() > bytes {
                let region = *region;
                drop(entries);
                panic!("access {region:?} exceeds allocation size {bytes}");
            }
        }
        data_set
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
        self.with_entry(data, "acquire", |entry| {
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
        })
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
        let (held, copies) = self.with_entry(data, "invalidate", |e| {
            let pos = e.valid.binary_search(&space).ok();
            let copies = e.valid.len();
            if let Some(pos) = pos.filter(|_| copies > 1) {
                e.valid.remove(pos);
            }
            (pos.is_some(), copies)
        });
        assert!(held, "{data:?} has no valid copy in {space}");
        assert!(copies > 1, "evicting the only valid copy of {data:?} from {space} — flush it first");
    }

    /// Whether `space` holds the *only* valid copy of `data` (an
    /// eviction would require a write-back first).
    pub fn is_sole_copy(&self, data: DataId, space: MemSpace) -> bool {
        self.entries()
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
        self.with_entry(data, "flush", |e| {
            if e.valid.binary_search(&MemSpace::HOST).is_ok() {
                return None;
            }
            let from = *e.valid.first().expect("directory invariant: valid set non-empty");
            e.insert(MemSpace::HOST);
            Some(Transfer { data, from, to: MemSpace::HOST, bytes: e.bytes })
        })
    }

    /// Flush every allocation to the host, returning all needed transfers
    /// (a full `taskwait` without `noflush`) in ascending `DataId` order,
    /// whatever the map's hash order.
    pub fn flush_all_to_host(&self) -> Vec<Transfer> {
        let mut ids: Vec<DataId> = self.entries().keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().filter_map(|d| self.flush_to_host(d)).collect()
    }

    /// Copy of one allocation's full state, for exact restore after a
    /// failed optimistic update (async staging rollback of a writer's
    /// acquire — see `versa-runtime`'s native engine).
    pub fn snapshot(&self, data: DataId) -> Option<HandleState> {
        self.state(data)
    }

    /// Overwrite one allocation's state with a previously taken
    /// [`Directory::snapshot`]. No-op if the allocation was unregistered
    /// in the meantime.
    pub fn restore(&self, data: DataId, state: HandleState) {
        if let Some(e) = self.entries().get_mut(&data) {
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
        if let Some(e) = self.entries().get_mut(&data) {
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
    ///
    /// # Panics
    /// Panics if a read allocation is not registered.
    pub fn bytes_missing_for(&self, accesses: &[(Region, AccessMode)], space: MemSpace) -> u64 {
        let entries = self.entries();
        let mut total = 0;
        for (i, (region, mode)) in accesses.iter().enumerate() {
            let seen = |(r, m): &(Region, AccessMode)| m.reads() && r.data == region.data;
            if !mode.reads() || accesses[..i].iter().any(seen) {
                continue;
            }
            match entries.get(&region.data) {
                Some(e) if e.valid.binary_search(&space).is_err() => total += e.bytes,
                Some(_) => {}
                None => {
                    drop(entries);
                    panic!("bytes_missing_for: {:?} not registered", region.data);
                }
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
    fn flush_all_covers_every_dirty_allocation_in_id_order() {
        let dir = Directory::new();
        for i in (0..40).rev() {
            dir.register(DataId(i), 8, MemSpace::HOST);
            if i % 3 != 1 {
                dir.acquire(DataId(i), MemSpace::device(i as u16 % 2), AccessMode::Out);
            }
        }
        let ts = dir.flush_all_to_host();
        assert!(ts.iter().all(|t| t.to == MemSpace::HOST));
        let flushed: Vec<u32> = ts.iter().map(|t| t.data.0).collect();
        assert_eq!(flushed, (0..40).filter(|i| i % 3 != 1).collect::<Vec<_>>());
        assert!((0..40).all(|i| dir.valid_in(DataId(i), MemSpace::HOST)));
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
        // A write before the first read does not hide the read's copy-in.
        let write_then_read = [
            (Region::whole(DataId(0), 100), AccessMode::Out),
            (Region::whole(DataId(0), 100), AccessMode::In),
        ];
        assert_eq!(dir.bytes_missing_for(&write_then_read, MemSpace::device(0)), 100);
    }

    #[test]
    fn resolve_accesses_sizes_whole_regions_and_counts_each_allocation_once() {
        let dir = Directory::new();
        dir.register(DataId(0), 100, MemSpace::HOST);
        dir.register(DataId(1), 50, MemSpace::HOST);
        let mut accesses = [
            (Region::whole(DataId(0), Region::TO_END), AccessMode::In),
            (Region::range(DataId(1), 10, 40), AccessMode::In),
            (Region::range(DataId(0), 20, Region::TO_END), AccessMode::InOut),
        ];
        assert_eq!(dir.resolve_accesses(&mut accesses), 150);
        let regions: Vec<Region> = accesses.iter().map(|(r, _)| *r).collect();
        let expected = [
            Region::whole(DataId(0), 100),
            Region::range(DataId(1), 10, 40),
            Region::range(DataId(0), 20, 80),
        ];
        assert_eq!(regions, expected);
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
    fn eviction_after_flush_is_legal() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::InOut);
        let wb = dir.flush_to_host(DataId(0)).unwrap();
        assert_eq!(wb.to, MemSpace::HOST);
        dir.invalidate(DataId(0), MemSpace::device(0));
        assert!(dir.is_sole_copy(DataId(0), MemSpace::HOST));
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
    fn misuse_panics_leave_the_directory_usable() {
        let dir = dir_with(DataId(0), 64);
        dir.acquire(DataId(0), MemSpace::device(0), AccessMode::InOut);
        let ghost = DataId(16);
        let reads = [(Region::whole(ghost, 8), AccessMode::In)];
        let oversized = [(Region::range(DataId(0), 8, 64), AccessMode::In)];
        let misuses: [(&dyn Fn(), &str); 10] = [
            (&|| _ = dir.acquire(ghost, MemSpace::HOST, AccessMode::In), "not registered"),
            (&|| _ = dir.bytes(ghost), "not registered"),
            (&|| _ = dir.resolve_accesses(&mut reads.clone()), "d16 not registered"),
            (&|| _ = dir.resolve_accesses(&mut oversized.clone()), "exceeds allocation size 64"),
            (&|| dir.invalidate(ghost, MemSpace::HOST), "not registered"),
            (&|| _ = dir.flush_to_host(ghost), "not registered"),
            (&|| _ = dir.bytes_missing_for(&reads, MemSpace::HOST), "not registered"),
            (&|| dir.invalidate(DataId(0), MemSpace::HOST), "no valid copy"),
            (&|| dir.invalidate(DataId(0), MemSpace::device(0)), "only valid copy"),
            (&|| dir.register(DataId(0), 8, MemSpace::HOST), "registered twice"),
        ];
        for (misuse, expected) in misuses {
            let msg = crate::panic_message(misuse);
            assert!(msg.contains(expected), "{msg}");
        }
        // The lock is not poisoned and the entry is untouched.
        assert!(dir.is_sole_copy(DataId(0), MemSpace::device(0)));
        assert_eq!(dir.bytes(DataId(0)), 64);
        dir.register(ghost, 8, MemSpace::HOST);
        assert_eq!(dir.flush_all_to_host().len(), 1);
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
