//! Native-mode backing store: real per-space byte buffers.
//!
//! In native execution every address space — the host and each emulated
//! accelerator — owns an [`Arena`]: a map from [`DataId`] to a real byte
//! buffer. Coherence transfers become `memcpy`s between arenas, and kernels
//! receive slices into the arena of the space they execute in, so a task
//! scheduled on an emulated GPU genuinely cannot see host memory.
//!
//! Buffers are reference-counted (`Arc<AlignedBuf>`): read-only kernel
//! arguments clone the `Arc` ([`Arena::read_arc`]) and view the bytes in
//! place with zero copies, while writers take the buffer out of the map
//! ([`Arena::with_buffers`]) and unwrap it to unique ownership. The task
//! graph's dependence tracking guarantees no reader/writer overlap on the
//! same allocation in the same space, so unwrap contention is limited to
//! the instants a transfer briefly holds a second reference.

use crate::{AlignedBuf, DataId, IdMap, MemSpace, Transfer};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

type SpaceMap = IdMap<DataId, Arc<AlignedBuf>>;

/// One space's buffer pool.
type Space = Arc<Mutex<SpaceMap>>;

/// Per-space buffer pools for native execution.
///
/// Buffers are lazily created in device spaces on first transfer. All
/// buffers for one allocation have the registered size; transfers always
/// move whole allocations (matching the [`Directory`](crate::Directory)'s
/// handle-granularity coherence).
///
/// Each space's map sits behind one lock. The stagers, the exec lanes
/// and the write-back lane share it, but transfers copy and kernels run
/// outside it; only [`Arena::write`] copies bytes under it. No method
/// panics while it holds the lock, so a caught misuse panic leaves the
/// space usable.
///
/// The space list can grow after construction ([`Arena::add_spaces`]) so
/// remote nodes attached mid-setup get local mirror spaces; existing
/// spaces are never removed or renumbered.
pub struct Arena {
    spaces: RwLock<Vec<Space>>,
}

impl Arena {
    /// An arena covering the host plus `devices` device spaces.
    pub fn new(devices: usize) -> Arena {
        Arena { spaces: RwLock::new((0..devices + 1).map(|_| Space::default()).collect()) }
    }

    /// Number of spaces (host + devices).
    pub fn space_count(&self) -> usize {
        self.spaces.read().expect("arena lock poisoned").len()
    }

    /// Append `n` fresh empty spaces (mirror spaces for remote devices).
    /// Existing space indices are unaffected.
    pub fn add_spaces(&self, n: usize) {
        let mut spaces = self.spaces.write().expect("arena lock poisoned");
        let len = spaces.len() + n;
        spaces.resize_with(len, Space::default);
    }

    fn space(&self, s: MemSpace) -> Space {
        let spaces = self.spaces.read().expect("arena lock poisoned");
        spaces.get(s.index()).cloned().unwrap_or_else(|| panic!("space {s} not present in arena"))
    }

    /// Run `f` holding the lock of space `s`. The outer space list lock
    /// is released before `f` runs, so `add_spaces` never deadlocks
    /// against in-flight buffer operations. `f` must not panic.
    fn with_space<R>(&self, s: MemSpace, f: impl FnOnce(&mut SpaceMap) -> R) -> R {
        f(&mut lock(&self.space(s)))
    }

    /// Create the host buffer for `data`, initialized from `init`.
    ///
    /// # Panics
    /// Panics if `data` already has a host buffer.
    pub fn alloc_host(&self, data: DataId, init: &[u8]) {
        self.alloc_host_buf(data, AlignedBuf::from_bytes(init));
    }

    /// Adopt `buf` as the host buffer for `data`.
    ///
    /// # Panics
    /// Panics if `data` already has a host buffer.
    pub fn alloc_host_buf(&self, data: DataId, buf: AlignedBuf) {
        let mut fresh = false;
        self.with_space(MemSpace::HOST, |host| {
            host.entry(data).or_insert_with(|| {
                fresh = true;
                Arc::new(buf)
            });
        });
        assert!(fresh, "{data:?} allocated twice on host");
    }

    /// Create a zero-filled host buffer of `len` bytes for `data`.
    ///
    /// # Panics
    /// Panics if `data` already has a host buffer.
    pub fn alloc_host_zeroed(&self, data: DataId, len: usize) {
        self.alloc_host_buf(data, AlignedBuf::zeroed(len));
    }

    /// Drop every buffer of `data` in every space.
    pub fn free(&self, data: DataId) {
        for s in self.spaces.read().expect("arena lock poisoned").iter() {
            // Bound to a name so the buffer is freed after the lock drops.
            let _buf = lock(s).remove(&data);
        }
    }

    /// Perform a real copy for `t`, creating the destination buffer if
    /// needed.
    ///
    /// # Panics
    /// Panics if the source buffer does not exist or sizes mismatch.
    pub fn perform(&self, t: &Transfer) {
        assert_ne!(t.from, t.to, "degenerate transfer");
        let src = self.read_arc(t.data, t.from);
        assert_eq!(src.len() as u64, t.bytes, "transfer size mismatch for {:?}", t.data);
        // Deep copy outside the source lock: each space owns its bytes.
        let copy = Arc::new(AlignedBuf::clone(&src));
        self.with_space(t.to, |to| to.insert(t.data, copy));
    }

    /// Read the bytes of `data` in `space` (copies out).
    ///
    /// # Panics
    /// Panics if no buffer exists there.
    pub fn read(&self, data: DataId, space: MemSpace) -> Vec<u8> {
        self.read_arc(data, space).as_bytes().to_vec()
    }

    /// Shared handle to the buffer of `data` in `space` — the zero-copy
    /// path for read-only kernel arguments.
    ///
    /// # Panics
    /// Panics if no buffer exists there.
    pub fn read_arc(&self, data: DataId, space: MemSpace) -> Arc<AlignedBuf> {
        let buf = self.with_space(space, |sp| sp.get(&data).map(Arc::clone));
        buf.unwrap_or_else(|| panic!("{data:?} has no buffer in {space}"))
    }

    /// Overwrite the bytes of `data` in `space`.
    ///
    /// # Panics
    /// Panics if no buffer exists there or the length differs.
    pub fn write(&self, data: DataId, space: MemSpace, bytes: &[u8]) {
        let len = self.with_space(space, |sp| {
            let arc = sp.get_mut(&data)?;
            if arc.len() == bytes.len() {
                // Clones only if a reader still holds the old version.
                Arc::make_mut(arc).as_bytes_mut().copy_from_slice(bytes);
            }
            Some(arc.len())
        });
        let len = len.unwrap_or_else(|| panic!("{data:?} has no buffer in {space}"));
        assert_eq!(len, bytes.len(), "write size mismatch for {data:?}");
    }

    /// Whether `data` has a buffer in `space`.
    #[cfg(test)]
    pub(crate) fn has(&self, data: DataId, space: MemSpace) -> bool {
        self.with_space(space, |sp| sp.contains_key(&data))
    }

    /// Materialize a zero-filled buffer of `len` bytes for `data` in
    /// `space` if none exists yet. Needed for `output`-only accesses on
    /// devices: no copy-in happens, but the kernel still needs backing
    /// memory to write into.
    pub fn ensure(&self, data: DataId, space: MemSpace, len: usize) {
        if !self.with_space(space, |sp| sp.contains_key(&data)) {
            // Zero-fill outside the lock; a racing `ensure` may insert first.
            let buf = Arc::new(AlignedBuf::zeroed(len));
            self.with_space(space, |sp| {
                sp.entry(data).or_insert(buf);
            });
        }
    }

    /// Take the buffers of several allocations out of `space`, run `f`,
    /// and put them back. This allows a kernel to borrow multiple buffers
    /// mutably at once without holding the space lock while computing.
    ///
    /// If a transfer is mid-copy from one of the buffers, the take-out
    /// spins until the transient reference drops; the task graph's
    /// dependences rule out longer-lived readers.
    ///
    /// The buffers are restored even if `f` panics (the unwind carries
    /// whatever partial writes the kernel made), so a failed task can be
    /// retried with the data still materialized.
    ///
    /// # Panics
    /// Panics if any buffer is missing or an allocation is listed twice;
    /// the buffers already taken go back first, so the arena is unchanged.
    pub fn with_buffers<R>(
        &self,
        space: MemSpace,
        ids: &[DataId],
        f: impl FnOnce(&mut [AlignedBuf]) -> R,
    ) -> R {
        let sp = self.space(space);
        let mut arcs: Vec<Arc<AlignedBuf>> = Vec::with_capacity(ids.len());
        let mut map = lock(&sp);
        for id in ids {
            match map.remove(id) {
                Some(arc) => arcs.push(arc),
                None => {
                    map.extend(ids.iter().copied().zip(arcs));
                    drop(map);
                    panic!("{id:?} has no buffer in {space} (or listed twice)");
                }
            }
        }
        drop(map);
        let mut bufs: Vec<AlignedBuf> = arcs
            .into_iter()
            .map(|mut arc| loop {
                match Arc::try_unwrap(arc) {
                    Ok(buf) => break buf,
                    Err(shared) => {
                        arc = shared;
                        std::thread::yield_now();
                    }
                }
            })
            .collect();

        // Put the buffers back even if `f` panics: a panicking kernel
        // must not leave the arena with missing allocations.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut bufs)));
        lock(&sp).extend(ids.iter().copied().zip(bufs.into_iter().map(Arc::new)));
        result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }
}

/// Lock one space's map.
fn lock(space: &Mutex<SpaceMap>) -> MutexGuard<'_, SpaceMap> {
    space.lock().expect("arena lock poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer(data: DataId, from: MemSpace, to: MemSpace, bytes: u64) -> Transfer {
        Transfer { data, from, to, bytes }
    }

    #[test]
    fn alloc_and_read_host() {
        let a = Arena::new(2);
        a.alloc_host(DataId(0), &[1, 2, 3]);
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![1, 2, 3]);
        assert!(a.has(DataId(0), MemSpace::HOST));
        assert!(!a.has(DataId(0), MemSpace::device(0)));
    }

    #[test]
    fn transfer_copies_bytes_between_spaces() {
        let a = Arena::new(1);
        a.alloc_host(DataId(0), &[9, 8, 7, 6]);
        a.perform(&transfer(DataId(0), MemSpace::HOST, MemSpace::device(0), 4));
        assert_eq!(a.read(DataId(0), MemSpace::device(0)), vec![9, 8, 7, 6]);
        // Mutate on device, copy back.
        a.write(DataId(0), MemSpace::device(0), &[42, 8, 7, 6]);
        a.perform(&transfer(DataId(0), MemSpace::device(0), MemSpace::HOST, 4));
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![42, 8, 7, 6]);
    }

    #[test]
    fn transfers_deep_copy_not_alias() {
        let a = Arena::new(1);
        a.alloc_host(DataId(0), &[1, 2]);
        a.perform(&transfer(DataId(0), MemSpace::HOST, MemSpace::device(0), 2));
        a.write(DataId(0), MemSpace::device(0), &[99, 2]);
        // Host copy is unaffected: spaces own their bytes.
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![1, 2]);
    }

    #[test]
    fn read_arc_shares_until_write() {
        let a = Arena::new(0);
        a.alloc_host(DataId(0), &[5, 6]);
        let shared = a.read_arc(DataId(0), MemSpace::HOST);
        // A write while a reader holds the Arc must not mutate the
        // reader's view (copy-on-write via make_mut).
        a.write(DataId(0), MemSpace::HOST, &[7, 8]);
        assert_eq!(shared.as_bytes(), &[5, 6]);
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![7, 8]);
    }

    #[test]
    fn with_buffers_takes_and_restores() {
        let a = Arena::new(0);
        a.alloc_host(DataId(0), &[1, 1]);
        a.alloc_host(DataId(1), &[2, 2]);
        a.with_buffers(MemSpace::HOST, &[DataId(0), DataId(1)], |bufs| {
            assert_eq!(bufs.len(), 2);
            bufs[0].as_bytes_mut()[0] = 10;
            bufs[1].as_bytes_mut()[1] = 20;
        });
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![10, 1]);
        assert_eq!(a.read(DataId(1), MemSpace::HOST), vec![2, 20]);
    }

    #[test]
    fn with_buffers_waits_out_transient_readers() {
        let a = Arc::new(Arena::new(0));
        a.alloc_host(DataId(0), &[0; 8]);
        let reader = a.read_arc(DataId(0), MemSpace::HOST);
        let a2 = Arc::clone(&a);
        let t = std::thread::spawn(move || {
            a2.with_buffers(MemSpace::HOST, &[DataId(0)], |bufs| {
                bufs[0].as_bytes_mut()[0] = 1;
            });
        });
        // The writer spins until this reference drops.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(reader);
        t.join().unwrap();
        assert_eq!(a.read(DataId(0), MemSpace::HOST)[0], 1);
    }

    #[test]
    fn with_buffers_restores_on_panic() {
        let a = Arena::new(0);
        a.alloc_host(DataId(0), &[1, 2]);
        a.alloc_host(DataId(1), &[3, 4]);
        let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.with_buffers(MemSpace::HOST, &[DataId(0), DataId(1)], |bufs| {
                bufs[0].as_bytes_mut()[0] = 9;
                panic!("kernel blew up");
            })
        }));
        assert!(unwind.is_err());
        // Both buffers are back in the arena — a retry can still run —
        // and carry whatever the kernel wrote before panicking.
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![9, 2]);
        assert_eq!(a.read(DataId(1), MemSpace::HOST), vec![3, 4]);
    }

    #[test]
    fn misuse_panics_put_back_what_they_took() {
        let a = Arena::new(1);
        a.alloc_host(DataId(0), &[1, 2]);
        a.alloc_host(DataId(1), &[3, 4]);
        let take = |ids: &[DataId]| a.with_buffers(MemSpace::HOST, ids, |_| unreachable!());
        let too_long = transfer(DataId(0), MemSpace::HOST, MemSpace::device(0), 3);
        let misuses: [(&dyn Fn(), &str); 8] = [
            (&|| take(&[DataId(0), DataId(5)]), "no buffer"),
            (&|| take(&[DataId(1), DataId(0), DataId(1)]), "listed twice"),
            (&|| a.alloc_host(DataId(0), &[9]), "allocated twice"),
            (&|| _ = a.read(DataId(7), MemSpace::HOST), "no buffer"),
            (&|| a.write(DataId(0), MemSpace::HOST, &[9]), "size mismatch"),
            (&|| a.write(DataId(7), MemSpace::HOST, &[9]), "no buffer"),
            (&|| a.perform(&too_long), "size mismatch"),
            (&|| _ = a.has(DataId(0), MemSpace::device(5)), "not present"),
        ];
        for (misuse, expected) in misuses {
            let msg = crate::panic_message(misuse);
            assert!(msg.contains(expected), "{msg}");
        }
        // Every buffer is back and no space lock is poisoned.
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![1, 2]);
        assert_eq!(a.read(DataId(1), MemSpace::HOST), vec![3, 4]);
        assert!(!a.has(DataId(0), MemSpace::device(0)));
        a.alloc_host(DataId(21), &[5]);
    }

    #[test]
    fn free_drops_all_copies() {
        let a = Arena::new(1);
        a.alloc_host(DataId(0), &[5]);
        a.perform(&transfer(DataId(0), MemSpace::HOST, MemSpace::device(0), 1));
        a.free(DataId(0));
        assert!(!a.has(DataId(0), MemSpace::HOST));
        assert!(!a.has(DataId(0), MemSpace::device(0)));
    }

    #[test]
    fn zeroed_allocation() {
        let a = Arena::new(0);
        a.alloc_host_zeroed(DataId(3), 8);
        assert_eq!(a.read(DataId(3), MemSpace::HOST), vec![0; 8]);
    }

    #[test]
    fn add_spaces_grows_without_disturbing_existing_buffers() {
        let a = Arena::new(1);
        a.alloc_host(DataId(0), &[1, 2]);
        assert_eq!(a.space_count(), 2);
        a.add_spaces(2);
        assert_eq!(a.space_count(), 4);
        // New spaces are live transfer targets; old data is untouched.
        a.perform(&transfer(DataId(0), MemSpace::HOST, MemSpace::device(2), 2));
        assert_eq!(a.read(DataId(0), MemSpace::device(2)), vec![1, 2]);
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![1, 2]);
    }
}
