//! Device-memory capacity tracking with LRU eviction.
//!
//! OmpSs manages device memory as a cache over host data ("the runtime
//! [may] implement different data caching and prefetching techniques",
//! paper §III). Real GPUs are finite — the paper's M2090s hold 6 GB — so
//! when a device space fills up, the runtime must evict replicated tiles
//! (drop them) or write back sole copies before new data can move in.
//!
//! [`DeviceCache`] is the bookkeeping half: it tracks residency and
//! picks LRU victims; the runtime decides whether a victim needs a
//! write-back (it holds the only valid copy) or can simply be dropped.

use crate::{DataId, IdMap};

/// LRU residency tracker for one device memory space.
///
/// ```
/// use versa_mem::{DataId, DeviceCache};
///
/// let mut cache = DeviceCache::new(100);
/// cache.insert(DataId(0), 60);
/// cache.insert(DataId(1), 60); // over capacity
/// // Evict to fit, but the current task's tile (d1) is pinned:
/// let victims = cache.evict_to_capacity(&[DataId(1)]);
/// assert_eq!(victims, vec![DataId(0)]);
/// assert_eq!(cache.used(), 60);
/// ```
#[derive(Debug)]
pub struct DeviceCache {
    capacity: u64,
    used: u64,
    bytes: IdMap<DataId, u64>,
    /// LRU order: front = least recently used.
    order: Vec<DataId>,
}

impl DeviceCache {
    /// Cache with `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> DeviceCache {
        DeviceCache { capacity, used: 0, bytes: IdMap::default(), order: Vec::new() }
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    fn refresh(&mut self, data: DataId) {
        if let Some(pos) = self.order.iter().position(|&d| d == data) {
            self.order.remove(pos);
        }
        self.order.push(data);
    }

    /// Record that `data` (of `bytes` bytes) now resides here (or was
    /// touched again); refreshes its LRU position.
    ///
    /// # Panics
    /// Panics if a single allocation exceeds the device capacity — such
    /// a task set cannot run on this device at all.
    pub fn insert(&mut self, data: DataId, bytes: u64) {
        assert!(
            bytes <= self.capacity,
            "{data:?} ({bytes} B) exceeds device memory capacity ({} B)",
            self.capacity
        );
        // A re-insert with a different size must adjust usage by the
        // delta, not keep the stale contribution.
        let prev = self.bytes.insert(data, bytes);
        self.used = self.used - prev.unwrap_or(0) + bytes;
        self.refresh(data);
    }

    /// Drop `data` from the residency set (evicted or freed).
    pub(crate) fn remove(&mut self, data: DataId) {
        if let Some(b) = self.bytes.remove(&data) {
            self.used -= b;
            if let Some(pos) = self.order.iter().position(|&d| d == data) {
                self.order.remove(pos);
            }
        }
    }

    /// Choose LRU victims until usage fits the capacity, never evicting
    /// `pinned` allocations (the ones the current task needs). Victims
    /// are removed from the cache and returned in eviction order.
    ///
    /// # Panics
    /// Panics if capacity cannot be reached even after evicting every
    /// unpinned allocation (the pinned working set alone overflows the
    /// device).
    pub fn evict_to_capacity(&mut self, pinned: &[DataId]) -> Vec<DataId> {
        let mut victims = Vec::new();
        while self.used > self.capacity {
            let victim = self
                .order
                .iter()
                .copied()
                .find(|d| !pinned.contains(d))
                .unwrap_or_else(|| {
                    panic!(
                        "pinned working set ({} B across {} allocations) exceeds device capacity {} B",
                        self.used,
                        self.bytes.len(),
                        self.capacity
                    )
                });
            self.remove(victim);
            victims.push(victim);
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DataId {
        DataId(i)
    }

    #[test]
    fn tracks_usage_and_residency() {
        let mut c = DeviceCache::new(100);
        c.insert(d(0), 40);
        c.insert(d(1), 30);
        assert_eq!(c.used(), 70);
        assert!(c.bytes.contains_key(&d(0)));
        assert_eq!(c.bytes.len(), 2);
        // Re-inserting the same datum does not double-count.
        c.insert(d(0), 40);
        assert_eq!(c.used(), 70);
    }

    #[test]
    fn reinsert_with_different_size_adjusts_usage() {
        let mut c = DeviceCache::new(100);
        c.insert(d(0), 40);
        c.insert(d(1), 30);
        // Grow d0: usage must reflect the new size, not the stale one.
        c.insert(d(0), 60);
        assert_eq!(c.used(), 90);
        // Shrink d0 back down.
        c.insert(d(0), 10);
        assert_eq!(c.used(), 40);
        // Removing both returns usage to exactly zero (no drift).
        c.remove(d(0));
        c.remove(d(1));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c = DeviceCache::new(100);
        c.insert(d(0), 40);
        c.insert(d(1), 40);
        c.insert(d(0), 40); // touch 0: now 1 is LRU
        c.insert(d(2), 40); // 120 B used
        let victims = c.evict_to_capacity(&[]);
        assert_eq!(victims, vec![d(1)]);
        assert_eq!(c.used(), 80);
        assert!(!c.bytes.contains_key(&d(1)));
    }

    #[test]
    fn pinned_allocations_are_never_evicted() {
        let mut c = DeviceCache::new(100);
        c.insert(d(0), 60);
        c.insert(d(1), 60);
        let victims = c.evict_to_capacity(&[d(0)]);
        assert_eq!(victims, vec![d(1)], "LRU d0 is pinned, so d1 goes");
        assert!(c.bytes.contains_key(&d(0)));
    }

    #[test]
    fn multiple_victims_until_fit() {
        let mut c = DeviceCache::new(100);
        for i in 0..5 {
            c.insert(d(i), 30); // 150 B
        }
        let victims = c.evict_to_capacity(&[]);
        assert_eq!(victims, vec![d(0), d(1)]);
        assert_eq!(c.used(), 90);
    }

    #[test]
    fn remove_frees_space() {
        let mut c = DeviceCache::new(100);
        c.insert(d(0), 70);
        c.remove(d(0));
        assert_eq!(c.used(), 0);
        assert!(c.bytes.is_empty());
        c.remove(d(0)); // idempotent
    }

    #[test]
    #[should_panic(expected = "exceeds device memory capacity")]
    fn oversized_allocation_rejected() {
        let mut c = DeviceCache::new(100);
        c.insert(d(0), 101);
    }

    #[test]
    #[should_panic(expected = "pinned working set")]
    fn overflowing_pinned_set_panics() {
        let mut c = DeviceCache::new(100);
        c.insert(d(0), 60);
        c.insert(d(1), 60);
        let _ = c.evict_to_capacity(&[d(0), d(1)]);
    }
}
