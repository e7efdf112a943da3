//! Hash tables keyed by runtime-assigned ids.
//!
//! Every coordinator table — the directory, the staging ledger, the
//! profile store, the task graph, the engines' in-flight tables — is
//! keyed by ids the runtime hands out itself (`DataId`, `TaskId`,
//! `(TemplateId, BucketKey)`, `(DataId, MemSpace)`). No client chooses
//! them and none is read off the wire, so std's DoS-resistant SipHash
//! buys nothing there and costs a large share of the per-task
//! bookkeeping. [`IdHasher`] is rustc's Fx scheme instead: one rotate,
//! xor and multiply per word.
//!
//! Its output does not depend on the process, but no code may depend on
//! an [`IdMap`]'s iteration order either: a loop over one that can reach
//! a decision, a trace or a report sorts first, exactly as it had to
//! under std's per-process random order.

// The aliases below are the one place std's tables are named.
#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fx's multiplier; odd, so one word step is a bijection.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// rustc's Fx hasher: `hash = (hash.rotate_left(5) ^ word) * SEED` per
/// word. Fast and deterministic, not collision-resistant: only for keys
/// the runtime assigns.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` over runtime-assigned ids, hashed with [`IdHasher`].
/// Build with `IdMap::default()`.
// The alias itself.
#[allow(clippy::disallowed_types)]
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` over runtime-assigned ids, hashed with [`IdHasher`].
// The alias itself.
#[allow(clippy::disallowed_types)]
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataId, MemSpace};
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Largest number of `keys` sharing a bucket of a 2¹² table
    /// (hashbrown indexes its buckets by the low bits).
    fn max_load(keys: impl Iterator<Item = u64>) -> usize {
        let mut buckets = vec![0usize; 1 << 12];
        for h in keys {
            buckets[(h & 0xfff) as usize] += 1;
        }
        buckets.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn sequential_data_ids_fill_every_low_bucket() {
        let mut seen = vec![false; 1 << 16];
        for d in 0..1u32 << 16 {
            seen[(hash(&DataId(d)) & 0xffff) as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s), "an odd multiplier makes this a bijection");
    }

    #[test]
    fn compound_keys_spread_over_a_small_table() {
        // 16 384 keys in 4 096 buckets each: 4 per bucket on average.
        let data_space = (0..4096u32)
            .flat_map(|d| (0..4u16).map(move |s| hash(&(DataId(d), MemSpace(s)))));
        assert!(max_load(data_space) <= 12);
        // `(TemplateId, BucketKey)` hashes as `(u32, u64)`. Exact-policy
        // keys are byte sizes, here f64 tiles of 64..512 rows: they differ
        // only above bit 12, which Fx's last multiply never carries down,
        // so the template id alone spreads them. One template's groups
        // share a start slot and are told apart by hashbrown's tag; the
        // store holds a handful of groups per template.
        let exact = (0..4096u32)
            .flat_map(|t| [64u64, 128, 256, 512].map(|bs| hash(&(t, 8 * bs * bs))));
        assert!(max_load(exact) <= 12);
        // Range-policy keys are small bucket indices.
        let range = (0..1024u32).flat_map(|t| (1..=16u64).map(move |b| hash(&(t, b))));
        assert!(max_load(range) <= 12);
    }

    #[test]
    fn byte_writes_cover_ragged_tails() {
        let bytes: Vec<u8> = (1..=23).collect();
        let hashes: IdSet<u64> = (0..=bytes.len())
            .map(|n| {
                let mut h = IdHasher::default();
                h.write(&bytes[..n]);
                h.finish()
            })
            .collect();
        assert_eq!(hashes.len(), bytes.len() + 1, "every prefix length hashes apart");
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x80;
            let (mut a, mut b) = (IdHasher::default(), IdHasher::default());
            a.write(&bytes);
            b.write(&flipped);
            assert_ne!(a.finish(), b.finish(), "byte {i} is hashed");
        }
    }

    #[test]
    fn equal_keys_hash_equal_across_instances() {
        let key = (DataId(7), MemSpace::device(1));
        assert_eq!(hash(&key), hash(&key));
        assert_eq!(hash(&"tile"), hash(&String::from("tile")));
        // Pinned, so the hash cannot come to depend on the process.
        assert_eq!(hash(&DataId(1)), SEED);
        let mut map: IdMap<DataId, u32> = IdMap::default();
        map.insert(DataId(3), 9);
        assert_eq!(map.get(&DataId(3)), Some(&9));
    }
}
