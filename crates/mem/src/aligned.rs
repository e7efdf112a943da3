//! 8-byte-aligned byte buffers.
//!
//! Native-mode kernels view raw task data as `&[f64]` / `&[f32]` slices.
//! Plain `Vec<u8>` allocations only guarantee 1-byte alignment, so arena
//! buffers are backed by `u64` words instead: every buffer start is
//! 8-byte aligned and the float reinterpretations in `KernelCtx` are
//! always valid (for offsets that are multiples of the element size,
//! which the runtime asserts).
//!
//! Tile-sized storage is recycled ([`POOL_MIN_BYTES`], [`POOL_CAP_BYTES`]):
//! a dropped buffer parks its words in a process-wide free list keyed by
//! length, and the next buffer of that length takes them instead of going
//! to the allocator. Tiles sit right at glibc's mmap and trim thresholds,
//! both of which move with the largest mapped chunk a process happens to
//! have freed, and whether a freed tile's pages go back to the kernel
//! depends on what else sits at the top of its heap. The same binary came
//! up in one of three regimes for a whole process lifetime — tiles kept,
//! tiles page-faulted in again by every fresh runtime, tiles churned
//! through a worker thread's heap during the run — 1.5× apart in solve
//! time and 2× in set-up. Recycling takes tile storage out of the
//! allocator's hands: after the first runtime of a process a tile costs a
//! free-list pop, whatever the allocator's thresholds are.

use crate::IdMap;
use std::sync::Mutex;

/// Storage shorter than this is left to the allocator.
const POOL_MIN_BYTES: usize = 64 * 1024;

/// The free list holds at most this much — all of it storage the
/// process had in use and dropped.
const POOL_CAP_BYTES: usize = 256 << 20;

/// Parked word storage by length in words, and the bytes parked in total.
struct Pool {
    free: IdMap<usize, Vec<Box<[u64]>>>,
    bytes: usize,
}

impl Pool {
    /// Parked storage of exactly `words` words, contents unspecified.
    fn take(&mut self, words: usize) -> Option<Box<[u64]>> {
        let buf = self.free.get_mut(&words)?.pop()?;
        self.bytes -= words * 8;
        Some(buf)
    }

    /// Park `buf`, holding at most `cap` bytes afterwards. Room is made
    /// by releasing storage of *other* lengths, so a process that moved
    /// on to another tile size does not sit on the old one's buffers;
    /// when that is not enough `buf` itself is released.
    fn park(&mut self, buf: Box<[u64]>, cap: usize) {
        let bytes = buf.len() * 8;
        if bytes > cap {
            return;
        }
        while self.bytes + bytes > cap {
            // Which other length gives way follows the map's order. It only
            // picks which parked storage goes back to the allocator: every
            // buffer reads as fresh, so it reaches no decision or report.
            let other = self.free.iter_mut().find(|(w, v)| **w != buf.len() && !v.is_empty());
            let Some((words, stale)) = other else { return };
            stale.pop();
            self.bytes -= words * 8;
        }
        self.bytes += bytes;
        self.free.entry(buf.len()).or_default().push(buf);
    }
}

static POOL: Mutex<Option<Pool>> = Mutex::new(None);

fn pooled(words: usize) -> bool {
    words * 8 >= POOL_MIN_BYTES
}

fn take(words: usize) -> Option<Box<[u64]>> {
    if !pooled(words) {
        return None;
    }
    POOL.lock().unwrap_or_else(|e| e.into_inner()).as_mut()?.take(words)
}

fn park(buf: Box<[u64]>) {
    POOL.lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_or_insert_with(|| Pool { free: IdMap::default(), bytes: 0 })
        .park(buf, POOL_CAP_BYTES);
}

/// A heap buffer of `len` bytes whose storage is 8-byte aligned.
#[derive(Debug)]
pub struct AlignedBuf {
    words: Box<[u64]>,
    len: usize,
}

impl AlignedBuf {
    /// Zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> AlignedBuf {
        let words = match take(len.div_ceil(8)) {
            Some(mut words) => {
                words.fill(0);
                words
            }
            None => vec![0u64; len.div_ceil(8)].into_boxed_slice(),
        };
        AlignedBuf { words, len }
    }

    /// Buffer initialized from `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> AlignedBuf {
        let mut buf = match take(bytes.len().div_ceil(8)) {
            Some(mut words) => {
                // Only the padding past `len` is not overwritten below.
                if let Some(last) = words.last_mut() {
                    *last = 0;
                }
                AlignedBuf { words, len: bytes.len() }
            }
            None => AlignedBuf::zeroed(bytes.len()),
        };
        buf.as_bytes_mut().copy_from_slice(bytes);
        buf
    }

    /// Buffer holding the native-endian bytes of `values` — converted
    /// straight into the aligned storage, with no intermediate byte
    /// vector.
    pub fn from_f64s(values: &[f64]) -> AlignedBuf {
        let words = match take(values.len()) {
            Some(mut words) => {
                for (w, v) in words.iter_mut().zip(values) {
                    *w = v.to_bits();
                }
                words
            }
            None => values.iter().map(|v| v.to_bits()).collect(),
        };
        AlignedBuf { words, len: values.len() * 8 }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes, immutably.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: the words allocation covers at least `len` bytes
        // (zeroed rounds up), u8 has alignment 1, and the lifetime is
        // tied to `&self`.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    /// The bytes, mutably.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_bytes`, plus exclusive access via `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> AlignedBuf {
        let words = match take(self.words.len()) {
            Some(mut words) => {
                words.copy_from_slice(&self.words);
                words
            }
            None => self.words.clone(),
        };
        AlignedBuf { words, len: self.len }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if pooled(self.words.len()) {
            park(std::mem::take(&mut self.words));
        }
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for AlignedBuf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_has_requested_len() {
        for len in [0usize, 1, 7, 8, 9, 64, 1000] {
            let b = AlignedBuf::zeroed(len);
            assert_eq!(b.len(), len);
            assert!(b.as_bytes().iter().all(|&x| x == 0));
            assert_eq!(b.is_empty(), len == 0);
        }
    }

    #[test]
    fn from_bytes_roundtrips() {
        let data: Vec<u8> = (0..=255).collect();
        let b = AlignedBuf::from_bytes(&data);
        assert_eq!(b.as_bytes(), &data[..]);
    }

    #[test]
    fn from_f64s_matches_the_byte_path() {
        let values = [1.5f64, -0.0, f64::NAN, 1e-300];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_ne_bytes()).collect();
        assert_eq!(AlignedBuf::from_f64s(&values), AlignedBuf::from_bytes(&bytes));
        assert!(AlignedBuf::from_f64s(&[]).is_empty());
    }

    #[test]
    fn recycled_storage_is_indistinguishable_from_fresh() {
        let len = POOL_MIN_BYTES + 13;
        let mut dirty = AlignedBuf::zeroed(len);
        dirty.as_bytes_mut().fill(0xFF);
        drop(dirty);
        // Whether or not these get the dirty storage back (other tests
        // share the pool), they must read as a fresh allocation would.
        assert!(AlignedBuf::zeroed(len).as_bytes().iter().all(|&b| b == 0));
        let pattern: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let a = AlignedBuf::from_bytes(&pattern);
        assert_eq!(a.as_bytes(), &pattern[..]);
        assert_eq!(a.words.last().unwrap().to_ne_bytes()[len % 8..], [0; 3], "padding past len");
        assert_eq!(a.clone(), a);
        let values: Vec<f64> = (0..len / 8).map(|i| i as f64).collect();
        let f = AlignedBuf::from_f64s(&values);
        assert_eq!(f.len(), values.len() * 8);
        assert!(f.words.iter().zip(&values).all(|(w, v)| *w == v.to_bits()));
    }

    #[test]
    fn pool_is_bounded_and_evicts_other_lengths_first() {
        let buf = |words: usize| vec![0u64; words].into_boxed_slice();
        let mut pool = Pool { free: IdMap::default(), bytes: 0 };
        let cap = 10 * 8;
        pool.park(buf(4), cap);
        pool.park(buf(4), cap);
        assert_eq!(pool.bytes, 64);
        // No room for 6 more words: the 4-word buffers make way.
        pool.park(buf(6), cap);
        assert_eq!((pool.bytes, pool.free[&4].len(), pool.free[&6].len()), (80, 1, 1));
        // Nothing but its own length left to evict: released instead.
        pool.park(buf(6), cap);
        assert_eq!((pool.bytes, pool.free[&4].len(), pool.free[&6].len()), (48, 0, 1));
        pool.park(buf(6), cap);
        assert_eq!(pool.bytes, 48, "a full pool drops what it is handed");
        assert!(pool.take(4).is_none());
        assert_eq!(pool.take(6).map(|b| b.len()), Some(6));
        assert_eq!(pool.bytes, 0);
    }

    #[test]
    fn mutation_is_visible() {
        let mut b = AlignedBuf::zeroed(16);
        b.as_bytes_mut()[3] = 42;
        assert_eq!(b.as_bytes()[3], 42);
    }

    #[test]
    fn start_is_8_aligned() {
        for len in [1usize, 5, 13, 100] {
            let b = AlignedBuf::zeroed(len);
            assert_eq!(b.as_bytes().as_ptr() as usize % 8, 0);
        }
    }

    #[test]
    fn float_views_are_safe() {
        let values = [1.5f64, -2.25, 1e300];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_ne_bytes()).collect();
        let b = AlignedBuf::from_bytes(&bytes);
        let (pre, mid, post) = unsafe { b.as_bytes().align_to::<f64>() };
        assert!(pre.is_empty() && post.is_empty());
        assert_eq!(mid, &values[..]);
    }

    #[test]
    fn equality_is_by_content() {
        assert_eq!(AlignedBuf::from_bytes(&[1, 2, 3]), AlignedBuf::from_bytes(&[1, 2, 3]));
        assert_ne!(AlignedBuf::from_bytes(&[1, 2, 3]), AlignedBuf::from_bytes(&[1, 2, 4]));
    }
}
