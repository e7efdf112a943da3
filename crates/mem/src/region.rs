//! Named allocations and byte ranges within them.

use std::fmt;

/// Identifier of a runtime-managed allocation (an OmpSs "shared datum",
/// e.g. one matrix tile).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataId(pub u32);

impl fmt::Debug for DataId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A byte range inside one allocation.
///
/// OmpSs dependence clauses (`input([BS*BS]C)`, array sections, pointed
/// data) denote address ranges whose sizes are computed at run time;
/// regions are this runtime's equivalent. Dependence analysis detects
/// conflicts via [`Region::overlaps`]; the coherence [`Directory`]
/// operates on whole allocations.
///
/// [`Directory`]: crate::Directory
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// The allocation this range lives in.
    pub data: DataId,
    /// Byte offset of the range start.
    pub offset: u64,
    /// Length of the range in bytes. A zero-length region never overlaps
    /// anything (it denotes no data).
    pub len: u64,
}

impl Region {
    /// A length that stands for "to the end of the allocation": the task
    /// builder records whole-allocation clauses with it, and
    /// [`Directory::resolve_accesses`] cuts it to the allocation's size.
    ///
    /// [`Directory::resolve_accesses`]: crate::Directory::resolve_accesses
    pub const TO_END: u64 = u64::MAX;

    /// A region covering `len` bytes of allocation `data` from its start.
    #[inline]
    pub fn whole(data: DataId, len: u64) -> Region {
        Region { data, offset: 0, len }
    }

    /// A sub-range of an allocation.
    #[inline]
    pub fn range(data: DataId, offset: u64, len: u64) -> Region {
        Region { data, offset, len }
    }

    /// Exclusive end offset of the range.
    #[inline]
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Whether two regions denote intersecting bytes (always false across
    /// different allocations and for zero-length regions).
    #[inline]
    pub fn overlaps(&self, other: &Region) -> bool {
        self.data == other.data
            && self.len > 0
            && other.len > 0
            && self.offset < other.end()
            && other.offset < self.end()
    }

    /// Whether `other` is entirely contained in `self`.
    #[inline]
    pub fn contains(&self, other: &Region) -> bool {
        self.data == other.data && self.offset <= other.offset && other.end() <= self.end()
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}[{}..{}]", self.data, self.offset, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(data: u32, offset: u64, len: u64) -> Region {
        Region::range(DataId(data), offset, len)
    }

    #[test]
    fn overlap_same_allocation() {
        assert!(r(0, 0, 10).overlaps(&r(0, 5, 10)));
        assert!(r(0, 5, 10).overlaps(&r(0, 0, 10)));
        assert!(r(0, 0, 10).overlaps(&r(0, 0, 10)));
        assert!(r(0, 0, 10).overlaps(&r(0, 9, 1)));
    }

    #[test]
    fn adjacent_ranges_do_not_overlap() {
        assert!(!r(0, 0, 10).overlaps(&r(0, 10, 10)));
        assert!(!r(0, 10, 10).overlaps(&r(0, 0, 10)));
    }

    #[test]
    fn different_allocations_never_overlap() {
        assert!(!r(0, 0, 10).overlaps(&r(1, 0, 10)));
    }

    #[test]
    fn zero_length_never_overlaps() {
        assert!(!r(0, 5, 0).overlaps(&r(0, 0, 10)));
        assert!(!r(0, 0, 10).overlaps(&r(0, 5, 0)));
    }

    #[test]
    fn containment() {
        assert!(r(0, 0, 10).contains(&r(0, 2, 3)));
        assert!(r(0, 0, 10).contains(&r(0, 0, 10)));
        assert!(!r(0, 2, 3).contains(&r(0, 0, 10)));
        assert!(!r(0, 0, 10).contains(&r(1, 2, 3)));
    }

    #[test]
    fn whole_covers_from_zero() {
        let w = Region::whole(DataId(7), 64);
        assert_eq!(w.offset, 0);
        assert_eq!(w.end(), 64);
        assert!(w.contains(&r(7, 63, 1)));
    }
}
