//! Physical address spaces.

use std::fmt;

/// A physical address space in the machine.
///
/// `MemSpace::HOST` is the main memory shared by all SMP workers; each
/// accelerator (GPU) owns one device space. Spaces are small integers so
/// they can index dense per-space tables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemSpace(pub u16);

impl MemSpace {
    /// The host (main-memory) address space.
    pub const HOST: MemSpace = MemSpace(0);

    /// The address space of the `i`-th device (0-based).
    #[inline]
    pub fn device(i: u16) -> MemSpace {
        MemSpace(i + 1)
    }

    /// Whether this is the host space.
    #[inline]
    pub fn is_host(self) -> bool {
        self.0 == 0
    }

    /// The 0-based device index, if this is a device space.
    #[inline]
    pub fn device_index(self) -> Option<u16> {
        self.0.checked_sub(1)
    }

    /// Dense index usable for per-space tables (host = 0, device i = i+1).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_host() {
            write!(f, "host")
        } else {
            write!(f, "dev{}", self.0 - 1)
        }
    }
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_space_zero() {
        assert!(MemSpace::HOST.is_host());
        assert_eq!(MemSpace::HOST.index(), 0);
        assert_eq!(MemSpace::HOST.device_index(), None);
    }

    #[test]
    fn device_spaces_are_one_based() {
        let d0 = MemSpace::device(0);
        let d1 = MemSpace::device(1);
        assert!(!d0.is_host());
        assert_eq!(d0.device_index(), Some(0));
        assert_eq!(d1.device_index(), Some(1));
        assert_eq!(d0.index(), 1);
        assert_ne!(d0, d1);
        assert_ne!(d0, MemSpace::HOST);
    }

    #[test]
    fn display_names() {
        assert_eq!(MemSpace::HOST.to_string(), "host");
        assert_eq!(MemSpace::device(1).to_string(), "dev1");
    }
}
