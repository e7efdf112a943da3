//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and saturating-free: simulations that
/// overflow 2^64 ns (~585 years) are a bug, so arithmetic panics in debug
/// builds like ordinary integer arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Interpret a [`Duration`] as a time offset from simulation start.
    #[inline]
    pub fn from_duration(d: Duration) -> SimTime {
        SimTime(d.as_nanos() as u64)
    }

    /// This instant as an offset from simulation start.
    #[inline]
    pub fn as_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }

    /// Elapsed virtual time since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub(crate) fn since(self, earlier: SimTime) -> Duration {
        assert!(earlier <= self, "time went backwards: {earlier:?} > {self:?}");
        Duration::from_nanos(self.0 - earlier.0)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0 as f64 / 1e9)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_advances() {
        let t = SimTime::ZERO + Duration::from_millis(5);
        assert_eq!(t, SimTime(5_000_000));
        assert_eq!(t.as_duration(), Duration::from_millis(5));
    }

    #[test]
    fn since_measures_elapsed() {
        let a = SimTime(100);
        let b = SimTime(350);
        assert_eq!(b.since(a), Duration::from_nanos(250));
        assert_eq!(b - a, Duration::from_nanos(250));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_on_reversal() {
        let _ = SimTime(1).since(SimTime(2));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime::ZERO.max(SimTime(7)), SimTime(7));
    }

    #[test]
    fn debug_renders_seconds() {
        assert_eq!(format!("{:?}", SimTime(1_500_000_000)), "1.500000s");
    }
}
