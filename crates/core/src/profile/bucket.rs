//! Data-set-size grouping policies.
//!
//! The paper groups profile information by *exact* data set size and
//! acknowledges the drawback (§VII): "if the data needed by two calls to
//! the same task varies from only 1 byte, the scheduler will consider
//! that these calls belong to different groups ... it would be better to
//! define the data sizes of each group in a reasonable range". Both the
//! exact policy and that proposed range policy are implemented here.

/// Canonical key of a size group. Two data set sizes fall in the same
/// group iff they map to the same `BucketKey` under the active policy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BucketKey(pub u64);

/// Policy mapping a data set size (bytes) to a size group.
#[derive(Clone, Copy, PartialEq, Debug)]
#[derive(Default)]
pub enum SizeBucketPolicy {
    /// One group per exact byte size (the paper's implementation).
    #[default]
    Exact,
    /// Geometric bucketing: sizes within a relative `tolerance` of each
    /// other land in the same group (the paper's §VII proposal). A
    /// tolerance of `0.25` groups sizes within ±~25%.
    RelativeRange {
        /// Relative width of each bucket; must be positive.
        tolerance: f64,
    },
}


impl SizeBucketPolicy {
    /// Map a data set size to its group key.
    pub fn bucket(&self, data_set_size: u64) -> BucketKey {
        match *self {
            SizeBucketPolicy::Exact => BucketKey(data_set_size),
            SizeBucketPolicy::RelativeRange { tolerance } => {
                assert!(tolerance > 0.0, "tolerance must be positive");
                if data_set_size == 0 {
                    return BucketKey(0);
                }
                // Geometric buckets: bucket i covers [(1+t)^i, (1+t)^{i+1}).
                // Offset by 1 so size 0 keeps its own bucket 0.
                let idx = (data_set_size as f64).ln() / (1.0 + tolerance).ln();
                BucketKey(idx.floor() as u64 + 1)
            }
        }
    }

    /// A human-readable label for a group key (used when printing the
    /// Table I-style profile dump).
    pub(crate) fn describe(&self, key: BucketKey) -> String {
        match *self {
            SizeBucketPolicy::Exact => format_bytes(key.0),
            SizeBucketPolicy::RelativeRange { tolerance } => {
                if key.0 == 0 {
                    return "0 B".to_string();
                }
                let lo = (1.0 + tolerance).powi((key.0 - 1) as i32);
                let hi = (1.0 + tolerance).powi(key.0 as i32);
                format!("{}..{}", format_bytes(lo as u64), format_bytes(hi as u64))
            }
        }
    }
}

/// Pretty-print a byte count (e.g. `8.0 MB`), used in profile dumps.
pub(crate) fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_policy_separates_adjacent_sizes() {
        let p = SizeBucketPolicy::Exact;
        // The paper's complaint: a 1-byte difference makes a new group.
        assert_ne!(p.bucket(1_000_000), p.bucket(1_000_001));
        assert_eq!(p.bucket(1_000_000), p.bucket(1_000_000));
    }

    #[test]
    fn range_policy_groups_similar_sizes() {
        let p = SizeBucketPolicy::RelativeRange { tolerance: 0.25 };
        // 1-byte difference now shares a group...
        assert_eq!(p.bucket(1_000_000), p.bucket(1_000_001));
        // ...but a 10x difference does not.
        assert_ne!(p.bucket(1_000_000), p.bucket(10_000_000));
    }

    #[test]
    fn range_policy_is_monotone() {
        let p = SizeBucketPolicy::RelativeRange { tolerance: 0.5 };
        let mut last = p.bucket(1).0;
        for size in 2..10_000u64 {
            let b = p.bucket(size).0;
            assert!(b >= last, "bucket keys must be monotone in size");
            last = b;
        }
    }

    #[test]
    fn zero_size_has_its_own_bucket() {
        let p = SizeBucketPolicy::RelativeRange { tolerance: 0.25 };
        assert_eq!(p.bucket(0), BucketKey(0));
        assert_ne!(p.bucket(1), BucketKey(0));
        assert_eq!(SizeBucketPolicy::Exact.bucket(0), BucketKey(0));
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KB");
        assert_eq!(format_bytes(8 * 1024 * 1024), "8.0 MB");
        assert_eq!(format_bytes(3 * 1024 * 1024 * 1024), "3.0 GB");
    }

    #[test]
    fn describe_exact_is_the_size() {
        let p = SizeBucketPolicy::Exact;
        assert_eq!(p.describe(p.bucket(2 * 1024 * 1024)), "2.0 MB");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_tolerance_panics() {
        let p = SizeBucketPolicy::RelativeRange { tolerance: 0.0 };
        let _ = p.bucket(10);
    }
}
