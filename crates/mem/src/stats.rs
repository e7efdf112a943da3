//! Transfer accounting in the paper's §V-A categories.

use crate::MemSpace;
use std::fmt;

/// Classification of a data transfer, following the paper's evaluation
/// methodology (§V-A):
///
/// * **Input Tx** — host memory → any device memory. If the same datum is
///   sent to two devices, both transfers count.
/// * **Output Tx** — any device memory → host memory.
/// * **Device Tx** — device memory → device memory (e.g. GPU↔GPU).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TransferKind {
    /// Host → device.
    Input,
    /// Device → host.
    Output,
    /// Device → device.
    Device,
}

impl TransferKind {
    /// Classify a transfer by its endpoints.
    ///
    /// Host→host "transfers" never happen (all SMP workers share the host
    /// space); classifying one is a logic error.
    pub fn classify(from: MemSpace, to: MemSpace) -> TransferKind {
        match (from.is_host(), to.is_host()) {
            (true, false) => TransferKind::Input,
            (false, true) => TransferKind::Output,
            (false, false) => TransferKind::Device,
            (true, true) => panic!("host-to-host transfer is meaningless"),
        }
    }
}

impl fmt::Display for TransferKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferKind::Input => write!(f, "Input Tx"),
            TransferKind::Output => write!(f, "Output Tx"),
            TransferKind::Device => write!(f, "Device Tx"),
        }
    }
}

/// Accumulated bytes and transfer counts per [`TransferKind`].
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Bytes moved host → device.
    pub input_bytes: u64,
    /// Bytes moved device → host.
    pub output_bytes: u64,
    /// Bytes moved device → device.
    pub device_bytes: u64,
    /// Number of host → device transfers.
    pub input_count: u64,
    /// Number of device → host transfers.
    pub output_count: u64,
    /// Number of device → device transfers.
    pub device_count: u64,
}

impl TransferStats {
    /// Record one transfer of `bytes` bytes of the given kind.
    pub fn record(&mut self, kind: TransferKind, bytes: u64) {
        match kind {
            TransferKind::Input => {
                self.input_bytes += bytes;
                self.input_count += 1;
            }
            TransferKind::Output => {
                self.output_bytes += bytes;
                self.output_count += 1;
            }
            TransferKind::Device => {
                self.device_bytes += bytes;
                self.device_count += 1;
            }
        }
    }

    /// Total bytes moved over all categories.
    pub fn total_bytes(&self) -> u64 {
        self.input_bytes + self.output_bytes + self.device_bytes
    }

    /// Total number of transfers over all categories.
    pub fn total_count(&self) -> u64 {
        self.input_count + self.output_count + self.device_count
    }

    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &TransferStats) {
        self.input_bytes += other.input_bytes;
        self.output_bytes += other.output_bytes;
        self.device_bytes += other.device_bytes;
        self.input_count += other.input_count;
        self.output_count += other.output_count;
        self.device_count += other.device_count;
    }
}

impl fmt::Debug for TransferStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TransferStats {{ input: {} B ({}x), output: {} B ({}x), device: {} B ({}x) }}",
            self.input_bytes,
            self.input_count,
            self.output_bytes,
            self.output_count,
            self.device_bytes,
            self.device_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_endpoints() {
        let h = MemSpace::HOST;
        let d0 = MemSpace::device(0);
        let d1 = MemSpace::device(1);
        assert_eq!(TransferKind::classify(h, d0), TransferKind::Input);
        assert_eq!(TransferKind::classify(d0, h), TransferKind::Output);
        assert_eq!(TransferKind::classify(d0, d1), TransferKind::Device);
    }

    #[test]
    #[should_panic(expected = "host-to-host")]
    fn classify_host_to_host_panics() {
        let _ = TransferKind::classify(MemSpace::HOST, MemSpace::HOST);
    }

    #[test]
    fn record_accumulates_per_category() {
        let mut s = TransferStats::default();
        s.record(TransferKind::Input, 100);
        s.record(TransferKind::Input, 50);
        s.record(TransferKind::Output, 30);
        s.record(TransferKind::Device, 7);
        assert_eq!(s.input_bytes, 150);
        assert_eq!(s.input_count, 2);
        assert_eq!(s.output_bytes, 30);
        assert_eq!(s.device_bytes, 7);
        assert_eq!(s.total_bytes(), 187);
        assert_eq!(s.total_count(), 4);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = TransferStats::default();
        a.record(TransferKind::Input, 10);
        let mut b = TransferStats::default();
        b.record(TransferKind::Input, 5);
        b.record(TransferKind::Device, 3);
        a.merge(&b);
        assert_eq!(a.input_bytes, 15);
        assert_eq!(a.input_count, 2);
        assert_eq!(a.device_bytes, 3);
    }
}
