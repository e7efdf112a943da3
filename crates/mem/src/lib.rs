//! # versa-mem — memory substrate for the versa runtime
//!
//! OmpSs assumes that *multiple physical address spaces may exist*: shared
//! data may live in memory that is not directly accessible from every
//! processing element, and the runtime transparently replicates data and
//! keeps the copies coherent (paper §III). This crate implements that
//! substrate:
//!
//! * [`MemSpace`] — a physical address space (the host, or a device memory).
//! * [`DataId`] / [`Region`] — named allocations and byte ranges within
//!   them; dependence analysis works on regions, coherence on whole
//!   allocations (tasks in the paper's applications always move whole
//!   tiles).
//! * [`Directory`] — a coherence directory tracking, per allocation, which
//!   spaces hold a valid copy and which single space (if any) holds the
//!   only modified copy. Acquiring data for a task yields the list of
//!   [`Transfer`]s that must be performed first.
//! * [`TransferStats`] — the paper's §V-A accounting: *Input Tx*
//!   (host→device), *Output Tx* (device→host) and *Device Tx*
//!   (device→device).
//! * [`Arena`] — native-mode backing store: per-space byte buffers that
//!   real kernels execute against. Buffers are [`AlignedBuf`]s, whose
//!   tile-sized storage is recycled process-wide instead of going back
//!   to the allocator.
//! * [`IdMap`] / [`IdSet`] — the hash tables every coordinator map uses:
//!   keyed by runtime-assigned ids, hashed with the in-tree [`IdHasher`]
//!   instead of std's SipHash.

#![warn(missing_docs)]

mod aligned;
mod arena;
mod cache;
mod directory;
mod idmap;
mod region;
mod space;
mod staging;
mod stats;
mod transfer;

pub use aligned::AlignedBuf;
pub use arena::Arena;
pub use cache::DeviceCache;
pub use directory::{AccessMode, Directory, HandleState};
pub use idmap::{IdHasher, IdMap, IdSet};
pub use region::{DataId, Region};
pub use space::MemSpace;
pub use staging::{ReadyCell, StagingLedger};
pub use stats::{TransferKind, TransferStats};
pub use transfer::Transfer;

/// Runs `f`, which must panic, and returns its panic message.
#[cfg(test)]
fn panic_message(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
    payload.downcast_ref::<String>().cloned().unwrap_or_default()
}
