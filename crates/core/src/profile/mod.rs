//! Execution profiles: the paper's `TaskVersionSet` structure (Table I).
//!
//! For every task version set, divided into *groups of data set sizes*,
//! the runtime records per version the number of executions and their mean
//! execution time. "As tasks are executed, the scheduler learns and keeps
//! track of their behavior" (paper §I) — and it *never stops* learning:
//! means keep updating in the reliable-information phase too (§IV-B).

mod bucket;
mod hints;
mod stats;
mod store;

pub use bucket::{BucketKey, SizeBucketPolicy};
pub use hints::{
    apply_hints, parse_hints, render_hints, HintRecord, HintsError, HintsFile, HintsPolicy,
    QuarantineRecord,
};
pub use stats::{MeanPolicy, RunningMean};
pub(crate) use store::GroupProfile;
pub use store::{ProfileStore, QuarantineEntry};
