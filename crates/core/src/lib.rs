//! # versa-core — the paper's contribution
//!
//! This crate implements the runtime-side machinery of *Self-Adaptive
//! OmpSs Tasks in Heterogeneous Environments* (Planas et al., IPDPS 2013):
//!
//! * The **task/version model** ([`TaskTemplate`], [`TaskVersion`]): a task
//!   may carry several implementations (`implements(...)` clause), each
//!   targeting one or more [`DeviceKind`]s. The "structure the compiler
//!   creates ... a list of devices where the task can be executed and a
//!   pointer to the corresponding task function" (paper §IV-A) is the
//!   [`TemplateRegistry`].
//! * **Execution profiles** ([`profile`]): the `TaskVersionSet` data
//!   structure of paper Table I — per task, per *data-set-size group*, per
//!   version: mean execution time and execution count.
//! * **Schedulers** ([`scheduler`]): the paper's *versioning scheduler*
//!   (learning phase + earliest-executor phase), the two baselines it is
//!   evaluated against (*dependency-aware* and *affinity*), and the
//!   locality-aware extension sketched in the paper's future work (§VII).
//! * The **worker model** ([`WorkerState`]): per-worker FIFO task queues
//!   and estimated busy time.
//!
//! The crate is engine-agnostic: it never executes anything. Execution
//! engines (see `versa-runtime`) feed it ready tasks and measured
//! durations; it answers with assignments.

#![warn(missing_docs)]

mod device;
mod ids;
pub mod profile;
pub mod scheduler;
mod task;
mod worker;

pub use device::DeviceKind;
pub use ids::{TaskId, TemplateId, VersionId, WorkerId};
pub use profile::{BucketKey, MeanPolicy, ProfileStore, QuarantineEntry, SizeBucketPolicy};
pub use scheduler::{
    make_scheduler, Assignment, CandidateStats, FailureKind, PolicyChoice, PolicyCtx, PolicyKind,
    SchedCtx, Scheduler, SchedulerKind, VersioningConfig, VersioningScheduler, WorkerSnap,
};
pub use task::{TaskInstance, TaskTemplate, TaskVersion, TemplateBuilder, TemplateRegistry};
pub use worker::{QueuedTask, WorkerInfo, WorkerState};
