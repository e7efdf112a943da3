//! # versa — self-adaptive task versioning for heterogeneous environments
//!
//! A production-quality Rust reproduction of *Self-Adaptive OmpSs Tasks in
//! Heterogeneous Environments* (Planas, Badia, Ayguadé, Labarta — IPDPS
//! 2013): an OmpSs-like task runtime in which a task may carry several
//! *implementations* (SMP, GPU, …) and a **versioning scheduler** learns
//! their per-size execution times at run time and assigns every task
//! instance to its *earliest executor*.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — task/version model, execution profiles, schedulers.
//! * [`mem`] — memory spaces, coherence directory, transfer accounting.
//! * [`sim`] — deterministic discrete-event simulator of an SMP+GPU node.
//! * [`runtime`] — the task runtime (dependence analysis + engines).
//! * [`net`] — multi-node cluster layer: coordinator, remote workers,
//!   tile shipment, profile gossip (see `DESIGN.md` §7).
//! * [`serve`] — persistent multi-job service over one runtime.
//! * [`trace`] — unified event tracing, invariants, exporters, analysis.
//! * [`kernels`] — pure-Rust BLAS-like and PBPI computational kernels.
//! * [`apps`] — the paper's applications (matmul, Cholesky, PBPI).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use versa_apps as apps;
pub use versa_core as core;
pub use versa_kernels as kernels;
pub use versa_mem as mem;
pub use versa_net as net;
pub use versa_runtime as runtime;
pub use versa_serve as serve;
pub use versa_sim as sim;
pub use versa_trace as trace;

pub mod cluster_cli;

/// Convenient glob import: `use versa::prelude::*;`.
pub mod prelude {
    pub use versa_core::{
        Assignment, DeviceKind, FailureKind, Scheduler, SchedulerKind, TaskInstance, TemplateId,
        VersionId, WorkerId,
    };
    pub use versa_mem::{AccessMode, DataId, MemSpace, Region, TransferStats};
    pub use versa_runtime::{RunError, RunReport, Runtime, RuntimeConfig};
    pub use versa_sim::{FaultPlan, FaultRule, PlatformConfig};
    pub use versa_trace::Ts;
}
