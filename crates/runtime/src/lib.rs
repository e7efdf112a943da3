//! # versa-runtime — the OmpSs-like task runtime
//!
//! This crate ties the workspace together into the runtime the paper
//! extends (§III–IV):
//!
//! * **Dependence analysis** ([`graph`]): `input`/`output`/`inout`
//!   accesses over byte regions build the task graph (flow, anti and
//!   output dependences), exactly as the StarSs dependence support does.
//! * **Scheduling**: ready tasks flow through the configured policy
//!   (`versa-core` schedulers) into per-worker queues, with the
//!   learning-phase pull throttling described in the paper's §IV-B.
//!   The sim starts each queue FIFO, as the paper does; a native lane
//!   starts the highest-ranked queued task first (its bottom level).
//! * **Two engines** behind one API:
//!   [`Runtime::simulated`] executes in virtual time on the `versa-sim`
//!   platform (this is what reproduces the paper's figures without
//!   GPUs); [`Runtime::native`] executes for real on OS threads with
//!   per-device arenas and emulated multi-lane accelerators (this is what
//!   proves the runtime computes correct results end-to-end).
//! * **Reports** ([`RunReport`]): makespan, per-category transfer bytes,
//!   per-version execution counts — the paper's measured quantities.

#![warn(missing_docs)]

mod assign;
mod config;
mod fair;
pub mod graph;
mod native;
pub(crate) mod remote;
mod report;
mod runtime;
mod sim_engine;
mod tracing;

pub use config::RuntimeConfig;
pub use graph::{TaskGraph, TaskNode, TaskState};
pub use native::{KernelCtx, NativeConfig};
pub use remote::{
    RemoteAccess, RemoteCaps, RemoteDone, RemoteError, RemoteExec, RemoteNode, ShipTicket,
};
pub use report::{
    FailureReport, QuarantinedVersion, RunError, RunReport, TaskFailure, WorkerTransferStats,
};
pub use runtime::{DetachedExecutor, Runtime, TaskSubmitter};
