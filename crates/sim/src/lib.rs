//! # versa-sim — deterministic heterogeneous-node simulation substrate
//!
//! The paper evaluates on a MinoTauro node (2× Intel Xeon E5649 6-core +
//! 2× NVIDIA M2090, 24 GB host / 6 GB per GPU). This crate provides the
//! building blocks to *simulate* such a node deterministically, so the
//! scheduler experiments reproduce without the hardware:
//!
//! * [`EventQueue`] — a deterministic discrete-event queue (FIFO among
//!   simultaneous events), keyed by the trace's clock
//!   [`Ts`](versa_trace::Ts): virtual nanoseconds since simulation
//!   start, so trace records need no conversion.
//! * [`PlatformConfig`] — node description: SMP worker count, GPU count,
//!   per-GPU PCIe link bandwidth/latency, peer-to-peer capability, and
//!   per-device peak GFLOP/s (for report normalization).
//! * [`CostTable`] + [`NoiseModel`] — per-(template, version) execution
//!   time models with seeded multiplicative noise. The *scheduler never
//!   sees this table*; it only observes completed-task durations, exactly
//!   as on real hardware.
//! * [`TransferEngine`] — virtual-time DMA: transfers occupy links,
//!   respect data production times, may overlap with compute (prefetch),
//!   and are accounted in the paper's Input/Output/Device Tx categories.
//!
//! Traces of simulated runs use the unified `versa-trace` event model
//! (recorder, exporters and analysis live there, shared with the native
//! engine).
//!
//! The actual task-execution event loop lives in `versa-runtime`
//! (`SimEngine`), which combines these pieces with the task graph and a
//! scheduler.

#![warn(missing_docs)]

mod cost;
mod event;
mod fault;
mod platform;
mod transfer;

pub use cost::{CostTable, NoiseModel};
pub use event::EventQueue;
pub use fault::{FaultInjector, FaultPlan, FaultRule, NodeFaultKind, NodeFaultRule};
pub use platform::{LinkConfig, PlatformConfig, SimNode};
pub use transfer::TransferEngine;
/// The trace clock under the simulator's old name. Only the separate
/// `benchmark/` package still names it (`probes/mod.rs` builds
/// `SimTime(..)`); it goes when that package's debt is paid (ROADMAP
/// item 1).
pub use versa_trace::Ts as SimTime;
