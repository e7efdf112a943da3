//! # versa-trace — unified runtime tracing and decision-ledger observability
//!
//! The paper's whole evaluation is trace-shaped: per-version execution
//! counts (Table I), earliest-executor timelines (Fig. 5), and
//! bytes-transferred-per-category. This crate is the one event model both
//! execution engines record into, so a native trace and a simulated trace
//! of the same program are comparable event-for-event.
//!
//! * [`TraceEvent`] — the unified event model: task lifecycle (created →
//!   ready → running → done/failed/retried), the scheduler's own
//!   [`Decision`](versa_core::scheduler::Decision)s (phase + every
//!   worker's bid + the policy input), staging/transfer spans, and
//!   serve-level job admission events.
//! * [`TraceSink`] — a lock-light per-worker ring-buffer recorder:
//!   bounded memory, drop-counted overflow, one uncontended mutex per
//!   lane (each engine thread owns a lane, so locks never collide).
//! * [`Trace`] — the merged, time-ordered result with [`TraceMeta`]
//!   naming workers, templates and versions.
//! * [`analysis::TraceAnalysis`] — occupancy, per-category transfer
//!   volume, version counts, phase mix; the numbers reconcile exactly
//!   with the engine's `RunReport`.
//! * [`invariants::check`] — trace well-formedness (every start has one
//!   terminal event, spans never overlap per worker, retry attempts are
//!   monotonic).
//! * Exporters: [`chrome::to_chrome_json`] (chrome://tracing / Perfetto),
//!   [`analysis::to_csv`], and the `vtrace v1` text format
//!   ([`Trace::to_text`] / [`Trace::parse`]) consumed by the
//!   `versa-analyze` CLI.

pub mod analysis;
pub mod chrome;
mod event;
pub mod invariants;
pub mod json;
mod meta;
mod sink;
mod text;

pub use analysis::{TaskInterval, TraceAnalysis};
pub use event::{Trace, TraceEvent, Ts};
/// The scheduler's phase type under its old trace-side name. Only the
/// separate `benchmark/` package still names it (`workloads/native.rs`,
/// `serve_tiny.rs`, `mod.rs`); it goes when that package's debt is paid
/// (ROADMAP item 1).
pub use versa_core::scheduler::DecisionPhase as Phase;
pub use meta::{TemplateMeta, TraceMeta, WorkerMeta};
pub use sink::{TraceConfig, TraceSink};
