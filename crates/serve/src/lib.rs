//! # versa-serve — a persistent multi-job task service
//!
//! The paper's runtime (and [`versa_runtime::Runtime`]) is one-shot:
//! build a DAG, `run()`, read the report. Everything the versioning
//! scheduler learns — per-size version profiles, quarantine state,
//! device residency — lives in that runtime, so the natural deployment
//! is a *service* that keeps one runtime alive and feeds it a stream of
//! jobs. That is this crate:
//!
//! * **Admission control** — a bounded queue in front of the service;
//!   [`Client::submit`] returns [`SubmitOutcome::Accepted`] with a
//!   [`JobTicket`], `Rejected(QueueFull)` backpressure, or
//!   [`SubmitOutcome::Shed`] when a job's deadline is already
//!   infeasible given the live backlog estimate.
//! * **Fair multi-job interleaving** — the service drives the runtime
//!   in bounded *waves* ([`Runtime::run_bounded`]), each of which orders
//!   the ready pool by start-time fair queuing over job ids, so
//!   concurrent jobs take dispatch slots in turn instead of running
//!   FIFO. A wave never flushes: device residency carries over to the
//!   next job.
//! * **Cross-job profile warmth** — one scheduler serves every job, so
//!   profiles learned by job *n* schedule job *n+1*; `warm_start`
//!   hints seed templates incrementally as jobs register them.
//! * **Live metrics** — [`Client::metrics`] snapshots
//!   jobs accepted/rejected/shed/completed, queue depth, live tasks,
//!   per-version execution counts and per-worker busy time at any
//!   moment, including mid-job.
//!
//! ```
//! use versa_runtime::{Runtime, RuntimeConfig};
//! use versa_serve::{JobSpec, Service, ServeConfig};
//! use versa_sim::PlatformConfig;
//! use versa_core::DeviceKind;
//!
//! let mut rt = Runtime::simulated(RuntimeConfig::default(), PlatformConfig::minotauro(2, 1));
//! let tpl = rt.template("t").main("t_smp", &[DeviceKind::Smp]).register();
//! rt.bind_cost(tpl, versa_core::VersionId(0), |_| std::time::Duration::from_millis(1));
//! let service = Service::start(rt, ServeConfig::default());
//! let client = service.client();
//! let ticket = client
//!     .submit(JobSpec::fire_and_forget("hello", move |rt| {
//!         let d = rt.alloc_bytes(1024);
//!         rt.task(tpl).read_write(d).submit();
//!     }))
//!     .accepted()
//!     .expect("queue has room");
//! let report = ticket.wait();
//! assert_eq!(report.tasks, 1);
//! assert!(report.outcome.is_ok());
//! let rt = service.shutdown();
//! assert!(rt.graph().len() >= 1);
//! ```
//!
//! [`Runtime`]: versa_runtime::Runtime
//! [`Runtime::run_bounded`]: versa_runtime::Runtime::run_bounded

#![warn(missing_docs)]

mod job;
mod metrics;
mod service;

pub use job::{FinishFn, JobId, JobReport, JobSpec, JobTicket, RejectReason, SubmitOutcome};
pub use metrics::MetricsSnapshot;
pub use service::{Client, ServeConfig, Service};
