//! # versa-apps — the paper's evaluation applications
//!
//! Task-graph builders for the three applications of the paper's §V,
//! each in the exact application variants the paper compares, runnable
//! on both the simulated MinoTauro node (figure reproduction) and the
//! native engine (end-to-end correctness):
//!
//! * [`matmul`] — tiled dense matrix multiplication (`mm-gpu`, `mm-hyb`).
//! * [`cholesky`] — tiled Cholesky factorization (`potrf-smp`,
//!   `potrf-gpu`, `potrf-hyb`).
//! * [`pbpi`] — Bayesian phylogenetic inference by MCMC (`pbpi-smp`,
//!   `pbpi-gpu`, `pbpi-hyb`).
//! * `calib` — the simulated-platform cost calibration (device rates
//!   matched to the ratios the paper reports).
//! * [`jobs`] — the applications as reusable `versa-serve` job
//!   factories (idempotent template registration, verify-and-free
//!   finalizers).

#![warn(missing_docs)]

pub(crate) mod calib;
pub mod cholesky;
pub mod jobs;
pub mod matmul;
pub mod pbpi;
