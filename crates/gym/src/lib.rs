//! # versa-gym — the trace-replay scheduler gym
//!
//! Every decision the versioning scheduler makes is recorded in the
//! trace's decision ledger together with its full policy input (per-
//! candidate profile statistics, per-worker load snapshots, λ). That
//! turns scheduler work into an offline eval loop:
//!
//! 1. **record** a production (or smoke) run's trace ([`record`]),
//! 2. **replay** the ledger through any [`Policy`] — the identity policy
//!    (`round-robin`) must reproduce the recorded decisions exactly
//!    ([`replay`]),
//! 3. **score** candidate policies against each other on makespan proxy,
//!    learning cost and decision agreement ([`score`]).
//!
//! The `versa-gym` binary wraps all three; CI runs it as the `gym-smoke`
//! job and the golden-trace tests in `tests/` gate the policy refactor
//! on decision-for-decision identity with pre-refactor recordings.
//!
//! [`Policy`]: versa_core::Policy

#![warn(missing_docs)]

pub mod record;
pub mod replay;
pub mod score;

pub use replay::{Ledger, Mismatch, Oracle, Replay, Score};
