//! Golden-trace tests pinning the versioning scheduler's decisions.
//!
//! The fixtures in `fixtures/` were recorded with an earlier
//! `VersioningScheduler` (decision logic inlined in `assign`). Two
//! independent checks pin the current scheduler to that behavior:
//!
//! 1. **Replay identity** — feeding each recorded decision's snapshot
//!    through `PolicyKind::RoundRobin` reproduces the recorded
//!    `(phase, version, worker)` exactly, on all four fixtures (mm-wide
//!    and cholesky, sim and native engines).
//! 2. **Live identity** — re-running the sim workloads with the current
//!    scheduler yields traces byte-identical to the committed fixtures
//!    (the sim engine is deterministic, so any decision drift shows up
//!    as a text diff). Native runs are wall-time dependent and are
//!    covered by check 1 only.

use std::path::PathBuf;
use versa_gym::record;
use versa_gym::replay::{check_identity, Ledger};
use versa_trace::Trace;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn fixture_ledger(name: &str) -> Ledger {
    let trace = Trace::parse(&fixture(name)).expect("fixture parses");
    Ledger::from_trace(&trace).expect("fixture carries a replayable ledger")
}

#[test]
fn replay_identity_mm_wide_sim() {
    assert_eq!(check_identity(&fixture_ledger("mm_wide_sim.vtrace")).unwrap(), 64);
}

#[test]
fn replay_identity_mm_wide_native() {
    assert_eq!(check_identity(&fixture_ledger("mm_wide_native.vtrace")).unwrap(), 64);
}

#[test]
fn replay_identity_cholesky_sim() {
    assert_eq!(check_identity(&fixture_ledger("cholesky_sim.vtrace")).unwrap(), 120);
}

#[test]
fn replay_identity_cholesky_native() {
    assert_eq!(check_identity(&fixture_ledger("cholesky_native.vtrace")).unwrap(), 120);
}

#[test]
fn live_sim_run_is_byte_identical_to_prerefactor_fixture_mm_wide() {
    let trace = record::record_sim("mm-wide").unwrap();
    assert_eq!(
        trace.to_text(),
        fixture("mm_wide_sim.vtrace"),
        "post-refactor mm-wide sim run diverged from the pre-refactor recording"
    );
}

#[test]
fn live_sim_run_is_byte_identical_to_prerefactor_fixture_cholesky() {
    let trace = record::record_sim("cholesky").unwrap();
    assert_eq!(
        trace.to_text(),
        fixture("cholesky_sim.vtrace"),
        "post-refactor cholesky sim run diverged from the pre-refactor recording"
    );
}

#[test]
fn fixtures_carry_lambda_and_full_snapshots() {
    for name in
        ["mm_wide_sim.vtrace", "mm_wide_native.vtrace", "cholesky_sim.vtrace", "cholesky_native.vtrace"]
    {
        let trace = Trace::parse(&fixture(name)).unwrap();
        assert_eq!(trace.meta.lambda, Some(3), "{name}");
        assert!(
            trace.decisions().all(|d| !d.candidates.is_empty() && !d.workers.is_empty()),
            "{name}: every decision records its policy inputs"
        );
    }
}
