//! Decision policies of the versioning scheduler.
//!
//! The paper hard-wires one selection strategy: round-robin learning
//! until every version has λ observations, then earliest-executor
//! bidding (`round_robin`). Luo et al. (PAPERS.md) show version-set
//! pruning matters once version counts grow, so a second strategy,
//! representative-set pruning, ships for offline comparison; Korndörfer
//! et al. find that more elaborate selection rarely pays off. A policy
//! is a plain function of the [`PolicyCtx`] snapshot (plus the
//! round-robin cursor table); the scheduler stays responsible for
//! everything *around* the decision (profiles, quarantine, bandwidth
//! EWMAs, bookkeeping).
//!
//! Because the snapshot is recorded verbatim into the trace's decision
//! ledger, any [`PolicyKind`] can be re-run *offline* against a recorded
//! run (`versa-gym`): replaying `round-robin` over its own recording
//! reproduces every decision exactly, and candidate policies are scored
//! without touching live workloads.

use super::versioning::DecisionPhase;
use super::WorkerBid;
use crate::profile::BucketKey;
use crate::{TemplateId, VersionId, WorkerId};
use std::time::Duration;
use versa_mem::IdMap;

/// Profile statistics of one candidate version, snapshotted immediately
/// before a decision (quarantined versions are already filtered out by
/// the scheduler, except in the all-quarantined fallback).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandidateStats {
    /// The candidate version.
    pub version: VersionId,
    /// Times it has been *assigned* in this size group (≥ its execution
    /// count while assignments are still queued).
    pub scheduled: u64,
    /// Completed executions recorded in this size group.
    pub count: u64,
    /// Mean execution time, once at least one execution completed.
    pub mean: Option<Duration>,
}

/// One worker's load at decision time, plus which of the template's
/// versions its device can run — everything a policy needs to place the
/// chosen version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerSnap {
    /// The worker.
    pub worker: WorkerId,
    /// Queue pressure: queued tasks plus the running one.
    pub pressure: u64,
    /// Estimated busy time (queue drain estimate).
    pub busy: Duration,
    /// Estimated copy-in time for this task's non-resident data (zero
    /// unless the scheduler runs locality-aware).
    pub transfer: Duration,
    /// Template versions this worker's device can run, in version order
    /// (unfiltered by quarantine; intersect with the candidate list).
    pub runnable: Vec<VersionId>,
}

impl WorkerSnap {
    /// Whether this worker can run `version`.
    pub(crate) fn can_run(&self, version: VersionId) -> bool {
        self.runnable.contains(&version)
    }
}

/// Everything a policy may consult for one decision. A pure snapshot:
/// replaying a recorded `PolicyCtx` through the same policy and cursor
/// table reproduces the live decision.
#[derive(Clone, Debug)]
pub struct PolicyCtx<'a> {
    /// The task's template.
    pub template: TemplateId,
    /// The size bucket its profile lookup used.
    pub bucket: BucketKey,
    /// Owning job id, when running under a multi-job service.
    pub job: Option<u64>,
    /// The scheduler's learning threshold λ.
    pub lambda: u64,
    /// Candidate versions (trainable minus quarantined), with their
    /// profile statistics, in version order.
    pub candidates: &'a [CandidateStats],
    /// Per-worker load snapshots, in worker-id order.
    pub workers: &'a [WorkerSnap],
}

/// A policy's answer: the chosen placement and which regime produced it.
/// The bids backing an auction go to the caller's buffer (see
/// [`PolicyKind::decide`]).
#[derive(Clone, Copy, Debug)]
pub struct PolicyChoice {
    /// Chosen version.
    pub version: VersionId,
    /// Chosen worker.
    pub worker: WorkerId,
    /// Which regime the choice came from (drives the scheduler's
    /// bookkeeping and the trace's phase label).
    pub phase: DecisionPhase,
    /// Execution-time estimate backing the choice (for busy-time
    /// accounting; zero when unknown).
    pub estimate: Duration,
}

/// Least-loaded worker able to run `version`, by `(queue pressure, busy
/// estimate, id)` — the learning phase's placement rule.
fn least_loaded_for(workers: &[WorkerSnap], version: VersionId) -> WorkerId {
    workers
        .iter()
        .filter(|w| w.can_run(version))
        .min_by_key(|w| (w.pressure, w.busy, w.worker))
        .expect("candidate version has a compatible worker")
        .worker
}

/// The paper's earliest-executor auction over `allowed`, with the
/// no-means fallback: every worker bids `busy + mean(fastest allowed
/// version it can run) + transfer` into `bids`; the minimum bid wins.
/// When no worker can produce a bid (no allowed version has a completed
/// mean), the least-scheduled candidate goes to the least-loaded
/// compatible worker.
pub(crate) fn earliest_executor(
    ctx: &PolicyCtx<'_>,
    allowed: &[CandidateStats],
    bids: &mut Vec<WorkerBid>,
) -> PolicyChoice {
    for w in ctx.workers {
        let best = allowed
            .iter()
            .filter(|c| w.can_run(c.version))
            .filter_map(|c| c.mean.map(|m| (m, c.version)))
            .min();
        let Some((mean, version)) = best else { continue };
        bids.push(WorkerBid {
            worker: w.worker,
            busy: w.busy,
            version,
            mean,
            transfer: w.transfer,
            finish: w.busy + mean + w.transfer,
        });
    }
    if let Some(best) = bids.iter().min_by_key(|b| (b.finish, b.worker)).copied() {
        return PolicyChoice {
            version: best.version,
            worker: best.worker,
            phase: DecisionPhase::Reliable,
            estimate: best.mean,
        };
    }
    // Every allowed version has λ assignments queued but none has
    // completed yet — no means to bid with.
    let version = ctx
        .candidates
        .iter()
        .min_by_key(|c| (c.scheduled, c.version))
        .expect("candidates verified non-empty")
        .version;
    PolicyChoice {
        version,
        worker: least_loaded_for(ctx.workers, version),
        phase: DecisionPhase::ReliableFallback,
        estimate: Duration::ZERO,
    }
}

/// The paper's strategy (§IV-B): round-robin over under-trained
/// versions until each has λ assignments, then earliest-executor
/// bidding. `cursors` holds the per-(template, bucket) round-robin
/// position over the candidates; the live scheduler keeps one table and
/// every offline replay keeps its own.
pub(crate) fn round_robin(
    cursors: &mut IdMap<(TemplateId, BucketKey), usize>,
    ctx: &PolicyCtx<'_>,
    bids: &mut Vec<WorkerBid>,
) -> PolicyChoice {
    if ctx.candidates.iter().any(|c| c.scheduled < ctx.lambda) {
        let cursor = cursors.entry((ctx.template, ctx.bucket)).or_insert(0);
        let n = ctx.candidates.len();
        for step in 0..n {
            let idx = (*cursor + step) % n;
            let c = &ctx.candidates[idx];
            if c.scheduled < ctx.lambda {
                *cursor = idx + 1;
                return PolicyChoice {
                    version: c.version,
                    worker: least_loaded_for(ctx.workers, c.version),
                    phase: DecisionPhase::Learning,
                    estimate: c.mean.unwrap_or(Duration::ZERO),
                };
            }
        }
        // The under-trained set emptied between the phase check and
        // the pick (quarantine strikes can do this): fall through to
        // the profiled path instead of panicking.
    }
    earliest_executor(ctx, ctx.candidates, bids)
}

/// Representative-set pruning (Luo et al.): train every version once,
/// then restrict the earliest-executor auction to the `k` fastest (at
/// least one) — learning cost stays bounded when version counts explode,
/// at the price of never revisiting versions outside the representative
/// set.
fn representative_set(k: usize, ctx: &PolicyCtx<'_>, bids: &mut Vec<WorkerBid>) -> PolicyChoice {
    // One observation per version is the entire learning phase.
    if let Some(c) =
        ctx.candidates.iter().filter(|c| c.count == 0 && c.scheduled == 0).min_by_key(|c| c.version)
    {
        return PolicyChoice {
            version: c.version,
            worker: least_loaded_for(ctx.workers, c.version),
            phase: DecisionPhase::Learning,
            estimate: Duration::ZERO,
        };
    }
    let mut ranked: Vec<&CandidateStats> = ctx.candidates.iter().collect();
    ranked.sort_by_key(|c| (c.mean.unwrap_or(Duration::MAX), c.version));
    let allowed: Vec<CandidateStats> = ranked.into_iter().take(k.max(1)).copied().collect();
    earliest_executor(ctx, &allowed, bids)
}

/// The shipped decision policies. The live scheduler runs the paper's
/// [`PolicyKind::RoundRobin`]; the `versa-gym` replays recorded
/// decisions through every kind to score them offline.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum PolicyKind {
    /// The paper's round-robin learning + earliest-executor (default).
    #[default]
    RoundRobin,
    /// Representative-set pruning: one observation each, then auction
    /// over the `k` fastest.
    RepresentativeSet {
        /// Size of the representative set.
        k: usize,
    },
}

impl PolicyKind {
    /// Stable name (CLI selector, report label).
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::RepresentativeSet { .. } => "representative-set",
        }
    }

    /// Parse a policy name into its default-parameter kind.
    pub fn parse(name: &str) -> Option<PolicyKind> {
        PolicyKind::shipped().into_iter().find(|k| k.label() == name)
    }

    /// Every shipped policy with its default parameters, in a stable
    /// order (`round-robin` first — the identity policy for replay).
    pub fn shipped() -> Vec<PolicyKind> {
        vec![PolicyKind::RoundRobin, PolicyKind::RepresentativeSet { k: 2 }]
    }

    /// Choose a `(version, worker)` for one ready task, appending every
    /// bid considered to `bids` (passed in empty; left empty by learning
    /// decisions). `cursors` is the round-robin position table; the same
    /// sequence of snapshots through the same table yields the same
    /// choices, which is what makes offline replay exact.
    pub fn decide(
        &self,
        cursors: &mut IdMap<(TemplateId, BucketKey), usize>,
        ctx: &PolicyCtx<'_>,
        bids: &mut Vec<WorkerBid>,
    ) -> PolicyChoice {
        match *self {
            PolicyKind::RoundRobin => round_robin(cursors, ctx, bids),
            PolicyKind::RepresentativeSet { k } => representative_set(k, ctx, bids),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn cand(v: u16, scheduled: u64, count: u64, mean: Option<Duration>) -> CandidateStats {
        CandidateStats { version: VersionId(v), scheduled, count, mean }
    }

    fn snap(w: u16, pressure: u64, busy: Duration, runnable: &[u16]) -> WorkerSnap {
        WorkerSnap {
            worker: WorkerId(w),
            pressure,
            busy,
            transfer: Duration::ZERO,
            runnable: runnable.iter().map(|&v| VersionId(v)).collect(),
        }
    }

    fn ctx<'a>(candidates: &'a [CandidateStats], workers: &'a [WorkerSnap]) -> PolicyCtx<'a> {
        PolicyCtx {
            template: TemplateId(0),
            bucket: BucketKey(0),
            job: None,
            lambda: 3,
            candidates,
            workers,
        }
    }

    #[test]
    fn round_robin_cycles_then_bids() {
        let mut p = IdMap::default();
        let workers = [snap(0, 0, Duration::ZERO, &[0, 1])];
        // Both under-trained: alternate starting at the cursor.
        let c = [cand(0, 0, 0, None), cand(1, 0, 0, None)];
        assert_eq!(round_robin(&mut p, &ctx(&c, &workers), &mut Vec::new()).version, VersionId(0));
        let c = [cand(0, 1, 1, Some(ms(10))), cand(1, 0, 0, None)];
        assert_eq!(round_robin(&mut p, &ctx(&c, &workers), &mut Vec::new()).version, VersionId(1));
        // Trained: the faster mean wins the auction.
        let c = [cand(0, 3, 3, Some(ms(10))), cand(1, 3, 3, Some(ms(5)))];
        let mut bids = Vec::new();
        let choice = round_robin(&mut p, &ctx(&c, &workers), &mut bids);
        assert_eq!(choice.version, VersionId(1));
        assert_eq!(choice.phase, DecisionPhase::Reliable);
        assert_eq!(bids.len(), 1);
    }

    #[test]
    fn round_robin_skips_trained_versions_mid_cycle() {
        let mut p = IdMap::default();
        let workers = [snap(0, 0, Duration::ZERO, &[0, 1, 2])];
        // v0 already has λ assignments: the walk starts at the cursor
        // (0) and skips to v1.
        let c = [cand(0, 3, 0, None), cand(1, 0, 0, None), cand(2, 0, 0, None)];
        assert_eq!(round_robin(&mut p, &ctx(&c, &workers), &mut Vec::new()).version, VersionId(1));
        let c = [cand(0, 3, 0, None), cand(1, 1, 0, None), cand(2, 0, 0, None)];
        assert_eq!(round_robin(&mut p, &ctx(&c, &workers), &mut Vec::new()).version, VersionId(2));
    }

    #[test]
    fn round_robin_falls_through_when_no_undertrained_candidate_survives() {
        // The phase check sees an under-trained candidate list, but the
        // walk finds none (stale snapshot after quarantine strikes):
        // must not panic — the earliest-executor fallback handles it.
        let mut p = IdMap::default();
        let workers = [snap(0, 0, Duration::ZERO, &[0])];
        let c = [cand(0, 5, 2, Some(ms(7)))];
        let choice = round_robin(&mut p, &ctx(&c, &workers), &mut Vec::new());
        assert_eq!(choice.version, VersionId(0));
        assert_eq!(choice.phase, DecisionPhase::Reliable);
    }

    #[test]
    fn learning_places_on_least_loaded_compatible_worker() {
        let mut p = IdMap::default();
        let workers = [
            snap(0, 2, ms(50), &[0]),
            snap(1, 0, ms(1), &[1]), // idle, but cannot run v0
            snap(2, 1, ms(5), &[0, 1]),
        ];
        let c = [cand(0, 0, 0, None), cand(1, 0, 0, None)];
        let choice = round_robin(&mut p, &ctx(&c, &workers), &mut Vec::new());
        assert_eq!(choice.version, VersionId(0));
        assert_eq!(choice.worker, WorkerId(2), "w1 is idle but incompatible");
    }

    #[test]
    fn representative_set_prunes_to_k_fastest() {
        let k = 2;
        let workers = [snap(0, 0, Duration::ZERO, &[0, 1, 2])];
        // Train each version exactly once.
        let c = [cand(0, 0, 0, None), cand(1, 0, 0, None), cand(2, 0, 0, None)];
        assert_eq!(representative_set(k, &ctx(&c, &workers), &mut Vec::new()).version, VersionId(0));
        let c = [cand(0, 1, 1, Some(ms(30))), cand(1, 0, 0, None), cand(2, 0, 0, None)];
        assert_eq!(representative_set(k, &ctx(&c, &workers), &mut Vec::new()).version, VersionId(1));
        let c = [cand(0, 1, 1, Some(ms(30))), cand(1, 1, 1, Some(ms(5))), cand(2, 0, 0, None)];
        assert_eq!(representative_set(k, &ctx(&c, &workers), &mut Vec::new()).version, VersionId(2));
        // All observed: v2 (400 ms) is outside the representative set
        // {v1, v0}; the auction never picks it again.
        let c = [
            cand(0, 1, 1, Some(ms(30))),
            cand(1, 1, 1, Some(ms(5))),
            cand(2, 1, 1, Some(ms(400))),
        ];
        for _ in 0..8 {
            let choice = representative_set(k, &ctx(&c, &workers), &mut Vec::new());
            assert_ne!(choice.version, VersionId(2), "pruned version must not win");
        }
    }

    #[test]
    fn kind_round_trips_labels() {
        for kind in PolicyKind::shipped() {
            assert_eq!(PolicyKind::parse(kind.label()), Some(kind.clone()));
        }
        assert_eq!(PolicyKind::parse("bogus"), None);
        assert_eq!(PolicyKind::default(), PolicyKind::RoundRobin);
    }
}
