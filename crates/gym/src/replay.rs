//! Replaying a recorded decision ledger through a [`PolicyKind`].
//!
//! Each recorded decision carries the *inputs* the live scheduler saw —
//! per-candidate profile statistics and per-worker load snapshots,
//! captured immediately before any bookkeeping — so a policy can be
//! re-run over the ledger as a pure function, decision by decision, with
//! no runtime in the loop. The trace stores the scheduler's own
//! [`Decision`], so the replay feeds the policy the recorded values
//! themselves. The identity policy (`round-robin`, the shipped
//! scheduler behavior) must agree with the recording on every
//! decision; alternative policies diverge and get scored on what their
//! divergence would have cost ([`Score`]).

use std::collections::HashMap;
use std::time::Duration;
use versa_core::scheduler::{Decision, DecisionPhase};
use versa_core::{BucketKey, PolicyCtx, PolicyKind, TaskId, TemplateId, VersionId, WorkerId};
use versa_trace::{Trace, TraceEvent};

/// Default λ for traces recorded before the meta carried it.
const DEFAULT_LAMBDA: u64 = 3;

/// Per-`(template, bucket, version)` mean kernel durations mined from the
/// trace, used to price replayed choices.
///
/// Built from `TaskStart`/`TaskEnd` joins where the trace has them (the
/// actual measured kernel times), back-filled from the recorded
/// candidate statistics (the scheduler's own running means, taken from
/// each version's best-trained appearance in the ledger) for versions
/// the run never executed.
#[derive(Debug, Default)]
pub struct Oracle {
    means: HashMap<(TemplateId, BucketKey, VersionId), Duration>,
}

impl Oracle {
    /// Mean duration of `version` for `(template, bucket)`, if known.
    pub(crate) fn duration(&self, t: TemplateId, b: BucketKey, v: VersionId) -> Option<Duration> {
        self.means.get(&(t, b, v)).copied()
    }

    /// Worst known mean across versions of `(template, bucket)` — the
    /// pessimistic price for a choice the oracle has no data on.
    pub(crate) fn worst(&self, t: TemplateId, b: BucketKey) -> Option<Duration> {
        self.means
            .iter()
            .filter(|((mt, mb, _), _)| *mt == t && *mb == b)
            .map(|(_, &d)| d)
            .max()
    }
}

/// A parsed decision ledger: the recorded decisions plus everything
/// needed to score a replay.
#[derive(Debug)]
pub struct Ledger {
    /// λ in effect during the recording (learning threshold).
    pub lambda: u64,
    /// The decisions, in the order the live scheduler made them.
    pub decisions: Vec<Decision>,
    /// Duration oracle mined from the same trace.
    pub oracle: Oracle,
}

impl Ledger {
    /// Take a trace's decision ledger for replay.
    ///
    /// Fails when the trace has no decisions at all, or when any decision
    /// lacks the recorded policy inputs (traces recorded before the
    /// ledger carried candidate/worker snapshots can't be replayed).
    pub fn from_trace(trace: &Trace) -> Result<Ledger, String> {
        let lambda = trace.meta.lambda.unwrap_or(DEFAULT_LAMBDA);
        let decisions: Vec<Decision> = trace.decisions().cloned().collect();
        let bare =
            decisions.iter().filter(|d| d.candidates.is_empty() || d.workers.is_empty()).count();
        if bare > 0 {
            return Err(format!(
                "{bare} decision(s) lack recorded policy inputs — \
                 re-record the trace with a current build"
            ));
        }
        if decisions.is_empty() {
            return Err("trace has no decision ledger (was decision logging on?)".into());
        }
        let oracle = build_oracle(trace, &decisions);
        Ok(Ledger { lambda, decisions, oracle })
    }
}

/// Mine measured kernel means from `TaskStart`/`TaskEnd` pairs, keyed by
/// the `(template, bucket)` each task's decision recorded, then back-fill
/// versions the run never executed from the best-trained recorded
/// candidate means.
fn build_oracle(trace: &Trace, decisions: &[Decision]) -> Oracle {
    // Task -> (template, bucket) from its decision (re-decisions of a
    // retried task keep the same key, so last-wins is fine).
    let mut task_key: HashMap<TaskId, (TemplateId, BucketKey)> = HashMap::new();
    for d in decisions {
        task_key.insert(d.task, (d.template, d.bucket));
    }

    // Join starts to ends to collect measured samples per (t, b, v).
    let mut live: HashMap<TaskId, VersionId> = HashMap::new();
    let mut samples: HashMap<(TemplateId, BucketKey, VersionId), (Duration, u32)> = HashMap::new();
    for e in trace.events() {
        match e {
            TraceEvent::TaskStart { task, version, .. } => {
                live.insert(*task, *version);
            }
            TraceEvent::TaskEnd { task, kernel_ns, .. } => {
                if let (Some(&(t, b)), Some(&v)) = (task_key.get(task), live.get(task)) {
                    let slot = samples.entry((t, b, v)).or_insert((Duration::ZERO, 0));
                    slot.0 += Duration::from_nanos(*kernel_ns);
                    slot.1 += 1;
                }
            }
            _ => {}
        }
    }
    let mut means: HashMap<_, _> =
        samples.into_iter().map(|(k, (sum, n))| (k, sum / n.max(1))).collect();

    // Back-fill from recorded candidate statistics: for each (t, b, v)
    // without a measured mean, use the recorded mean with the highest
    // sample count anywhere in the ledger.
    let mut best: HashMap<(TemplateId, BucketKey, VersionId), (u64, Duration)> = HashMap::new();
    for d in decisions {
        for c in &d.candidates {
            if let Some(m) = c.mean {
                let k = (d.template, d.bucket, c.version);
                let e = best.entry(k).or_insert((c.count, m));
                if c.count > e.0 {
                    *e = (c.count, m);
                }
            }
        }
    }
    for (k, (_, m)) in best {
        means.entry(k).or_insert(m);
    }
    Oracle { means }
}

/// A replayed decision that differs from the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Index of the decision in ledger order.
    pub index: usize,
    /// Task the decision was for.
    pub task: TaskId,
    /// What the live scheduler chose: `(phase, version, worker)`.
    pub recorded: (DecisionPhase, VersionId, WorkerId),
    /// What the replayed policy chose.
    pub replayed: (DecisionPhase, VersionId, WorkerId),
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (rp, rv, rw) = self.recorded;
        let (pp, pv, pw) = self.replayed;
        write!(
            f,
            "decision #{} task {}: recorded {}/v{}@w{}, replayed {}/v{}@w{}",
            self.index,
            self.task.0,
            rp.label(),
            rv.0,
            rw.0,
            pp.label(),
            pv.0,
            pw.0
        )
    }
}

/// Aggregate replay metrics for one `(ledger, policy)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Score {
    /// Number of decisions replayed.
    pub decisions: usize,
    /// Fraction of decisions whose chosen *version* matched the recording.
    pub version_agreement: f64,
    /// Fraction whose `(version, worker)` pair matched the recording.
    pub placement_agreement: f64,
    /// Decisions the policy spent in its learning phase.
    pub learning_decisions: usize,
    /// Learning-cost regret: Σ over decisions of
    /// `oracle(chosen) − min over candidates of oracle(candidate)`.
    pub learning_cost: Duration,
    /// Makespan proxy: accumulate each chosen worker's clock by the
    /// choice's oracle duration plus that worker's recorded transfer
    /// estimate; report the max clock. A queueing-free lower bound, good
    /// for *ranking* policies on the same ledger, not for absolute time.
    pub makespan_proxy: Duration,
}

/// Result of replaying one ledger through one policy.
#[derive(Debug)]
pub struct Replay {
    /// The policy's label.
    pub policy: String,
    /// Decisions that diverged from the recording.
    pub mismatches: Vec<Mismatch>,
    /// Aggregate metrics.
    pub score: Score,
}

/// Replay every decision in `ledger` through a fresh instance of `kind`.
pub fn replay(ledger: &Ledger, kind: PolicyKind) -> Replay {
    // The replay's own round-robin cursor table, fresh like the live
    // scheduler's at the start of the recorded run.
    let mut cursors = Default::default();
    let mut clocks: HashMap<WorkerId, Duration> = HashMap::new();
    let mut mismatches = Vec::new();
    let mut version_agree = 0usize;
    let mut placement_agree = 0usize;
    let mut learning = 0usize;
    let mut regret = Duration::ZERO;
    let mut bids = Vec::new();

    for (i, step) in ledger.decisions.iter().enumerate() {
        let ctx = PolicyCtx {
            template: step.template,
            bucket: step.bucket,
            job: step.job,
            lambda: ledger.lambda,
            candidates: &step.candidates,
            workers: &step.workers,
        };
        bids.clear();
        let choice = kind.decide(&mut cursors, &ctx, &mut bids);
        let recorded = (step.phase, step.version, step.worker);
        let replayed = (choice.phase, choice.version, choice.worker);
        if replayed == recorded {
            version_agree += 1;
            placement_agree += 1;
        } else {
            if choice.version == step.version {
                version_agree += 1;
            }
            mismatches.push(Mismatch { index: i, task: step.task, recorded, replayed });
        }
        if choice.phase == DecisionPhase::Learning {
            learning += 1;
        }

        let price = |v: VersionId| ledger.oracle.duration(step.template, step.bucket, v);
        let dur = price(choice.version)
            .or_else(|| ledger.oracle.worst(step.template, step.bucket))
            .unwrap_or(Duration::ZERO);
        let best = step.candidates.iter().filter_map(|c| price(c.version)).min().unwrap_or(dur);
        regret += dur.saturating_sub(best);

        let transfer = step
            .workers
            .iter()
            .find(|w| w.worker == choice.worker)
            .map(|w| w.transfer)
            .unwrap_or_default();
        *clocks.entry(choice.worker).or_default() += dur + transfer;
    }

    let n = ledger.decisions.len();
    Replay {
        policy: kind.label().to_string(),
        mismatches,
        score: Score {
            decisions: n,
            version_agreement: version_agree as f64 / n.max(1) as f64,
            placement_agreement: placement_agree as f64 / n.max(1) as f64,
            learning_decisions: learning,
            learning_cost: regret,
            makespan_proxy: clocks.values().max().copied().unwrap_or_default(),
        },
    }
}

/// Replay through the identity policy (`round-robin`, the shipped
/// scheduler behavior) and demand decision-for-decision agreement with
/// the recording. Returns the number of decisions checked.
pub fn check_identity(ledger: &Ledger) -> Result<usize, String> {
    let r = replay(ledger, PolicyKind::RoundRobin);
    if r.mismatches.is_empty() {
        return Ok(r.score.decisions);
    }
    let shown: Vec<String> = r.mismatches.iter().take(5).map(|m| m.to_string()).collect();
    Err(format!(
        "identity replay diverged on {} of {} decisions:\n  {}",
        r.mismatches.len(),
        r.score.decisions,
        shown.join("\n  ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use versa_core::{CandidateStats, WorkerSnap};
    use versa_trace::{TraceMeta, Ts};

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn decision(
        i: u64,
        phase: DecisionPhase,
        version: VersionId,
        worker: WorkerId,
        candidates: Vec<CandidateStats>,
        workers: Vec<WorkerSnap>,
    ) -> TraceEvent {
        TraceEvent::Decision {
            time: Ts(i),
            decision: Decision {
                task: TaskId(i),
                template: TemplateId(0),
                bucket: BucketKey(0),
                job: None,
                phase,
                worker,
                version,
                bids: Vec::new(),
                candidates,
                workers,
            },
        }
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

    /// A 2-version, 2-worker ledger: λ=1, so decision 0 and 1 learn (one
    /// round-robin pass), decision 2 bids and picks the faster v0.
    fn tiny_trace() -> Trace {
        let meta = TraceMeta { lambda: Some(1), ..TraceMeta::default() };
        let both = |s0: u64, c0: u64, m0: Option<Duration>, s1: u64, c1, m1| {
            vec![cand(0, s0, c0, m0), cand(1, s1, c1, m1)]
        };
        let snaps = |b0: u64, b1: u64| vec![snap(0, 0, ms(b0), &[0, 1]), snap(1, 0, ms(b1), &[1])];
        let events = vec![
            decision(0, DecisionPhase::Learning, VersionId(0), WorkerId(0), both(0, 0, None, 0, 0, None), snaps(0, 0)),
            decision(
                1,
                DecisionPhase::Learning,
                VersionId(1),
                WorkerId(0),
                both(1, 0, None, 0, 0, None),
                snaps(0, 5),
            ),
            decision(
                2,
                DecisionPhase::Reliable,
                VersionId(0),
                WorkerId(0),
                both(1, 1, Some(ms(4)), 1, 1, Some(ms(9))),
                snaps(0, 0),
            ),
        ];
        Trace::new(meta, events, 0)
    }

    #[test]
    fn identity_replay_matches_recording() {
        let ledger = Ledger::from_trace(&tiny_trace()).unwrap();
        assert_eq!(ledger.lambda, 1);
        assert_eq!(check_identity(&ledger).unwrap(), 3);
    }

    #[test]
    fn oracle_prefers_measured_over_recorded_means() {
        let mut trace = tiny_trace();
        let mut events = trace.events().to_vec();
        events.push(TraceEvent::TaskStart {
            time: Ts(10),
            task: TaskId(0),
            worker: WorkerId(0),
            version: VersionId(0),
            template: TemplateId(0),
            attempt: 0,
        });
        events.push(TraceEvent::TaskEnd {
            time: Ts(11),
            task: TaskId(0),
            worker: WorkerId(0),
            kernel_ns: ms(6).as_nanos() as u64,
        });
        trace = Trace::new(trace.meta.clone(), events, 0);
        let ledger = Ledger::from_trace(&trace).unwrap();
        // v0 measured at 6ms (overrides the recorded 4ms mean); v1 only
        // ever recorded, back-filled at 9ms.
        let d = |v| ledger.oracle.duration(TemplateId(0), BucketKey(0), VersionId(v));
        assert_eq!(d(0), Some(ms(6)));
        assert_eq!(d(1), Some(ms(9)));
        assert_eq!(ledger.oracle.worst(TemplateId(0), BucketKey(0)), Some(ms(9)));
    }

    #[test]
    fn mismatches_are_reported_with_context() {
        // Representative-set trains each version once instead of λ times,
        // so it diverges from the recorded round-robin run on this
        // ledger; the mismatch list pinpoints where.
        let trace = crate::record::record_sim("mm-wide").unwrap();
        let ledger = Ledger::from_trace(&trace).unwrap();
        let r = replay(&ledger, PolicyKind::RepresentativeSet { k: 2 });
        assert!(!r.mismatches.is_empty(), "the policy must diverge on this ledger");
        for m in &r.mismatches {
            assert!(m.to_string().contains("decision #"), "{m}");
        }
        assert!(r.score.version_agreement < 1.0);
    }

    #[test]
    fn bare_decisions_are_rejected() {
        let meta = TraceMeta { lambda: Some(1), ..TraceMeta::default() };
        let trace = Trace::new(
            meta,
            vec![decision(0, DecisionPhase::Learning, VersionId(0), WorkerId(0), Vec::new(), Vec::new())],
            0,
        );
        let err = Ledger::from_trace(&trace).unwrap_err();
        assert!(err.contains("lack recorded policy inputs"), "{err}");
    }

    #[test]
    fn empty_ledger_is_rejected() {
        let trace = Trace::new(TraceMeta::default(), Vec::new(), 0);
        assert!(Ledger::from_trace(&trace).unwrap_err().contains("no decision ledger"));
    }
}
