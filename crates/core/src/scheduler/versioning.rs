//! The versioning scheduler — the paper's contribution (§IV).

use super::policy::{CandidateStats, Policy, PolicyCtx, PolicyKind, WorkerSnap};
use super::{queue_pressure, Assignment, FailureKind, SchedCtx, Scheduler};
use crate::profile::{BucketKey, GroupProfile, MeanPolicy, ProfileStore, SizeBucketPolicy};
use crate::{TaskId, TaskInstance, TaskTemplate, TemplateId, VersionId, WorkerId, WorkerState};
use std::time::Duration;
use versa_mem::{IdMap, MemSpace};

/// Smoothing factor for the per-space bandwidth EWMA: the same "keep
/// adapting, weight the recent past" idea as the paper's footnote-3
/// weighted execution means.
const BANDWIDTH_EWMA_ALPHA: f64 = 0.25;

/// Upper clamp on one measured bandwidth sample (bytes/second). Timer
/// granularity on a tiny transfer can price a link at petabytes per
/// second; one such sample drags the EWMA so high the locality term
/// never predicts a transfer cost again. 1 TB/s sits comfortably above
/// any link this runtime models while still bounding the damage.
const BANDWIDTH_SAMPLE_CEILING: f64 = 1.0e12;

/// Tunables of the [`VersioningScheduler`]; the analogue of Nanos++
/// configuration arguments / environment variables.
#[derive(Clone, Debug, PartialEq)]
pub struct VersioningConfig {
    /// Learning threshold λ: minimum executions of every version of a
    /// size group before the group's information is *reliable* (paper
    /// §IV-B; user-configurable per footnote 4).
    pub lambda: u64,
    /// How data set sizes are grouped (paper default: exact match; §VII
    /// proposes ranges).
    pub bucket_policy: SizeBucketPolicy,
    /// Mean-update policy (paper default: arithmetic; footnote 3 suggests
    /// a weighted mean).
    pub mean_policy: MeanPolicy,
    /// §VII extension: add an estimated transfer time to the
    /// earliest-executor objective so data locality is taken into
    /// account.
    pub locality_aware: bool,
    /// Link bandwidth assumed when estimating transfer times in
    /// locality-aware mode (bytes/second).
    pub assumed_bandwidth: f64,
    /// Quarantine threshold K: consecutive failures of a (template,
    /// version, size-group) entry before the version is excluded from
    /// learning and bidding in that group.
    pub quarantine_threshold: u64,
    /// Probation period: with `Some(p)`, a quarantined version earns one
    /// retrial after `p` successful executions of other versions in the
    /// same group; with `None`, quarantine holds until the run ends.
    pub probation: Option<u64>,
    /// Decision policy: which [`Policy`] turns the per-decision snapshot
    /// into a `(version, worker)` choice. The default,
    /// [`PolicyKind::RoundRobin`], is the paper's strategy and is
    /// decision-for-decision identical to the pre-trait scheduler.
    pub policy: PolicyKind,
}

impl Default for VersioningConfig {
    fn default() -> Self {
        VersioningConfig {
            lambda: 3,
            bucket_policy: SizeBucketPolicy::Exact,
            mean_policy: MeanPolicy::Arithmetic,
            locality_aware: false,
            // A PCIe 2.0 x16-class link, matching the simulated platform.
            assumed_bandwidth: 6.0e9,
            quarantine_threshold: 2,
            probation: None,
            policy: PolicyKind::RoundRobin,
        }
    }
}

/// Which phase produced a decision (paper §IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecisionPhase {
    /// Initial learning phase: round-robin over under-trained versions.
    Learning,
    /// Reliable-information phase: earliest-executor selection.
    Reliable,
    /// Past the learning phase but no version had a completed mean to
    /// bid with (every version has λ assignments still in flight) — the
    /// least-scheduled version went to the least-loaded worker.
    ReliableFallback,
}

impl DecisionPhase {
    /// Stable one-word label (the trace's text format and reports).
    pub fn label(self) -> &'static str {
        match self {
            DecisionPhase::Learning => "learning",
            DecisionPhase::Reliable => "reliable",
            DecisionPhase::ReliableFallback => "fallback",
        }
    }

    /// Inverse of [`DecisionPhase::label`].
    pub fn from_label(s: &str) -> Option<DecisionPhase> {
        match s {
            "learning" => Some(DecisionPhase::Learning),
            "reliable" => Some(DecisionPhase::Reliable),
            "fallback" => Some(DecisionPhase::ReliableFallback),
            _ => None,
        }
    }
}

/// One worker's bid during an earliest-executor decision: the version it
/// would run, its mean execution time, and the resulting finish estimate.
/// Captured for the paper's Fig. 5-style decision traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerBid {
    /// The bidding worker.
    pub worker: WorkerId,
    /// Its current estimated busy time.
    pub busy: Duration,
    /// The fastest version it can run.
    pub version: VersionId,
    /// That version's mean execution time.
    pub mean: Duration,
    /// Estimated transfer time added in locality-aware mode (zero
    /// otherwise).
    pub transfer: Duration,
    /// `busy + mean (+ transfer)`: when the worker would finish the task.
    pub finish: Duration,
}

/// The inputs and bid ledger of one decision, refilled in place by every
/// [`Scheduler::assign`]: once they have grown to the platform's size, a
/// decision allocates nothing. Cloned into a [`Decision`] only while the
/// decision log is on.
#[derive(Default)]
struct DecisionBufs {
    /// Candidate versions with their profile statistics, in version order.
    candidates: Vec<CandidateStats>,
    /// Per-worker load snapshots, in worker order (each snapshot keeps
    /// its `runnable` list's storage from one decision to the next).
    workers: Vec<WorkerSnap>,
    /// The bids of an auction (empty for learning-phase decisions).
    bids: Vec<WorkerBid>,
}

/// The candidate versions of a task: the template's versions some live
/// worker can run (versions targeting absent devices are excluded so the
/// learning phase can terminate), minus those excluded by quarantine in
/// its size `group`. If quarantine empties the set, the least-failed
/// runnable version alone, so the scheduler stays total — the engine's
/// bounded retry is the layer that turns persistent failure into a
/// graceful error.
fn candidate_versions<'a>(
    tpl: &'a TaskTemplate,
    workers: &'a [WorkerState],
    group: Option<&'a GroupProfile>,
    probation: Option<u64>,
) -> impl Iterator<Item = VersionId> + 'a {
    let trainable = move || {
        (0..tpl.version_count() as u16).map(VersionId).filter(move |&v| {
            workers.iter().any(|w| !w.is_retired() && tpl.version(v).runs_on(w.info.device))
        })
    };
    let excluded = move |v: VersionId| group.is_some_and(|g| g.is_excluded(v, probation));
    let fallback = if trainable().all(excluded) {
        trainable().min_by_key(|&v| (group.map_or(0, |g| g.failures(v)), v))
    } else {
        None
    };
    trainable().filter(move |&v| !excluded(v)).chain(fallback)
}

/// A candidate's statistics in its size `group`, as the policy sees them.
fn candidate_stats(group: Option<&GroupProfile>, version: VersionId) -> CandidateStats {
    match group {
        Some(g) => CandidateStats {
            version,
            scheduled: g.scheduled(version),
            count: g.version(version).count(),
            mean: g.version(version).mean(),
        },
        None => CandidateStats { version, scheduled: 0, count: 0, mean: None },
    }
}

/// A recorded scheduling decision (optional; see
/// [`VersioningScheduler::set_decision_logging`]). The trace's decision
/// ledger stores these as they are, so a traced decision and the
/// policy input that replays it are one value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The task being placed.
    pub task: TaskId,
    /// Its template.
    pub template: TemplateId,
    /// The size bucket the profile lookup used.
    pub bucket: BucketKey,
    /// The owning job id, when the task runs under a multi-job service.
    pub job: Option<u64>,
    /// Phase the group was in.
    pub phase: DecisionPhase,
    /// Chosen worker.
    pub worker: WorkerId,
    /// Chosen version.
    pub version: VersionId,
    /// All bids considered (empty for learning-phase decisions).
    pub bids: Vec<WorkerBid>,
    /// Candidate versions with their profile statistics as seen *before*
    /// this decision's bookkeeping — together with `workers`, the full
    /// policy input, so recorded decisions replay offline as a pure
    /// function (the `versa-gym` harness).
    pub candidates: Vec<CandidateStats>,
    /// Per-worker load snapshots at decision time.
    pub workers: Vec<WorkerSnap>,
}

/// The paper's self-adaptive scheduler: it "is able to choose the most
/// appropriate task implementation at runtime each time a task must be
/// run. As tasks are executed, the scheduler learns and keeps track of
/// their behavior so that it can make accurate decisions in the immediate
/// future" (paper §I).
///
/// Behaviour per size group:
/// 1. **Learning phase** — versions picked round-robin until each has run
///    λ times; tasks go to the least-loaded worker able to run the picked
///    version.
/// 2. **Reliable phase** — every worker bids `busy + mean(best version it
///    can run)`; the minimum bid (the *earliest executor*) wins. This is
///    exactly the Fig. 5 rule: a slower SMP worker wins when the fast GPU
///    is backed up.
///
/// The scheduler never stops learning: reliable-phase executions update
/// the means too, and a task instance with an unseen data-set size drops
/// its group back into the learning phase.
pub struct VersioningScheduler {
    config: VersioningConfig,
    profiles: ProfileStore,
    policy: Box<dyn Policy>,
    decisions: Option<Vec<Decision>>,
    /// Measured bytes/second into each space, learned online from
    /// completed transfers (EWMA). Used by the locality-aware transfer
    /// term in place of the static `assumed_bandwidth` once at least one
    /// transfer into the space has been observed.
    bandwidth: IdMap<MemSpace, f64>,
    bufs: DecisionBufs,
}

impl VersioningScheduler {
    /// Create a scheduler from a configuration.
    pub(crate) fn new(config: VersioningConfig) -> VersioningScheduler {
        let mut profiles =
            ProfileStore::new(config.bucket_policy, config.mean_policy, config.lambda);
        profiles.set_quarantine(config.quarantine_threshold, config.probation);
        let policy = config.policy.build();
        VersioningScheduler {
            config,
            profiles,
            policy,
            decisions: None,
            bandwidth: IdMap::default(),
            bufs: DecisionBufs::default(),
        }
    }

    /// Scheduler with the paper's default configuration.
    pub fn with_defaults() -> VersioningScheduler {
        VersioningScheduler::new(VersioningConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &VersioningConfig {
        &self.config
    }

    /// The learned profile store (paper Table I), e.g. for rendering or
    /// saving hints.
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// Mutable access to the profile store — used to seed external hints
    /// before a run (paper §VII).
    pub fn profiles_mut(&mut self) -> &mut ProfileStore {
        &mut self.profiles
    }

    /// Enable or disable decision logging (Fig. 5-style traces). Logging
    /// is off by default; enabling it on long runs costs memory.
    pub fn set_decision_logging(&mut self, enabled: bool) {
        self.decisions = if enabled { Some(Vec::new()) } else { None };
    }

    /// Recorded decisions, if logging is enabled.
    pub fn decisions(&self) -> &[Decision] {
        self.decisions.as_deref().unwrap_or(&[])
    }

    /// Drain and return the recorded decisions, leaving logging enabled.
    /// Engines call this after each scheduling burst to move records into
    /// the trace without unbounded growth here.
    pub fn drain_decisions(&mut self) -> Vec<Decision> {
        self.decisions.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Whether decision logging is currently enabled.
    pub fn decision_logging(&self) -> bool {
        self.decisions.is_some()
    }

    /// Measured bandwidth into `space`, once at least one transfer has
    /// completed there.
    pub fn measured_bandwidth(&self, space: MemSpace) -> Option<f64> {
        self.bandwidth.get(&space).copied()
    }

    fn transfer_estimate(
        &self,
        task: &TaskInstance,
        ctx: &SchedCtx<'_>,
        w: &WorkerState,
    ) -> Duration {
        if !self.config.locality_aware {
            return Duration::ZERO;
        }
        let bytes = ctx.directory.bytes_missing_for(&task.accesses, w.info.space);
        // Prefer the online-measured bandwidth for this destination
        // space; until a transfer has been observed, fall back to the
        // configured static estimate.
        let bw = self
            .bandwidth
            .get(&w.info.space)
            .copied()
            .unwrap_or(self.config.assumed_bandwidth);
        Duration::from_secs_f64(bytes as f64 / bw)
    }

    /// Refill the decision buffers for `task` from one profile-group
    /// lookup: the candidates' statistics, captured *before* any
    /// bookkeeping mutates the store, and every worker's live load
    /// (enqueues between decisions of one drain must be visible).
    fn fill_inputs(&mut self, task: &TaskInstance, ctx: &SchedCtx<'_>) {
        let tpl = ctx.templates.get(task.template);
        let group = self.profiles.group(task.template, task.data_set_size);
        let candidates = candidate_versions(tpl, ctx.workers, group, self.profiles.probation());
        self.bufs.candidates.clear();
        self.bufs.candidates.extend(candidates.map(|v| candidate_stats(group, v)));
        // Every field of every snapshot is overwritten below.
        self.bufs.workers.resize_with(ctx.workers.len(), || WorkerSnap {
            worker: WorkerId(0),
            pressure: 0,
            busy: Duration::ZERO,
            transfer: Duration::ZERO,
            runnable: Vec::new(),
        });
        for (i, w) in ctx.workers.iter().enumerate() {
            let transfer = self.transfer_estimate(task, ctx, w);
            let snap = &mut self.bufs.workers[i];
            snap.worker = w.info.id;
            snap.pressure = queue_pressure(w) as u64;
            snap.busy = w.estimated_busy();
            snap.transfer = transfer;
            // A retired worker (lost node) advertises no runnable
            // versions, so every policy treats it as incompatible.
            snap.runnable.clear();
            if !w.is_retired() {
                snap.runnable.extend(tpl.versions_for(w.info.device));
            }
        }
    }
}

impl Scheduler for VersioningScheduler {
    fn name(&self) -> &'static str {
        if self.config.locality_aware {
            "locality-versioning"
        } else {
            "versioning"
        }
    }

    fn assign(&mut self, task: &TaskInstance, ctx: &SchedCtx<'_>) -> Assignment {
        // The full decision input, captured before any bookkeeping; the
        // policy sees nothing else, so recording this snapshot into the
        // ledger makes every decision replayable offline.
        self.fill_inputs(task, ctx);
        assert!(
            !self.bufs.candidates.is_empty(),
            "no worker can run any version of {:?}",
            ctx.templates.get(task.template).name
        );
        let bucket = self.profiles.bucket(task.data_set_size);
        self.bufs.bids.clear();
        let choice = self.policy.decide(
            &PolicyCtx {
                template: task.template,
                bucket,
                job: task.job.map(|j| j.job),
                lambda: self.config.lambda,
                candidates: &self.bufs.candidates,
                workers: &self.bufs.workers,
            },
            &mut self.bufs.bids,
        );
        let n_versions = ctx.templates.get(task.template).version_count();
        match choice.phase {
            DecisionPhase::Learning => {
                self.profiles.note_learning(
                    task.template,
                    n_versions,
                    task.data_set_size,
                    choice.version,
                );
            }
            DecisionPhase::Reliable | DecisionPhase::ReliableFallback => {
                self.profiles.mark_scheduled(
                    task.template,
                    n_versions,
                    task.data_set_size,
                    choice.version,
                );
            }
        }
        let assignment =
            Assignment { worker: choice.worker, version: choice.version, estimate: choice.estimate };
        if let Some(log) = &mut self.decisions {
            log.push(Decision {
                task: task.id,
                template: task.template,
                bucket,
                job: task.job.map(|j| j.job),
                phase: choice.phase,
                worker: choice.worker,
                version: choice.version,
                bids: self.bufs.bids.clone(),
                candidates: self.bufs.candidates.clone(),
                workers: self.bufs.workers.clone(),
            });
        }
        assignment
    }

    fn task_finished(&mut self, task: &TaskInstance, assignment: Assignment, measured: Duration) {
        // "Execution information is also recorded exactly in the same way
        // as the previous phase ... the scheduler is always learning."
        // The group already exists (created at assign time); the version
        // count passed here is a lower bound the store grows to if needed.
        let n_versions = usize::from(assignment.version.0) + 1;
        self.profiles.record(
            task.template,
            n_versions,
            task.data_set_size,
            assignment.version,
            measured,
        );
    }

    fn transfer_done(&mut self, to: MemSpace, bytes: u64, elapsed: Duration) {
        if bytes == 0 || elapsed.is_zero() {
            return;
        }
        let sample = bytes as f64 / elapsed.as_secs_f64();
        // Reject degenerate samples outright and clamp the plausible-but
        // -absurd ones: a single poisoned sample would otherwise skew the
        // EWMA for the rest of the run (and `Duration::from_secs_f64` in
        // the transfer estimate panics on non-finite input downstream).
        if !sample.is_finite() || sample <= 0.0 {
            return;
        }
        let sample = sample.min(BANDWIDTH_SAMPLE_CEILING);
        self.bandwidth
            .entry(to)
            .and_modify(|bw| *bw += BANDWIDTH_EWMA_ALPHA * (sample - *bw))
            .or_insert(sample);
    }

    fn task_failed(&mut self, task: &TaskInstance, assignment: Assignment, kind: FailureKind) {
        // A lost node is not evidence against the version: the same code
        // may run perfectly elsewhere. Node-level quarantine is handled
        // by the cluster membership layer, so no strike is recorded.
        if kind == FailureKind::NodeLost {
            return;
        }
        let n_versions = usize::from(assignment.version.0) + 1;
        self.profiles.record_failure(
            task.template,
            n_versions,
            task.data_set_size,
            assignment.version,
        );
    }

    fn eager(&self, task: &TaskInstance, ctx: &SchedCtx<'_>) -> bool {
        // `ProfileStore::is_reliable` over the candidates, without
        // collecting them.
        let tpl = ctx.templates.get(task.template);
        let group = self.profiles.group(task.template, task.data_set_size);
        let mut candidates = candidate_versions(tpl, ctx.workers, group, self.profiles.probation());
        match group {
            Some(g) => candidates.all(|v| g.version(v).count() >= self.config.lambda),
            None => candidates.next().is_none(),
        }
    }

    fn as_versioning(&self) -> Option<&VersioningScheduler> {
        Some(self)
    }

    fn as_versioning_mut(&mut self) -> Option<&mut VersioningScheduler> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::{DeviceKind, SchedCtx, WorkerState};
    use versa_mem::DataId;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn phase_labels_round_trip() {
        use DecisionPhase::*;
        for p in [Learning, Reliable, ReliableFallback] {
            assert_eq!(DecisionPhase::from_label(p.label()), Some(p));
        }
        assert_eq!(DecisionPhase::from_label("bogus"), None);
    }

    struct Fixture {
        reg: crate::TemplateRegistry,
        tpl: crate::TemplateId,
        workers: Vec<WorkerState>,
        dir: versa_mem::Directory,
    }

    impl Fixture {
        fn new() -> Fixture {
            let (reg, tpl) = hybrid_registry();
            Fixture {
                reg,
                tpl,
                workers: workers_2smp_2gpu(),
                dir: directory(DataId(0), DataId(1), 1024),
            }
        }

        fn ctx(&self) -> SchedCtx<'_> {
            SchedCtx {
                templates: &self.reg,
                workers: &self.workers,
                directory: &self.dir,
                chain_hint: None,
            }
        }

        fn task(&self, id: u64) -> crate::TaskInstance {
            task(id, self.tpl, DataId(0), DataId(1), 1024)
        }

        /// Assign a task, simulate it finishing after `measured`, and
        /// feed the measurement back.
        fn run_once(&mut self, s: &mut VersioningScheduler, id: u64, measured: Duration) -> Assignment {
            let t = self.task(id);
            let a = s.assign(&t, &self.ctx());
            s.task_finished(&t, a, measured);
            a
        }
    }

    /// Duration model used in tests: CUBLAS 7 ms, hand-CUDA 10 ms, CBLAS
    /// 420 ms — the paper's "SMP task duration is about 60 times the GPU
    /// task duration" regime.
    fn measured_for(version: VersionId) -> Duration {
        match version.0 {
            0 => ms(7),
            1 => ms(10),
            _ => ms(420),
        }
    }

    #[test]
    fn learning_phase_trains_every_version_lambda_times() {
        let mut fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        let mut counts = [0u64; 3];
        // 3 versions × λ=3 → exactly 9 learning assignments.
        for i in 0..9 {
            let a = fx.run_once(&mut s, i, measured_for(VersionId(0)));
            counts[a.version.index()] += 1;
        }
        assert_eq!(counts, [3, 3, 3]);
        // Every learning pick was accounted through `note_learning`.
        let group = s.profiles().group(fx.tpl, 2048).unwrap();
        for v in 0..3 {
            assert_eq!(group.scheduled(VersionId(v)), 3);
        }
        assert!(s.profiles().is_reliable(
            fx.tpl,
            2048,
            &[VersionId(0), VersionId(1), VersionId(2)]
        ));
    }

    #[test]
    fn reliable_phase_prefers_fastest_executor_when_idle() {
        let fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        // All workers idle → the GPU running CUBLAS (fastest mean) wins.
        let a = s.assign(&fx.task(100), &fx.ctx());
        assert_eq!(a.version, VersionId(0), "CUBLAS is the fastest version");
        assert_eq!(fx.workers[a.worker.index()].info.device, DeviceKind::Cuda);
        assert_eq!(a.estimate, ms(7));
    }

    #[test]
    fn earliest_executor_beats_fastest_executor_under_load() {
        // The paper's Fig. 5 scenario: the GPU is the fastest executor
        // but is busy; an idle SMP worker finishes earlier.
        let mut fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        // Bury both GPU workers: busy ≈ 500 ms each > SMP mean 420 ms.
        for g in 2..4 {
            for q in 0..100 {
                fx.workers[g].enqueue(crate::TaskId(1000 + q), VersionId(0), ms(5));
            }
        }
        let a = s.assign(&fx.task(200), &fx.ctx());
        assert_eq!(a.version, VersionId(2), "SMP CBLAS version wins");
        assert_eq!(fx.workers[a.worker.index()].info.device, DeviceKind::Smp);
    }

    #[test]
    fn gpu_still_wins_under_mild_load() {
        let mut fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        // 10 × 5 ms queued ≪ 420 ms SMP mean → GPU keeps the task.
        for q in 0..10 {
            fx.workers[2].enqueue(crate::TaskId(1000 + q), VersionId(0), ms(5));
        }
        let a = s.assign(&fx.task(200), &fx.ctx());
        assert_eq!(fx.workers[a.worker.index()].info.device, DeviceKind::Cuda);
        // And it picks the idle GPU (w3), not the loaded one.
        assert_eq!(a.worker, crate::WorkerId(3));
    }

    #[test]
    fn unseen_size_reenters_learning_phase() {
        let fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        // New data-set size → learning again (round-robin incl. SMP).
        let t = task(300, fx.tpl, DataId(0), DataId(1), 4096);
        let a = s.assign(&t, &fx.ctx());
        // Learning decisions have no bids; check via the decision log on
        // a fresh scheduler instead — here we just check the group is new.
        assert_eq!(s.profiles().count(fx.tpl, 8192, a.version), 0);
        assert!(!s.profiles().is_reliable(
            fx.tpl,
            8192,
            &[VersionId(0), VersionId(1), VersionId(2)]
        ));
    }

    #[test]
    fn versions_without_workers_are_not_trained() {
        // Template with a Cell version but no Cell workers: learning must
        // still terminate.
        let mut reg = crate::TemplateRegistry::new();
        let tpl = reg
            .template("t")
            .main("gpu_impl", &[DeviceKind::Cuda])
            .version("cell_impl", &[DeviceKind::CellSpe])
            .version("smp_impl", &[DeviceKind::Smp])
            .register();
        let workers = workers_2smp_2gpu();
        let dir = directory(DataId(0), DataId(1), 64);
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..6 {
            let t = task(i, tpl, DataId(0), DataId(1), 64);
            let ctx = SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
            let a = s.assign(&t, &ctx);
            assert_ne!(a.version, VersionId(1), "cell version must never be picked");
            s.task_finished(&t, a, ms(5));
        }
        // After 3+3 runs of v0 and v2, the group is reliable.
        let t = task(99, tpl, DataId(0), DataId(1), 64);
        let ctx = SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
        let _ = s.assign(&t, &ctx);
        assert!(s.profiles().is_reliable(tpl, 128, &[VersionId(0), VersionId(2)]));
    }

    #[test]
    fn decision_log_captures_bids() {
        let fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        s.set_decision_logging(true);
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        let _ = s.assign(&fx.task(100), &fx.ctx());
        let decisions = s.decisions();
        assert_eq!(decisions.len(), 10);
        assert!(decisions[..9].iter().all(|d| d.phase == DecisionPhase::Learning));
        let last = decisions.last().unwrap();
        assert_eq!(last.phase, DecisionPhase::Reliable);
        // 4 workers, all with a runnable trained version → 4 bids.
        assert_eq!(last.bids.len(), 4);
        let winner = last.bids.iter().min_by_key(|b| (b.finish, b.worker)).unwrap();
        assert_eq!(winner.worker, last.worker);
    }

    #[test]
    fn locality_mode_penalizes_remote_data() {
        // Data resident on GPU 0; both GPUs idle with equal means. The
        // locality-aware scheduler must pick GPU 0, the plain one picks
        // the lowest-id bid too — so check the transfer term directly.
        let (reg, tpl) = hybrid_registry();
        let workers = workers_2smp_2gpu();
        let dir = directory(DataId(0), DataId(1), 100_000_000);
        dir.acquire(DataId(0), versa_mem::MemSpace::device(1), versa_mem::AccessMode::In);
        dir.acquire(DataId(1), versa_mem::MemSpace::device(1), versa_mem::AccessMode::InOut);
        let mut s = VersioningScheduler::new(VersioningConfig {
            locality_aware: true,
            ..Default::default()
        });
        s.set_decision_logging(true);
        // Seed profiles so we skip straight to the reliable phase.
        for v in [VersionId(0), VersionId(1), VersionId(2)] {
            s.profiles_mut().seed(tpl, 3, 200_000_000, v, ms(10), 5);
        }
        let t = task(0, tpl, DataId(0), DataId(1), 100_000_000);
        let ctx = SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };
        let a = s.assign(&t, &ctx);
        assert_eq!(a.worker, crate::WorkerId(3), "data already on GPU 1 (worker 3)");
        let d = s.decisions().last().unwrap();
        let w2 = d.bids.iter().find(|b| b.worker == crate::WorkerId(2)).unwrap();
        let w3 = d.bids.iter().find(|b| b.worker == crate::WorkerId(3)).unwrap();
        assert!(w2.transfer > Duration::ZERO);
        assert_eq!(w3.transfer, Duration::ZERO);
    }

    #[test]
    fn transfer_done_learns_bandwidth_as_ewma() {
        let mut s = VersioningScheduler::with_defaults();
        let dev = versa_mem::MemSpace::device(0);
        assert_eq!(s.measured_bandwidth(dev), None);
        // First sample sets the estimate outright: 1e9 B in 1 s.
        s.transfer_done(dev, 1_000_000_000, Duration::from_secs(1));
        assert_eq!(s.measured_bandwidth(dev), Some(1.0e9));
        // Second sample (2e9 B/s) moves it by α = 0.25.
        s.transfer_done(dev, 2_000_000_000, Duration::from_secs(1));
        let bw = s.measured_bandwidth(dev).unwrap();
        assert!((bw - 1.25e9).abs() < 1.0, "EWMA step: got {bw}");
        // Degenerate samples are ignored.
        s.transfer_done(dev, 0, Duration::from_secs(1));
        s.transfer_done(dev, 64, Duration::ZERO);
        assert_eq!(s.measured_bandwidth(dev), Some(bw));
        // Other spaces keep independent estimates.
        assert_eq!(s.measured_bandwidth(versa_mem::MemSpace::device(1)), None);
    }

    #[test]
    fn measured_bandwidth_steers_to_slower_but_data_resident_worker() {
        // The Fig. 5 analogue for data movement: the GPU version's mean
        // (10 ms) beats the SMP version's (40 ms), but the task's 200 MB
        // working set lives on the host and the *measured* link is slow
        // — the earliest executor is the slower worker that already
        // holds the data.
        let (reg, tpl) = hybrid_registry();
        let workers = workers_2smp_2gpu();
        let dir = directory(DataId(0), DataId(1), 100_000_000);
        let mk = || {
            let mut s = VersioningScheduler::new(VersioningConfig {
                locality_aware: true,
                // Deliberately optimistic static estimate: with no
                // measurements the transfer term is negligible.
                assumed_bandwidth: 1.0e12,
                ..Default::default()
            });
            for (v, mean) in [(VersionId(0), ms(10)), (VersionId(1), ms(15)), (VersionId(2), ms(40))] {
                s.profiles_mut().seed(tpl, 3, 200_000_000, v, mean, 5);
            }
            s.set_decision_logging(true);
            s
        };
        let ctx = SchedCtx { templates: &reg, workers: &workers, directory: &dir, chain_hint: None };

        // Before any transfer completes, the optimistic static bandwidth
        // makes the fast GPU win.
        let mut cold = mk();
        let a = cold.assign(&task(0, tpl, DataId(0), DataId(1), 100_000_000), &ctx);
        assert_eq!(a.version, VersionId(0), "without measurements the GPU mean dominates");

        // Online measurements reveal the real link: 2 GB/s into each GPU
        // space → a 200 MB copy-in costs ~100 ms, dwarfing the 30 ms
        // mean advantage. The host-resident SMP worker now wins.
        let mut warm = mk();
        for g in 0..2 {
            warm.transfer_done(versa_mem::MemSpace::device(g), 200_000_000, Duration::from_millis(100));
        }
        let a = warm.assign(&task(1, tpl, DataId(0), DataId(1), 100_000_000), &ctx);
        assert_eq!(a.version, VersionId(2), "SMP CBLAS wins on residency");
        assert_eq!(workers[a.worker.index()].info.device, DeviceKind::Smp);
        let d = warm.decisions().last().unwrap();
        let gpu_bid = d.bids.iter().find(|b| b.worker == crate::WorkerId(2)).unwrap();
        let smp_bid = d.bids.iter().find(|b| b.worker == crate::WorkerId(0)).unwrap();
        assert!(gpu_bid.transfer >= Duration::from_millis(90), "priced from the measured EWMA");
        assert_eq!(smp_bid.transfer, Duration::ZERO, "data already resident on the host");
    }

    #[test]
    fn no_means_fallback_logs_reliable_fallback_phase() {
        // λ = 1, three versions: three learning assignments exhaust the
        // round-robin without any completion, so the fourth assignment
        // is past learning but has no means to bid with.
        let fx = Fixture::new();
        let mut s = VersioningScheduler::new(VersioningConfig {
            lambda: 1,
            ..Default::default()
        });
        s.set_decision_logging(true);
        for i in 0..3 {
            let _ = s.assign(&fx.task(i), &fx.ctx());
        }
        let _ = s.assign(&fx.task(3), &fx.ctx());
        let decisions = s.decisions();
        assert_eq!(decisions.len(), 4);
        assert!(decisions[..3].iter().all(|d| d.phase == DecisionPhase::Learning));
        let last = decisions.last().unwrap();
        assert_eq!(last.phase, DecisionPhase::ReliableFallback, "not a learning decision");
        assert!(last.bids.is_empty());
    }

    #[test]
    fn quarantined_version_is_routed_around() {
        let fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        // Idle platform: CUBLAS (v0) would normally win every time.
        let probe = s.assign(&fx.task(50), &fx.ctx());
        assert_eq!(probe.version, VersionId(0));
        // Fail v0 twice (default K = 2) → quarantined.
        let t = fx.task(51);
        let a = Assignment { worker: crate::WorkerId(2), version: VersionId(0), estimate: ms(7) };
        s.task_failed(&t, a, FailureKind::Panic);
        s.task_failed(&t, a, FailureKind::Panic);
        assert!(s.profiles().is_quarantined(fx.tpl, 2048, VersionId(0)));
        // Subsequent assignments avoid the quarantined version.
        for i in 60..70 {
            let a = s.assign(&fx.task(i), &fx.ctx());
            assert_ne!(a.version, VersionId(0), "quarantined version must not be picked");
            s.task_finished(&fx.task(i), a, measured_for(a.version));
        }
    }

    #[test]
    fn all_quarantined_falls_back_to_least_failed() {
        let fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        let t = fx.task(99);
        for v in 0..3u16 {
            let a = Assignment {
                worker: crate::WorkerId(0),
                version: VersionId(v),
                estimate: Duration::ZERO,
            };
            // v0 fails 3×, v1 and v2 fail 2× — v1 is least-failed after v0.
            let n = if v == 0 { 3 } else { 2 };
            for _ in 0..n {
                s.task_failed(&t, a, FailureKind::Fault);
            }
        }
        // The scheduler must stay total: some version is still assigned.
        let a = s.assign(&fx.task(100), &fx.ctx());
        assert_eq!(a.version, VersionId(1), "least-failed version wins the fallback");
    }

    #[test]
    fn success_during_probation_rehabilitates_version() {
        let fx = Fixture::new();
        let mut s = VersioningScheduler::new(VersioningConfig {
            quarantine_threshold: 1,
            probation: Some(2),
            ..Default::default()
        });
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        let t = fx.task(40);
        let bad = Assignment { worker: crate::WorkerId(2), version: VersionId(0), estimate: ms(7) };
        s.task_failed(&t, bad, FailureKind::Panic);
        assert!(s.profiles().is_excluded(fx.tpl, 2048, VersionId(0)));
        // Two peer successes earn v0 a retrial; its success lifts quarantine.
        for i in 41..43 {
            let a = s.assign(&fx.task(i), &fx.ctx());
            assert_ne!(a.version, VersionId(0));
            s.task_finished(&fx.task(i), a, measured_for(a.version));
        }
        let a = s.assign(&fx.task(43), &fx.ctx());
        assert_eq!(a.version, VersionId(0), "probation retrial goes to the fastest version");
        s.task_finished(&fx.task(43), a, measured_for(a.version));
        assert!(!s.profiles().is_quarantined(fx.tpl, 2048, VersionId(0)));
    }

    #[test]
    fn quarantine_storm_mid_learning_does_not_panic() {
        // Fault injection for the old learning-phase `expect`: quarantine
        // every version while the group is still learning, then keep
        // scheduling. The scheduler must stay total — the all-quarantined
        // fallback feeds the least-failed version back through the policy
        // (learning if under-trained, profiled otherwise), never panics.
        let fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        s.set_decision_logging(true);
        // Two learning assignments, then every version fails K=2 times.
        for i in 0..2 {
            let _ = s.assign(&fx.task(i), &fx.ctx());
        }
        let t = fx.task(10);
        for v in 0..3u16 {
            let a = Assignment {
                worker: crate::WorkerId(0),
                version: VersionId(v),
                estimate: Duration::ZERO,
            };
            s.task_failed(&t, a, FailureKind::Panic);
            s.task_failed(&t, a, FailureKind::Panic);
        }
        for v in 0..3u16 {
            assert!(s.profiles().is_quarantined(fx.tpl, 2048, VersionId(v)));
        }
        // Every subsequent assignment still succeeds, routed through the
        // single least-failed fallback candidate.
        for i in 20..26 {
            let a = s.assign(&fx.task(i), &fx.ctx());
            assert_eq!(a.version, VersionId(0), "least-failed (tie on id) fallback");
            s.task_finished(&fx.task(i), a, measured_for(a.version));
        }
        // The decision ledger stayed coherent: one decision per assign,
        // each with a non-empty candidate snapshot.
        assert!(s.decisions().iter().all(|d| !d.candidates.is_empty()));
    }

    #[test]
    fn transfer_done_rejects_and_clamps_poison_samples() {
        let mut s = VersioningScheduler::with_defaults();
        let dev = versa_mem::MemSpace::device(0);
        // A glitched timer on a huge transfer: u64::MAX bytes in 1 ns is
        // ~1.8e28 B/s. It must not enter the EWMA raw.
        s.transfer_done(dev, u64::MAX, Duration::from_nanos(1));
        let bw = s.measured_bandwidth(dev).unwrap();
        assert!(bw <= 1.0e12, "poison sample clamped to the ceiling, got {bw}");
        // A later sane sample pulls the estimate back down by the normal
        // EWMA step instead of fighting an astronomically large mean.
        s.transfer_done(dev, 1_000_000_000, Duration::from_secs(1));
        let bw2 = s.measured_bandwidth(dev).unwrap();
        assert!(bw2 < bw, "EWMA recovers after a clamped outlier");
        // Degenerate inputs never touch the estimate.
        s.transfer_done(dev, 0, Duration::from_secs(1));
        s.transfer_done(dev, 64, Duration::ZERO);
        assert_eq!(s.measured_bandwidth(dev), Some(bw2));
    }

    #[test]
    fn policy_selection_flows_through_config() {
        // A non-default policy wired through `VersioningConfig` drives
        // decisions: representative-set has no λ-long round-robin phase,
        // it tries each version once and then auctions over the k fastest.
        let fx = Fixture::new();
        let mut s = VersioningScheduler::new(VersioningConfig {
            policy: PolicyKind::RepresentativeSet { k: 1 },
            ..Default::default()
        });
        assert_eq!(s.policy.name(), "representative-set");
        s.set_decision_logging(true);
        for i in 0..12 {
            let a = s.assign(&fx.task(i), &fx.ctx());
            s.task_finished(&fx.task(i), a, measured_for(a.version));
        }
        // Every version got tried at least once (one observation each)...
        for v in 0..3u16 {
            assert!(s.profiles().count(fx.tpl, 2048, VersionId(v)) >= 1);
        }
        // ...and with the counts in, the auction over the one fastest
        // version settles on it.
        let a = s.assign(&fx.task(100), &fx.ctx());
        assert_eq!(a.version, VersionId(0), "CUBLAS has the best mean");
    }

    #[test]
    fn node_lost_failure_charges_no_version_strike() {
        let fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        let t = fx.task(50);
        let a = Assignment { worker: crate::WorkerId(2), version: VersionId(0), estimate: ms(7) };
        // K = 2: two NodeLost failures must NOT quarantine the version...
        s.task_failed(&t, a, FailureKind::NodeLost);
        s.task_failed(&t, a, FailureKind::NodeLost);
        assert!(!s.profiles().is_quarantined(fx.tpl, 2048, VersionId(0)));
        // ...and the version still wins on an idle platform.
        let probe = s.assign(&fx.task(51), &fx.ctx());
        assert_eq!(probe.version, VersionId(0));
    }

    #[test]
    fn retired_workers_receive_no_assignments() {
        let mut fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        // Retire both GPU workers: the auction must fall to the SMP pair
        // even though CUBLAS has the best mean.
        fx.workers[2].retire();
        fx.workers[3].retire();
        for i in 20..26 {
            let a = s.assign(&fx.task(i), &fx.ctx());
            assert!(a.worker.index() < 2, "retired worker got task: {:?}", a.worker);
            assert_eq!(a.version, VersionId(2), "only the SMP version is runnable");
            s.task_finished(&fx.task(i), a, measured_for(a.version));
        }
    }

    #[test]
    fn retiring_all_workers_of_a_version_drops_it_from_learning() {
        // With the GPUs retired before any training, learning must not
        // wait for GPU-only versions (they are untrainable now).
        let mut fx = Fixture::new();
        fx.workers[2].retire();
        fx.workers[3].retire();
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..3 {
            let a = s.assign(&fx.task(i), &fx.ctx());
            assert_eq!(a.version, VersionId(2));
            s.task_finished(&fx.task(i), a, measured_for(a.version));
        }
        assert!(s.profiles().is_reliable(fx.tpl, 2048, &[VersionId(2)]));
    }

    #[test]
    fn task_finished_keeps_updating_means_in_reliable_phase() {
        let fx = Fixture::new();
        let mut s = VersioningScheduler::with_defaults();
        for i in 0..9 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        let before = s.profiles().count(fx.tpl, 2048, VersionId(0));
        for i in 10..20 {
            let t = fx.task(i);
            let a = s.assign(&t, &fx.ctx());
            s.task_finished(&t, a, measured_for(a.version));
        }
        let after = s.profiles().count(fx.tpl, 2048, VersionId(0));
        assert!(after > before, "the scheduler never stops learning");
    }
}
