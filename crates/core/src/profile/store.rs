//! The `TaskVersionSet` store (paper Table I).

use super::{BucketKey, MeanPolicy, RunningMean, SizeBucketPolicy};
use crate::{TemplateId, TemplateRegistry, VersionId};
use std::fmt::Write as _;
use std::time::Duration;
use versa_mem::IdMap;

/// Statistics of one task version within one size group.
#[derive(Clone, Copy, Debug, Default)]
pub struct VersionStats {
    mean: RunningMean,
}

impl VersionStats {
    /// Number of recorded executions.
    pub(crate) fn count(&self) -> u64 {
        self.mean.count()
    }

    /// Mean execution time, if any execution was recorded.
    pub(crate) fn mean(&self) -> Option<Duration> {
        self.mean.mean()
    }

    fn record(&mut self, sample: Duration, policy: MeanPolicy) {
        self.mean.record(sample, policy);
    }

    fn seed(&mut self, mean: Duration, count: u64) {
        self.mean = RunningMean::seeded(mean, count);
    }
}

/// Per-(task, size-group) profile: one statistics slot per version, plus
/// per-version assignment counts and failure/quarantine bookkeeping.
#[derive(Clone, Debug)]
pub struct GroupProfile {
    versions: Vec<VersionStats>,
    scheduled: Vec<u64>,
    failures: Vec<u64>,
    quarantined: Vec<bool>,
    probation_credit: Vec<u64>,
}

impl GroupProfile {
    fn new(n_versions: usize) -> GroupProfile {
        GroupProfile {
            versions: vec![VersionStats::default(); n_versions],
            scheduled: vec![0; n_versions],
            failures: vec![0; n_versions],
            quarantined: vec![false; n_versions],
            probation_credit: vec![0; n_versions],
        }
    }

    fn ensure(&mut self, n_versions: usize) {
        if self.versions.len() < n_versions {
            self.versions.resize(n_versions, VersionStats::default());
            self.scheduled.resize(n_versions, 0);
            self.failures.resize(n_versions, 0);
            self.quarantined.resize(n_versions, false);
            self.probation_credit.resize(n_versions, 0);
        }
    }

    /// Times a version has been *assigned* (scheduled) in this group —
    /// at least its execution count, possibly more while assignments are
    /// still queued. The learning round-robin counts assignments so that
    /// a flood of ready tasks cannot over-commit a slow version whose
    /// first λ instances are still waiting in a queue.
    pub(crate) fn scheduled(&self, v: VersionId) -> u64 {
        self.scheduled[v.index()]
    }

    /// Statistics of one version.
    pub(crate) fn version(&self, v: VersionId) -> &VersionStats {
        &self.versions[v.index()]
    }

    /// Consecutive failures recorded for a version since its last
    /// successful execution in this group.
    pub(crate) fn failures(&self, v: VersionId) -> u64 {
        self.failures[v.index()]
    }

    /// Whether a version is currently quarantined in this group.
    pub(crate) fn is_quarantined(&self, v: VersionId) -> bool {
        self.quarantined[v.index()]
    }

    /// Whether a version is excluded from scheduling in this group:
    /// quarantined and not (yet) due for a retrial after `probation` peer
    /// successes (`None`: quarantine holds).
    pub(crate) fn is_excluded(&self, v: VersionId, probation: Option<u64>) -> bool {
        self.quarantined[v.index()]
            && probation.is_none_or(|p| self.probation_credit[v.index()] < p)
    }

    /// Statistics of every version, in version order.
    pub(crate) fn versions(&self) -> &[VersionStats] {
        &self.versions
    }
}

/// Profile information for every task version set, divided into groups of
/// data set sizes — the scheduler's long-term memory (paper Table I).
///
/// ```
/// use std::time::Duration;
/// use versa_core::{ProfileStore, TemplateId, VersionId};
///
/// let mut store = ProfileStore::with_defaults(); // exact groups, λ = 3
/// let (task, gpu, smp) = (TemplateId(0), VersionId(0), VersionId(1));
///
/// // Three observed executions per version → the 2 MB group becomes
/// // reliable and the means drive earliest-executor decisions.
/// for _ in 0..3 {
///     store.record(task, 2, 2 << 20, gpu, Duration::from_millis(18));
///     store.record(task, 2, 2 << 20, smp, Duration::from_millis(30));
/// }
/// assert!(store.is_reliable(task, 2 << 20, &[gpu, smp]));
/// assert_eq!(store.mean(task, 2 << 20, gpu), Some(Duration::from_millis(18)));
/// // A different data-set size is a fresh group (paper §IV-B).
/// assert!(!store.is_reliable(task, 3 << 20, &[gpu, smp]));
/// ```
#[derive(Debug)]
pub struct ProfileStore {
    bucket_policy: SizeBucketPolicy,
    mean_policy: MeanPolicy,
    lambda: u64,
    quarantine_threshold: u64,
    probation: Option<u64>,
    groups: IdMap<(TemplateId, BucketKey), GroupProfile>,
}

/// Summary of one quarantined (template, size-group, version) entry, for
/// run reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Template the quarantined version belongs to.
    pub template: TemplateId,
    /// Size-group key.
    pub bucket: BucketKey,
    /// The quarantined version.
    pub version: VersionId,
    /// Consecutive failures that triggered (and sustain) the quarantine.
    pub failures: u64,
}

impl ProfileStore {
    /// Create a store.
    ///
    /// `lambda` is the learning threshold: every version of a group must
    /// run at least `lambda` times before the group's information is
    /// considered *reliable* (paper §IV-B; "this threshold can be
    /// configured by the user").
    pub fn new(bucket_policy: SizeBucketPolicy, mean_policy: MeanPolicy, lambda: u64) -> Self {
        assert!(lambda > 0, "lambda must be at least 1");
        ProfileStore {
            bucket_policy,
            mean_policy,
            lambda,
            quarantine_threshold: 2,
            probation: None,
            groups: IdMap::default(),
        }
    }

    /// Store with the paper's defaults: exact size groups, arithmetic
    /// mean, λ = 3.
    pub fn with_defaults() -> Self {
        ProfileStore::new(SizeBucketPolicy::Exact, MeanPolicy::Arithmetic, 3)
    }

    /// Configure failure quarantine: after `threshold` consecutive
    /// failures a (template, version, size-group) entry is quarantined
    /// and excluded from learning/bidding. With `probation = Some(p)`,
    /// a quarantined version earns one retrial after `p` successful
    /// executions of other versions in the same group; with `None`,
    /// quarantine is permanent until the version succeeds (which can
    /// only happen through probation or an all-quarantined fallback).
    pub(crate) fn set_quarantine(&mut self, threshold: u64, probation: Option<u64>) {
        assert!(threshold > 0, "quarantine threshold must be at least 1");
        self.quarantine_threshold = threshold;
        self.probation = probation;
    }

    /// The configured probation period, if any.
    pub(crate) fn probation(&self) -> Option<u64> {
        self.probation
    }

    /// The active size-grouping policy.
    pub(crate) fn bucket_policy(&self) -> SizeBucketPolicy {
        self.bucket_policy
    }

    /// The active mean-update policy.
    pub(crate) fn mean_policy(&self) -> MeanPolicy {
        self.mean_policy
    }

    /// Group key for a data set size.
    pub(crate) fn bucket(&self, data_set_size: u64) -> BucketKey {
        self.bucket_policy.bucket(data_set_size)
    }

    fn group_mut(&mut self, template: TemplateId, n_versions: usize, size: u64) -> &mut GroupProfile {
        let key = (template, self.bucket_policy.bucket(size));
        let group = self.groups.entry(key).or_insert_with(|| GroupProfile::new(n_versions));
        group.ensure(n_versions);
        group
    }

    /// The group for `(template, size)`, if any execution was recorded or
    /// seeded for it.
    pub(crate) fn group(&self, template: TemplateId, size: u64) -> Option<&GroupProfile> {
        self.groups.get(&(template, self.bucket_policy.bucket(size)))
    }

    /// Record one measured execution. A success clears the version's
    /// consecutive-failure streak (lifting any quarantine on it) and
    /// earns every *other* quarantined version in the group one unit of
    /// probation credit.
    pub fn record(
        &mut self,
        template: TemplateId,
        n_versions: usize,
        size: u64,
        version: VersionId,
        measured: Duration,
    ) {
        let policy = self.mean_policy;
        let group = self.group_mut(template, n_versions, size);
        group.versions[version.index()].record(measured, policy);
        group.failures[version.index()] = 0;
        group.quarantined[version.index()] = false;
        group.probation_credit[version.index()] = 0;
        for (i, q) in group.quarantined.iter().enumerate() {
            if *q && i != version.index() {
                group.probation_credit[i] += 1;
            }
        }
    }

    /// Record one failed execution. After the configured threshold of
    /// consecutive failures the version is quarantined in this size
    /// group.
    pub(crate) fn record_failure(
        &mut self,
        template: TemplateId,
        n_versions: usize,
        size: u64,
        version: VersionId,
    ) {
        let threshold = self.quarantine_threshold;
        let group = self.group_mut(template, n_versions, size);
        group.failures[version.index()] += 1;
        group.probation_credit[version.index()] = 0;
        if group.failures[version.index()] >= threshold {
            group.quarantined[version.index()] = true;
        }
    }

    /// Whether a version is excluded from scheduling in the group of
    /// `size`: quarantined and not (yet) due for a probation retrial.
    pub fn is_excluded(&self, template: TemplateId, size: u64, version: VersionId) -> bool {
        self.group(template, size).is_some_and(|g| g.is_excluded(version, self.probation))
    }

    /// Whether a version is quarantined in the group of `size` (even if
    /// a probation retrial is currently due).
    pub fn is_quarantined(&self, template: TemplateId, size: u64, version: VersionId) -> bool {
        self.group(template, size).is_some_and(|g| g.is_quarantined(version))
    }

    /// Every quarantined (template, size-group, version) entry, sorted
    /// for deterministic output.
    pub fn quarantined(&self) -> Vec<QuarantineEntry> {
        let mut out = Vec::new();
        for (template, bucket, group) in self.iter() {
            for (i, q) in group.quarantined.iter().enumerate() {
                if *q {
                    out.push(QuarantineEntry {
                        template,
                        bucket,
                        version: VersionId(i as u16),
                        failures: group.failures[i],
                    });
                }
            }
        }
        out
    }

    /// Seed statistics from external hints (paper §VII: "the scheduler
    /// should also offer the possibility to receive external hints").
    pub fn seed(
        &mut self,
        template: TemplateId,
        n_versions: usize,
        size: u64,
        version: VersionId,
        mean: Duration,
        count: u64,
    ) {
        let group = self.group_mut(template, n_versions, size);
        group.versions[version.index()].seed(mean, count);
        group.scheduled[version.index()] = group.scheduled[version.index()].max(count);
    }

    /// Seed statistics addressing a size group by its raw [`BucketKey`]
    /// (used when loading hint files, whose records carry keys, not
    /// sizes). Only meaningful when the store uses the same bucket policy
    /// the hints were saved under.
    pub fn seed_bucket(
        &mut self,
        template: TemplateId,
        n_versions: usize,
        key: BucketKey,
        version: VersionId,
        mean: Duration,
        count: u64,
    ) {
        let group = self
            .groups
            .entry((template, key))
            .or_insert_with(|| GroupProfile::new(n_versions));
        group.ensure(n_versions.max(version.index() + 1));
        group.versions[version.index()].seed(mean, count);
        // Seeded statistics count as both executed and scheduled.
        group.scheduled[version.index()] = group.scheduled[version.index()].max(count);
    }

    /// Seed quarantine state addressing a size group by its raw
    /// [`BucketKey`] (used when loading hint files). The entry is marked
    /// quarantined with the given consecutive-failure streak, exactly as
    /// it was when the hints were saved — the streak is *not* clamped to
    /// the receiving store's threshold, so a save/load round trip is
    /// lossless.
    pub fn seed_quarantine(
        &mut self,
        template: TemplateId,
        n_versions: usize,
        key: BucketKey,
        version: VersionId,
        failures: u64,
    ) {
        let group = self
            .groups
            .entry((template, key))
            .or_insert_with(|| GroupProfile::new(n_versions));
        group.ensure(n_versions.max(version.index() + 1));
        group.failures[version.index()] = failures;
        group.quarantined[version.index()] = true;
        group.probation_credit[version.index()] = 0;
    }

    /// Mean execution time of one version in the group of `size`.
    pub fn mean(&self, template: TemplateId, size: u64, version: VersionId) -> Option<Duration> {
        self.group(template, size).and_then(|g| g.version(version).mean())
    }

    /// Execution count of one version in the group of `size`.
    pub fn count(&self, template: TemplateId, size: u64, version: VersionId) -> u64 {
        self.group(template, size).map_or(0, |g| g.version(version).count())
    }

    /// Whether the group of `(template, size)` has *reliable information*:
    /// every candidate version has run at least λ times (paper §IV-B).
    ///
    /// `candidates` should contain only versions that some existing worker
    /// can actually run — a version targeting a device with no workers
    /// would otherwise keep the group in the learning phase forever.
    pub fn is_reliable(&self, template: TemplateId, size: u64, candidates: &[VersionId]) -> bool {
        match self.group(template, size) {
            None => candidates.is_empty(),
            Some(g) => candidates.iter().all(|&v| g.version(v).count() >= self.lambda),
        }
    }

    /// Account a learning-phase assignment of `version` chosen by a
    /// decision policy: ensures the group exists and increments the
    /// version's scheduled count, deliberately *without*
    /// [`ProfileStore::mark_scheduled`]'s
    /// probation-credit spend (a learning assignment is training, not a
    /// quarantine retrial).
    pub(crate) fn note_learning(
        &mut self,
        template: TemplateId,
        n_versions: usize,
        size: u64,
        version: VersionId,
    ) {
        let group = self.group_mut(template, n_versions, size);
        group.scheduled[version.index()] += 1;
    }

    /// Account a non-learning assignment of `version` (keeps scheduled
    /// counts an upper bound of execution counts). Scheduling a
    /// quarantined version spends its probation credit: the retrial is
    /// this one assignment, and another failure re-quarantines it for a
    /// full probation period.
    pub(crate) fn mark_scheduled(
        &mut self,
        template: TemplateId,
        n_versions: usize,
        size: u64,
        version: VersionId,
    ) {
        let group = self.group_mut(template, n_versions, size);
        group.scheduled[version.index()] += 1;
        if group.quarantined[version.index()] {
            group.probation_credit[version.index()] = 0;
        }
    }

    /// Iterate over all `(template, bucket, group)` entries, sorted for
    /// deterministic output: the table, the hints file and every other
    /// reader go through here, never through the map's own order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TemplateId, BucketKey, &GroupProfile)> {
        let mut keys: Vec<&(TemplateId, BucketKey)> = self.groups.keys().collect();
        keys.sort_unstable();
        keys.into_iter().map(move |k| (k.0, k.1, &self.groups[k]))
    }

    /// Number of size groups across all templates.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Render the store in the layout of paper Table I.
    pub fn render_table(&self, registry: &TemplateRegistry) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>12}   {:<26} {:>10} {:>8}",
            "TaskVersionSet", "DataSetSize", "VersionId", "ExecTime", "#Exec"
        );
        for (template, bucket, group) in self.iter() {
            let tpl = registry.get(template);
            let mut first_of_group = true;
            for (i, stats) in group.versions().iter().enumerate() {
                if stats.count() == 0 {
                    continue;
                }
                let name = format!("{}-{}", tpl.name, tpl.version(VersionId(i as u16)).name);
                let mean = stats
                    .mean()
                    .map(|m| format!("{:.2}ms", m.as_secs_f64() * 1e3))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{:<16} {:>12}   {:<26} {:>10} {:>8}",
                    if first_of_group { tpl.name.as_str() } else { "" },
                    if first_of_group { self.bucket_policy.describe(bucket) } else { String::new() },
                    name,
                    mean,
                    stats.count()
                );
                first_of_group = false;
            }
        }
        let _ = writeln!(out, "({} size groups, λ = {})", self.group_count(), self.lambda);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceKind;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn store() -> ProfileStore {
        ProfileStore::with_defaults()
    }

    const TPL: TemplateId = TemplateId(0);
    const V0: VersionId = VersionId(0);
    const V1: VersionId = VersionId(1);

    #[test]
    fn record_and_query_roundtrip() {
        let mut s = store();
        s.record(TPL, 3, 2_000_000, V1, ms(18));
        s.record(TPL, 3, 2_000_000, V1, ms(22));
        assert_eq!(s.count(TPL, 2_000_000, V1), 2);
        assert_eq!(s.mean(TPL, 2_000_000, V1).unwrap(), ms(20));
        assert_eq!(s.count(TPL, 2_000_000, V0), 0);
        assert_eq!(s.mean(TPL, 2_000_000, V0), None);
    }

    #[test]
    fn different_sizes_are_different_groups() {
        let mut s = store();
        s.record(TPL, 3, 2_000_000, V0, ms(30));
        s.record(TPL, 3, 3_000_000, V0, ms(45));
        assert_eq!(s.mean(TPL, 2_000_000, V0).unwrap(), ms(30));
        assert_eq!(s.mean(TPL, 3_000_000, V0).unwrap(), ms(45));
        assert_eq!(s.group_count(), 2);
    }

    #[test]
    fn reliability_requires_lambda_runs_of_every_candidate() {
        let mut s = ProfileStore::new(SizeBucketPolicy::Exact, MeanPolicy::Arithmetic, 2);
        let candidates = [V0, V1];
        assert!(!s.is_reliable(TPL, 100, &candidates));
        s.record(TPL, 2, 100, V0, ms(1));
        s.record(TPL, 2, 100, V0, ms(1));
        assert!(!s.is_reliable(TPL, 100, &candidates), "V1 untrained");
        s.record(TPL, 2, 100, V1, ms(1));
        assert!(!s.is_reliable(TPL, 100, &candidates), "V1 has 1 < λ runs");
        s.record(TPL, 2, 100, V1, ms(1));
        assert!(s.is_reliable(TPL, 100, &candidates));
        // A new size re-enters the learning phase (paper §IV-B).
        assert!(!s.is_reliable(TPL, 101, &candidates));
    }

    #[test]
    fn no_candidates_means_nothing_to_learn() {
        let s = store();
        assert!(s.is_reliable(TPL, 100, &[]));
    }

    #[test]
    fn seeding_counts_as_training() {
        let mut s = store();
        s.seed(TPL, 2, 100, V0, ms(20), 50);
        s.seed(TPL, 2, 100, V1, ms(5), 50);
        assert!(s.is_reliable(TPL, 100, &[V0, V1]));
        assert_eq!(s.mean(TPL, 100, V0).unwrap(), ms(20));
    }

    #[test]
    fn range_policy_merges_similar_sizes() {
        let mut s = ProfileStore::new(
            SizeBucketPolicy::RelativeRange { tolerance: 0.25 },
            MeanPolicy::Arithmetic,
            3,
        );
        s.record(TPL, 1, 1_000_000, V0, ms(10));
        s.record(TPL, 1, 1_000_001, V0, ms(20));
        assert_eq!(s.group_count(), 1);
        assert_eq!(s.mean(TPL, 1_000_000, V0).unwrap(), ms(15));
    }

    #[test]
    fn render_table_mentions_every_measured_version() {
        let mut reg = TemplateRegistry::new();
        let tpl = reg
            .template("task1")
            .main("task1-v1", &[DeviceKind::Cuda])
            .version("task1-v2", &[DeviceKind::Cuda])
            .version("task1-v3", &[DeviceKind::Smp])
            .register();
        let mut s = store();
        s.record(tpl, 3, 2 << 20, VersionId(0), ms(30));
        s.record(tpl, 3, 2 << 20, VersionId(1), ms(18));
        s.record(tpl, 3, 3 << 20, VersionId(2), ms(40));
        let table = s.render_table(&reg);
        assert!(table.contains("task1-task1-v1"));
        assert!(table.contains("task1-task1-v2"));
        assert!(table.contains("task1-task1-v3"));
        assert!(table.contains("30.00ms"));
        assert!(table.contains("2 size groups"));
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn zero_lambda_rejected() {
        let _ = ProfileStore::new(SizeBucketPolicy::Exact, MeanPolicy::Arithmetic, 0);
    }

    #[test]
    fn quarantine_after_threshold_failures() {
        let mut s = store(); // default threshold K = 2
        assert!(!s.is_excluded(TPL, 100, V0));
        s.record_failure(TPL, 2, 100, V0);
        assert!(!s.is_quarantined(TPL, 100, V0), "one failure is below K");
        assert!(!s.is_excluded(TPL, 100, V0));
        s.record_failure(TPL, 2, 100, V0);
        assert!(s.is_quarantined(TPL, 100, V0));
        assert!(s.is_excluded(TPL, 100, V0), "no probation → permanently excluded");
        let q = s.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].version, V0);
        assert_eq!(q[0].failures, 2);
        // Other versions and other size groups are unaffected.
        assert!(!s.is_quarantined(TPL, 100, V1));
        assert!(!s.is_quarantined(TPL, 101, V0));
    }

    #[test]
    fn success_clears_failure_streak_and_quarantine() {
        let mut s = store();
        s.record_failure(TPL, 2, 100, V0);
        s.record(TPL, 2, 100, V0, ms(5));
        s.record_failure(TPL, 2, 100, V0);
        assert!(!s.is_quarantined(TPL, 100, V0), "streak reset by success");
        s.record_failure(TPL, 2, 100, V0);
        assert!(s.is_quarantined(TPL, 100, V0));
        s.record(TPL, 2, 100, V0, ms(5));
        assert!(!s.is_quarantined(TPL, 100, V0), "a success lifts quarantine");
    }

    #[test]
    fn probation_grants_retrial_after_peer_successes() {
        let mut s = store();
        s.set_quarantine(2, Some(3));
        s.record_failure(TPL, 2, 100, V0);
        s.record_failure(TPL, 2, 100, V0);
        assert!(s.is_excluded(TPL, 100, V0));
        // Two peer successes: still short of the probation period.
        s.record(TPL, 2, 100, V1, ms(5));
        s.record(TPL, 2, 100, V1, ms(5));
        assert!(s.is_excluded(TPL, 100, V0));
        // Third success earns the retrial.
        s.record(TPL, 2, 100, V1, ms(5));
        assert!(!s.is_excluded(TPL, 100, V0), "probation retrial due");
        assert!(s.is_quarantined(TPL, 100, V0), "still quarantined until a success");
        // Scheduling the retrial spends the credit...
        s.mark_scheduled(TPL, 2, 100, V0);
        assert!(s.is_excluded(TPL, 100, V0));
        // ...and a success on the retrial lifts the quarantine for good.
        s.record(TPL, 2, 100, V0, ms(5));
        assert!(!s.is_quarantined(TPL, 100, V0));
        assert!(!s.is_excluded(TPL, 100, V0));
    }

    #[test]
    fn failed_probation_restarts_the_clock() {
        let mut s = store();
        s.set_quarantine(1, Some(2));
        s.record_failure(TPL, 2, 100, V0);
        s.record(TPL, 2, 100, V1, ms(5));
        s.record(TPL, 2, 100, V1, ms(5));
        assert!(!s.is_excluded(TPL, 100, V0));
        s.mark_scheduled(TPL, 2, 100, V0);
        s.record_failure(TPL, 2, 100, V0);
        assert!(s.is_excluded(TPL, 100, V0), "failure re-quarantines");
        s.record(TPL, 2, 100, V1, ms(5));
        assert!(s.is_excluded(TPL, 100, V0), "needs the full period again");
        s.record(TPL, 2, 100, V1, ms(5));
        assert!(!s.is_excluded(TPL, 100, V0));
    }
}
