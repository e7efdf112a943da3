//! The `TaskVersionSet` store (paper Table I).

use super::{BucketKey, MeanPolicy, RunningMean, SizeBucketPolicy};
use crate::{TemplateId, TemplateRegistry, VersionId};
use std::fmt::Write as _;
use std::time::Duration;
use versa_mem::IdMap;

/// Consecutive failures of a (template, size group, version) entry that
/// quarantine the version in that group.
const QUARANTINE_THRESHOLD: u64 = 2;

/// One version's row of a size group: the paper's Table I entry (mean
/// execution time and execution count) plus the scheduler's bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct VersionRow {
    /// Mean execution time and execution count.
    pub(crate) exec: RunningMean,
    /// Times the version has been *assigned* in this group — at least
    /// its execution count, possibly more while assignments are still
    /// queued. The learning round-robin counts assignments so that a
    /// flood of ready tasks cannot over-commit a slow version whose
    /// first λ instances are still waiting in a queue.
    pub(crate) scheduled: u64,
    /// Consecutive failures since the version's last success here.
    pub(crate) failures: u64,
    /// Excluded from learning and bidding until it succeeds again
    /// (through the all-quarantined least-failed fallback).
    pub(crate) quarantined: bool,
}

/// Per-(task, size-group) profile: one row per version, in version order.
/// Rows grow as versions are touched; a version past the end reads as
/// the empty row.
#[derive(Debug, Default)]
pub(crate) struct GroupProfile {
    rows: Vec<VersionRow>,
}

impl GroupProfile {
    /// The row of version `v` (the empty row if `v` was never touched).
    pub(crate) fn row(&self, v: VersionId) -> VersionRow {
        self.rows.get(v.index()).copied().unwrap_or_default()
    }

    /// Every row, in version order.
    pub(crate) fn rows(&self) -> &[VersionRow] {
        &self.rows
    }

    fn row_mut(&mut self, v: VersionId) -> &mut VersionRow {
        if self.rows.len() <= v.index() {
            self.rows.resize(v.index() + 1, VersionRow::default());
        }
        &mut self.rows[v.index()]
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
///     store.record(task, 2 << 20, gpu, Duration::from_millis(18));
///     store.record(task, 2 << 20, smp, Duration::from_millis(30));
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
        ProfileStore { bucket_policy, mean_policy, lambda, groups: IdMap::default() }
    }

    /// Store with the paper's defaults: exact size groups, arithmetic
    /// mean, λ = 3.
    pub fn with_defaults() -> Self {
        ProfileStore::new(SizeBucketPolicy::Exact, MeanPolicy::Arithmetic, 3)
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

    /// The row of `version` in group `key`, creating the group and
    /// growing its rows as needed.
    fn row_mut(
        &mut self,
        template: TemplateId,
        key: BucketKey,
        version: VersionId,
    ) -> &mut VersionRow {
        self.groups.entry((template, key)).or_default().row_mut(version)
    }

    /// The group for `(template, size)`, if any execution was recorded or
    /// seeded for it.
    pub(crate) fn group(&self, template: TemplateId, size: u64) -> Option<&GroupProfile> {
        self.groups.get(&(template, self.bucket_policy.bucket(size)))
    }

    /// Record one measured execution. A success clears the version's
    /// consecutive-failure streak and lifts any quarantine on it.
    pub fn record(
        &mut self,
        template: TemplateId,
        size: u64,
        version: VersionId,
        measured: Duration,
    ) {
        let policy = self.mean_policy;
        let row = self.row_mut(template, self.bucket(size), version);
        row.exec.record(measured, policy);
        row.failures = 0;
        row.quarantined = false;
    }

    /// Record one failed execution. After [`QUARANTINE_THRESHOLD`]
    /// consecutive failures the version is quarantined in this size
    /// group.
    pub(crate) fn record_failure(&mut self, template: TemplateId, size: u64, version: VersionId) {
        let row = self.row_mut(template, self.bucket(size), version);
        row.failures += 1;
        if row.failures >= QUARANTINE_THRESHOLD {
            row.quarantined = true;
        }
    }

    /// Account one assignment of `version` (keeps scheduled counts an
    /// upper bound of execution counts).
    pub(crate) fn mark_scheduled(&mut self, template: TemplateId, size: u64, version: VersionId) {
        self.row_mut(template, self.bucket(size), version).scheduled += 1;
    }

    /// Whether a version is quarantined in the group of `size`.
    pub fn is_quarantined(&self, template: TemplateId, size: u64, version: VersionId) -> bool {
        self.group(template, size).is_some_and(|g| g.row(version).quarantined)
    }

    /// Every quarantined (template, size-group, version) entry, sorted
    /// for deterministic output.
    pub fn quarantined(&self) -> Vec<QuarantineEntry> {
        let mut out = Vec::new();
        for (template, bucket, group) in self.iter() {
            for (i, row) in group.rows().iter().enumerate() {
                if row.quarantined {
                    out.push(QuarantineEntry {
                        template,
                        bucket,
                        version: VersionId(i as u16),
                        failures: row.failures,
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
        size: u64,
        version: VersionId,
        mean: Duration,
        count: u64,
    ) {
        self.seed_bucket(template, self.bucket(size), version, mean, count);
    }

    /// Seed statistics addressing a size group by its raw [`BucketKey`]
    /// (used when loading hint files, whose records carry keys, not
    /// sizes). Only meaningful when the store uses the same bucket policy
    /// the hints were saved under.
    pub fn seed_bucket(
        &mut self,
        template: TemplateId,
        key: BucketKey,
        version: VersionId,
        mean: Duration,
        count: u64,
    ) {
        let row = self.row_mut(template, key, version);
        row.exec = RunningMean::seeded(mean, count);
        // Seeded statistics count as both executed and scheduled.
        row.scheduled = row.scheduled.max(count);
    }

    /// Seed quarantine state addressing a size group by its raw
    /// [`BucketKey`] (used when loading hint files). The entry is marked
    /// quarantined with the given consecutive-failure streak, exactly as
    /// it was when the hints were saved — the streak is *not* clamped to
    /// the quarantine threshold, so a save/load round trip is lossless.
    pub fn seed_quarantine(
        &mut self,
        template: TemplateId,
        key: BucketKey,
        version: VersionId,
        failures: u64,
    ) {
        let row = self.row_mut(template, key, version);
        row.failures = failures;
        row.quarantined = true;
    }

    /// Mean execution time of one version in the group of `size`.
    pub fn mean(&self, template: TemplateId, size: u64, version: VersionId) -> Option<Duration> {
        self.group(template, size).and_then(|g| g.row(version).exec.mean())
    }

    /// Execution count of one version in the group of `size`.
    pub fn count(&self, template: TemplateId, size: u64, version: VersionId) -> u64 {
        self.group(template, size).map_or(0, |g| g.row(version).exec.count())
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
            Some(g) => candidates.iter().all(|&v| g.row(v).exec.count() >= self.lambda),
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
            for (i, row) in group.rows().iter().enumerate() {
                if row.exec.count() == 0 {
                    continue;
                }
                let name = format!("{}-{}", tpl.name, tpl.version(VersionId(i as u16)).name);
                let mean = row
                    .exec
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
                    row.exec.count()
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
        s.record(TPL, 2_000_000, V1, ms(18));
        s.record(TPL, 2_000_000, V1, ms(22));
        assert_eq!(s.count(TPL, 2_000_000, V1), 2);
        assert_eq!(s.mean(TPL, 2_000_000, V1).unwrap(), ms(20));
        assert_eq!(s.count(TPL, 2_000_000, V0), 0);
        assert_eq!(s.mean(TPL, 2_000_000, V0), None);
    }

    #[test]
    fn different_sizes_are_different_groups() {
        let mut s = store();
        s.record(TPL, 2_000_000, V0, ms(30));
        s.record(TPL, 3_000_000, V0, ms(45));
        assert_eq!(s.mean(TPL, 2_000_000, V0).unwrap(), ms(30));
        assert_eq!(s.mean(TPL, 3_000_000, V0).unwrap(), ms(45));
        assert_eq!(s.group_count(), 2);
    }

    #[test]
    fn reliability_requires_lambda_runs_of_every_candidate() {
        let mut s = ProfileStore::new(SizeBucketPolicy::Exact, MeanPolicy::Arithmetic, 2);
        let candidates = [V0, V1];
        assert!(!s.is_reliable(TPL, 100, &candidates));
        s.record(TPL, 100, V0, ms(1));
        s.record(TPL, 100, V0, ms(1));
        assert!(!s.is_reliable(TPL, 100, &candidates), "V1 untrained");
        s.record(TPL, 100, V1, ms(1));
        assert!(!s.is_reliable(TPL, 100, &candidates), "V1 has 1 < λ runs");
        s.record(TPL, 100, V1, ms(1));
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
        s.seed(TPL, 100, V0, ms(20), 50);
        s.seed(TPL, 100, V1, ms(5), 50);
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
        s.record(TPL, 1_000_000, V0, ms(10));
        s.record(TPL, 1_000_001, V0, ms(20));
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
        s.record(tpl, 2 << 20, VersionId(0), ms(30));
        s.record(tpl, 2 << 20, VersionId(1), ms(18));
        s.record(tpl, 3 << 20, VersionId(2), ms(40));
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
        let mut s = store(); // threshold K = 2
        assert!(!s.is_quarantined(TPL, 100, V0));
        s.record_failure(TPL, 100, V0);
        assert!(!s.is_quarantined(TPL, 100, V0), "one failure is below K");
        s.record_failure(TPL, 100, V0);
        assert!(s.is_quarantined(TPL, 100, V0));
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
        s.record_failure(TPL, 100, V0);
        s.record(TPL, 100, V0, ms(5));
        s.record_failure(TPL, 100, V0);
        assert!(!s.is_quarantined(TPL, 100, V0), "streak reset by success");
        s.record_failure(TPL, 100, V0);
        assert!(s.is_quarantined(TPL, 100, V0));
        s.record(TPL, 100, V0, ms(5));
        assert!(!s.is_quarantined(TPL, 100, V0), "a success lifts quarantine");
    }

    #[test]
    fn rows_grow_as_needed_and_untouched_versions_read_empty() {
        let mut reg = TemplateRegistry::new();
        let tpl = reg
            .template("task1")
            .main("v0", &[DeviceKind::Cuda])
            .version("v1", &[DeviceKind::Cuda])
            .version("v2", &[DeviceKind::Smp])
            .register();
        let v2 = VersionId(2);
        // A fresh group touched only at version 2: record, fail, seed.
        let mut grown = store();
        grown.record(tpl, 100, v2, ms(30));
        grown.record_failure(tpl, 100, v2);
        grown.record_failure(tpl, 100, v2);
        grown.seed(tpl, 200, v2, ms(40), 5);
        grown.seed_quarantine(tpl, BucketKey(200), v2, 1);
        for size in [100, 200] {
            let group = grown.group(tpl, size).unwrap();
            assert_eq!(group.rows().len(), 3, "rows grow to version + 1");
            for v in [V0, V1] {
                let row = group.row(v);
                assert_eq!(row.exec.count(), 0);
                assert_eq!(row.exec.mean(), None);
                assert_eq!(row.scheduled, 0);
                assert!(!row.quarantined);
            }
            // Past the end reads as the empty row too.
            assert_eq!(group.row(VersionId(7)).exec.count(), 0);
        }
        // A store whose groups were created at full width first (as an
        // assignment of each version creates them) renders the same
        // table and hints.
        let mut full = store();
        for size in [100, 200] {
            for v in [V0, V1, v2] {
                full.mark_scheduled(tpl, size, v);
            }
        }
        full.record(tpl, 100, v2, ms(30));
        full.record_failure(tpl, 100, v2);
        full.record_failure(tpl, 100, v2);
        full.seed(tpl, 200, v2, ms(40), 5);
        full.seed_quarantine(tpl, BucketKey(200), v2, 1);
        assert_eq!(grown.render_table(&reg), full.render_table(&reg));
        assert_eq!(
            crate::profile::render_hints(&grown, &reg),
            crate::profile::render_hints(&full, &reg)
        );
    }
}
