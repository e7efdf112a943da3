//! External profile hints (paper §VII future work).
//!
//! "The scheduler should also offer the possibility to receive external
//! hints for task versions: for example, read [a] file with additional
//! information about tasks versions. This file can be written by the
//! user, but it could also be written by [the] runtime from a previous
//! application's execution."
//!
//! Hints use a line-based text format (one record per line) instead of
//! the paper's proposed XML, avoiding a serialization dependency:
//!
//! ```text
//! # versa profile hints v2
//! policy bucket=exact mean=arithmetic
//! hint <template_name> <version_index> <bucket_key> <mean_ns> <count>
//! quarantine <template_name> <version_index> <bucket_key> <failures>
//! ```
//!
//! Records are keyed by template *name* (stable across runs) and raw
//! [`BucketKey`]. Bucket keys are only meaningful under the
//! [`SizeBucketPolicy`] that produced them (and seeded means only under
//! the same [`MeanPolicy`]), so every file carries a `policy` line,
//! [`parse_hints`] rejects a file without one, and [`apply_hints`]
//! rejects a file whose policies differ from the receiving store's.
//!
//! `quarantine` records are optional and carry the store's failure
//! quarantine state (consecutive-failure streak per quarantined entry),
//! so a warm-started service does not have to rediscover a broken
//! version by failing on it again.

use super::{BucketKey, MeanPolicy, ProfileStore, SizeBucketPolicy};
use crate::{TemplateRegistry, VersionId};
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// One parsed hint line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HintRecord {
    /// Template (task version set) name.
    pub template: String,
    /// Version index within the template.
    pub version: u16,
    /// Size-group key (raw).
    pub bucket: BucketKey,
    /// Mean execution time in nanoseconds.
    pub mean_ns: u64,
    /// Execution count backing the mean.
    pub count: u64,
}

/// The profiling policies a hints file was produced under, declared in
/// its `policy` header line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HintsPolicy {
    /// Size-grouping policy the bucket keys were computed with.
    pub bucket: SizeBucketPolicy,
    /// Mean-update policy the means were accumulated with.
    pub mean: MeanPolicy,
}

impl HintsPolicy {
    fn render(&self) -> String {
        format!("policy bucket={} mean={}", render_bucket(self.bucket), render_mean(self.mean))
    }
}

fn render_bucket(p: SizeBucketPolicy) -> String {
    match p {
        SizeBucketPolicy::Exact => "exact".to_string(),
        SizeBucketPolicy::RelativeRange { tolerance } => format!("range:{tolerance}"),
    }
}

fn render_mean(p: MeanPolicy) -> String {
    match p {
        MeanPolicy::Arithmetic => "arithmetic".to_string(),
        MeanPolicy::Ewma { alpha } => format!("ewma:{alpha}"),
    }
}

/// One parsed quarantine line: a (template, version, size-group) entry
/// that was quarantined when the hints were saved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Template (task version set) name.
    pub template: String,
    /// Version index within the template.
    pub version: u16,
    /// Size-group key (raw).
    pub bucket: BucketKey,
    /// Consecutive failures sustaining the quarantine.
    pub failures: u64,
}

/// A parsed hints file: the declared policies and the records.
#[derive(Clone, Debug, PartialEq)]
pub struct HintsFile {
    /// The `policy` header.
    pub policy: HintsPolicy,
    /// The `hint` records, in file order.
    pub records: Vec<HintRecord>,
    /// The `quarantine` records, in file order.
    pub quarantine: Vec<QuarantineRecord>,
}

/// Errors produced while parsing or applying a hints file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HintsError {
    /// A line did not match the expected record shape.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The field name.
        field: &'static str,
    },
    /// A `policy` line could not be parsed (or appeared twice).
    BadPolicy {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// The file has no `policy` line, so its bucket keys and means
    /// cannot be interpreted.
    MissingPolicy,
    /// The file's declared policies differ from the receiving store's —
    /// its bucket keys/means would be misinterpreted.
    PolicyMismatch {
        /// The receiving store's policies, rendered.
        expected: String,
        /// The file's declared policies, rendered.
        found: String,
    },
}

impl fmt::Display for HintsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HintsError::Malformed { line, content } => {
                write!(f, "hints line {line}: malformed record {content:?}")
            }
            HintsError::BadNumber { line, field } => {
                write!(f, "hints line {line}: invalid number in field {field}")
            }
            HintsError::BadPolicy { line, content } => {
                write!(f, "hints line {line}: malformed policy header {content:?}")
            }
            HintsError::MissingPolicy => write!(f, "hints file has no policy line"),
            HintsError::PolicyMismatch { expected, found } => {
                write!(
                    f,
                    "hints were recorded under \"{found}\" but the store uses \"{expected}\""
                )
            }
        }
    }
}

impl std::error::Error for HintsError {}

/// Serialize every measured statistic of `store` to the hints format,
/// policies included.
pub fn render_hints(store: &ProfileStore, registry: &TemplateRegistry) -> String {
    let mut out = String::from("# versa profile hints v2\n");
    let policy = HintsPolicy { bucket: store.bucket_policy(), mean: store.mean_policy() };
    out.push_str(&policy.render());
    out.push('\n');
    for (template, bucket, group) in store.iter() {
        let name = &registry.get(template).name;
        for (i, row) in group.rows().iter().enumerate() {
            if let Some(mean) = row.exec.mean() {
                let _ = writeln!(
                    out,
                    "hint {name} {i} {} {} {}",
                    bucket.0,
                    mean.as_nanos(),
                    row.exec.count()
                );
            }
        }
    }
    for entry in store.quarantined() {
        let name = &registry.get(entry.template).name;
        let _ = writeln!(
            out,
            "quarantine {name} {} {} {}",
            entry.version.index(),
            entry.bucket.0,
            entry.failures
        );
    }
    out
}

fn parse_policy(line: usize, trimmed: &str) -> Result<HintsPolicy, HintsError> {
    let err = || HintsError::BadPolicy { line, content: trimmed.to_string() };
    let mut bucket = None;
    let mut mean = None;
    for field in trimmed.split_ascii_whitespace().skip(1) {
        let (key, value) = field.split_once('=').ok_or_else(err)?;
        match key {
            "bucket" if bucket.is_none() => {
                bucket = Some(match value.split_once(':') {
                    None if value == "exact" => SizeBucketPolicy::Exact,
                    Some(("range", tol)) => SizeBucketPolicy::RelativeRange {
                        tolerance: tol.parse().map_err(|_| err())?,
                    },
                    _ => return Err(err()),
                });
            }
            "mean" if mean.is_none() => {
                mean = Some(match value.split_once(':') {
                    None if value == "arithmetic" => MeanPolicy::Arithmetic,
                    Some(("ewma", alpha)) => {
                        MeanPolicy::Ewma { alpha: alpha.parse().map_err(|_| err())? }
                    }
                    _ => return Err(err()),
                });
            }
            _ => return Err(err()),
        }
    }
    Ok(HintsPolicy { bucket: bucket.ok_or_else(err)?, mean: mean.ok_or_else(err)? })
}

/// Parse a hints file. Blank lines and `#` comments are ignored; exactly
/// one `policy` line is required.
pub fn parse_hints(text: &str) -> Result<HintsFile, HintsError> {
    let mut policy: Option<HintsPolicy> = None;
    let mut records = Vec::new();
    let mut quarantine = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed.starts_with("policy") {
            if policy.is_some() {
                return Err(HintsError::BadPolicy { line, content: trimmed.to_string() });
            }
            policy = Some(parse_policy(line, trimmed)?);
            continue;
        }
        let mut fields = trimmed.split_ascii_whitespace();
        let tag = fields.next();
        if tag != Some("hint") && tag != Some("quarantine") {
            return Err(HintsError::Malformed { line, content: trimmed.to_string() });
        }
        let mut next = |field: &'static str| {
            fields.next().ok_or(HintsError::Malformed { line, content: trimmed.to_string() }).map(
                |s| (field, s.to_string()),
            )
        };
        let (_, template) = next("template")?;
        let parse_u64 = |field: &'static str, s: &str| {
            s.parse::<u64>().map_err(|_| HintsError::BadNumber { line, field })
        };
        let (f, s) = next("version")?;
        let version =
            s.parse::<u16>().map_err(|_| HintsError::BadNumber { line, field: f })?;
        let (f, s) = next("bucket")?;
        let bucket = BucketKey(parse_u64(f, &s)?);
        if tag == Some("quarantine") {
            let (f, s) = next("failures")?;
            let failures = parse_u64(f, &s)?;
            if fields.next().is_some() {
                return Err(HintsError::Malformed { line, content: trimmed.to_string() });
            }
            quarantine.push(QuarantineRecord { template, version, bucket, failures });
            continue;
        }
        let (f, s) = next("mean_ns")?;
        let mean_ns = parse_u64(f, &s)?;
        let (f, s) = next("count")?;
        let count = parse_u64(f, &s)?;
        if fields.next().is_some() {
            return Err(HintsError::Malformed { line, content: trimmed.to_string() });
        }
        records.push(HintRecord { template, version, bucket, mean_ns, count });
    }
    let policy = policy.ok_or(HintsError::MissingPolicy)?;
    Ok(HintsFile { policy, records, quarantine })
}

/// Seed `store` with a parsed hints file. The file's policies must match
/// the store's ([`HintsError::PolicyMismatch`] otherwise). Hints for
/// templates not present in `registry` (or version indices out of range)
/// are skipped and counted in the returned `(applied, skipped)` pair.
pub fn apply_hints(
    store: &mut ProfileStore,
    registry: &TemplateRegistry,
    file: &HintsFile,
) -> Result<(usize, usize), HintsError> {
    let ours = HintsPolicy { bucket: store.bucket_policy(), mean: store.mean_policy() };
    if file.policy != ours {
        return Err(HintsError::PolicyMismatch {
            expected: ours.render(),
            found: file.policy.render(),
        });
    }
    let mut applied = 0;
    let mut skipped = 0;
    for rec in &file.records {
        let Some(template) = registry.by_name(&rec.template) else {
            skipped += 1;
            continue;
        };
        if rec.version as usize >= registry.get(template).version_count() {
            skipped += 1;
            continue;
        }
        store.seed_bucket(
            template,
            rec.bucket,
            VersionId(rec.version),
            Duration::from_nanos(rec.mean_ns),
            rec.count,
        );
        applied += 1;
    }
    for rec in &file.quarantine {
        let Some(template) = registry.by_name(&rec.template) else {
            skipped += 1;
            continue;
        };
        if rec.version as usize >= registry.get(template).version_count() {
            skipped += 1;
            continue;
        }
        store.seed_quarantine(template, rec.bucket, VersionId(rec.version), rec.failures);
        applied += 1;
    }
    Ok((applied, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceKind;

    fn registry() -> TemplateRegistry {
        let mut reg = TemplateRegistry::new();
        reg.template("matmul_tile")
            .main("cublas", &[DeviceKind::Cuda])
            .version("cblas", &[DeviceKind::Smp])
            .register();
        reg
    }

    #[test]
    fn roundtrip_through_text() {
        let reg = registry();
        let tpl = reg.by_name("matmul_tile").unwrap();
        let mut store = ProfileStore::with_defaults();
        store.record(tpl, 1000, VersionId(0), Duration::from_millis(7));
        store.record(tpl, 1000, VersionId(1), Duration::from_millis(420));
        store.record(tpl, 2000, VersionId(0), Duration::from_millis(14));

        let text = render_hints(&store, &reg);
        let file = parse_hints(&text).unwrap();
        assert_eq!(file.records.len(), 3);
        assert_eq!(
            file.policy,
            HintsPolicy { bucket: SizeBucketPolicy::Exact, mean: MeanPolicy::Arithmetic }
        );

        let mut fresh = ProfileStore::with_defaults();
        let (applied, skipped) = apply_hints(&mut fresh, &reg, &file).unwrap();
        assert_eq!((applied, skipped), (3, 0));
        assert_eq!(fresh.mean(tpl, 1000, VersionId(0)), Some(Duration::from_millis(7)));
        assert_eq!(fresh.mean(tpl, 1000, VersionId(1)), Some(Duration::from_millis(420)));
        assert_eq!(fresh.count(tpl, 2000, VersionId(0)), 1);
    }

    #[test]
    fn non_default_policies_roundtrip() {
        let reg = registry();
        let tpl = reg.by_name("matmul_tile").unwrap();
        let mut store = ProfileStore::new(
            SizeBucketPolicy::RelativeRange { tolerance: 0.25 },
            MeanPolicy::Ewma { alpha: 0.3 },
            4,
        );
        store.record(tpl, 1000, VersionId(0), Duration::from_millis(7));
        let text = render_hints(&store, &reg);
        assert!(text.contains("policy bucket=range:0.25 mean=ewma:0.3"));
        let file = parse_hints(&text).unwrap();

        let mut same = ProfileStore::new(
            SizeBucketPolicy::RelativeRange { tolerance: 0.25 },
            MeanPolicy::Ewma { alpha: 0.3 },
            4,
        );
        assert_eq!(apply_hints(&mut same, &reg, &file).unwrap(), (1, 0));
    }

    #[test]
    fn policy_mismatch_is_rejected_at_load() {
        let reg = registry();
        let tpl = reg.by_name("matmul_tile").unwrap();
        let mut store = ProfileStore::new(
            SizeBucketPolicy::RelativeRange { tolerance: 0.25 },
            MeanPolicy::Arithmetic,
            4,
        );
        store.record(tpl, 1000, VersionId(0), Duration::from_millis(7));
        let file = parse_hints(&render_hints(&store, &reg)).unwrap();

        // A store with exact buckets would misread the range-policy keys.
        let mut exact = ProfileStore::with_defaults();
        let err = apply_hints(&mut exact, &reg, &file).unwrap_err();
        assert!(matches!(err, HintsError::PolicyMismatch { .. }));
        assert!(err.to_string().contains("range:0.25"));

        // Different tolerance is a mismatch too.
        let mut other_tol = ProfileStore::new(
            SizeBucketPolicy::RelativeRange { tolerance: 0.5 },
            MeanPolicy::Arithmetic,
            4,
        );
        assert!(apply_hints(&mut other_tol, &reg, &file).is_err());
    }

    #[test]
    fn files_without_policy_line_are_rejected() {
        let text = "# versa profile hints v1\nhint matmul_tile 0 1000 7000000 10\n";
        assert_eq!(parse_hints(text).unwrap_err(), HintsError::MissingPolicy);
        assert_eq!(parse_hints("").unwrap_err(), HintsError::MissingPolicy);
    }

    #[test]
    fn warm_started_store_skips_learning() {
        let reg = registry();
        let tpl = reg.by_name("matmul_tile").unwrap();
        let text = "policy bucket=exact mean=arithmetic\n\
                    hint matmul_tile 0 1000 7000000 10\nhint matmul_tile 1 1000 420000000 10\n";
        let mut store = ProfileStore::with_defaults();
        let file = parse_hints(text).unwrap();
        apply_hints(&mut store, &reg, &file).unwrap();
        assert!(store.is_reliable(tpl, 1000, &[VersionId(0), VersionId(1)]));
    }

    #[test]
    fn quarantine_state_roundtrips() {
        let reg = registry();
        let tpl = reg.by_name("matmul_tile").unwrap();
        let mut store = ProfileStore::with_defaults();
        store.record(tpl, 1000, VersionId(0), Duration::from_millis(7));
        store.record_failure(tpl, 1000, VersionId(1));
        store.record_failure(tpl, 1000, VersionId(1));
        assert!(store.is_quarantined(tpl, 1000, VersionId(1)));

        let text = render_hints(&store, &reg);
        assert!(text.contains("quarantine matmul_tile 1 1000 2"));
        let file = parse_hints(&text).unwrap();
        assert_eq!(file.quarantine.len(), 1);
        assert_eq!(file.quarantine[0].failures, 2);

        let mut fresh = ProfileStore::with_defaults();
        apply_hints(&mut fresh, &reg, &file).unwrap();
        assert!(fresh.is_quarantined(tpl, 1000, VersionId(1)));
        // Byte-stable: re-rendering the restored store reproduces the file.
        assert_eq!(render_hints(&fresh, &reg), text);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\npolicy bucket=exact mean=arithmetic\n\n   \nhint t 0 5 100 1\n# trailing\n";
        let file = parse_hints(text).unwrap();
        assert_eq!(file.records.len(), 1);
        assert_eq!(file.records[0].template, "t");
        assert_eq!(file.records[0].bucket, BucketKey(5));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(matches!(
            parse_hints("nonsense here").unwrap_err(),
            HintsError::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            parse_hints("hint t 0 5 100").unwrap_err(),
            HintsError::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            parse_hints("hint t 0 5 100 1 extra").unwrap_err(),
            HintsError::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            parse_hints("hint t zero 5 100 1").unwrap_err(),
            HintsError::BadNumber { line: 1, field: "version" }
        ));
    }

    #[test]
    fn malformed_policy_lines_rejected() {
        for bad in [
            "policy",
            "policy bucket=exact",
            "policy mean=arithmetic",
            "policy bucket=weird mean=arithmetic",
            "policy bucket=range:xyz mean=arithmetic",
            "policy bucket=exact mean=ewma",
            "policy bucket=exact mean=arithmetic bucket=exact",
            "policy bucket=exact mean=arithmetic\npolicy bucket=exact mean=arithmetic",
        ] {
            assert!(
                matches!(parse_hints(bad).unwrap_err(), HintsError::BadPolicy { .. }),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn unknown_templates_are_skipped_not_fatal() {
        let reg = registry();
        let file = parse_hints(
            "policy bucket=exact mean=arithmetic\nhint unknown_task 0 5 100 1\nhint matmul_tile 9 5 100 1\n",
        )
        .unwrap();
        let mut store = ProfileStore::with_defaults();
        let (applied, skipped) = apply_hints(&mut store, &reg, &file).unwrap();
        assert_eq!((applied, skipped), (0, 2));
    }
}
