//! Trace metadata: who the workers are and what the templates/versions
//! are called, so exporters and reports can print names instead of ids.

use versa_core::{TemplateId, TemplateRegistry, VersionId, WorkerId, WorkerInfo};
use versa_mem::MemSpace;

/// One worker thread, as it existed during the traced run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerMeta {
    /// Worker id (dense, 0-based).
    pub id: WorkerId,
    /// Device clause name (`smp`, `cuda`, …).
    pub device: String,
    /// The address space the worker runs against.
    pub space: MemSpace,
    /// Cluster node hosting the worker (0 = the coordinator process;
    /// remote nodes are 1-based). Single-node runs leave this 0 and the
    /// text format omits it, so old traces parse and new single-node
    /// traces are byte-identical to old ones.
    pub node: u16,
}

/// One task template with its version names, indexed by [`VersionId`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TemplateMeta {
    /// Template id.
    pub id: TemplateId,
    /// Template (task function) name.
    pub name: String,
    /// Version names, `versions[v]` named by `VersionId(v)`.
    pub versions: Vec<String>,
}

/// Naming/topology metadata attached to every [`Trace`](crate::Trace).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Which engine recorded the trace (`"sim"`, `"native"`, `"serve"`).
    pub engine: String,
    /// The workers, in id order.
    pub workers: Vec<WorkerMeta>,
    /// The templates, in id order.
    pub templates: Vec<TemplateMeta>,
    /// The versioning scheduler's learning threshold λ during the run,
    /// when it was the active scheduler — replaying its decision ledger
    /// offline needs the same threshold.
    pub lambda: Option<u64>,
}

/// Identifier-safe rendering: names are single whitespace-free tokens in
/// the text format, so any embedded whitespace becomes `_`.
fn token(name: &str) -> String {
    if name.is_empty() {
        return "_".to_string();
    }
    name.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect()
}

impl TraceMeta {
    /// Capture metadata from a runtime's worker table and template
    /// registry.
    pub fn new(engine: &str, workers: &[WorkerInfo], templates: &TemplateRegistry) -> TraceMeta {
        TraceMeta {
            engine: engine.to_string(),
            workers: workers
                .iter()
                .map(|w| WorkerMeta {
                    id: w.id,
                    device: w.device.clause_name().to_string(),
                    space: w.space,
                    node: 0,
                })
                .collect(),
            templates: templates
                .iter()
                .enumerate()
                .map(|(i, t)| TemplateMeta {
                    id: TemplateId(i as u32),
                    name: token(&t.name),
                    versions: (0..t.version_count())
                        .map(|v| token(&t.version(VersionId(v as u16)).name))
                        .collect(),
                })
                .collect(),
            lambda: None,
        }
    }

    /// The template's name, or `tpl{n}` if unknown.
    pub(crate) fn template_name(&self, t: TemplateId) -> String {
        self.templates
            .iter()
            .find(|m| m.id == t)
            .map(|m| m.name.clone())
            .unwrap_or_else(|| format!("{t}"))
    }

    /// The version's name, or `v{n}` if unknown.
    pub(crate) fn version_name(&self, t: TemplateId, v: VersionId) -> String {
        self.templates
            .iter()
            .find(|m| m.id == t)
            .and_then(|m| m.versions.get(v.index()).cloned())
            .unwrap_or_else(|| format!("{v}"))
    }

    /// A short worker label like `w2:cuda`.
    pub(crate) fn worker_label(&self, w: WorkerId) -> String {
        match self.workers.iter().find(|m| m.id == w) {
            Some(m) => format!("{w}:{}", m.device),
            None => format!("{w}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use versa_core::DeviceKind;

    fn sample() -> TraceMeta {
        let mut reg = TemplateRegistry::new();
        reg.template("matmul_tile")
            .main("cublas", &[DeviceKind::Cuda])
            .version("cblas", &[DeviceKind::Smp])
            .register();
        let workers = [
            WorkerInfo { id: WorkerId(0), device: DeviceKind::Smp, space: MemSpace::HOST },
            WorkerInfo { id: WorkerId(1), device: DeviceKind::Cuda, space: MemSpace::device(0) },
        ];
        TraceMeta::new("sim", &workers, &reg)
    }

    #[test]
    fn names_resolve() {
        let m = sample();
        assert_eq!(m.engine, "sim");
        assert_eq!(m.template_name(TemplateId(0)), "matmul_tile");
        assert_eq!(m.version_name(TemplateId(0), VersionId(1)), "cblas");
        assert_eq!(m.worker_label(WorkerId(1)), "w1:cuda");
    }

    #[test]
    fn unknown_ids_fall_back_to_numeric() {
        let m = sample();
        assert_eq!(m.template_name(TemplateId(9)), "tpl9");
        assert_eq!(m.version_name(TemplateId(0), VersionId(7)), "v7");
        assert_eq!(m.worker_label(WorkerId(9)), "w9");
    }

    #[test]
    fn tokens_have_no_whitespace() {
        assert_eq!(token("a b\tc"), "a_b_c");
        assert_eq!(token(""), "_");
    }
}
