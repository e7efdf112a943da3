//! Task templates (version sets), versions, and dynamic task instances.

use crate::{DeviceKind, TaskId, TemplateId, VersionId};
// `by_name` is keyed by template names, not ids.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use versa_mem::{AccessMode, Region};

/// One implementation of a task — one function annotated with
/// `#pragma omp target device(...)` and (for non-main versions)
/// `implements(main)`.
#[derive(Clone, Debug)]
pub struct TaskVersion {
    /// Function name, e.g. `"matmul_tile_cublas"`.
    pub name: String,
    /// Devices this implementation can run on (the `device(...)` clause
    /// may list several).
    pub devices: Vec<DeviceKind>,
    /// Whether this is the *main* implementation. "This distinction is
    /// only a compiler issue and will not affect the runtime execution"
    /// for the versioning scheduler (paper §IV-A) — but the baseline
    /// schedulers, which predate `implements`, only ever run the main
    /// version (paper footnote 1).
    pub is_main: bool,
}

impl TaskVersion {
    /// Whether this version can execute on a worker of kind `device`.
    #[inline]
    pub(crate) fn runs_on(&self, device: DeviceKind) -> bool {
        self.devices.contains(&device)
    }
}

/// A *task version set*: one annotated task together with all of its
/// alternative implementations. This mirrors the structure the Mercurium
/// compiler generates for the runtime (paper §IV-A).
#[derive(Clone, Debug)]
pub struct TaskTemplate {
    /// Stable identifier.
    pub id: TemplateId,
    /// Name of the main task function, e.g. `"matmul_tile"`.
    pub name: String,
    /// All implementations. Exactly one is the main version; it is always
    /// stored at index 0 (so `VersionId(0)` is the main implementation).
    pub versions: Vec<TaskVersion>,
}

impl TaskTemplate {
    /// The main implementation (always version 0).
    pub(crate) fn main_version(&self) -> &TaskVersion {
        &self.versions[0]
    }

    /// Look up a version.
    pub fn version(&self, v: VersionId) -> &TaskVersion {
        &self.versions[v.index()]
    }

    /// Ids of versions runnable on `device`.
    pub fn versions_for(&self, device: DeviceKind) -> impl Iterator<Item = VersionId> + '_ {
        self.versions
            .iter()
            .enumerate()
            .filter(move |(_, v)| v.runs_on(device))
            .map(|(i, _)| VersionId(i as u16))
    }

    /// Number of versions.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }
}

/// Builder for a [`TaskTemplate`]; the programmatic analogue of writing the
/// pragmas of paper Fig. 4.
///
/// ```
/// use versa_core::{DeviceKind, TemplateRegistry};
///
/// let mut reg = TemplateRegistry::new();
/// let matmul = reg
///     .template("matmul_tile")
///     .main("matmul_tile_cublas", &[DeviceKind::Cuda])
///     .version("matmul_tile_cuda", &[DeviceKind::Cuda])
///     .version("matmul_tile_cblas", &[DeviceKind::Smp])
///     .register();
/// assert_eq!(reg.get(matmul).version_count(), 3);
/// ```
pub struct TemplateBuilder<'a> {
    registry: &'a mut TemplateRegistry,
    name: String,
    versions: Vec<TaskVersion>,
}

impl TemplateBuilder<'_> {
    /// Declare the main implementation. Must be called exactly once,
    /// before any [`TemplateBuilder::version`].
    pub fn main(mut self, name: &str, devices: &[DeviceKind]) -> Self {
        assert!(self.versions.is_empty(), "main version must be declared first");
        assert!(!devices.is_empty(), "a version must target at least one device");
        self.versions.push(TaskVersion {
            name: name.to_string(),
            devices: devices.to_vec(),
            is_main: true,
        });
        self
    }

    /// Declare an alternative implementation (`implements(main)`).
    ///
    /// The `implements` clause "always references the main implementation"
    /// (paper §IV-A): versions chain to the main version only, which this
    /// builder enforces structurally.
    pub fn version(mut self, name: &str, devices: &[DeviceKind]) -> Self {
        assert!(!self.versions.is_empty(), "declare the main version before alternatives");
        assert!(!devices.is_empty(), "a version must target at least one device");
        self.versions.push(TaskVersion {
            name: name.to_string(),
            devices: devices.to_vec(),
            is_main: false,
        });
        self
    }

    /// Finish and register the template.
    ///
    /// # Panics
    /// Panics if no main version was declared, the template name is
    /// already taken, or the name is empty / contains whitespace (names
    /// key the whitespace-delimited profile-hints format).
    pub fn register(self) -> TemplateId {
        assert!(!self.versions.is_empty(), "template {:?} has no versions", self.name);
        assert!(
            !self.name.is_empty() && !self.name.chars().any(|c| c.is_whitespace()),
            "template name {:?} must be non-empty and contain no whitespace \
             (it keys the line-based profile-hints format)",
            self.name
        );
        let id = TemplateId(self.registry.templates.len() as u32);
        let prev = self.registry.by_name.insert(self.name.clone(), id);
        assert!(prev.is_none(), "template {:?} registered twice", self.name);
        self.registry.templates.push(TaskTemplate { id, name: self.name, versions: self.versions });
        id
    }
}

/// All registered task templates; the runtime-side mirror of the
/// compiler-emitted version tables.
#[derive(Default, Debug, Clone)]
pub struct TemplateRegistry {
    templates: Vec<TaskTemplate>,
    // String keys: hashed as std hashes them.
    #[allow(clippy::disallowed_types)]
    by_name: HashMap<String, TemplateId>,
}

impl TemplateRegistry {
    /// Empty registry.
    pub fn new() -> TemplateRegistry {
        TemplateRegistry::default()
    }

    /// Start building a template named `name`.
    pub fn template(&mut self, name: &str) -> TemplateBuilder<'_> {
        TemplateBuilder { registry: self, name: name.to_string(), versions: Vec::new() }
    }

    /// Look up a template by id.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn get(&self, id: TemplateId) -> &TaskTemplate {
        &self.templates[id.index()]
    }

    /// Look up a template id by name.
    pub fn by_name(&self, name: &str) -> Option<TemplateId> {
        self.by_name.get(name).copied()
    }

    /// All templates in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &TaskTemplate> {
        self.templates.iter()
    }
}

/// A dynamic task instance: one invocation of an annotated task function.
#[derive(Clone, Debug)]
pub struct TaskInstance {
    /// Unique instance id (creation order).
    pub id: TaskId,
    /// The version set this instance belongs to.
    pub template: TemplateId,
    /// Data accesses (dependence + copy clauses, `copy_deps` semantics).
    pub accesses: Vec<(Region, AccessMode)>,
    /// The instance's *data set size* in bytes: each accessed allocation
    /// counted once, "even if it is an input/output parameter" (paper
    /// footnote 2). Used to select the profile size group.
    pub data_set_size: u64,
    /// Id of the owning job, when a multi-job service submitted the
    /// task; the one-shot API leaves it `None`. Bounded waves interleave
    /// jobs by it, and decision records carry it.
    pub job: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_matmul() -> (TemplateRegistry, TemplateId) {
        let mut reg = TemplateRegistry::new();
        let id = reg
            .template("matmul_tile")
            .main("matmul_tile_cublas", &[DeviceKind::Cuda])
            .version("matmul_tile_cuda", &[DeviceKind::Cuda])
            .version("matmul_tile_cblas", &[DeviceKind::Smp])
            .register();
        (reg, id)
    }

    #[test]
    fn main_version_is_index_zero() {
        let (reg, id) = registry_with_matmul();
        let tpl = reg.get(id);
        assert!(tpl.main_version().is_main);
        assert_eq!(tpl.main_version().name, "matmul_tile_cublas");
        assert!(!tpl.version(VersionId(1)).is_main);
        assert!(!tpl.version(VersionId(2)).is_main);
    }

    #[test]
    fn versions_for_filters_by_device() {
        let (reg, id) = registry_with_matmul();
        let tpl = reg.get(id);
        let cuda: Vec<_> = tpl.versions_for(DeviceKind::Cuda).collect();
        let smp: Vec<_> = tpl.versions_for(DeviceKind::Smp).collect();
        assert_eq!(cuda, vec![VersionId(0), VersionId(1)]);
        assert_eq!(smp, vec![VersionId(2)]);
        assert!(tpl.versions_for(DeviceKind::CellSpe).next().is_none());
    }

    #[test]
    fn lookup_by_name() {
        let (reg, id) = registry_with_matmul();
        assert_eq!(reg.by_name("matmul_tile"), Some(id));
        assert_eq!(reg.by_name("nope"), None);
        assert_eq!(reg.templates.len(), 1);
    }

    #[test]
    fn multi_device_version() {
        let mut reg = TemplateRegistry::new();
        let id = reg
            .template("saxpy")
            .main("saxpy_any", &[DeviceKind::Smp, DeviceKind::Cuda])
            .register();
        let tpl = reg.get(id);
        assert!(tpl.main_version().runs_on(DeviceKind::Smp));
        assert!(tpl.main_version().runs_on(DeviceKind::Cuda));
    }

    #[test]
    #[should_panic(expected = "main version must be declared first")]
    fn two_mains_rejected() {
        let mut reg = TemplateRegistry::new();
        let _ = reg
            .template("t")
            .main("a", &[DeviceKind::Smp])
            .main("b", &[DeviceKind::Smp])
            .register();
    }

    #[test]
    #[should_panic(expected = "declare the main version before alternatives")]
    fn version_before_main_rejected() {
        let mut reg = TemplateRegistry::new();
        let _ = reg.template("t").version("a", &[DeviceKind::Smp]).register();
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_template_name_rejected() {
        let mut reg = TemplateRegistry::new();
        let _ = reg.template("t").main("a", &[DeviceKind::Smp]).register();
        let _ = reg.template("t").main("b", &[DeviceKind::Smp]).register();
    }

    #[test]
    #[should_panic(expected = "no whitespace")]
    fn whitespace_in_template_name_rejected() {
        let mut reg = TemplateRegistry::new();
        let _ = reg.template("mat mul").main("a", &[DeviceKind::Smp]).register();
    }

    #[test]
    #[should_panic(expected = "no whitespace")]
    fn empty_template_name_rejected() {
        let mut reg = TemplateRegistry::new();
        let _ = reg.template("").main("a", &[DeviceKind::Smp]).register();
    }
}
