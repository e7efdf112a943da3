//! Deterministic fault injection for the simulated platform.
//!
//! A [`FaultPlan`] describes *when simulated task executions fail*:
//! each [`FaultRule`] matches a subset of executions (by template,
//! version, and/or worker) and fires with a configured probability,
//! drawn from a dedicated seeded RNG stream so an empty plan leaves
//! every other random stream — and therefore every existing report —
//! byte-identical. Rules can be transient (probabilistic) or persistent
//! (`probability = 1.0`), and optionally stop firing after a bounded
//! number of failures (a device that "recovers").
//!
//! The injector only *decides*; the execution engine in `versa-runtime`
//! turns a fired rule into a `TaskFailed` event and routes the task
//! through the same reschedule path native kernel panics take.

use versa_core::{TemplateId, VersionId, WorkerId};

/// One fault-matching rule. `None` fields match anything, so a rule can
/// target a device ("GPU 1 is flaky"), a template, a specific version
/// ("the hand-CUDA kernel is broken"), or any combination.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// Match only this template (any when `None`).
    pub template: Option<TemplateId>,
    /// Match only this version (any when `None`).
    pub version: Option<VersionId>,
    /// Match only executions on this worker (any when `None`).
    pub worker: Option<WorkerId>,
    /// Probability in `[0, 1]` that a matched execution fails
    /// (`1.0` = persistent failure).
    pub probability: f64,
    /// Stop firing after this many failures (`None` = unbounded) —
    /// models transient conditions that clear up.
    pub max_failures: Option<u64>,
}

impl FaultRule {
    /// A rule that always fails every execution of `version` (on any
    /// worker, any template) — the "broken implementation" scenario.
    pub fn broken_version(version: VersionId) -> FaultRule {
        FaultRule {
            template: None,
            version: Some(version),
            worker: None,
            probability: 1.0,
            max_failures: None,
        }
    }

    /// A rule that fails executions on `worker` with `probability` —
    /// the "flaky device" scenario.
    pub fn flaky_worker(worker: WorkerId, probability: f64) -> FaultRule {
        FaultRule {
            template: None,
            version: None,
            worker: Some(worker),
            probability,
            max_failures: None,
        }
    }

    fn matches(&self, template: TemplateId, version: VersionId, worker: WorkerId) -> bool {
        self.template.is_none_or(|t| t == template)
            && self.version.is_none_or(|v| v == version)
            && self.worker.is_none_or(|w| w == worker)
    }
}

/// What a node-level fault does to a simulated remote node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// The node vanishes abruptly (TCP reset / power loss): every
    /// queued task silently re-enters the pending pool, every running
    /// task is reported lost mid-flight.
    Drop,
    /// The node stops answering heartbeats (network partition / wedged
    /// process) and the coordinator declares it dead after its timeout.
    /// Identical consequences to [`NodeFaultKind::Drop`], but the loss
    /// is *detected* one heartbeat-timeout later than it happened.
    HeartbeatTimeout,
}

/// One scheduled node-level fault: at virtual time `at`, node `node`
/// (1-based, matching `TraceEvent` node ids; node 0 is the coordinator
/// and cannot fail) is lost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeFaultRule {
    /// The 1-based remote-node id to kill.
    pub node: u16,
    /// Virtual time at which the fault fires.
    pub at: std::time::Duration,
    /// How the node fails.
    pub kind: NodeFaultKind,
}

impl NodeFaultRule {
    /// Abrupt loss of `node` at virtual time `at`.
    pub fn drop_node(node: u16, at: std::time::Duration) -> NodeFaultRule {
        NodeFaultRule { node, at, kind: NodeFaultKind::Drop }
    }

    /// Heartbeat silence from `node` starting at virtual time `at`.
    pub fn heartbeat_timeout(node: u16, at: std::time::Duration) -> NodeFaultRule {
        NodeFaultRule { node, at, kind: NodeFaultKind::HeartbeatTimeout }
    }
}

/// A set of fault rules evaluated against every simulated task start.
/// The default plan is empty (no faults), which is guaranteed not to
/// perturb any other random stream of the simulation.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// The rules, evaluated in order; the first match that fires wins.
    pub rules: Vec<FaultRule>,
    /// Scheduled node-level faults (whole remote nodes lost at a given
    /// virtual time). Empty by default.
    pub node_rules: Vec<NodeFaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a single rule.
    pub fn single(rule: FaultRule) -> FaultPlan {
        FaultPlan { rules: vec![rule], ..FaultPlan::default() }
    }

    /// Validate rule probabilities and that node rules target one of
    /// the platform's `node_count` remote nodes (ids are 1-based).
    pub fn validate(&self, node_count: usize) -> Result<(), String> {
        for (i, r) in self.rules.iter().enumerate() {
            if !(0.0..=1.0).contains(&r.probability) || !r.probability.is_finite() {
                return Err(format!(
                    "fault rule {i}: probability {} outside [0, 1]",
                    r.probability
                ));
            }
        }
        for (i, r) in self.node_rules.iter().enumerate() {
            if r.node == 0 || r.node as usize > node_count {
                return Err(format!(
                    "node fault rule {i}: node {} outside 1..={node_count}",
                    r.node
                ));
            }
        }
        Ok(())
    }
}

/// Stateful evaluator of a [`FaultPlan`]: owns the dedicated RNG stream
/// and the per-rule fired counters.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    fired: Vec<u64>,
    rng: u64,
}

impl FaultInjector {
    /// Injector for `plan`, seeded independently of every other stream.
    pub fn new(plan: FaultPlan, seed: u64) -> FaultInjector {
        let fired = vec![0; plan.rules.len()];
        // Decorrelate from the NoiseModel, which is seeded from the
        // same platform seed.
        let rng = seed ^ 0x9e37_79b9_7f4a_7c15;
        FaultInjector { plan, fired, rng }
    }

    /// Decide whether this execution fails. Deterministic: the RNG
    /// stream advances once per *matched probabilistic* rule
    /// evaluation, so identical schedules yield identical decisions.
    pub fn should_fail(
        &mut self,
        template: TemplateId,
        version: VersionId,
        worker: WorkerId,
    ) -> bool {
        for i in 0..self.plan.rules.len() {
            let rule = &self.plan.rules[i];
            if !rule.matches(template, version, worker) {
                continue;
            }
            if rule.max_failures.is_some_and(|m| self.fired[i] >= m) {
                continue;
            }
            let fires = if rule.probability >= 1.0 {
                true
            } else if rule.probability <= 0.0 {
                false
            } else {
                let p = rule.probability;
                self.next_f64() < p
            };
            if fires {
                self.fired[i] += 1;
                return true;
            }
        }
        false
    }

    /// splitmix64 step → uniform f64 in [0, 1).
    fn next_f64(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TPL: TemplateId = TemplateId(0);
    const V0: VersionId = VersionId(0);
    const V1: VersionId = VersionId(1);
    const W0: WorkerId = WorkerId(0);
    const W1: WorkerId = WorkerId(1);

    #[test]
    fn empty_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 42);
        for _ in 0..100 {
            assert!(!inj.should_fail(TPL, V0, W0));
        }
        assert_eq!(inj.fired.iter().sum::<u64>(), 0);
    }

    #[test]
    fn broken_version_always_fails_only_that_version() {
        let mut inj = FaultInjector::new(FaultPlan::single(FaultRule::broken_version(V0)), 1);
        assert!(inj.should_fail(TPL, V0, W0));
        assert!(inj.should_fail(TPL, V0, W1));
        assert!(!inj.should_fail(TPL, V1, W0));
        assert_eq!(inj.fired.iter().sum::<u64>(), 2);
    }

    #[test]
    fn max_failures_bounds_firing() {
        let mut rule = FaultRule::broken_version(V0);
        rule.max_failures = Some(2);
        let mut inj = FaultInjector::new(FaultPlan::single(rule), 1);
        assert!(inj.should_fail(TPL, V0, W0));
        assert!(inj.should_fail(TPL, V0, W0));
        assert!(!inj.should_fail(TPL, V0, W0), "rule exhausted");
    }

    #[test]
    fn probabilistic_rule_is_deterministic_per_seed() {
        let rule = FaultRule::flaky_worker(W0, 0.5);
        let decide = |seed: u64| -> Vec<bool> {
            let mut inj = FaultInjector::new(FaultPlan::single(rule.clone()), seed);
            (0..64).map(|_| inj.should_fail(TPL, V0, W0)).collect()
        };
        assert_eq!(decide(7), decide(7), "same seed, same decisions");
        assert_ne!(decide(7), decide(8), "different seed, different stream");
        let fired = decide(7).iter().filter(|&&b| b).count();
        assert!((16..=48).contains(&fired), "p=0.5 fired {fired}/64 times");
    }

    #[test]
    fn validation_rejects_bad_probability() {
        let mut rule = FaultRule::broken_version(V0);
        rule.probability = 1.5;
        assert!(FaultPlan::single(rule.clone()).validate(0).is_err());
        rule.probability = f64::NAN;
        assert!(FaultPlan::single(rule).validate(0).is_err());
        assert!(FaultPlan::none().validate(0).is_ok());
    }

    #[test]
    fn validation_checks_node_rule_targets() {
        use std::time::Duration;
        let mut plan = FaultPlan::none();
        plan.node_rules.push(NodeFaultRule::drop_node(1, Duration::from_millis(5)));
        assert!(plan.validate(0).is_err(), "no remote nodes configured");
        assert!(plan.validate(1).is_ok());
        plan.node_rules.push(NodeFaultRule::heartbeat_timeout(0, Duration::ZERO));
        assert!(plan.validate(1).is_err(), "node 0 is the coordinator");
    }
}
