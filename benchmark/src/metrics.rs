//! The metric tables (`../BENCHMARK.json` mirrors them — a unit test
//! holds the two together) and the result a run prints.

use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics (they carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// What a user of the system sees; measured untraced, reported by every
/// workload. The bounds are this host's noise floor, not a wish: with one
/// binary, ten-run IQRs of the timings reached 11 % on the compute-bound
/// workloads and 13–33 % on the two-thread ones during bad spells, and
/// medians of sets taken 25 minutes apart moved 7–27 % (README, "What
/// does not hold a bound"). Tighten them on a quieter host.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("solve_ms_p50", "ms", Better::Lower, 0.25),
    e2e("tasks_per_s", "tasks/s", Better::Higher, 0.25),
    e2e("rss_mb", "MB", Better::Lower, 0.2),
];

/// Single-layer metrics, from the traced pass and the layer probes. A
/// workload that does not exercise a metric's layer reports 0 for it.
pub const PER_LAYER: &[MetricSpec] = &[
    // End-to-end figures that apply to some workloads only, taken from
    // the untraced reference segment of the traced run.
    hi("gflops", "GFLOP/s"),
    hi("jobs_per_s", "jobs/s"),
    lo("turnaround_ms_p50", "ms"),
    lo("virtual_makespan_ms.matmul", "ms"),
    lo("virtual_makespan_ms.cholesky", "ms"),
    lo("virtual_makespan_ms.pbpi", "ms"),
    lo("failed_fraction", "ratio"),
    lo("peak_rss_mb", "MB"),
    // kernels
    hi("kernels.dgemm_packed_gflops_bs256", "GFLOP/s"),
    hi("kernels.dgemm_naive_gflops_bs256", "GFLOP/s"),
    hi("kernels.sgemm_nt_sub_gflops_bs256", "GFLOP/s"),
    hi("kernels.ssyrk_gflops_bs256", "GFLOP/s"),
    hi("kernels.strsm_gflops_bs256", "GFLOP/s"),
    hi("kernels.spotrf_gflops_bs256", "GFLOP/s"),
    hi("kernels.flops_per_byte_bs256", "flop/B"),
    hi("kernels.busy_share", "ratio"),
    hi("kernels.self_share", "ratio"),
    // core
    lo("core.assign_ns_learning", "ns"),
    lo("core.assign_ns_reliable", "ns"),
    lo("core.wave_ns_per_task", "ns"),
    lo("core.task_finished_ns", "ns"),
    lo("core.learning_decisions", "count"),
    lo("core.learning_share", "ratio"),
    lo("core.offbest_kernel_share", "ratio"),
    // mem
    lo("mem.directory_acquire_ns_hit", "ns"),
    lo("mem.directory_acquire_ns_miss", "ns"),
    lo("mem.directory_acquire_ns_2threads", "ns"),
    lo("mem.arena_alloc_free_ns", "ns"),
    hi("mem.arena_perform_gbps_256k", "GB/s"),
    hi("mem.arena_perform_gbps_2m", "GB/s"),
    lo("mem.staging_plan_copy_ns", "ns"),
    lo("mem.input_bytes", "B"),
    lo("mem.output_bytes", "B"),
    lo("mem.device_bytes", "B"),
    lo("mem.staged_count", "count"),
    lo("mem.stage_s", "s"),
    hi("mem.overlap_ratio", "ratio"),
    lo("mem.link_busy_share", "ratio"),
    lo("mem.self_share", "ratio"),
    // runtime
    lo("runtime.graph_submit_ns_indep", "ns"),
    lo("runtime.graph_submit_ns_chained", "ns"),
    lo("runtime.graph_complete_ns", "ns"),
    lo("runtime.graph_prune_ns_per_task", "ns"),
    lo("runtime.build_native_ms", "ms"),
    lo("runtime.build_sim_ms", "ms"),
    lo("runtime.submit_ns_per_task", "ns"),
    lo("runtime.run_ns_per_task", "ns"),
    lo("runtime.unattributed_share", "ratio"),
    lo("runtime.self_share", "ratio"),
    // sim
    lo("sim.event_queue_ns_per_op", "ns"),
    lo("sim.transfer_schedule_ns", "ns"),
    lo("sim.noise_sample_ns", "ns"),
    // net
    hi("net.encode_ship_128k_gbps", "GB/s"),
    hi("net.decode_ship_128k_gbps", "GB/s"),
    lo("net.encode_exec_ns", "ns"),
    lo("net.decode_exec_ns", "ns"),
    lo("net.mux_heartbeat_rtt_us_p50", "us"),
    lo("net.mux_ship_128k_rtt_us_p50", "us"),
    lo("net.accept_node_ms", "ms"),
    lo("net.cold_solve_ms", "ms"),
    lo("net.single_node_solve_ms_p50", "ms"),
    hi("net.remote_task_share", "ratio"),
    lo("net.shipped_bytes", "B"),
    lo("net.self_share", "ratio"),
    // serve
    lo("serve.submit_call_ns_p50", "ns"),
    lo("serve.wait_ms_p50", "ms"),
    lo("serve.exec_ms_p50", "ms"),
    lo("serve.turnaround_ms_p99", "ms"),
    lo("serve.turnaround_ms_p999", "ms"),
    lo("serve.generator_late_ms_p99", "ms"),
    hi("serve.waves_per_s", "1/s"),
    hi("serve.tasks_per_wave", "count"),
    lo("serve.rejected_queue_full", "count"),
    lo("serve.shed", "count"),
    lo("serve.start_ms", "ms"),
    lo("serve.shutdown_ms", "ms"),
    lo("serve.self_share", "ratio"),
    // trace
    lo("trace.record_ns", "ns"),
    lo("trace.overhead_pct", "%"),
    lo("trace.events_per_solve", "count"),
    lo("trace.dropped", "count"),
    // The benchmark's own share of a traced solve / turnaround: time
    // inside no layer call — the stated residual of the span sums.
    lo("benchmark.residual_share", "ratio"),
];

pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Metric values of one run, keyed by declared name.
#[derive(Default)]
pub struct Samples {
    values: BTreeMap<&'static str, Summary>,
    /// Contention / lane metrics taken with fewer than four cores.
    unverified: Vec<&'static str>,
}

impl Samples {
    fn insert(&mut self, name: &'static str, s: Summary) {
        assert!(
            spec(name).is_some(),
            "metric {name} is not declared in metrics.rs"
        );
        assert!(s.value.is_finite(), "metric {name} is not finite");
        self.values.insert(name, s);
    }

    /// A single observation.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.insert(name, Summary::single(value));
    }

    /// The median (with quartiles and count) of `samples`; nothing when
    /// there are none.
    pub fn set_samples(&mut self, name: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            self.insert(name, summarize(samples));
        }
    }

    /// The smallest of `samples` (quartiles and count as usual).
    pub fn set_min(&mut self, name: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            self.insert(
                name,
                Summary {
                    value: min,
                    ..summarize(samples)
                },
            );
        }
    }

    pub fn mark_unverified(&mut self, name: &'static str) {
        self.unverified.push(name);
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.values.get(name).copied()
    }

    pub fn merge(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.unverified.extend(other.unverified);
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured window (tasks or jobs).
    pub attempted: u64,
    /// Failed + refused + shed + retried operations; all of them when a
    /// check fails.
    pub failed: u64,
    pub samples: Samples,
}

/// The table a pass reports: every end-to-end metric untraced, every
/// per-layer metric traced.
pub fn table(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One line per metric of the pass's table: `workload metric value unit
/// n q1 q3`. With `measured_only`, metrics the run did not take are
/// left out instead of printed as 0.
pub fn human_lines(workload: &str, trace: bool, samples: &Samples, measured_only: bool) -> String {
    let mut out = String::new();
    for m in table(trace) {
        let s = match samples.get(m.name) {
            Some(s) => s,
            None if measured_only => continue,
            None => Summary {
                value: 0.0,
                q1: 0.0,
                q3: 0.0,
                n: 0,
            },
        };
        let note = if samples.unverified.contains(&m.name) {
            " unverified<4cores"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{workload} {} {} {} {} {} {}{note}",
            m.name, s.value, m.unit, s.n, s.q1, s.q3
        );
    }
    out
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(trace: bool, outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in table(trace).iter().enumerate() {
        let value = match outcome.samples.get(m.name) {
            Some(s) => s.value,
            None if trace => 0.0,
            None => panic!("end-to-end metric {} was not measured", m.name),
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use versa_trace::json::{parse, JsonValue};

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} array"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(JsonValue::as_num),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = names(&doc, key);
            assert_eq!(listed.len(), table.len(), "{key}: count");
            for (m, (name, unit, better, bound)) in table.iter().zip(listed) {
                assert_eq!(
                    (m.name, m.unit, m.better.label()),
                    (&*name, &*unit, &*better)
                );
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(m.bound),
                    "{name}: bound"
                );
            }
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_obey_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                ok(m.name, "_.-", 64) && m.name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{}",
                m.name
            );
            assert!(ok(m.unit, "_/%.-", 16), "unit {}", m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn json_line_has_exactly_the_pass_metrics() {
        let mut samples = Samples::default();
        for m in END_TO_END {
            samples.set(m.name, 1.25);
        }
        samples.set("kernels.busy_share", 0.9);
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            samples,
        };
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let doc = parse(&json_line(trace, &outcome)).expect("valid JSON");
            let JsonValue::Obj(top) = &doc else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let JsonValue::Obj(metrics) = doc.get("metrics").unwrap() else {
                panic!()
            };
            assert_eq!(metrics.len(), table.len());
        }
        let doc = parse(&json_line(true, &outcome)).unwrap();
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("kernels.busy_share")
                .unwrap()
                .get("value")
                .unwrap()
                .as_num(),
            Some(0.9)
        );
        assert_eq!(
            m.get("net.shipped_bytes")
                .unwrap()
                .get("value")
                .unwrap()
                .as_num(),
            Some(0.0)
        );
    }
}
