//! Engine-side glue for the unified tracer (`versa-trace`).
//!
//! Both engines hold an `Option<Arc<TraceSink>>` — `None` when tracing is
//! off, so the disabled cost is one branch per would-be event and runs
//! are byte-identical to untraced ones. The helpers here cover the parts
//! common to the engines: turning scheduler decision logging on for the
//! duration of a traced run, converting the scheduler's
//! [`Decision`](versa_core::scheduler::Decision)s into trace
//! [`DecisionRecord`]s, and stamping the run's metadata.

use crate::graph::TaskState;
use crate::Runtime;
use std::sync::Arc;
use versa_core::scheduler::{Decision, DecisionPhase};
use versa_core::{WorkerId, WorkerInfo};
use versa_mem::Transfer;
use versa_trace::{
    Bid, CandidateRecord, DecisionRecord, Phase, TraceEvent, TraceMeta, TraceSink, Ts,
    WorkerSnapRecord,
};

/// Convert one scheduler decision into the trace's record form, stamped
/// with the (virtual or wall) time the engine drained it at. The bid,
/// candidate and worker vectors (and each worker's `runnable` list) move
/// into the record: the element types share a layout, so `collect`
/// reuses each vector's storage instead of copying it.
pub(crate) fn decision_record(d: Decision, time: Ts) -> DecisionRecord {
    DecisionRecord {
        time,
        task: d.task,
        template: d.template,
        bucket: d.bucket,
        job: d.job,
        phase: match d.phase {
            DecisionPhase::Learning => Phase::Learning,
            DecisionPhase::Reliable => Phase::Reliable,
            DecisionPhase::ReliableFallback => Phase::ReliableFallback,
        },
        worker: d.assignment.worker,
        version: d.assignment.version,
        bids: d
            .bids
            .into_iter()
            .map(|b| Bid {
                worker: b.worker,
                version: b.version,
                busy: b.busy,
                mean: b.mean,
                transfer: b.transfer,
                finish: b.finish,
            })
            .collect(),
        candidates: d
            .candidates
            .into_iter()
            .map(|c| CandidateRecord {
                version: c.version,
                scheduled: c.scheduled,
                count: c.count,
                mean: c.mean,
            })
            .collect(),
        workers: d
            .workers
            .into_iter()
            .map(|w| WorkerSnapRecord {
                worker: w.worker,
                pressure: w.pressure,
                busy: w.busy,
                transfer: w.transfer,
                runnable: w.runnable,
            })
            .collect(),
    }
}

/// Turn on scheduler decision logging for a traced run. Returns whether
/// *this* run turned it on (and therefore owns turning it off again); a
/// caller who enabled logging beforehand keeps it, though a traced run
/// drains the records into the trace as it goes.
pub(crate) fn begin_decision_log(rt: &mut Runtime, sink: &Option<Arc<TraceSink>>) -> bool {
    if sink.is_none() {
        return false;
    }
    match rt.scheduler.as_versioning_mut() {
        Some(v) if !v.decision_logging() => {
            v.set_decision_logging(true);
            true
        }
        _ => false,
    }
}

/// Undo [`begin_decision_log`] at the end of the run.
pub(crate) fn end_decision_log(rt: &mut Runtime, enabled_here: bool) {
    if enabled_here {
        if let Some(v) = rt.scheduler.as_versioning_mut() {
            v.set_decision_logging(false);
        }
    }
}

/// Move any decisions the scheduler logged since the last drain into the
/// trace's coordinator lane, stamped `now`.
pub(crate) fn drain_decisions(rt: &mut Runtime, sink: &Option<Arc<TraceSink>>, now: Ts) {
    let Some(sink) = sink else { return };
    let Some(v) = rt.scheduler.as_versioning_mut() else { return };
    if !v.decision_logging() {
        return;
    }
    let lane = sink.coordinator();
    for d in v.drain_decisions() {
        sink.record(lane, TraceEvent::Decision(decision_record(d, now)));
    }
}

/// Record `TaskCreated` for every not-yet-finished task, so each wave's
/// trace is self-contained (a wave re-announces tasks pooled by an
/// earlier one).
pub(crate) fn record_live_created(rt: &Runtime, sink: &Option<Arc<TraceSink>>, now: Ts) {
    let Some(sink) = sink else { return };
    let lane = sink.coordinator();
    for node in rt.graph.nodes() {
        if node.state != TaskState::Done {
            sink.record(
                lane,
                TraceEvent::TaskCreated {
                    time: now,
                    task: node.instance.id,
                    template: node.instance.template,
                },
            );
        }
    }
    // Tasks already pooled from a previous wave are ready *now*.
    for &tid in &rt.pending {
        sink.record(lane, TraceEvent::TaskReady { time: now, task: tid });
    }
}

/// Record one copy's `Transfer` span on `lane` (`None` = the
/// coordinator's). `by` names the worker the copy was staged for,
/// `None` for a copy home.
pub(crate) fn record_transfer(
    sink: &Option<Arc<TraceSink>>,
    lane: Option<usize>,
    t: &Transfer,
    (start, end): (Ts, Ts),
    by: Option<WorkerId>,
) {
    let Some(sink) = sink else { return };
    let lane = lane.unwrap_or_else(|| sink.coordinator());
    let (data, from, to, bytes) = (t.data, t.from, t.to, t.bytes);
    sink.record(lane, TraceEvent::Transfer { start, end, data, from, to, bytes, by });
}

/// The run's trace metadata (worker + template name tables).
pub(crate) fn trace_meta(rt: &Runtime, engine: &str) -> TraceMeta {
    let infos: Vec<WorkerInfo> = rt.workers.iter().map(|w| w.info).collect();
    let mut meta = TraceMeta::new(engine, &infos, &rt.templates);
    meta.lambda = rt.scheduler.as_versioning().map(|v| v.config().lambda);
    for w in &mut meta.workers {
        w.node = rt.node_of_worker(w.id);
    }
    meta
}
