//! Region-based dependence analysis and task-graph bookkeeping.
//!
//! OmpSs integrates the StarSs dependence model (paper §III): `input`,
//! `output` and `inout` clauses over address ranges order tasks. The
//! runtime computes, per submitted task, the set of earlier tasks it must
//! wait for:
//!
//! * a **read** depends on every previous writer of an overlapping range
//!   (flow dependence);
//! * a **write** additionally depends on every previous reader of an
//!   overlapping range since that write (anti dependence) and on previous
//!   writers (output dependence) — this runtime does not rename, so WAR
//!   and WAW must serialize.

use std::collections::VecDeque;
use versa_core::{Assignment, TaskId, TaskInstance, WorkerId};
use versa_mem::{DataId, IdMap, Region};

/// Lifecycle of a task inside the graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// Waiting for dependencies.
    Pending,
    /// All dependencies satisfied; waiting for (or holding) an assignment.
    Ready,
    /// Currently executing on a worker.
    Running,
    /// Finished.
    Done,
}

/// One node of the task graph.
#[derive(Debug)]
pub struct TaskNode {
    /// The task instance (template, accesses, data set size).
    pub instance: TaskInstance,
    /// Current lifecycle state.
    pub state: TaskState,
    /// Worker/version assignment, once scheduled.
    pub assignment: Option<Assignment>,
    /// Worker that executed the most recently *finished* producer of one
    /// of this task's inputs (the dependency-chain hint).
    pub chain_hint: Option<WorkerId>,
    successors: Successors,
    remaining_deps: usize,
}

/// Successor slots a node holds before its edges move to the heap.
const INLINE_SUCCESSORS: usize = 3;

/// A node's successor edges in push order — completion releases them in
/// that order. Most nodes have at most three (in the `sim_drain` shape: a
/// reader of its output, the next writer of that output, and the next
/// writer of what it read), so those need no allocation; a fourth
/// spills the list to a `Vec`.
#[derive(Debug)]
enum Successors {
    /// Ids in the leading slots; unused slots hold [`Successors::FREE`].
    Inline([TaskId; INLINE_SUCCESSORS]),
    Spilled(Vec<TaskId>),
}

impl Default for Successors {
    fn default() -> Self {
        Successors::Inline([Successors::FREE; INLINE_SUCCESSORS])
    }
}

impl Successors {
    /// Marks an unused inline slot; ids count up from 0 and never reach it.
    const FREE: TaskId = TaskId(u64::MAX);

    fn push(&mut self, id: TaskId) {
        match self {
            Successors::Inline(slots) => match slots.iter().position(|&s| s == Successors::FREE) {
                Some(i) => slots[i] = id,
                None => {
                    let mut spilled = Vec::with_capacity(2 * INLINE_SUCCESSORS);
                    spilled.extend_from_slice(slots);
                    spilled.push(id);
                    *self = Successors::Spilled(spilled);
                }
            },
            Successors::Spilled(ids) => ids.push(id),
        }
    }

    fn as_slice(&self) -> &[TaskId] {
        match self {
            Successors::Inline(slots) => {
                let n = slots.iter().position(|&s| s == Successors::FREE).unwrap_or(INLINE_SUCCESSORS);
                &slots[..n]
            }
            Successors::Spilled(ids) => ids,
        }
    }
}

#[derive(Default, Debug)]
struct RegionLog {
    /// Live writers of ranges of one allocation.
    writers: Vec<(Region, TaskId)>,
    /// Readers since those writes.
    readers: Vec<(Region, TaskId)>,
}

/// The dynamic task graph: nodes, dependence edges, and the ready frontier.
///
/// Node storage is a sliding window: a long-running multi-job service
/// recycles storage by pruning the completed prefix
/// ([`TaskGraph::prune_done_prefix`]), so steady-state admission costs
/// O(live window), not O(tasks ever submitted). Task ids keep counting
/// up — `base` maps an id to its slot in the window.
#[derive(Default, Debug)]
pub struct TaskGraph {
    nodes: VecDeque<TaskNode>,
    /// Id of the first node still stored; everything below is pruned
    /// (and was `Done` when it went).
    base: usize,
    logs: IdMap<DataId, RegionLog>,
    newly_ready: Vec<TaskId>,
    live: usize,
    /// Scratch for [`TaskGraph::submit`]'s dependence list, reused so a
    /// submission does not allocate one.
    deps: Vec<TaskId>,
}

/// The ranks [`TaskGraph::rank_live`] computed, by task id: an engine's
/// buffer, valid for the unfinished tasks of the graph it ranked.
#[derive(Default)]
pub(crate) struct Ranks {
    /// Id of the task `of[0]` ranks.
    base: usize,
    of: Vec<u32>,
}

impl Ranks {
    /// An unfinished task's rank. Pruning the graph does not move it:
    /// only finished tasks leave the window.
    pub(crate) fn get(&self, id: TaskId) -> u32 {
        self.of[id.index() - self.base]
    }
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Number of tasks ever submitted (including pruned ones — the next
    /// task id, never recycled).
    pub fn len(&self) -> usize {
        self.base + self.nodes.len()
    }

    /// Whether no tasks were ever submitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of submitted-but-unfinished tasks.
    pub(crate) fn live_tasks(&self) -> usize {
        self.live
    }

    /// Window slot of a task id.
    ///
    /// # Panics
    /// Panics when the task was already pruned from the window.
    fn idx(&self, id: TaskId) -> usize {
        id.index()
            .checked_sub(self.base)
            .unwrap_or_else(|| panic!("{id:?} was pruned from the graph (base {})", self.base))
    }

    /// Immutable node access.
    ///
    /// # Panics
    /// Panics on an unknown or pruned id.
    pub fn node(&self, id: TaskId) -> &TaskNode {
        &self.nodes[self.idx(id)]
    }

    /// Mutable node access (for engines storing assignments).
    pub(crate) fn node_mut(&mut self, id: TaskId) -> &mut TaskNode {
        let i = self.idx(id);
        &mut self.nodes[i]
    }

    /// Whether a task finished — pruned tasks count as done (only `Done`
    /// tasks are ever pruned).
    pub(crate) fn is_done(&self, id: TaskId) -> bool {
        match id.index().checked_sub(self.base) {
            None => true,
            Some(i) => self.nodes[i].state == TaskState::Done,
        }
    }

    /// Drop completed tasks from the front of the window, up to (not
    /// including) `before` — typically the earliest task id any
    /// still-active job owns. Returns how many nodes were recycled.
    /// Stops at the first unfinished task, so the window stays dense.
    pub fn prune_done_prefix(&mut self, before: TaskId) -> usize {
        let mut pruned = 0;
        while self.base < before.index()
            && self.nodes.front().is_some_and(|n| n.state == TaskState::Done)
        {
            self.nodes.pop_front();
            self.base += 1;
            pruned += 1;
        }
        pruned
    }

    /// Forget the dependence log of an allocation. Sound only once no
    /// unfinished task references it (the [`Runtime::try_free`] gate) —
    /// fresh `DataId`s are never recycled, so a freed allocation's log
    /// can never order future tasks.
    ///
    /// [`Runtime::try_free`]: crate::Runtime::try_free
    pub(crate) fn forget_data(&mut self, data: DataId) {
        self.logs.remove(&data);
    }

    /// Submit a task: compute its dependence edges from the access log
    /// and enqueue it in the ready frontier if it has none.
    ///
    /// Returns the new task's id (dense, submission order).
    pub fn submit(&mut self, instance: TaskInstance) -> TaskId {
        let id = TaskId(self.len() as u64);
        assert_eq!(instance.id, id, "task instance id must match submission order");

        // One pass: each access reads and updates its allocation's log in
        // one lookup. An earlier access of this task may already have
        // logged the task itself, which is never a dependence; and what an
        // earlier write superseded, that write already depended on.
        let mut deps = std::mem::take(&mut self.deps);
        deps.clear();
        for (region, mode) in &instance.accesses {
            let log = self.logs.entry(region.data).or_default();
            let mut depend = |(r, t): &(Region, TaskId)| {
                if *t != id && r.overlaps(region) && !deps.contains(t) {
                    deps.push(*t);
                }
            };
            log.writers.iter().for_each(&mut depend);
            if mode.writes() {
                log.readers.iter().for_each(&mut depend);
                // This write supersedes fully-covered earlier accesses;
                // keeping partially-covered ones is conservative but
                // correct (extra edges only).
                log.writers.retain(|(r, _)| !region.contains(r));
                log.readers.retain(|(r, _)| !region.contains(r));
                log.writers.push((*region, id));
            } else {
                log.readers.push((*region, id));
            }
        }
        deps.retain(|d| !self.is_done(*d));

        let remaining = deps.len();
        for d in &deps {
            let i = self.idx(*d);
            self.nodes[i].successors.push(id);
        }
        self.deps = deps;
        self.nodes.push_back(TaskNode {
            instance,
            state: if remaining == 0 { TaskState::Ready } else { TaskState::Pending },
            assignment: None,
            chain_hint: None,
            successors: Successors::default(),
            remaining_deps: remaining,
        });
        self.live += 1;
        if remaining == 0 {
            self.newly_ready.push(id);
        }
        id
    }

    /// Drain tasks that became ready since the last call (submission /
    /// completion order — deterministic).
    pub fn take_newly_ready(&mut self) -> Vec<TaskId> {
        std::mem::take(&mut self.newly_ready)
    }

    /// [`TaskGraph::take_newly_ready`] in place: the buffer keeps its
    /// storage, so the engines' per-event drain allocates nothing.
    pub(crate) fn drain_newly_ready(&mut self) -> std::vec::Drain<'_, TaskId> {
        self.newly_ready.drain(..)
    }

    /// Record that a task started executing.
    ///
    /// # Panics
    /// Panics unless the task was `Ready`.
    pub fn mark_running(&mut self, id: TaskId) {
        let node = self.node_mut(id);
        assert_eq!(node.state, TaskState::Ready, "{id:?} must be ready to run");
        node.state = TaskState::Running;
    }

    /// Record a completed execution: successors lose a dependency and the
    /// ones reaching zero enter the ready frontier with their chain hint
    /// set to `worker`.
    ///
    /// # Panics
    /// Panics unless the task was `Running`.
    pub fn complete(&mut self, id: TaskId, worker: WorkerId) {
        let i = self.idx(id);
        let node = &mut self.nodes[i];
        assert_eq!(node.state, TaskState::Running, "{id:?} must be running to complete");
        node.state = TaskState::Done;
        self.live -= 1;
        let successors = std::mem::take(&mut self.nodes[i].successors);
        for s in successors.as_slice() {
            let si = self.idx(*s);
            let succ = &mut self.nodes[si];
            succ.remaining_deps -= 1;
            succ.chain_hint = Some(worker);
            if succ.remaining_deps == 0 {
                succ.state = TaskState::Ready;
                self.newly_ready.push(*s);
            }
        }
        self.nodes[i].successors = successors;
    }

    /// Return a failed task to the ready frontier for reassignment: the
    /// reverse of [`TaskGraph::mark_running`]. The task stays live, its
    /// stale assignment is cleared, and successors are untouched (they
    /// were never released).
    ///
    /// # Panics
    /// Panics unless the task was `Running`.
    pub fn requeue(&mut self, id: TaskId) {
        let node = self.node_mut(id);
        assert_eq!(node.state, TaskState::Running, "{id:?} must be running to requeue");
        node.state = TaskState::Ready;
        node.assignment = None;
        self.newly_ready.push(id);
    }

    /// Rank every unfinished task by its bottom level with unit weights:
    /// the number of tasks on the longest path from it to a sink of the
    /// submitted graph, so a sink ranks 1. An edge always points to a
    /// higher id, and an unfinished task's successors are unfinished
    /// too, so one pass from the back of the window down to the oldest
    /// unfinished task ranks each task after all of its successors. No
    /// cost model feeds the rank: it is a function of the graph alone.
    pub(crate) fn rank_live(&self, ranks: &mut Ranks) {
        let (mut lo, mut left) = (self.nodes.len(), self.live);
        while left > 0 {
            lo -= 1;
            left -= usize::from(self.nodes[lo].state != TaskState::Done);
        }
        ranks.base = self.base + lo;
        ranks.of.clear();
        ranks.of.resize(self.nodes.len() - lo, 0);
        for i in (lo..self.nodes.len()).rev() {
            let node = &self.nodes[i];
            if node.state != TaskState::Done {
                let below = node.successors.as_slice().iter().map(|s| ranks.get(*s));
                ranks.of[i - lo] = 1 + below.max().unwrap_or(0);
            }
        }
    }

    /// Whether every submitted task has finished.
    pub fn all_done(&self) -> bool {
        self.live == 0
    }

    /// Whether any unfinished task (pending, ready, or running) has an
    /// access clause over `data`: `live_users(data) > 0`, answered from
    /// the allocation's dependence log instead of a scan of the window.
    /// The gate behind `Runtime::free` and `Runtime::try_free`.
    /// The log can miss an unfinished accessor only when a later write
    /// covering its region superseded it — and that writer depends on
    /// it, so it is unfinished too; following the chain always ends at
    /// an unfinished task that is still logged.
    pub fn has_live_accessor(&self, data: DataId) -> bool {
        self.live > 0
            && self.logs.get(&data).is_some_and(|log| {
                log.writers.iter().chain(&log.readers).any(|(_, t)| !self.is_done(*t))
            })
    }

    /// Whether any unfinished task writes `data`, over all of it or a
    /// part: once no one does, the datum's value is final for the run.
    /// The native engine's write-behind gate.
    /// Writers leave the log only when a later write covers their
    /// region, and that writer depends on them, so it is unfinished too;
    /// readers never remove a writer, and a partial-range writer stays
    /// logged beside the writes that overlap it. Following the chain
    /// always ends at an unfinished writer that is still logged.
    pub(crate) fn has_live_writer(&self, data: DataId) -> bool {
        self.live > 0
            && self
                .logs
                .get(&data)
                .is_some_and(|log| log.writers.iter().any(|(_, t)| !self.is_done(*t)))
    }

    /// Number of unfinished tasks (pending, ready, or running) with an
    /// access clause over `data`. A scan of the whole window: gate on
    /// [`TaskGraph::has_live_accessor`] and count only to report.
    pub fn live_users(&self, data: DataId) -> usize {
        if self.live == 0 {
            return 0;
        }
        self.nodes
            .iter()
            .filter(|n| {
                n.state != TaskState::Done
                    && n.instance.accesses.iter().any(|(r, _)| r.data == data)
            })
            .count()
    }

    /// Iterate over all nodes (for reports).
    pub(crate) fn nodes(&self) -> impl Iterator<Item = &TaskNode> {
        self.nodes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use versa_core::TemplateId;
    use versa_mem::AccessMode;

    fn instance(id: u64, accesses: Vec<(Region, AccessMode)>) -> TaskInstance {
        TaskInstance { id: TaskId(id), template: TemplateId(0), accesses, data_set_size: 64, job: None }
    }

    fn whole(d: u32) -> Region {
        Region::whole(DataId(d), 64)
    }

    #[test]
    fn independent_tasks_are_immediately_ready() {
        let mut g = TaskGraph::new();
        let a = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        let b = g.submit(instance(1, vec![(whole(1), AccessMode::Out)]));
        assert_eq!(g.take_newly_ready(), vec![a, b]);
        assert_eq!(g.live_tasks(), 2);
    }

    #[test]
    fn flow_dependence_read_after_write() {
        let mut g = TaskGraph::new();
        let w = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        let r = g.submit(instance(1, vec![(whole(0), AccessMode::In)]));
        assert_eq!(g.take_newly_ready(), vec![w]);
        assert_eq!(g.node(r).remaining_deps, 1);
        g.mark_running(w);
        g.complete(w, WorkerId(3));
        assert_eq!(g.take_newly_ready(), vec![r]);
        assert_eq!(g.node(r).chain_hint, Some(WorkerId(3)));
    }

    #[test]
    fn concurrent_readers_do_not_depend_on_each_other() {
        let mut g = TaskGraph::new();
        let w = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        let r1 = g.submit(instance(1, vec![(whole(0), AccessMode::In)]));
        let r2 = g.submit(instance(2, vec![(whole(0), AccessMode::In)]));
        g.take_newly_ready();
        g.mark_running(w);
        g.complete(w, WorkerId(0));
        // Both readers become ready together.
        assert_eq!(g.take_newly_ready(), vec![r1, r2]);
    }

    #[test]
    fn anti_dependence_write_after_read() {
        let mut g = TaskGraph::new();
        let w0 = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        let r = g.submit(instance(1, vec![(whole(0), AccessMode::In)]));
        let w1 = g.submit(instance(2, vec![(whole(0), AccessMode::Out)]));
        // w1 must wait for the reader (and transitively the first writer).
        assert!(g.node(w1).remaining_deps >= 1);
        g.take_newly_ready();
        g.mark_running(w0);
        g.complete(w0, WorkerId(0));
        assert_eq!(g.take_newly_ready(), vec![r]);
        g.mark_running(r);
        g.complete(r, WorkerId(1));
        assert_eq!(g.take_newly_ready(), vec![w1]);
    }

    #[test]
    fn output_dependence_write_after_write() {
        let mut g = TaskGraph::new();
        let w0 = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        let w1 = g.submit(instance(1, vec![(whole(0), AccessMode::Out)]));
        assert_eq!(g.node(w1).remaining_deps, 1);
        g.take_newly_ready();
        g.mark_running(w0);
        g.complete(w0, WorkerId(0));
        assert_eq!(g.take_newly_ready(), vec![w1]);
    }

    #[test]
    fn inout_chain_serializes() {
        // The matmul pattern: C updated by a chain of inout tasks.
        let mut g = TaskGraph::new();
        let t0 = g.submit(instance(0, vec![(whole(0), AccessMode::InOut)]));
        let t1 = g.submit(instance(1, vec![(whole(0), AccessMode::InOut)]));
        let t2 = g.submit(instance(2, vec![(whole(0), AccessMode::InOut)]));
        assert_eq!(g.take_newly_ready(), vec![t0]);
        g.mark_running(t0);
        g.complete(t0, WorkerId(0));
        assert_eq!(g.take_newly_ready(), vec![t1]);
        g.mark_running(t1);
        g.complete(t1, WorkerId(0));
        assert_eq!(g.take_newly_ready(), vec![t2]);
    }

    #[test]
    fn disjoint_ranges_do_not_conflict() {
        let mut g = TaskGraph::new();
        let a = g.submit(instance(0, vec![(Region::range(DataId(0), 0, 32), AccessMode::Out)]));
        let b = g.submit(instance(1, vec![(Region::range(DataId(0), 32, 32), AccessMode::Out)]));
        assert_eq!(g.take_newly_ready(), vec![a, b]);
    }

    #[test]
    fn overlapping_ranges_conflict() {
        let mut g = TaskGraph::new();
        let _a = g.submit(instance(0, vec![(Region::range(DataId(0), 0, 48), AccessMode::Out)]));
        let b = g.submit(instance(1, vec![(Region::range(DataId(0), 32, 32), AccessMode::In)]));
        assert_eq!(g.node(b).remaining_deps, 1);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        // A task reading two regions produced by the same writer gets one
        // dependency, not two.
        let mut g = TaskGraph::new();
        let w = g.submit(instance(
            0,
            vec![(whole(0), AccessMode::Out), (whole(1), AccessMode::Out)],
        ));
        let r = g.submit(instance(
            1,
            vec![(whole(0), AccessMode::In), (whole(1), AccessMode::In)],
        ));
        assert_eq!(g.node(r).remaining_deps, 1);
        assert_eq!(g.node(w).successors.as_slice(), [r]);
    }

    #[test]
    fn dependencies_on_done_tasks_are_skipped() {
        let mut g = TaskGraph::new();
        let w = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        g.take_newly_ready();
        g.mark_running(w);
        g.complete(w, WorkerId(0));
        // Submitted after the writer finished: ready immediately.
        let r = g.submit(instance(1, vec![(whole(0), AccessMode::In)]));
        assert_eq!(g.take_newly_ready(), vec![r]);
    }

    #[test]
    fn full_overwrite_prunes_the_log() {
        let mut g = TaskGraph::new();
        for i in 0..100 {
            g.submit(instance(i, vec![(whole(0), AccessMode::Out)]));
        }
        // The log keeps only the latest whole-region writer.
        assert_eq!(g.logs[&DataId(0)].writers.len(), 1);
    }

    #[test]
    fn all_done_tracks_lifecycle() {
        let mut g = TaskGraph::new();
        assert!(g.all_done(), "empty graph is trivially done");
        let a = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        assert!(!g.all_done());
        g.take_newly_ready();
        g.mark_running(a);
        g.complete(a, WorkerId(0));
        assert!(g.all_done());
    }

    #[test]
    fn requeue_returns_running_task_to_frontier() {
        let mut g = TaskGraph::new();
        let a = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        let b = g.submit(instance(1, vec![(whole(0), AccessMode::In)]));
        g.take_newly_ready();
        g.mark_running(a);
        g.requeue(a);
        assert_eq!(g.node(a).state, TaskState::Ready);
        assert!(g.node(a).assignment.is_none());
        assert_eq!(g.take_newly_ready(), vec![a]);
        assert_eq!(g.live_tasks(), 2, "a failed task is still live");
        // Successors were never released.
        assert_eq!(g.node(b).remaining_deps, 1);
        // The retry can run and complete normally.
        g.mark_running(a);
        g.complete(a, WorkerId(0));
        assert_eq!(g.take_newly_ready(), vec![b]);
    }

    #[test]
    fn pruned_prefix_recycles_storage_and_keeps_ids_counting() {
        let mut g = TaskGraph::new();
        for i in 0..10 {
            g.submit(instance(i, vec![(whole(i as u32), AccessMode::Out)]));
        }
        for i in 0..6 {
            g.mark_running(TaskId(i));
            g.complete(TaskId(i), WorkerId(0));
        }
        // Prune only below the requested bound, even though more is done.
        assert_eq!(g.prune_done_prefix(TaskId(4)), 4);
        assert_eq!(g.len(), 10, "ids keep counting past pruned tasks");
        assert!(g.is_done(TaskId(0)), "pruned tasks count as done");
        assert!(g.is_done(TaskId(5)));
        assert!(!g.is_done(TaskId(7)));
        // The rest of the done prefix goes once the bound allows it.
        assert_eq!(g.prune_done_prefix(TaskId(10)), 2);
        // New submissions continue in order and see the right deps.
        let t = g.submit(instance(10, vec![(whole(7), AccessMode::In)]));
        assert_eq!(t, TaskId(10));
        assert_eq!(g.node(t).remaining_deps, 1, "depends on live writer 7");
    }

    #[test]
    fn pruning_stops_at_the_first_live_task() {
        let mut g = TaskGraph::new();
        for i in 0..4 {
            g.submit(instance(i, vec![(whole(i as u32), AccessMode::Out)]));
        }
        g.mark_running(TaskId(0));
        g.complete(TaskId(0), WorkerId(0));
        // Task 1 is still ready (not done): nothing past it can go.
        g.mark_running(TaskId(2));
        g.complete(TaskId(2), WorkerId(0));
        assert_eq!(g.prune_done_prefix(TaskId(4)), 1, "only the dense done prefix");
        assert_eq!(g.live_tasks(), 2);
        // Task 2's node is still addressable behind the live task 1.
        assert_eq!(g.node(TaskId(2)).state, TaskState::Done);
    }

    #[test]
    #[should_panic(expected = "was pruned")]
    fn pruned_nodes_are_not_addressable() {
        let mut g = TaskGraph::new();
        g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        g.mark_running(TaskId(0));
        g.complete(TaskId(0), WorkerId(0));
        g.prune_done_prefix(TaskId(1));
        let _ = g.node(TaskId(0));
    }

    #[test]
    fn deps_on_pruned_writers_are_skipped() {
        let mut g = TaskGraph::new();
        g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        g.take_newly_ready();
        g.mark_running(TaskId(0));
        g.complete(TaskId(0), WorkerId(0));
        g.prune_done_prefix(TaskId(1));
        // The log still names task 0 as writer of data 0; the dependence
        // is dropped because pruned tasks are done by construction.
        let r = g.submit(instance(1, vec![(whole(0), AccessMode::In)]));
        assert_eq!(g.node(r).remaining_deps, 0);
        assert_eq!(g.take_newly_ready(), vec![r]);
    }

    #[test]
    fn forget_data_drops_the_log() {
        let mut g = TaskGraph::new();
        g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        g.mark_running(TaskId(0));
        g.complete(TaskId(0), WorkerId(0));
        assert!(g.logs.contains_key(&DataId(0)));
        g.forget_data(DataId(0));
        assert!(!g.logs.contains_key(&DataId(0)));
    }

    /// Run `id` to completion (it must be ready).
    fn finish(g: &mut TaskGraph, id: TaskId) {
        g.mark_running(id);
        g.complete(id, WorkerId(0));
    }

    #[test]
    fn finished_writer_with_pending_readers_has_no_live_writer() {
        let mut g = TaskGraph::new();
        let w = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        g.submit(instance(1, vec![(whole(0), AccessMode::In)]));
        g.submit(instance(2, vec![(whole(0), AccessMode::In)]));
        assert!(g.has_live_writer(DataId(0)));
        g.take_newly_ready();
        finish(&mut g, w);
        assert!(!g.has_live_writer(DataId(0)), "the value is final");
        assert!(g.has_live_accessor(DataId(0)), "the readers still use it");
    }

    #[test]
    fn unfinished_writer_that_superseded_a_finished_one_is_live() {
        let mut g = TaskGraph::new();
        let first = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        let second = g.submit(instance(1, vec![(whole(0), AccessMode::InOut)]));
        assert_eq!(g.logs[&DataId(0)].writers, [(whole(0), second)], "the first left the log");
        g.take_newly_ready();
        finish(&mut g, first);
        assert!(g.has_live_writer(DataId(0)));
        finish(&mut g, second);
        assert!(!g.has_live_writer(DataId(0)));
    }

    #[test]
    fn partial_range_writers_are_seen() {
        let mut g = TaskGraph::new();
        let half = |offset| Region { data: DataId(0), offset, len: 32 };
        let lo = g.submit(instance(0, vec![(half(0), AccessMode::Out)]));
        let hi = g.submit(instance(1, vec![(half(32), AccessMode::InOut)]));
        g.submit(instance(2, vec![(whole(0), AccessMode::In)]));
        assert_eq!(g.take_newly_ready(), vec![lo, hi]);
        finish(&mut g, hi);
        assert!(g.has_live_writer(DataId(0)), "the low half is still being written");
        finish(&mut g, lo);
        assert!(!g.has_live_writer(DataId(0)));
        assert!(g.has_live_accessor(DataId(0)));
    }

    #[test]
    fn no_live_writer_once_all_done_or_unlogged() {
        let mut g = TaskGraph::new();
        assert!(!g.has_live_writer(DataId(0)), "empty log");
        let w = g.submit(instance(0, vec![(whole(0), AccessMode::InOut)]));
        assert!(!g.has_live_writer(DataId(1)), "another allocation's log");
        g.take_newly_ready();
        finish(&mut g, w);
        assert!(g.all_done());
        assert!(!g.has_live_writer(DataId(0)));
    }

    #[test]
    fn naming_one_allocation_twice_adds_no_self_edge() {
        let mut g = TaskGraph::new();
        let w = g.submit(instance(0, vec![(whole(0), AccessMode::Out), (whole(0), AccessMode::In)]));
        let rw = g.submit(instance(1, vec![(whole(0), AccessMode::In), (whole(0), AccessMode::InOut)]));
        assert_eq!(g.take_newly_ready(), vec![w]);
        assert_eq!(g.node(rw).remaining_deps, 1);
        assert_eq!(g.node(w).successors.as_slice(), [rw]);
    }

    #[test]
    fn successors_spill_past_the_inline_slots_in_push_order() {
        let mut g = TaskGraph::new();
        let w = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        let readers: Vec<TaskId> =
            (1..=5).map(|i| g.submit(instance(i, vec![(whole(0), AccessMode::In)]))).collect();
        assert_eq!(g.node(w).successors.as_slice(), readers);
        g.take_newly_ready();
        g.mark_running(w);
        g.complete(w, WorkerId(0));
        assert_eq!(g.take_newly_ready(), readers);
    }

    /// The two-pass dependence analysis — gather every access's
    /// dependences, then update every log — as a reference for the
    /// graph's one-pass `submit`.
    #[derive(Default)]
    struct TwoPass {
        logs: IdMap<DataId, RegionLog>,
        done: Vec<bool>,
        successors: Vec<Vec<TaskId>>,
        remaining: Vec<usize>,
        ready: Vec<TaskId>,
    }

    impl TwoPass {
        fn submit(&mut self, accesses: &[(Region, AccessMode)]) {
            let id = TaskId(self.done.len() as u64);
            let mut deps = Vec::new();
            for (region, mode) in accesses {
                let log = self.logs.entry(region.data).or_default();
                let readers = if mode.writes() { &log.readers[..] } else { &[] };
                for (r, t) in log.writers.iter().chain(readers) {
                    if r.overlaps(region) && !deps.contains(t) {
                        deps.push(*t);
                    }
                }
            }
            deps.retain(|d| !self.done[d.index()]);
            for (region, mode) in accesses {
                let log = self.logs.entry(region.data).or_default();
                if mode.writes() {
                    log.writers.retain(|(r, _)| !region.contains(r));
                    log.readers.retain(|(r, _)| !region.contains(r));
                    log.writers.push((*region, id));
                } else {
                    log.readers.push((*region, id));
                }
            }
            for d in &deps {
                self.successors[d.index()].push(id);
            }
            self.done.push(false);
            self.successors.push(Vec::new());
            self.remaining.push(deps.len());
            if deps.is_empty() {
                self.ready.push(id);
            }
        }

        fn complete(&mut self, id: TaskId) {
            self.done[id.index()] = true;
            for &s in &self.successors[id.index()] {
                self.remaining[s.index()] -= 1;
                if self.remaining[s.index()] == 0 {
                    self.ready.push(s);
                }
            }
        }
    }

    #[derive(Clone, Debug)]
    enum Step {
        Submit(Vec<(Region, AccessMode)>),
        /// Finish the ready task at this index (modulo the pool) if any.
        Finish(usize),
    }

    fn step() -> impl proptest::Strategy<Value = Step> {
        use proptest::prelude::*;
        // Three allocations of 64 bytes: whole ones and 16-byte-aligned
        // partial ranges (zero-length ones included), so accesses often
        // name one allocation twice and overlap partially.
        let range = (0..3u32, 0..4u64, 0..5u64)
            .prop_map(|(d, at, len)| Region::range(DataId(d), 16 * at, 16 * len.min(4 - at)));
        let mode = prop_oneof![Just(AccessMode::In), Just(AccessMode::Out), Just(AccessMode::InOut)];
        let access = (prop_oneof![(0..3u32).prop_map(whole), range], mode);
        prop_oneof![
            proptest::collection::vec(access, 1..5).prop_map(Step::Submit),
            (0..64usize).prop_map(Step::Finish),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256 })]
        #[test]
        fn one_pass_submit_matches_the_two_pass_analysis(
            steps in proptest::collection::vec(step(), 1..48),
        ) {
            let (mut g, mut reference) = (TaskGraph::new(), TwoPass::default());
            let mut pool: Vec<TaskId> = Vec::new();
            for step in steps {
                match step {
                    Step::Submit(accesses) => {
                        reference.submit(&accesses);
                        g.submit(instance(g.len() as u64, accesses));
                    }
                    Step::Finish(_) if pool.is_empty() => {}
                    Step::Finish(k) => {
                        let t = pool.remove(k % pool.len());
                        g.mark_running(t);
                        g.complete(t, WorkerId(0));
                        reference.complete(t);
                    }
                }
                let ready = g.take_newly_ready();
                proptest::prop_assert_eq!(&ready, &std::mem::take(&mut reference.ready));
                pool.extend(ready);
                for (i, node) in g.nodes().enumerate() {
                    proptest::prop_assert_eq!(node.remaining_deps, reference.remaining[i]);
                    proptest::prop_assert_eq!(node.successors.as_slice(), &reference.successors[i][..]);
                }
            }
        }
    }

    /// The ranks of the unfinished tasks, in id order.
    fn live_ranks(g: &TaskGraph) -> Vec<(TaskId, u32)> {
        let mut ranks = Ranks::default();
        g.rank_live(&mut ranks);
        let live = g.nodes().filter(|n| n.state != TaskState::Done);
        live.map(|n| (n.instance.id, ranks.get(n.instance.id))).collect()
    }

    #[test]
    fn rank_counts_the_tasks_on_the_longest_path_to_a_sink() {
        let mut g = TaskGraph::new();
        // 0 → 1 → 2 is the long path; 3 reads what 0 wrote and ends
        // there; 4 is on its own.
        g.submit(instance(0, vec![(whole(0), AccessMode::InOut)]));
        g.submit(instance(1, vec![(whole(0), AccessMode::In), (whole(1), AccessMode::Out)]));
        g.submit(instance(2, vec![(whole(1), AccessMode::InOut)]));
        g.submit(instance(3, vec![(whole(0), AccessMode::In), (whole(2), AccessMode::Out)]));
        g.submit(instance(4, vec![(whole(3), AccessMode::Out)]));
        let ranks: Vec<u32> = live_ranks(&g).into_iter().map(|(_, r)| r).collect();
        assert_eq!(ranks, [3, 2, 1, 1, 1]);
        // Finishing the head leaves the rest of the path ranked as before.
        g.take_newly_ready();
        finish(&mut g, TaskId(0));
        assert_eq!(live_ranks(&g), [(TaskId(1), 2), (TaskId(2), 1), (TaskId(3), 1), (TaskId(4), 1)]);
    }

    #[test]
    fn ranks_stay_right_after_the_window_moves() {
        let mut g = TaskGraph::new();
        for i in 0..4 {
            g.submit(instance(i, vec![(whole(0), AccessMode::InOut)]));
        }
        g.take_newly_ready();
        for i in 0..2 {
            finish(&mut g, TaskId(i));
            g.take_newly_ready();
        }
        let before = live_ranks(&g);
        assert_eq!(before, [(TaskId(2), 2), (TaskId(3), 1)]);
        assert_eq!(g.prune_done_prefix(TaskId(4)), 2);
        assert_eq!(live_ranks(&g), before, "pruning moves no rank");
        // Two more links of the chain, and a reader hanging off its end.
        g.submit(instance(4, vec![(whole(0), AccessMode::InOut)]));
        g.submit(instance(5, vec![(whole(0), AccessMode::InOut)]));
        g.submit(instance(6, vec![(whole(0), AccessMode::In)]));
        let ranks = live_ranks(&g);
        assert_eq!(ranks, [(TaskId(2), 5), (TaskId(3), 4), (TaskId(4), 3), (TaskId(5), 2), (TaskId(6), 1)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256 })]
        #[test]
        fn every_edge_steps_down_one_rank_or_more(
            steps in proptest::collection::vec((step(), 0..10u32), 1..48),
        ) {
            let (mut g, mut reference) = (TaskGraph::new(), TwoPass::default());
            let mut pool: Vec<TaskId> = Vec::new();
            for (step, dice) in steps {
                match step {
                    Step::Submit(accesses) => {
                        reference.submit(&accesses);
                        g.submit(instance(g.len() as u64, accesses));
                    }
                    Step::Finish(_) if pool.is_empty() => {}
                    Step::Finish(k) => {
                        let t = pool.remove(k % pool.len());
                        finish(&mut g, t);
                        reference.complete(t);
                    }
                }
                pool.extend(g.take_newly_ready());
                reference.ready.clear();
                let before = live_ranks(&g);
                if dice < 3 {
                    g.prune_done_prefix(TaskId(g.len() as u64));
                    proptest::prop_assert_eq!(&live_ranks(&g), &before, "pruning moved a rank");
                }
                let ranks: IdMap<TaskId, u32> = before.into_iter().collect();
                let live = (0..reference.done.len()).filter(|&i| !reference.done[i]);
                proptest::prop_assert_eq!(ranks.len(), live.clone().count());
                for t in live.map(|i| TaskId(i as u64)) {
                    let succ = &reference.successors[t.index()];
                    if succ.is_empty() {
                        proptest::prop_assert_eq!(ranks[&t], 1, "a sink ranks 1");
                    }
                    for s in succ {
                        proptest::prop_assert!(ranks[&t] > ranks[s], "{:?} → {:?}", t, s);
                    }
                    let below = succ.iter().map(|s| ranks[s]).max().unwrap_or(0);
                    proptest::prop_assert_eq!(ranks[&t], 1 + below, "the longest path through {:?}", t);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be ready")]
    fn cannot_run_pending_task() {
        let mut g = TaskGraph::new();
        let _w = g.submit(instance(0, vec![(whole(0), AccessMode::Out)]));
        let r = g.submit(instance(1, vec![(whole(0), AccessMode::In)]));
        g.mark_running(r);
    }
}
