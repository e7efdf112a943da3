//! Property-based tests on the runtime's core invariants.

use proptest::prelude::*;
use versa::core::{DeviceKind, SchedulerKind, TaskId, VersionId, WorkerId};
use versa::mem::{AccessMode, DataId, Directory, MemSpace, Region};
use versa::runtime::{NativeConfig, Runtime, RuntimeConfig, TaskGraph};
use versa::sim::EventQueue;
use versa::trace::Ts;

// ---------------------------------------------------------------------
// Serializability: any parallel schedule produces the serial result
// ---------------------------------------------------------------------

/// A randomly generated task: which buffers it reads, which it updates,
/// and a small integer seasoning its arithmetic.
#[derive(Clone, Debug)]
struct GenTask {
    reads: Vec<usize>,
    writes: Vec<usize>,
    salt: u64,
}

fn gen_task(buffers: usize) -> impl Strategy<Value = GenTask> {
    let idx = 0..buffers;
    (
        proptest::collection::vec(idx.clone(), 0..3),
        proptest::collection::vec(idx, 1..3),
        0u64..100,
    )
        .prop_map(|(reads, mut writes, salt)| {
            writes.sort_unstable();
            writes.dedup();
            GenTask { reads, writes, salt }
        })
}

/// Deterministic task semantics used both by the runtime kernels and the
/// serial reference: every written buffer is updated from its own
/// contents, the sum of the read buffers' first elements, and the salt.
fn apply(task: &GenTask, buffers: &mut [Vec<f64>]) {
    let read_sum: f64 = task.reads.iter().map(|&r| buffers[r][0]).sum();
    for &w in &task.writes {
        let buf = &mut buffers[w];
        for (i, v) in buf.iter_mut().enumerate() {
            *v = *v * 0.5 + read_sum + task.salt as f64 + i as f64;
        }
    }
}

fn run_parallel(tasks: &[GenTask], buffers: usize, len: usize, sched: SchedulerKind) -> Vec<Vec<f64>> {
    let mut rt = Runtime::native(RuntimeConfig::with_scheduler(sched), NativeConfig::new(2, 2));
    let tpl = rt
        .template("gen")
        .main("gen_any", &[DeviceKind::Smp, DeviceKind::Cuda])
        .register();
    let handles: Vec<DataId> = (0..buffers)
        .map(|b| rt.alloc_from_f64(&vec![b as f64 + 1.0; len]))
        .collect();
    // One kernel serves every instance. Each task passes its index into
    // the shared descriptor table through a dedicated 1-element read-only
    // buffer (argument 0) — the runtime's way of carrying immediate
    // arguments. Arguments then follow in clause order: reads, writes.
    let task_table = std::sync::Arc::new(tasks.to_vec());
    let table = std::sync::Arc::clone(&task_table);
    rt.bind_native(tpl, VersionId(0), move |ctx| {
        let idx = ctx.f64(0)[0] as usize;
        let task = &table[idx];
        let read_sum: f64 = (0..task.reads.len()).map(|i| ctx.f64(1 + i)[0]).sum();
        let first_write = 1 + task.reads.len();
        for (wi, _) in task.writes.iter().enumerate() {
            let buf = ctx.f64_mut(first_write + wi);
            for (i, v) in buf.iter_mut().enumerate() {
                *v = *v * 0.5 + read_sum + task.salt as f64 + i as f64;
            }
        }
    });
    // Descriptor cells: one tiny read-only buffer per task carrying its
    // index (how a real runtime passes immediate arguments).
    for (idx, task) in task_table.iter().enumerate() {
        let desc = rt.alloc_from_f64(&[idx as f64]);
        let mut builder = rt.task(tpl).read(desc);
        for &r in &task.reads {
            builder = builder.read(handles[r]);
        }
        for &w in &task.writes {
            builder = builder.read_write(handles[w]);
        }
        builder.submit();
    }
    rt.run().expect("run failed");
    handles.iter().map(|&h| rt.read_f64(h)).collect()
}

fn run_serial(tasks: &[GenTask], buffers: usize, len: usize) -> Vec<Vec<f64>> {
    let mut bufs: Vec<Vec<f64>> = (0..buffers).map(|b| vec![b as f64 + 1.0; len]).collect();
    for t in tasks {
        apply(t, &mut bufs);
    }
    bufs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn parallel_execution_equals_serial_elaboration(
        tasks in proptest::collection::vec(gen_task(4), 1..14),
        sched_pick in 0usize..4,
    ) {
        let sched = match sched_pick {
            0 => SchedulerKind::DepAware,
            1 => SchedulerKind::Affinity,
            2 => SchedulerKind::BreadthFirst,
            _ => SchedulerKind::versioning(),
        };
        let expect = run_serial(&tasks, 4, 6);
        let got = run_parallel(&tasks, 4, 6, sched);
        for (e, g) in expect.iter().zip(&got) {
            for (a, b) in e.iter().zip(g) {
                prop_assert!((a - b).abs() < 1e-9, "serializability violated: {a} vs {b}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coherence directory invariants
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum DirOp {
    Acquire { space: u16, mode: u8 },
    Flush,
}

fn dir_op() -> impl Strategy<Value = DirOp> {
    prop_oneof![
        (0u16..4, 0u8..3).prop_map(|(space, mode)| DirOp::Acquire { space, mode }),
        Just(DirOp::Flush),
    ]
}

proptest! {
    #[test]
    fn directory_never_loses_the_only_valid_copy(ops in proptest::collection::vec(dir_op(), 1..60)) {
        let data = DataId(0);
        let dir = Directory::new();
        dir.register(data, 128, MemSpace::HOST);
        // Model: the set of spaces holding the latest value.
        let mut model: Vec<MemSpace> = vec![MemSpace::HOST];
        for op in ops {
            match op {
                DirOp::Acquire { space, mode } => {
                    let space = if space == 0 { MemSpace::HOST } else { MemSpace::device(space - 1) };
                    let mode = match mode { 0 => AccessMode::In, 1 => AccessMode::Out, _ => AccessMode::InOut };
                    let transfer = dir.acquire(data, space, mode);
                    // Any copy-in must source a space that held the value.
                    if let Some(t) = transfer {
                        prop_assert!(model.contains(&t.from), "source {:?} was stale", t.from);
                        prop_assert_eq!(t.to, space);
                        prop_assert_eq!(t.bytes, 128);
                    }
                    if mode.writes() {
                        model = vec![space];
                    } else if !model.contains(&space) {
                        model.push(space);
                    }
                }
                DirOp::Flush => {
                    let transfer = dir.flush_to_host(data);
                    if let Some(t) = transfer {
                        prop_assert!(model.contains(&t.from));
                        prop_assert_eq!(t.to, MemSpace::HOST);
                    }
                    if !model.contains(&MemSpace::HOST) {
                        model.push(MemSpace::HOST);
                    }
                }
            }
            // Directory and model agree on validity everywhere.
            let spaces = [MemSpace::HOST, MemSpace::device(0), MemSpace::device(1), MemSpace::device(2)];
            for s in spaces {
                prop_assert_eq!(dir.valid_in(data, s), model.contains(&s), "space {:?} mismatch", s);
            }
            prop_assert!(!model.is_empty(), "value vanished");
        }
    }
}

// ---------------------------------------------------------------------
// Region algebra
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn region_overlap_matches_bytewise_definition(
        a_off in 0u64..64, a_len in 0u64..32,
        b_off in 0u64..64, b_len in 0u64..32,
    ) {
        let a = Region::range(DataId(0), a_off, a_len);
        let b = Region::range(DataId(0), b_off, b_len);
        let brute = (a_off..a_off + a_len).any(|byte| (b_off..b_off + b_len).contains(&byte));
        prop_assert_eq!(a.overlaps(&b), brute);
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a), "overlap must be symmetric");
    }

    #[test]
    fn containment_implies_overlap_for_nonempty(
        a_off in 0u64..64, a_len in 1u64..32,
        b_off in 0u64..64, b_len in 1u64..32,
    ) {
        let a = Region::range(DataId(0), a_off, a_len);
        let b = Region::range(DataId(0), b_off, b_len);
        if a.contains(&b) {
            prop_assert!(a.overlaps(&b));
        }
    }
}

// ---------------------------------------------------------------------
// Profile means
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn arithmetic_mean_matches_batch_recomputation(samples in proptest::collection::vec(1u64..1_000_000, 1..50)) {
        use versa::core::{MeanPolicy, ProfileStore, SizeBucketPolicy, TemplateId};
        let mut store = ProfileStore::new(SizeBucketPolicy::Exact, MeanPolicy::Arithmetic, 3);
        for &s in &samples {
            store.record(TemplateId(0), 1, 99, VersionId(0), std::time::Duration::from_nanos(s));
        }
        let mean = store.mean(TemplateId(0), 99, VersionId(0)).unwrap().as_nanos() as f64;
        let expect = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        prop_assert!((mean - expect).abs() <= expect * 1e-9 + 2.0, "mean {mean} vs {expect}");
        prop_assert_eq!(store.count(TemplateId(0), 99, VersionId(0)), samples.len() as u64);
    }

    #[test]
    fn bucket_keys_are_monotone_in_size(
        sizes in proptest::collection::vec(0u64..1_000_000_000, 2..40),
        tol in 0.01f64..2.0,
    ) {
        use versa::core::SizeBucketPolicy;
        let policy = SizeBucketPolicy::RelativeRange { tolerance: tol };
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let keys: Vec<_> = sorted.iter().map(|&s| policy.bucket(s)).collect();
        for w in keys.windows(2) {
            prop_assert!(w[0] <= w[1], "bucket keys must be monotone");
        }
        // Exact policy is injective.
        let exact = SizeBucketPolicy::Exact;
        for w in sorted.windows(2) {
            if w[0] != w[1] {
                prop_assert!(exact.bucket(w[0]) != exact.bucket(w[1]));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hints file: save/load round trip is byte-stable
// ---------------------------------------------------------------------

mod hints_roundtrip {
    use super::*;
    use std::time::Duration;
    use versa::core::profile::{apply_hints, parse_hints, render_hints};
    use versa::core::{BucketKey, MeanPolicy, ProfileStore, SizeBucketPolicy, TemplateRegistry};

    /// Version counts per template in [`registry`], indexed by slot.
    pub const TEMPLATES: [(&str, usize); 2] = [("alpha_task", 3), ("beta_task", 2)];

    pub fn registry() -> TemplateRegistry {
        let mut reg = TemplateRegistry::new();
        reg.template("alpha_task")
            .main("alpha_cuda", &[DeviceKind::Cuda])
            .version("alpha_blocked", &[DeviceKind::Smp])
            .version("alpha_naive", &[DeviceKind::Smp])
            .register();
        reg.template("beta_task")
            .main("beta_cuda", &[DeviceKind::Cuda])
            .version("beta_smp", &[DeviceKind::Smp])
            .register();
        reg
    }

    /// (template slot, version pick, bucket, mean_ns, count) — version is
    /// taken modulo the template's version count.
    pub fn hint_entry() -> impl Strategy<Value = (usize, u16, u64, u64, u64)> {
        (0..TEMPLATES.len(), 0u16..8, 0u64..1_000_000, 1u64..1 << 40, 1u64..1000)
    }

    /// (template slot, version pick, bucket, failure streak).
    pub fn quarantine_entry() -> impl Strategy<Value = (usize, u16, u64, u64)> {
        (0..TEMPLATES.len(), 0u16..8, 0u64..1_000_000, 1u64..50)
    }

    pub fn bucket_policy() -> impl Strategy<Value = SizeBucketPolicy> {
        prop_oneof![
            Just(SizeBucketPolicy::Exact),
            (0.01f64..2.0).prop_map(|tolerance| SizeBucketPolicy::RelativeRange { tolerance }),
        ]
    }

    pub fn mean_policy() -> impl Strategy<Value = MeanPolicy> {
        prop_oneof![
            Just(MeanPolicy::Arithmetic),
            (0.01f64..1.0).prop_map(|alpha| MeanPolicy::Ewma { alpha }),
        ]
    }

    /// Build a store holding exactly the given (deduplicated) entries.
    pub fn build_store(
        bucket: SizeBucketPolicy,
        mean: MeanPolicy,
        hints: &[(usize, u16, u64, u64, u64)],
        quarantines: &[(usize, u16, u64, u64)],
        reg: &TemplateRegistry,
    ) -> ProfileStore {
        let mut store = ProfileStore::new(bucket, mean, 3);
        for &(slot, v, bucket, mean_ns, count) in hints {
            let (name, n_versions) = TEMPLATES[slot];
            let tpl = reg.by_name(name).unwrap();
            let version = VersionId(v % n_versions as u16);
            store.seed_bucket(
                tpl,
                n_versions,
                BucketKey(bucket),
                version,
                Duration::from_nanos(mean_ns),
                count,
            );
        }
        for &(slot, v, bucket, failures) in quarantines {
            let (name, n_versions) = TEMPLATES[slot];
            let tpl = reg.by_name(name).unwrap();
            let version = VersionId(v % n_versions as u16);
            store.seed_quarantine(tpl, n_versions, BucketKey(bucket), version, failures);
        }
        store
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48 })]

        // render → parse → apply-to-fresh-store → render reproduces the
        // original text byte for byte, for any mix of hint and
        // quarantine records under any policy header.
        #[test]
        fn hints_save_load_round_trip_is_byte_stable(
            bucket in bucket_policy(),
            mean in mean_policy(),
            hints in proptest::collection::vec(hint_entry(), 0..20),
            quarantines in proptest::collection::vec(quarantine_entry(), 0..8),
        ) {
            let (mut hints, mut quarantines) = (hints, quarantines);
            // Deduplicate on (template, version, bucket): seeding the
            // same cell twice is last-write-wins, which would make the
            // original store disagree with the file's single record.
            let n_of = |slot: usize| TEMPLATES[slot].1 as u16;
            hints.sort_by_key(|&(s, v, b, ..)| (s, v % n_of(s), b));
            hints.dedup_by_key(|&mut (s, v, b, ..)| (s, v % n_of(s), b));
            quarantines.sort_by_key(|&(s, v, b, _)| (s, v % n_of(s), b));
            quarantines.dedup_by_key(|&mut (s, v, b, _)| (s, v % n_of(s), b));

            let reg = registry();
            let store = build_store(bucket, mean, &hints, &quarantines, &reg);
            let text = render_hints(&store, &reg);

            let file = parse_hints(&text).expect("rendered hints must parse");
            prop_assert_eq!(file.records.len(), hints.len());
            prop_assert_eq!(file.quarantine.len(), quarantines.len());
            let policy = file.policy.expect("v2 files declare their policies");
            prop_assert_eq!(policy.bucket, bucket, "bucket policy survives the header");
            prop_assert_eq!(policy.mean, mean, "mean policy survives the header");

            let mut fresh = ProfileStore::new(bucket, mean, 3);
            let (applied, skipped) =
                apply_hints(&mut fresh, &reg, &file).expect("policies match by construction");
            prop_assert_eq!(applied, hints.len() + quarantines.len());
            prop_assert_eq!(skipped, 0);
            prop_assert_eq!(render_hints(&fresh, &reg), text, "round trip must be byte-stable");
        }

        // Applying a file to a store with different policies must fail:
        // bucket keys/means are only meaningful under the policies that
        // produced them.
        #[test]
        fn hints_policy_mismatch_always_rejected(
            tol_a in 0.01f64..2.0,
            tol_b in 0.01f64..2.0,
            hint in hint_entry(),
        ) {
            if tol_a == tol_b {
                continue;
            }
            let reg = registry();
            let store = build_store(
                SizeBucketPolicy::RelativeRange { tolerance: tol_a },
                MeanPolicy::Arithmetic,
                &[hint],
                &[],
                &reg,
            );
            let file = parse_hints(&render_hints(&store, &reg)).unwrap();
            let mut other = ProfileStore::new(
                SizeBucketPolicy::RelativeRange { tolerance: tol_b },
                MeanPolicy::Arithmetic,
                3,
            );
            prop_assert!(apply_hints(&mut other, &reg, &file).is_err());
        }
    }
}

// ---------------------------------------------------------------------
// Event queue ordering
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn event_queue_pops_sorted_fifo(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Ts(t), i);
        }
        let mut last: Option<(Ts, usize)> = None;
        while let Some((t, seq)) = q.pop() {
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt, "times must be non-decreasing");
                if t == lt {
                    prop_assert!(seq > lseq, "ties must pop FIFO");
                }
            }
            last = Some((t, seq));
        }
    }
}

// ---------------------------------------------------------------------
// Task graph: any completion order of ready tasks drains the graph
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn task_graph_always_drains(
        tasks in proptest::collection::vec(gen_task(5), 1..40),
        pick_seed in 0u64..1000,
    ) {
        use versa::core::TaskInstance;
        let mut graph = TaskGraph::new();
        for (i, t) in tasks.iter().enumerate() {
            let mut accesses = Vec::new();
            for &r in &t.reads {
                accesses.push((Region::whole(DataId(r as u32), 64), AccessMode::In));
            }
            for &w in &t.writes {
                accesses.push((Region::whole(DataId(w as u32), 64), AccessMode::InOut));
            }
            graph.submit(TaskInstance {
                id: TaskId(i as u64),
                template: versa::core::TemplateId(0),
                accesses,
                data_set_size: 64,
                job: None,
            });
        }
        // Drain with a pseudo-random ready-task choice.
        let mut state = pick_seed.wrapping_add(1);
        let mut ready: Vec<TaskId> = graph.take_newly_ready();
        let mut done = 0usize;
        while !ready.is_empty() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize % ready.len();
            let task = ready.swap_remove(pick);
            graph.mark_running(task);
            graph.complete(task, WorkerId(0));
            done += 1;
            ready.extend(graph.take_newly_ready());
        }
        prop_assert_eq!(done, tasks.len(), "graph stalled");
        prop_assert!(graph.all_done());
    }
}

// ---------------------------------------------------------------------
// Task graph: the log-based liveness gate agrees with the window scan
// ---------------------------------------------------------------------

/// One step against a live task graph over three 64-byte allocations.
#[derive(Clone, Debug)]
enum GraphOp {
    /// Submit a task with these `(data, offset, len, mode)` accesses.
    Submit(Vec<(u32, u64, u64, u8)>),
    /// Start the ready task at this (wrapped) index.
    Start(usize),
    /// Complete the running task at this (wrapped) index.
    Complete(usize),
    /// Return the running task at this (wrapped) index to the frontier.
    Requeue(usize),
    /// Prune the done prefix below the task at this (wrapped) id.
    Prune(usize),
}

fn graph_op() -> impl Strategy<Value = GraphOp> {
    // Whole allocations and 16-byte-granular partial ranges.
    let access = (0u32..3, 0u64..4, 1u64..5, 0u8..3).prop_map(|(d, slot, len, mode)| {
        let offset = slot * 16;
        (d, offset, (len * 16).min(64 - offset), mode)
    });
    prop_oneof![
        proptest::collection::vec(access, 1..4).prop_map(GraphOp::Submit),
        (0usize..1000).prop_map(GraphOp::Start),
        (0usize..1000).prop_map(GraphOp::Complete),
        (0usize..1000).prop_map(GraphOp::Requeue),
        (0usize..1000).prop_map(GraphOp::Prune),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    #[test]
    fn has_live_accessor_matches_live_users(ops in proptest::collection::vec(graph_op(), 1..80)) {
        use versa::core::TaskInstance;
        let mut graph = TaskGraph::new();
        let (mut ready, mut running): (Vec<TaskId>, Vec<TaskId>) = (Vec::new(), Vec::new());
        for op in ops {
            match op {
                GraphOp::Submit(spec) => {
                    let accesses: Vec<(Region, AccessMode)> = spec
                        .iter()
                        .map(|&(d, offset, len, mode)| {
                            let mode = match mode {
                                0 => AccessMode::In,
                                1 => AccessMode::Out,
                                _ => AccessMode::InOut,
                            };
                            (Region::range(DataId(d), offset, len), mode)
                        })
                        .collect();
                    graph.submit(TaskInstance {
                        id: TaskId(graph.len() as u64),
                        template: versa::core::TemplateId(0),
                        accesses,
                        data_set_size: 64,
                        job: None,
                    });
                }
                GraphOp::Start(i) if !ready.is_empty() => {
                    let task = ready.swap_remove(i % ready.len());
                    graph.mark_running(task);
                    running.push(task);
                }
                GraphOp::Complete(i) if !running.is_empty() => {
                    graph.complete(running.swap_remove(i % running.len()), WorkerId(0));
                }
                GraphOp::Requeue(i) if !running.is_empty() => {
                    graph.requeue(running.swap_remove(i % running.len()));
                }
                GraphOp::Prune(i) if !graph.is_empty() => {
                    graph.prune_done_prefix(TaskId((i % (graph.len() + 1)) as u64));
                }
                _ => {}
            }
            ready.extend(graph.take_newly_ready());
            for d in 0..3 {
                let data = DataId(d);
                prop_assert_eq!(
                    graph.has_live_accessor(data),
                    graph.live_users(data) > 0,
                    "{:?} disagrees", data
                );
            }
        }
    }
}
