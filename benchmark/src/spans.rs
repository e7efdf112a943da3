//! Benchmark-side spans: one per call into a layer's public functions,
//! kept in memory and written as a Chrome trace when the run ends.
//!
//! Nothing outside `benchmark/` is instrumented. Spans on the
//! benchmark's own thread are recorded live (`begin`/`end`); what
//! happened *inside* `Runtime::run` is synthesized afterwards from the
//! program's own `versa_trace::Trace` (`add`), so a traced solve still
//! decomposes into kernels / mem / net time under the runtime span.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span is charged to: a crate of the workspace, or the
/// benchmark itself (`Bench` — its self time is the stated residual).
/// Declaration order is the tie-break of the self-time sweep: when two
/// spans of equal depth overlap (parallel workers), the earlier layer
/// gets the instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Kernels,
    Net,
    Mem,
    Core,
    Sim,
    Serve,
    Runtime,
    Apps,
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Kernels,
        Layer::Net,
        Layer::Mem,
        Layer::Core,
        Layer::Sim,
        Layer::Serve,
        Layer::Runtime,
        Layer::Apps,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Kernels => "kernels",
            Layer::Net => "net",
            Layer::Mem => "mem",
            Layer::Core => "core",
            Layer::Sim => "sim",
            Layer::Serve => "serve",
            Layer::Runtime => "runtime",
            Layer::Apps => "apps",
            Layer::Bench => "benchmark",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one request (rep index or job number).
    pub req_id: u64,
    /// Chrome `tid`: 0 = the benchmark thread, 1 + w = worker `w`.
    pub track: u32,
}

/// Most spans one run keeps; later ones are counted in `dropped`.
const CAPACITY: usize = 300_000;

pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub dropped: u64,
}

/// Handle of an open span (`None` when recording is off or full).
pub type Token = Option<u32>;

impl Recorder {
    /// Recording off: `begin`/`end` cost one branch (the untraced pass).
    pub fn off() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    pub fn on() -> Recorder {
        Recorder {
            enabled: true,
            ..Recorder::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span on the benchmark thread, child of the innermost open
    /// one.
    pub fn begin(&mut self, name: &'static str, layer: Layer, req_id: u64) -> Token {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req_id,
            track: 0,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, token: Token) {
        if let Some(id) = token {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans must close innermost-first");
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Add a finished span after the fact (synthesized from the
    /// program's trace or a job report), clipped to its closed parent.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
        parent: Token,
        req_id: u64,
        track: u32,
    ) -> Token {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return None;
        }
        let (mut start_ns, mut end_ns) = (start_ns, end_ns.max(start_ns));
        if let Some(p) = parent {
            let p = &self.spans[p as usize];
            start_ns = start_ns.clamp(p.start_ns, p.end_ns);
            end_ns = end_ns.clamp(p.start_ns, p.end_ns);
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            req_id,
            track,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Self time of every span: each instant of a request's root interval
    /// goes to the deepest span active then (a span's duration minus what
    /// its children cover); where equally deep spans overlap — parallel
    /// workers under one `run` — the instant is counted once, for the
    /// layer earliest in [`Layer`] order. So the self times of a root's
    /// tree sum exactly to the root's duration.
    pub fn self_times(&self) -> Vec<u64> {
        let n = self.spans.len();
        let mut depth = vec![0u32; n];
        let mut root = vec![0u32; n];
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => {
                    assert!((p as usize) < i, "a parent is recorded before its children");
                    depth[i] = depth[p as usize] + 1;
                    root[i] = root[p as usize];
                }
                None => root[i] = i as u32,
            }
        }
        // (root, time, is_start, span): per root tree, ends before starts.
        let mut events: Vec<(u32, u64, bool, u32)> = Vec::with_capacity(2 * n);
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns > s.start_ns {
                events.push((root[i], s.start_ns, true, i as u32));
                events.push((root[i], s.end_ns, false, i as u32));
            }
        }
        events.sort_unstable();
        let mut self_ns = vec![0u64; n];
        let mut active: Vec<u32> = Vec::new();
        let (mut cur_root, mut prev) = (u32::MAX, 0u64);
        for (r, t, is_start, i) in events {
            if r != cur_root {
                active.clear();
                cur_root = r;
            }
            if t > prev {
                let winner = active.iter().copied().max_by_key(|&a| {
                    let a = a as usize;
                    (
                        depth[a],
                        std::cmp::Reverse(self.spans[a].layer),
                        std::cmp::Reverse(a),
                    )
                });
                if let Some(w) = winner {
                    self_ns[w as usize] += t - prev;
                }
            }
            prev = t;
            if is_start {
                active.push(i);
            } else if let Some(pos) = active.iter().position(|&a| a == i) {
                active.swap_remove(pos);
            }
        }
        self_ns
    }

    /// Per-layer self time inside every span named `anchor` (a `solve`
    /// or a `job`): the anchor's own self time is the residual.
    pub fn breakdown(&self, anchor: &str) -> Breakdown {
        let self_ns = self.self_times();
        let mut anchored: Vec<bool> = Vec::with_capacity(self.spans.len());
        let mut out = Breakdown {
            anchors: 0,
            total_ns: 0,
            by_layer: [0; Layer::ALL.len()],
            residual_ns: 0,
        };
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == anchor {
                anchored.push(true);
                out.anchors += 1;
                out.total_ns += s.end_ns - s.start_ns;
                out.residual_ns += self_ns[i];
            } else {
                let inside = s.parent.is_some_and(|p| anchored[p as usize]);
                anchored.push(inside);
                if inside {
                    out.by_layer[s.layer as usize] += self_ns[i];
                }
            }
        }
        out
    }

    /// Chrome-trace JSON (open in `chrome://tracing` or ui.perfetto.dev):
    /// one complete (`"X"`) event per span, the per-layer summary under
    /// `otherData`.
    pub fn to_chrome_json(&self, workload: &str, anchor: &str) -> String {
        let self_ns = self.self_times();
        let b = self.breakdown(anchor);
        let mut out = String::with_capacity(self.spans.len() * 160 + 1024);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{");
        let _ = write!(
            out,
            "\"workload\":\"{workload}\",\"anchor\":\"{anchor}\",\"anchors\":{},\"total_ns\":{},\
             \"residual_ns\":{},\"spans_dropped\":{},\"self_ns_by_layer\":{{",
            b.anchors, b.total_ns, b.residual_ns, self.dropped
        );
        for (k, layer) in Layer::ALL.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{}", layer.name(), b.by_layer[k]);
        }
        out.push_str("}},\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{sep}{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"req_id\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}}}",
                s.track,
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req_id,
                s.start_ns,
                s.end_ns,
                self_ns[i]
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Where the time inside the anchor spans went.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Breakdown {
    pub anchors: usize,
    /// Sum of the anchors' durations.
    pub total_ns: u64,
    /// Self time of the anchors' descendants, indexed by `Layer as usize`.
    pub by_layer: [u64; Layer::ALL.len()],
    /// Self time of the anchors themselves: inside no layer call.
    pub residual_ns: u64,
}

impl Breakdown {
    pub fn share(&self, layer: Layer) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.by_layer[layer as usize] as f64 / self.total_ns as f64
        }
    }

    pub fn residual_share(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.residual_ns as f64 / self.total_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(spans: &[(&'static str, Layer, u64, u64, Option<u32>)]) -> Recorder {
        let mut r = Recorder::on();
        for &(name, layer, start_ns, end_ns, parent) in spans {
            r.spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns,
                parent,
                req_id: 0,
                track: 0,
            });
        }
        r
    }

    #[test]
    fn nested_children_are_subtracted() {
        // solve 0..100 { run 10..90 { kernel 20..50 } }
        let r = rec(&[
            ("solve", Layer::Bench, 0, 100, None),
            ("run", Layer::Runtime, 10, 90, Some(0)),
            ("kernel", Layer::Kernels, 20, 50, Some(1)),
        ]);
        assert_eq!(r.self_times(), vec![20, 50, 30]);
    }

    #[test]
    fn sibling_children_count_their_union_once() {
        // Two workers' kernels overlap on 30..40; a transfer overlaps a
        // kernel on 55..60 and runs alone on 60..70.
        let r = rec(&[
            ("solve", Layer::Bench, 0, 100, None),
            ("run", Layer::Runtime, 0, 100, Some(0)),
            ("kernel", Layer::Kernels, 10, 40, Some(1)),
            ("kernel", Layer::Kernels, 30, 60, Some(1)),
            ("transfer", Layer::Mem, 55, 70, Some(1)),
        ]);
        let st = r.self_times();
        assert_eq!(st[0], 0);
        assert_eq!(st[2] + st[3], 50, "kernels cover 10..60 once");
        assert_eq!(st[4], 10, "only the exposed part of the transfer");
        assert_eq!(st[1], 40, "run = 100 - 50 - 10");
        assert_eq!(st.iter().sum::<u64>(), 100, "self times sum to the root");
        let b = r.breakdown("solve");
        assert_eq!((b.anchors, b.total_ns, b.residual_ns), (1, 100, 0));
        assert_eq!(b.by_layer[Layer::Kernels as usize], 50);
        assert_eq!(b.by_layer[Layer::Mem as usize], 10);
        assert_eq!(b.by_layer[Layer::Runtime as usize], 40);
        assert_eq!(b.by_layer.iter().sum::<u64>() + b.residual_ns, b.total_ns);
    }

    #[test]
    fn requests_do_not_steal_each_others_time() {
        // Two overlapping jobs, each its own root.
        let r = rec(&[
            ("job", Layer::Bench, 0, 100, None),
            ("job", Layer::Bench, 50, 150, None),
            ("exec", Layer::Runtime, 20, 100, Some(0)),
            ("exec", Layer::Runtime, 60, 150, Some(1)),
        ]);
        assert_eq!(r.self_times(), vec![20, 10, 80, 90]);
        let b = r.breakdown("job");
        assert_eq!((b.anchors, b.total_ns, b.residual_ns), (2, 200, 30));
    }

    #[test]
    fn live_spans_nest_and_off_records_nothing() {
        let mut r = Recorder::on();
        let a = r.begin("rep", Layer::Bench, 3);
        let b = r.begin("run", Layer::Runtime, 3);
        r.end(b);
        r.end(a);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        let child = r.add("kernel", Layer::Kernels, 0, u64::MAX, b, 3, 1);
        let (run, k) = (&r.spans()[1], &r.spans()[child.unwrap() as usize]);
        assert_eq!(
            (k.start_ns, k.end_ns),
            (run.start_ns, run.end_ns),
            "clipped to the parent"
        );
        assert!(versa_trace::chrome::validate(&r.to_chrome_json("w", "rep")).is_ok());

        let mut off = Recorder::off();
        let t = off.begin("rep", Layer::Bench, 0);
        off.end(t);
        assert!(t.is_none() && off.spans().is_empty());
    }
}
