//! `vtrace v1` — the line-oriented on-disk trace format.
//!
//! One event per line, whitespace-separated tokens, `#` comments.
//! Written by the engines' `--trace` flags, consumed by `versa-analyze`.
//! The format round-trips: `Trace::parse(trace.to_text()) == trace`.
//!
//! ```text
//! vtrace 1
//! engine sim
//! dropped 0
//! worker 0 smp host
//! worker 1 cuda dev0
//! template 0 matmul_tile cublas cblas
//! created 0 12 0                    # time task template
//! ready 5 12                        # time task
//! decision 5 12 0 3 - learning 1 0  # time task tpl bucket job phase worker version [bids…]
//! start 5 12 1 0 0 1                # time task worker version template attempt
//! end 105 12 1 100                  # time task worker kernel_ns
//! failed 40 7 0 1 2                 # time task worker version attempt
//! xfer 0 40 3 host dev0 4096 1     # start end data from to bytes by-worker
//! job+ 0 1 64                       # time job tasks
//! job- 900 1 1                      # time job ok
//! ```
//!
//! Decision bids are appended as `worker:version:busy:mean:transfer:finish`
//! tokens (durations in ns). Two further token families record the full
//! policy input so decisions replay offline (`versa-gym`): candidate
//! statistics as `cV:scheduled:count:mean_ns` (mean `-` if unmeasured)
//! and worker snapshots as `wW:pressure:busy_ns:transfer_ns:v0+v1` (the
//! trailing field lists runnable versions, `-` if none). Both are
//! letter-prefixed, so parsers distinguish them from digit-leading bid
//! tokens; an optional `lambda N` meta line records the learning
//! threshold. Traces without these extensions still parse.

use crate::event::{Trace, TraceEvent, Ts};
use crate::meta::{TemplateMeta, TraceMeta, WorkerMeta};
use std::fmt::Write as _;
use std::time::Duration;
use versa_core::scheduler::{Decision, DecisionPhase, WorkerBid};
use versa_core::{BucketKey, CandidateStats, TaskId, TemplateId, VersionId, WorkerId, WorkerSnap};
use versa_mem::{DataId, MemSpace};

fn space_token(s: MemSpace) -> String {
    format!("{s}")
}

fn parse_space(tok: &str) -> Result<MemSpace, String> {
    if tok == "host" {
        return Ok(MemSpace::HOST);
    }
    tok.strip_prefix("dev")
        .and_then(|n| n.parse::<u16>().ok())
        .map(MemSpace::device)
        .ok_or_else(|| format!("bad memory space {tok:?}"))
}

impl Trace {
    /// Serialize as `vtrace v1` text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "vtrace 1");
        let _ = writeln!(out, "engine {}", if self.meta.engine.is_empty() { "unknown" } else { &self.meta.engine });
        let _ = writeln!(out, "dropped {}", self.dropped);
        for w in &self.meta.workers {
            let _ = write!(out, "worker {} {} {}", w.id.0, w.device, space_token(w.space));
            // Trailing node token only when remote, so single-node traces
            // stay byte-identical to the pre-cluster format.
            if w.node != 0 {
                let _ = write!(out, " n{}", w.node);
            }
            out.push('\n');
        }
        for t in &self.meta.templates {
            let _ = write!(out, "template {} {}", t.id.0, t.name);
            for v in &t.versions {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        if let Some(lambda) = self.meta.lambda {
            let _ = writeln!(out, "lambda {lambda}");
        }
        for ev in self.events() {
            match ev {
                TraceEvent::TaskCreated { time, task, template } => {
                    let _ = writeln!(out, "created {} {} {}", time.0, task.0, template.0);
                }
                TraceEvent::TaskReady { time, task } => {
                    let _ = writeln!(out, "ready {} {}", time.0, task.0);
                }
                TraceEvent::Decision { time, decision: d } => {
                    let job = d.job.map(|j| j.to_string()).unwrap_or_else(|| "-".into());
                    let _ = write!(
                        out,
                        "decision {} {} {} {} {} {} {} {}",
                        time.0,
                        d.task.0,
                        d.template.0,
                        d.bucket.0,
                        job,
                        d.phase.label(),
                        d.worker.0,
                        d.version.0
                    );
                    for b in &d.bids {
                        let _ = write!(
                            out,
                            " {}:{}:{}:{}:{}:{}",
                            b.worker.0,
                            b.version.0,
                            b.busy.as_nanos(),
                            b.mean.as_nanos(),
                            b.transfer.as_nanos(),
                            b.finish.as_nanos()
                        );
                    }
                    for c in &d.candidates {
                        let mean = c
                            .mean
                            .map(|m| m.as_nanos().to_string())
                            .unwrap_or_else(|| "-".into());
                        let _ = write!(
                            out,
                            " c{}:{}:{}:{mean}",
                            c.version.0, c.scheduled, c.count
                        );
                    }
                    for w in &d.workers {
                        let runnable = if w.runnable.is_empty() {
                            "-".to_string()
                        } else {
                            w.runnable
                                .iter()
                                .map(|v| v.0.to_string())
                                .collect::<Vec<_>>()
                                .join("+")
                        };
                        let _ = write!(
                            out,
                            " w{}:{}:{}:{}:{runnable}",
                            w.worker.0,
                            w.pressure,
                            w.busy.as_nanos(),
                            w.transfer.as_nanos()
                        );
                    }
                    out.push('\n');
                }
                TraceEvent::TaskStart { time, task, worker, version, template, attempt } => {
                    let _ = writeln!(
                        out,
                        "start {} {} {} {} {} {}",
                        time.0, task.0, worker.0, version.0, template.0, attempt
                    );
                }
                TraceEvent::TaskEnd { time, task, worker, kernel_ns } => {
                    let _ = writeln!(out, "end {} {} {} {}", time.0, task.0, worker.0, kernel_ns);
                }
                TraceEvent::TaskFailed { time, task, worker, version, attempt } => {
                    let _ = writeln!(
                        out,
                        "failed {} {} {} {} {}",
                        time.0, task.0, worker.0, version.0, attempt
                    );
                }
                TraceEvent::Transfer { start, end, data, from, to, bytes, by } => {
                    let by = by.map(|w| w.0.to_string()).unwrap_or_else(|| "-".into());
                    let _ = writeln!(
                        out,
                        "xfer {} {} {} {} {} {} {}",
                        start.0,
                        end.0,
                        data.0,
                        space_token(*from),
                        space_token(*to),
                        bytes,
                        by
                    );
                }
                TraceEvent::NodeLost { time, node } => {
                    let _ = writeln!(out, "nodelost {} {}", time.0, node);
                }
                TraceEvent::JobAdmitted { time, job, tasks } => {
                    let _ = writeln!(out, "job+ {} {} {}", time.0, job, tasks);
                }
                TraceEvent::JobCompleted { time, job, ok } => {
                    let _ = writeln!(out, "job- {} {} {}", time.0, job, u8::from(*ok));
                }
            }
        }
        out
    }

    /// Parse `vtrace v1` text.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut meta = TraceMeta::default();
        let mut events = Vec::new();
        let mut dropped = 0;
        let mut saw_header = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("line {}: {msg}: {raw:?}", lineno + 1);
            let toks: Vec<&str> = line.split_whitespace().collect();
            if !saw_header {
                if toks != ["vtrace", "1"] {
                    return Err(err("expected `vtrace 1` header"));
                }
                saw_header = true;
                continue;
            }
            macro_rules! num {
                ($i:expr, $ty:ty) => {
                    toks.get($i)
                        .and_then(|t| t.parse::<$ty>().ok())
                        .ok_or_else(|| err(concat!("bad field ", stringify!($i))))?
                };
            }
            match toks[0] {
                "engine" => meta.engine = toks.get(1).unwrap_or(&"unknown").to_string(),
                "dropped" => dropped = num!(1, u64),
                "lambda" => meta.lambda = Some(num!(1, u64)),
                "worker" => {
                    let space = parse_space(toks.get(3).ok_or_else(|| err("missing space"))?)
                        .map_err(|e| err(&e))?;
                    let node = match toks.get(4) {
                        None => 0,
                        Some(t) => t
                            .strip_prefix('n')
                            .and_then(|n| n.parse::<u16>().ok())
                            .ok_or_else(|| err("bad node token"))?,
                    };
                    meta.workers.push(WorkerMeta {
                        id: WorkerId(num!(1, u16)),
                        device: toks.get(2).ok_or_else(|| err("missing device"))?.to_string(),
                        space,
                        node,
                    });
                }
                "template" => {
                    meta.templates.push(TemplateMeta {
                        id: TemplateId(num!(1, u32)),
                        name: toks.get(2).ok_or_else(|| err("missing name"))?.to_string(),
                        versions: toks[3..].iter().map(|s| s.to_string()).collect(),
                    });
                }
                "created" => events.push(TraceEvent::TaskCreated {
                    time: Ts(num!(1, u64)),
                    task: TaskId(num!(2, u64)),
                    template: TemplateId(num!(3, u32)),
                }),
                "ready" => events.push(TraceEvent::TaskReady {
                    time: Ts(num!(1, u64)),
                    task: TaskId(num!(2, u64)),
                }),
                "decision" => {
                    let job = match *toks.get(5).ok_or_else(|| err("missing job"))? {
                        "-" => None,
                        j => Some(j.parse::<u64>().map_err(|_| err("bad job"))?),
                    };
                    let label = toks.get(6).ok_or_else(|| err("missing phase"))?;
                    let phase = DecisionPhase::from_label(label).ok_or_else(|| err("bad phase"))?;
                    let mut bids = Vec::new();
                    let mut candidates = Vec::new();
                    let mut workers = Vec::new();
                    let ns = |s: &str| {
                        s.parse::<u64>().map(Duration::from_nanos).map_err(|_| err("bad bid field"))
                    };
                    for tok in &toks[9..] {
                        if let Some(rest) = tok.strip_prefix('c') {
                            let f: Vec<&str> = rest.split(':').collect();
                            if f.len() != 4 {
                                return Err(err("bad candidate"));
                            }
                            let mean = match f[3] {
                                "-" => None,
                                m => Some(ns(m)?),
                            };
                            candidates.push(CandidateStats {
                                version: VersionId(
                                    f[0].parse().map_err(|_| err("bad candidate version"))?,
                                ),
                                scheduled: f[1].parse().map_err(|_| err("bad candidate field"))?,
                                count: f[2].parse().map_err(|_| err("bad candidate field"))?,
                                mean,
                            });
                            continue;
                        }
                        if let Some(rest) = tok.strip_prefix('w') {
                            let f: Vec<&str> = rest.split(':').collect();
                            if f.len() != 5 {
                                return Err(err("bad worker snapshot"));
                            }
                            let runnable = match f[4] {
                                "-" => Vec::new(),
                                list => list
                                    .split('+')
                                    .map(|v| v.parse().map(VersionId))
                                    .collect::<Result<Vec<_>, _>>()
                                    .map_err(|_| err("bad runnable list"))?,
                            };
                            workers.push(WorkerSnap {
                                worker: WorkerId(
                                    f[0].parse().map_err(|_| err("bad snapshot worker"))?,
                                ),
                                pressure: f[1].parse().map_err(|_| err("bad snapshot field"))?,
                                busy: ns(f[2])?,
                                transfer: ns(f[3])?,
                                runnable,
                            });
                            continue;
                        }
                        let f: Vec<&str> = tok.split(':').collect();
                        if f.len() != 6 {
                            return Err(err("bad bid"));
                        }
                        bids.push(WorkerBid {
                            worker: WorkerId(f[0].parse().map_err(|_| err("bad bid worker"))?),
                            version: VersionId(f[1].parse().map_err(|_| err("bad bid version"))?),
                            busy: ns(f[2])?,
                            mean: ns(f[3])?,
                            transfer: ns(f[4])?,
                            finish: ns(f[5])?,
                        });
                    }
                    events.push(TraceEvent::Decision {
                        time: Ts(num!(1, u64)),
                        decision: Decision {
                            task: TaskId(num!(2, u64)),
                            template: TemplateId(num!(3, u32)),
                            bucket: BucketKey(num!(4, u64)),
                            job,
                            phase,
                            worker: WorkerId(num!(7, u16)),
                            version: VersionId(num!(8, u16)),
                            bids,
                            candidates,
                            workers,
                        },
                    });
                }
                "start" => events.push(TraceEvent::TaskStart {
                    time: Ts(num!(1, u64)),
                    task: TaskId(num!(2, u64)),
                    worker: WorkerId(num!(3, u16)),
                    version: VersionId(num!(4, u16)),
                    template: TemplateId(num!(5, u32)),
                    attempt: num!(6, u32),
                }),
                "end" => events.push(TraceEvent::TaskEnd {
                    time: Ts(num!(1, u64)),
                    task: TaskId(num!(2, u64)),
                    worker: WorkerId(num!(3, u16)),
                    kernel_ns: num!(4, u64),
                }),
                "failed" => events.push(TraceEvent::TaskFailed {
                    time: Ts(num!(1, u64)),
                    task: TaskId(num!(2, u64)),
                    worker: WorkerId(num!(3, u16)),
                    version: VersionId(num!(4, u16)),
                    attempt: num!(5, u32),
                }),
                "xfer" => {
                    let from = parse_space(toks.get(4).ok_or_else(|| err("missing from"))?)
                        .map_err(|e| err(&e))?;
                    let to = parse_space(toks.get(5).ok_or_else(|| err("missing to"))?)
                        .map_err(|e| err(&e))?;
                    let by = match *toks.get(7).ok_or_else(|| err("missing by"))? {
                        "-" => None,
                        w => Some(WorkerId(w.parse().map_err(|_| err("bad by-worker"))?)),
                    };
                    events.push(TraceEvent::Transfer {
                        start: Ts(num!(1, u64)),
                        end: Ts(num!(2, u64)),
                        data: DataId(num!(3, u32)),
                        from,
                        to,
                        bytes: num!(6, u64),
                        by,
                    });
                }
                "nodelost" => events.push(TraceEvent::NodeLost {
                    time: Ts(num!(1, u64)),
                    node: num!(2, u16),
                }),
                "job+" => events.push(TraceEvent::JobAdmitted {
                    time: Ts(num!(1, u64)),
                    job: num!(2, u64),
                    tasks: num!(3, u64),
                }),
                "job-" => events.push(TraceEvent::JobCompleted {
                    time: Ts(num!(1, u64)),
                    job: num!(2, u64),
                    ok: num!(3, u8) != 0,
                }),
                other => return Err(err(&format!("unknown record {other:?}"))),
            }
        }
        if !saw_header {
            return Err("empty input (no `vtrace 1` header)".to_string());
        }
        Ok(Trace::new(meta, events, dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let meta = TraceMeta {
            engine: "sim".into(),
            workers: vec![
                WorkerMeta { id: WorkerId(0), device: "smp".into(), space: MemSpace::HOST, node: 0 },
                WorkerMeta { id: WorkerId(1), device: "cuda".into(), space: MemSpace::device(0), node: 0 },
            ],
            templates: vec![TemplateMeta {
                id: TemplateId(0),
                name: "matmul_tile".into(),
                versions: vec!["cublas".into(), "cblas".into()],
            }],
            lambda: Some(3),
        };
        Trace::new(
            meta,
            vec![
                TraceEvent::TaskCreated { time: Ts(0), task: TaskId(1), template: TemplateId(0) },
                TraceEvent::TaskReady { time: Ts(0), task: TaskId(1) },
                TraceEvent::Decision {
                    time: Ts(1),
                    decision: Decision {
                        task: TaskId(1),
                        template: TemplateId(0),
                        bucket: BucketKey(3),
                        job: Some(7),
                        phase: DecisionPhase::Reliable,
                        worker: WorkerId(1),
                        version: VersionId(0),
                        bids: vec![WorkerBid {
                            worker: WorkerId(1),
                            version: VersionId(0),
                            busy: Duration::from_nanos(10),
                            mean: Duration::from_nanos(20),
                            transfer: Duration::from_nanos(5),
                            finish: Duration::from_nanos(35),
                        }],
                        candidates: vec![
                            CandidateStats {
                                version: VersionId(0),
                                scheduled: 3,
                                count: 3,
                                mean: Some(Duration::from_nanos(20)),
                            },
                            CandidateStats {
                                version: VersionId(1),
                                scheduled: 3,
                                count: 2,
                                mean: None,
                            },
                        ],
                        workers: vec![
                            WorkerSnap {
                                worker: WorkerId(0),
                                pressure: 1,
                                busy: Duration::from_nanos(40),
                                transfer: Duration::ZERO,
                                runnable: vec![VersionId(1)],
                            },
                            WorkerSnap {
                                worker: WorkerId(1),
                                pressure: 0,
                                busy: Duration::ZERO,
                                transfer: Duration::from_nanos(5),
                                runnable: vec![],
                            },
                        ],
                    },
                },
                TraceEvent::Transfer {
                    start: Ts(1),
                    end: Ts(5),
                    data: DataId(9),
                    from: MemSpace::HOST,
                    to: MemSpace::device(0),
                    bytes: 4096,
                    by: Some(WorkerId(1)),
                },
                TraceEvent::TaskStart {
                    time: Ts(5),
                    task: TaskId(1),
                    worker: WorkerId(1),
                    version: VersionId(0),
                    template: TemplateId(0),
                    attempt: 1,
                },
                TraceEvent::TaskFailed {
                    time: Ts(9),
                    task: TaskId(1),
                    worker: WorkerId(1),
                    version: VersionId(0),
                    attempt: 1,
                },
                TraceEvent::TaskStart {
                    time: Ts(9),
                    task: TaskId(1),
                    worker: WorkerId(1),
                    version: VersionId(0),
                    template: TemplateId(0),
                    attempt: 2,
                },
                TraceEvent::TaskEnd { time: Ts(20), task: TaskId(1), worker: WorkerId(1), kernel_ns: 11 },
                TraceEvent::JobAdmitted { time: Ts(0), job: 7, tasks: 1 },
                TraceEvent::JobCompleted { time: Ts(21), job: 7, ok: true },
            ],
            2,
        )
    }

    #[test]
    fn round_trips() {
        let t = sample();
        let text = t.to_text();
        let back = Trace::parse(&text).expect("parse");
        assert_eq!(back.meta, t.meta);
        assert_eq!(back.dropped, t.dropped);
        assert_eq!(back.events(), t.events());
        // And again, to be sure serialization is stable.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn cluster_records_round_trip() {
        let meta = TraceMeta {
            engine: "native".into(),
            workers: vec![
                WorkerMeta { id: WorkerId(0), device: "smp".into(), space: MemSpace::HOST, node: 0 },
                WorkerMeta {
                    id: WorkerId(1),
                    device: "smp".into(),
                    space: MemSpace::device(1),
                    node: 2,
                },
            ],
            templates: vec![],
            lambda: None,
        };
        let t = Trace::new(meta, vec![TraceEvent::NodeLost { time: Ts(9), node: 2 }], 0);
        let text = t.to_text();
        // Local workers keep the pre-cluster line shape; remote workers
        // get the trailing node token.
        assert!(text.contains("worker 0 smp host\n"), "{text}");
        assert!(text.contains("worker 1 smp dev1 n2\n"), "{text}");
        assert!(text.contains("nodelost 9 2\n"), "{text}");
        let back = Trace::parse(&text).expect("parse");
        assert_eq!(back.meta, t.meta);
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "vtrace 1\n# a comment\n\nengine sim\ndropped 0\nready 5 12 # inline\n";
        let t = Trace::parse(text).expect("parse");
        assert_eq!(t.len(), 1);
        assert_eq!(t.meta.engine, "sim");
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("vtrace 2\n").is_err());
        assert!(Trace::parse("vtrace 1\nwhatsit 1 2\n").is_err());
        assert!(Trace::parse("vtrace 1\nend 1\n").is_err());
        assert!(Trace::parse("vtrace 1\nxfer 0 5 1 moon host 64 -\n").is_err());
    }
}
