//! Chrome/Perfetto trace exporter (`chrome://tracing` "Trace Event
//! Format" JSON). Load the output in Perfetto or chrome://tracing to get
//! the paper's Fig. 5-style timeline interactively.
//!
//! Layout: pid 0 = compute (one tid per worker), pid 1 = interconnect
//! (one tid per destination space). Completed/failed attempts are `X`
//! duration events, decisions and staging faults are `i` instants.
//! Timestamps are microseconds (the format's unit), with three decimal
//! places preserving nanosecond resolution.

use crate::analysis::TraceAnalysis;
use crate::event::{Trace, TraceEvent};
use std::fmt::Write as _;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Serialize a trace as Trace-Event-Format JSON.
pub fn to_chrome_json(trace: &Trace) -> String {
    let a = TraceAnalysis::new(trace);
    let meta = &trace.meta;
    let mut events: Vec<String> = Vec::new();

    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"compute\"}}"
            .to_string(),
    );
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"interconnect\"}}"
            .to_string(),
    );
    for w in &meta.workers {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            w.id.0,
            esc(&format!("{} ({})", meta.worker_label(w.id), w.space))
        ));
    }

    for iv in &a.intervals {
        let name = format!(
            "{}:{}{}",
            meta.template_name(iv.template),
            meta.version_name(iv.template, iv.version),
            if iv.failed { " FAILED" } else { "" }
        );
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"task\":{},\"kernel_ns\":{}}}}}",
            esc(&name),
            if iv.failed { "failed" } else { "task" },
            us(iv.start.0),
            us((iv.end - iv.start).as_nanos() as u64),
            iv.worker.0,
            iv.task.0,
            iv.kernel.as_nanos()
        ));
    }

    for ev in trace.events() {
        match ev {
            TraceEvent::Transfer { start, end, data, from, to, bytes, .. } => {
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"transfer\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"data\":{},\"bytes\":{}}}}}",
                    esc(&format!("{from}->{to}")),
                    us(start.0),
                    us((*end - *start).as_nanos() as u64),
                    to.index(),
                    data.0,
                    bytes
                ));
            }
            TraceEvent::Decision { time, decision: d } => {
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"decision\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{\"task\":{},\"phase\":\"{}\",\"bids\":{}}}}}",
                    esc(&format!("assign t{} {}", d.task.0, meta.version_name(d.template, d.version))),
                    us(time.0),
                    d.worker.0,
                    d.task.0,
                    d.phase.label(),
                    d.bids.len()
                ));
            }
            _ => {}
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Validate exporter output: syntactically valid JSON with a
/// `traceEvents` array whose members carry the required keys.
pub fn validate(json_text: &str) -> Result<(), String> {
    let doc = crate::json::parse(json_text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        for key in ["name", "pid", "tid"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i}: missing {key}"));
            }
        }
        match ph {
            "X" => {
                for key in ["ts", "dur"] {
                    if ev.get(key).and_then(|v| v.as_num()).is_none() {
                        return Err(format!("event {i}: X event missing numeric {key}"));
                    }
                }
            }
            "i" => {
                if ev.get("ts").and_then(|v| v.as_num()).is_none() {
                    return Err(format!("event {i}: i event missing numeric ts"));
                }
            }
            "M" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Ts;
    use crate::TraceMeta;
    use versa_core::{TaskId, TemplateId, VersionId, WorkerId};
    use versa_mem::{DataId, MemSpace};

    fn sample() -> Trace {
        Trace::new(
            TraceMeta::default(),
            vec![
                TraceEvent::TaskStart {
                    time: Ts(0),
                    task: TaskId(1),
                    worker: WorkerId(0),
                    version: VersionId(0),
                    template: TemplateId(0),
                    attempt: 1,
                },
                TraceEvent::TaskEnd {
                    time: Ts(1500),
                    task: TaskId(1),
                    worker: WorkerId(0),
                    kernel_ns: 1400,
                },
                TraceEvent::Transfer {
                    start: Ts(0),
                    end: Ts(700),
                    data: DataId(3),
                    from: MemSpace::HOST,
                    to: MemSpace::device(0),
                    bytes: 4096,
                    by: Some(WorkerId(0)),
                },
            ],
            0,
        )
    }

    #[test]
    fn exporter_output_validates() {
        let json = to_chrome_json(&sample());
        validate(&json).expect("schema-valid");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        // Nanosecond resolution survives as fractional microseconds.
        assert!(json.contains("\"ts\":1.500") || json.contains("\"dur\":1.500"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"traceEvents\": 3}").is_err());
        assert!(validate("{\"traceEvents\": [{\"ph\":\"X\"}]}").is_err());
        assert!(validate("not json").is_err());
    }

    #[test]
    fn names_are_escaped() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
