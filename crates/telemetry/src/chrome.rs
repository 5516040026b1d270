//! Chrome `trace_event` JSON export.
//!
//! Produces the subset of the [Trace Event Format] that `chrome://tracing`
//! and Perfetto load: one complete (`"ph":"X"`) event per span with
//! microsecond `ts`/`dur`, plus a `thread_name` metadata event per track
//! so worker threads are labelled. The JSON is hand-rolled (this crate has
//! no dependencies) with a **stable field order** —
//! `name, cat, ph, ts, dur, pid, tid, args` — which the golden schema
//! test in `tests/telemetry.rs` pins down.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::json_string;
use crate::span::SpanRecord;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders spans as a Chrome `trace_event` JSON object
/// (`{"traceEvents":[...]}`).
///
/// Events appear in the order the spans were recorded, preceded by one
/// `thread_name` metadata event per distinct track. Span attributes
/// become the event's `args` object.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;

    let tids: BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
    for tid in tids {
        if !first {
            out.push(',');
        }
        first = false;
        let label = if tid == 0 {
            "main".to_string()
        } else {
            format!("worker-{tid}")
        };
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json_string(&label)
        );
    }

    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"lgen\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{",
            json_string(&s.name),
            s.start_us,
            s.dur_us,
            s.tid
        );
        let mut first_arg = true;
        for (k, v) in &s.attrs {
            if !first_arg {
                out.push(',');
            }
            first_arg = false;
            let _ = write!(out, "{}:{}", json_string(k), json_string(v));
        }
        out.push_str("}}");
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, start: u64, dur: u64, tid: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us: start,
            dur_us: dur,
            tid,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn empty_input_is_valid_json() {
        assert_eq!(chrome_trace(&[]), "{\"traceEvents\":[]}");
    }

    #[test]
    fn events_carry_span_fields_in_stable_order() {
        let spans = [rec(1, None, "compile", 10, 5, 0)];
        let json = chrome_trace(&spans);
        assert!(json.contains(
            "{\"name\":\"compile\",\"cat\":\"lgen\",\"ph\":\"X\",\"ts\":10,\"dur\":5,\
             \"pid\":1,\"tid\":0,\"args\":{}}"
        ));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"main\""));
    }

    #[test]
    fn attributes_become_args() {
        let mut s = rec(1, None, "candidate", 0, 1, 3);
        s.attrs.push(("outcome".into(), "ok".into()));
        s.attrs.push(("unroll".into(), "4".into()));
        let json = chrome_trace(&[s]);
        assert!(json.contains("\"args\":{\"outcome\":\"ok\",\"unroll\":\"4\"}"));
        assert!(json.contains("\"name\":\"worker-3\""));
    }

    #[test]
    fn strings_are_escaped() {
        let spans = [rec(1, None, "a\"b\\c\nd", 0, 0, 0)];
        let json = chrome_trace(&spans);
        assert!(json.contains("\"name\":\"a\\\"b\\\\c\\nd\""));
    }
}
