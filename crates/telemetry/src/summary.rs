//! Human-readable exporters: a span tree and a metrics dump.
//!
//! [`summary_tree`] renders recorded spans as an indented tree with
//! durations and attributes — what `LGEN_TRACE=1` prints to stderr at
//! exit. [`format_metrics`] renders a [`MetricsSnapshot`] as stable,
//! grep-able `name value` lines — what `lgenc --metrics` prints and
//! `ci.sh` parses into `BENCH_compile.json`.

use crate::metrics::MetricsSnapshot;
use crate::span::SpanRecord;
use std::fmt::Write as _;

/// Renders spans as an indented tree, one line per span:
/// `name dur_us [key=value ...]`. Roots keep recording order; children
/// are grouped under their parent in recording order. Spans are grouped
/// by track (`tid`) first so interleaved worker output stays readable.
pub fn summary_tree(spans: &[SpanRecord]) -> String {
    summary_tree_with_drops(spans, 0)
}

/// [`summary_tree`] plus a trailing `[dropped N spans past the buffer
/// cap]` line when `dropped > 0`, so silent trace truncation
/// ([`crate::span::MAX_SPANS`]) is visible in the rendered output. Pass
/// [`crate::Telemetry::dropped`] for `dropped`.
pub(crate) fn summary_tree_with_drops(spans: &[SpanRecord], dropped: u64) -> String {
    let mut out = String::new();
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let track: Vec<&SpanRecord> = spans.iter().filter(|s| s.tid == tid).collect();
        let label = if tid == 0 {
            "main".to_string()
        } else {
            format!("worker-{tid}")
        };
        let _ = writeln!(out, "[{label}]");
        for s in &track {
            // A span whose parent is on another track (or absent) is a
            // root of this track's tree.
            let is_root = match s.parent {
                None => true,
                Some(p) => !track.iter().any(|t| t.id == p),
            };
            if is_root {
                render(&mut out, s, &track, 1);
            }
        }
    }
    if dropped > 0 {
        let _ = writeln!(out, "[dropped {dropped} spans past the buffer cap]");
    }
    out
}

fn render(out: &mut String, span: &SpanRecord, track: &[&SpanRecord], depth: usize) {
    let _ = write!(out, "{}{} {}us", "  ".repeat(depth), span.name, span.dur_us);
    for (k, v) in &span.attrs {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
    for child in track.iter().filter(|s| s.parent == Some(span.id)) {
        render(out, child, track, depth + 1);
    }
}

/// Renders a metrics snapshot as one `name value` line per metric, in
/// sorted name order. Histograms expand to `.count`, `.sum`, `.mean`,
/// `.p50`, `.p90`, `.p95`, `.p99`, `.p999`, and `.max` lines so every
/// figure stays grep-able. Labeled families render one
/// `name{key=value,...} ...` line per series (overflow series last, plus
/// a `name.overflowed N` line when the cardinality cap was hit), and the
/// dump ends with a synthetic `lgen.metrics.registry_size N` line — the
/// total registered-name count, the figure to watch for unbounded metric
/// growth.
pub fn format_metrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, fam) in &snapshot.counter_families {
        for (values, v) in &fam.series {
            let _ = writeln!(out, "{name}{} {v}", fam.label_string(values));
        }
        if fam.overflowed > 0 {
            let _ = writeln!(out, "{name}.overflowed {}", fam.overflowed);
        }
    }
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, h) in &snapshot.histograms {
        write_histogram(&mut out, name, "", h);
    }
    for (name, fam) in &snapshot.histogram_families {
        for (values, h) in &fam.series {
            write_histogram(&mut out, name, &fam.label_string(values), h);
        }
        if fam.overflowed > 0 {
            let _ = writeln!(out, "{name}.overflowed {}", fam.overflowed);
        }
    }
    let _ = writeln!(out, "lgen.metrics.registry_size {}", snapshot.registry_size);
    out
}

fn write_histogram(out: &mut String, name: &str, labels: &str, h: &crate::HistogramSnapshot) {
    let p = h.percentiles();
    let _ = writeln!(out, "{name}.count{labels} {}", h.count);
    let _ = writeln!(out, "{name}.sum{labels} {}", h.sum);
    let _ = writeln!(out, "{name}.mean{labels} {:.1}", h.mean());
    let _ = writeln!(out, "{name}.p50{labels} {}", p.p50);
    let _ = writeln!(out, "{name}.p90{labels} {}", p.p90);
    let _ = writeln!(out, "{name}.p95{labels} {}", h.quantile(0.95));
    let _ = writeln!(out, "{name}.p99{labels} {}", p.p99);
    let _ = writeln!(out, "{name}.p999{labels} {}", p.p999);
    let _ = writeln!(out, "{name}.max{labels} {}", h.max);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn rec(id: u64, parent: Option<u64>, name: &str, dur: u64, tid: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us: 0,
            dur_us: dur,
            tid,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn tree_indents_children_under_parents() {
        let mut root = rec(1, None, "compile", 100, 0);
        root.attrs.push(("kernel".into(), "k0".into()));
        let spans = [
            root,
            rec(2, Some(1), "unroll", 40, 0),
            rec(3, Some(1), "dce", 10, 0),
        ];
        let text = summary_tree(&spans);
        assert_eq!(
            text,
            "[main]\n  compile 100us kernel=k0\n    unroll 40us\n    dce 10us\n"
        );
    }

    #[test]
    fn tracks_are_separated() {
        let spans = [rec(1, None, "a", 1, 0), rec(2, None, "b", 2, 5)];
        let text = summary_tree(&spans);
        assert!(text.contains("[main]\n  a 1us\n"));
        assert!(text.contains("[worker-5]\n  b 2us\n"));
    }

    #[test]
    fn orphan_on_other_track_is_a_root() {
        // Parent on tid 0, child recorded on tid 7: the child still shows
        // up, as a root of its own track.
        let spans = [rec(1, None, "parent", 9, 0), rec(2, Some(1), "child", 3, 7)];
        let text = summary_tree(&spans);
        assert!(text.contains("[worker-7]\n  child 3us\n"));
    }

    #[test]
    fn metrics_render_as_name_value_lines() {
        let r = MetricsRegistry::default();
        r.counter("lgen.cache.hits").add(3);
        r.gauge("lgen.pool.size").set(8);
        r.histogram("lgen.compile.wall_us").record(100);
        let text = format_metrics(&r.snapshot());
        assert!(text.contains("lgen.cache.hits 3\n"));
        assert!(text.contains("lgen.pool.size 8\n"));
        assert!(text.contains("lgen.compile.wall_us.count 1\n"));
        assert!(text.contains("lgen.compile.wall_us.sum 100\n"));
        assert!(text.contains("lgen.compile.wall_us.p99 "));
        assert!(text.contains("lgen.compile.wall_us.max 100\n"));
    }
}
