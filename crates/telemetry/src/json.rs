//! Stable-field-order JSON export of a [`MetricsSnapshot`], and
//! [`json_string`], the workspace's one JSON string escaper.
//!
//! Hand-rolled like [`crate::chrome`] (this crate has no dependencies):
//! metric names come out in the registry's sorted order and every object
//! writes its fields in a fixed sequence, so two snapshots with the same
//! metric set produce byte-identical structure — the property the golden
//! `stats --json` schema test pins and the replay harness relies on when
//! it extracts sections by delimiter instead of parsing JSON properly.
//!
//! Top-level shape:
//!
//! ```json
//! {"counters":{...},"counter_families":{...},"gauges":{...},
//!  "gauge_families":{...},"histograms":{...},"histogram_families":{...},
//!  "registry_size":N}
//! ```
//!
//! Histograms render as `{"count":..,"sum":..,"mean":..,"max":..,
//! "p50":..,"p90":..,"p99":..,"p999":..}`; family entries as
//! `{"keys":[..],"series":[{"labels":{..},...}],"overflowed":N}` with
//! series sorted by label values (overflow last).

use crate::labels::FamilySnapshot;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write as _;

/// Renders a metrics snapshot as a single-line JSON object with stable
/// field order (see module docs).
pub fn metrics_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    let mut first = true;
    for (name, value) in &snapshot.counters {
        sep(&mut out, &mut first);
        let _ = write!(out, "{}:{value}", json_string(name));
    }
    out.push_str("},\"counter_families\":{");
    first = true;
    for (name, fam) in &snapshot.counter_families {
        sep(&mut out, &mut first);
        let _ = write!(out, "{}:", json_string(name));
        family(&mut out, fam, |out, v| {
            let _ = write!(out, "\"value\":{v}");
        });
    }
    out.push_str("},\"gauges\":{");
    first = true;
    for (name, value) in &snapshot.gauges {
        sep(&mut out, &mut first);
        let _ = write!(out, "{}:{value}", json_string(name));
    }
    out.push_str("},\"gauge_families\":{");
    first = true;
    for (name, fam) in &snapshot.gauge_families {
        sep(&mut out, &mut first);
        let _ = write!(out, "{}:", json_string(name));
        family(&mut out, fam, |out, v| {
            let _ = write!(out, "\"value\":{v}");
        });
    }
    out.push_str("},\"histograms\":{");
    first = true;
    for (name, h) in &snapshot.histograms {
        sep(&mut out, &mut first);
        let _ = write!(out, "{}:", json_string(name));
        histogram(&mut out, h);
    }
    out.push_str("},\"histogram_families\":{");
    first = true;
    for (name, fam) in &snapshot.histogram_families {
        sep(&mut out, &mut first);
        let _ = write!(out, "{}:", json_string(name));
        family(&mut out, fam, histogram_fields);
    }
    let _ = write!(out, "}},\"registry_size\":{}}}", snapshot.registry_size);
    out
}

/// Renders one histogram snapshot as a JSON object (stable field order).
pub fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut out = String::new();
    histogram(&mut out, h);
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
}

fn histogram(out: &mut String, h: &HistogramSnapshot) {
    out.push('{');
    histogram_fields(out, h);
    out.push('}');
}

fn histogram_fields(out: &mut String, h: &HistogramSnapshot) {
    let p = h.percentiles();
    let _ = write!(
        out,
        "\"count\":{},\"sum\":{},\"mean\":{:.1},\"max\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}",
        h.count,
        h.sum,
        h.mean(),
        h.max,
        p.p50,
        p.p90,
        p.p99,
        p.p999
    );
}

fn family<V>(out: &mut String, fam: &FamilySnapshot<V>, value: impl Fn(&mut String, &V)) {
    out.push_str("{\"keys\":[");
    let mut first = true;
    for k in &fam.keys {
        sep(out, &mut first);
        out.push_str(&json_string(k));
    }
    out.push_str("],\"series\":[");
    first = true;
    for (values, v) in &fam.series {
        sep(out, &mut first);
        out.push_str("{\"labels\":{");
        let mut fl = true;
        for (k, val) in fam.keys.iter().zip(values) {
            sep(out, &mut fl);
            let _ = write!(out, "{}:{}", json_string(k), json_string(val));
        }
        out.push_str("},");
        value(out, v);
        out.push('}');
    }
    let _ = write!(out, "],\"overflowed\":{}}}", fam.overflowed);
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn empty_registry_renders_stable_skeleton() {
        let s = MetricsRegistry::default().snapshot();
        assert_eq!(
            metrics_json(&s),
            "{\"counters\":{},\"counter_families\":{},\"gauges\":{},\
             \"gauge_families\":{},\"histograms\":{},\"histogram_families\":{},\
             \"registry_size\":0}"
        );
    }

    #[test]
    fn counters_families_and_histograms_render_in_order() {
        let r = MetricsRegistry::default();
        r.counter("a.hits").add(3);
        r.gauge("b.depth").set(-2);
        r.histogram("c.wall_us").record(100);
        r.counter_family("d.requests", &["tenant", "verb"])
            .with(&["t0", "compile"])
            .inc();
        r.histogram_family("e.wait_us", &["tenant"])
            .with(&["t0"])
            .record(7);
        let json = metrics_json(&r.snapshot());
        assert!(json.contains("\"counters\":{\"a.hits\":3}"));
        assert!(json.contains("\"gauges\":{\"b.depth\":-2}"));
        assert!(json.contains(
            "\"d.requests\":{\"keys\":[\"tenant\",\"verb\"],\"series\":\
             [{\"labels\":{\"tenant\":\"t0\",\"verb\":\"compile\"},\"value\":1}],\
             \"overflowed\":0}"
        ));
        assert!(json.contains("\"count\":1,\"sum\":100,"));
        assert!(json.contains("\"labels\":{\"tenant\":\"t0\"},\"count\":1,\"sum\":7,"));
        assert!(json.contains("\"registry_size\":5}"));
        // Valid JSON shape: balanced braces (cheap structural check given
        // no string values contain braces here).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
