//! Stable-field-order JSON export of a [`MetricsSnapshot`];
//! [`json_string`], the workspace's one JSON string escaper; and the one
//! key scanner that reads such fixed-order JSON back ([`json_section`],
//! [`json_objects`], [`json_u64`], and [`json_str`], which decodes what
//! `json_string` escapes).
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
//!  "histograms":{...},"histogram_families":{...},"registry_size":N}
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

/// Byte length of the balanced `{...}` object that opens `s` (braces
/// included), skipping braces inside strings; `None` if `s` does not
/// open a complete object.
fn object_len(s: &str) -> Option<usize> {
    if !s.starts_with('{') {
        return None;
    }
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    for (i, b) in s.bytes().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_str => escaped = true,
            b'"' => in_str = !in_str,
            b'{' if !in_str => depth += 1,
            b'}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Finds `marker` (which must end in `{`) and returns the text of the
/// balanced `{...}` object that starts there, braces excluded.
pub fn json_section<'a>(s: &'a str, marker: &str) -> Option<&'a str> {
    debug_assert!(marker.ends_with('{'));
    let open = s.find(marker)? + marker.len() - 1;
    let len = object_len(&s[open..])?;
    Some(&s[open + 1..open + len - 1])
}

/// The `{...}` elements (braces included) of the array that starts right
/// after `marker` (which must end in `[`); empty without the marker.
pub fn json_objects<'a>(s: &'a str, marker: &str) -> Vec<&'a str> {
    debug_assert!(marker.ends_with('['));
    let Some(at) = s.find(marker) else {
        return Vec::new();
    };
    let mut rest = &s[at + marker.len()..];
    let mut objects = Vec::new();
    loop {
        rest = rest.trim_start_matches(|c: char| c == ',' || c.is_whitespace());
        let Some(len) = object_len(rest) else {
            return objects;
        };
        objects.push(&rest[..len]);
        rest = &rest[len..];
    }
}

/// The unsigned integer after the first `"key":` in `s`.
pub fn json_u64(s: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let rest = s[s.find(&pattern)? + pattern.len()..].trim_start();
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

/// The string value after the first `"key":"` in `s`, with its escapes
/// decoded (`\" \\ \/ \b \f \n \r \t \uXXXX`, surrogate pairs included);
/// `None` if the key is missing, or the string is unterminated or holds a
/// bad escape.
pub fn json_str(s: &str, key: &str) -> Option<String> {
    let pattern = format!("\"{key}\":\"");
    let mut chars = s[s.find(&pattern)? + pattern.len()..].chars();
    let mut out = String::new();
    loop {
        let c = match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                c @ ('"' | '\\' | '/') => c,
                'b' => '\u{8}',
                'f' => '\u{c}',
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => unicode_escape(&mut chars)?,
                _ => return None,
            },
            c => c,
        };
        out.push(c);
    }
}

/// The character of a `\uXXXX` escape whose `\u` `chars` has just
/// passed, reading the low half of a surrogate pair too.
fn unicode_escape(chars: &mut std::str::Chars<'_>) -> Option<char> {
    let hi = hex4(chars)?;
    if !(0xd800..0xdc00).contains(&hi) {
        return char::from_u32(hi);
    }
    if (chars.next()?, chars.next()?) != ('\\', 'u') {
        return None;
    }
    let lo = hex4(chars).filter(|lo| (0xdc00..0xe000).contains(lo))?;
    char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))
}

/// The value of the next four hex digits of `chars`.
fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    (0..4).try_fold(0, |n, _| Some(n * 16 + chars.next()?.to_digit(16)?))
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
             \"histograms\":{},\"histogram_families\":{},\"registry_size\":0}"
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

    #[test]
    fn json_str_decodes_every_escape_json_string_writes() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for value in ["t\"0", "a\\b", "\n\r\t", &controls, "π ✓ 😀", "", "\\\""] {
            let doc = format!("{{\"tenant\":{},\"verb\":\"compile\"}}", json_string(value));
            assert_eq!(json_str(&doc, "tenant").as_deref(), Some(value), "{doc}");
            assert_eq!(json_str(&doc, "verb").as_deref(), Some("compile"));
        }
        // Escapes other writers use: `\/`, `\b`, `\f`, upper-case hex and
        // a surrogate pair.
        let doc = r#"{"s":"\/\b\f\u00E9\ud83d\ude00"}"#;
        assert_eq!(json_str(doc, "s").as_deref(), Some("/\u{8}\u{c}é😀"));
        for bad in [
            r#"{"s":"\x"}"#,
            r#"{"s":"\ud83d"}"#,
            r#"{"s":"\u12"}"#,
            r#"{"s":"open"#,
        ] {
            assert_eq!(json_str(bad, "s"), None, "{bad}");
        }
        assert_eq!(json_str(r#"{"s":"x"}"#, "t"), None);
    }

    #[test]
    fn json_section_balances_nested_braces_and_strings() {
        let s = r#"{"outer":{"inner":{"x":1},"s":"a}b{c","y":2},"tail":3}"#;
        let sec = json_section(s, "\"outer\":{").unwrap();
        assert!(sec.contains("\"y\":2"));
        assert!(!sec.contains("tail"));
        assert_eq!(json_u64(sec, "y"), Some(2));
        assert_eq!(json_str(sec, "s").as_deref(), Some("a}b{c"));
        let list = r#"{"records":[{"a":{"b":"}"}}, {"c":1}],"d":[{}]}"#;
        let objects = json_objects(list, "\"records\":[");
        assert_eq!(objects, [r#"{"a":{"b":"}"}}"#, r#"{"c":1}"#]);
        assert_eq!(json_u64(objects[1], "c"), Some(1));
        assert!(json_objects(list, "\"none\":[").is_empty());
    }
}
