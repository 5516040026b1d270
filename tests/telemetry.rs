//! Telemetry integration tests: the Chrome trace exporter's exact JSON
//! shape (golden file + schema assertions), the span-nesting invariant
//! under randomly shaped span trees, and end-to-end span capture across a
//! real compile and a multi-threaded tune.

use lgen::prelude::*;
use lgen::telemetry::{chrome_trace, SpanRecord, Telemetry};
use lgen::{core::KernelCache, core::SearchStrategy, ll::paper};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn rec(
    id: u64,
    parent: Option<u64>,
    name: &str,
    start: u64,
    dur: u64,
    tid: u64,
    attrs: &[(&str, &str)],
) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        name: name.to_string(),
        start_us: start,
        dur_us: dur,
        tid,
        attrs: attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
}

/// A fixed span set covering both tracks, attributes, and parent links.
fn golden_spans() -> Vec<SpanRecord> {
    vec![
        rec(1, None, "compile", 10, 90, 0, &[("kernel", "gemv")]),
        rec(2, Some(1), "codegen", 12, 30, 0, &[]),
        rec(
            3,
            None,
            "candidate",
            15,
            40,
            1,
            &[("outcome", "ok"), ("cache", "miss")],
        ),
    ]
}

/// The exporter's byte-exact output is part of the contract (field order
/// matters to downstream parsers). Regenerate after an intentional change
/// with `LGEN_BLESS=1 cargo test --test telemetry`.
#[test]
fn chrome_trace_matches_the_golden_file() {
    let actual = chrome_trace(&golden_spans());
    let path = format!(
        "{}/tests/golden/chrome_trace.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("LGEN_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with LGEN_BLESS=1)"));
    assert_eq!(
        actual, expected,
        "exporter output diverged from tests/golden/chrome_trace.json; LGEN_BLESS=1 to regenerate"
    );
}

#[test]
fn chrome_trace_schema_has_required_fields_in_stable_order() {
    let json = chrome_trace(&golden_spans());
    // Required trace_event fields are all present.
    for field in [
        "\"ph\":\"X\"",
        "\"ts\":",
        "\"dur\":",
        "\"pid\":1",
        "\"tid\":",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
    // Field order within an event is stable: name, cat, ph, ts, dur, pid,
    // tid, args — byte order, not just presence.
    let event = json
        .split("{\"name\":\"compile\"")
        .nth(1)
        .expect("compile event present");
    let order = [
        "\"cat\":",
        "\"ph\":",
        "\"ts\":",
        "\"dur\":",
        "\"pid\":",
        "\"tid\":",
        "\"args\":",
    ];
    let mut last = 0;
    for key in order {
        let at = event.find(key).unwrap_or_else(|| panic!("{key} missing"));
        assert!(at > last, "{key} out of order in {event}");
        last = at;
    }
    // One metadata event per track, labelling main and worker threads.
    assert!(json.contains("\"args\":{\"name\":\"main\"}"), "{json}");
    assert!(json.contains("\"args\":{\"name\":\"worker-1\"}"), "{json}");
}

/// Recursively opens nested spans in a randomly branching shape.
fn build_tree(t: &Telemetry, depth: usize, seed: &mut u64) {
    let mut next = || {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    };
    let mut guard = t.span("node");
    guard.attr("depth", depth);
    if depth == 0 {
        return;
    }
    let children = (next() % 4) as usize;
    for _ in 0..children {
        build_tree(t, depth - 1, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every recorded span's interval nests inside its parent's, whatever
    /// the tree shape — the invariant Perfetto's flame chart rendering
    /// depends on.
    #[test]
    fn span_intervals_nest_inside_their_parents(
        seed in any::<u64>(),
        depth in 1usize..6,
        roots in 1usize..4,
    ) {
        let t = Telemetry::new(true);
        let mut s = seed | 1;
        for _ in 0..roots {
            build_tree(&t, depth, &mut s);
        }
        let spans = t.snapshot();
        assert!(!spans.is_empty());
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|r| (r.id, r)).collect();
        for span in &spans {
            if let Some(pid) = span.parent {
                let parent = by_id[&pid];
                assert!(
                    span.start_us >= parent.start_us,
                    "child starts before parent: {span:?} in {parent:?}"
                );
                assert!(
                    span.end_us() <= parent.end_us(),
                    "child outlives parent: {span:?} in {parent:?}"
                );
                assert_eq!(span.tid, parent.tid, "parent adopted across threads");
            }
        }
    }
}

/// Descendant span ids of `root` (inclusive), following parent links.
fn subtree(spans: &[SpanRecord], root: u64) -> Vec<&SpanRecord> {
    let mut ids = vec![root];
    let mut out: Vec<&SpanRecord> = spans.iter().filter(|s| s.id == root).collect();
    let mut grew = true;
    while grew {
        grew = false;
        for s in spans {
            if s.parent.is_some_and(|p| ids.contains(&p)) && !ids.contains(&s.id) {
                ids.push(s.id);
                out.push(s);
                grew = true;
            }
        }
    }
    out
}

#[test]
fn a_real_compile_emits_one_span_per_stage() {
    lgen::telemetry::set_enabled(true);
    let blac = paper::gemv(4, 8);
    let cfg = CompileConfig::full(Microarch::Atom);
    lgen::core::try_compile(&blac, "telemetry_e2e_compile", &cfg).unwrap();
    let spans = lgen::telemetry::global().snapshot();
    let root = spans
        .iter()
        .find(|s| s.name == "compile" && s.attr("kernel") == Some("telemetry_e2e_compile"))
        .expect("compile span recorded");
    assert_eq!(root.attr("ok"), Some("true"));
    let tree = subtree(&spans, root.id);
    for stage in [
        "codegen",
        "ll_tiling",
        "sigma_ll_rewrite",
        "unroll",
        "scalrep",
        "copyprop",
        "dce",
        "align",
    ] {
        assert!(
            tree.iter().any(|s| s.name == stage),
            "no `{stage}` span under the compile span"
        );
    }
    // Pass spans absorb the PassStats measurements as attributes.
    let unroll = tree.iter().find(|s| s.name == "unroll").unwrap();
    assert!(unroll.attr("pass_ns").is_some());
    assert!(unroll.attr("changed").is_some());
}

#[test]
fn a_threaded_tune_tags_candidate_spans_with_outcome_and_cache() {
    lgen::telemetry::set_enabled(true);
    let blac = paper::axpy(16);
    let cache = Arc::new(KernelCache::new());
    let tuner = Autotuner::new(CompileConfig::full(Microarch::Atom))
        .with_strategy(SearchStrategy::Random(4))
        .with_threads(2)
        .with_cache(cache);
    tuner.try_tune(&blac, "telemetry_e2e_tune").unwrap();
    let spans = lgen::telemetry::global().snapshot();
    let candidates: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "candidate" && s.attr("kernel") == Some("telemetry_e2e_tune"))
        .collect();
    assert!(
        (1..=4).contains(&candidates.len()),
        "one span per evaluated candidate (sample size 4), got {}",
        candidates.len()
    );
    for c in &candidates {
        assert!(
            matches!(c.attr("outcome"), Some("ok") | Some("rejected")),
            "unexpected outcome: {c:?}"
        );
        assert!(
            matches!(c.attr("cache"), Some("hit") | Some("miss")),
            "candidate span missing its cache tag: {c:?}"
        );
        assert!(c.attr("unroll").is_some());
    }
    assert!(
        candidates.iter().any(|c| c.attr("cache") == Some("miss")),
        "a cold tune must compile at least once"
    );
    // The tune span itself is recorded on the driving thread.
    assert!(spans
        .iter()
        .any(|s| s.name == "tune" && s.attr("kernel") == Some("telemetry_e2e_tune")));
}

#[test]
fn metrics_dump_contains_compile_and_cache_keys() {
    lgen::telemetry::set_enabled(true);
    let blac = paper::gemv(4, 4);
    let cache = KernelCache::new();
    let cfg = CompileConfig::full(Microarch::Atom);
    cache.get_or_compile(&blac, "telemetry_metrics_kernel", &cfg);
    let text = lgen::telemetry::format_metrics(&lgen::telemetry::registry().snapshot());
    for key in [
        "lgen.cache.hits ",
        "lgen.cache.misses ",
        "lgen.compile.count ",
        "lgen.compile.wall_us.count ",
    ] {
        assert!(text.contains(key), "metrics dump missing {key}:\n{text}");
    }
}
