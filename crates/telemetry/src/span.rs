//! Hierarchical spans over a shared monotonic clock.
//!
//! A span is opened with [`Telemetry::span`] (or the free [`span`]
//! function for the process-global collector) and recorded when its
//! [`SpanGuard`] drops. Parent links come from a per-thread stack: a span
//! opened while another span of the same collector is live on the same
//! thread becomes its child, which is exactly the call-tree shape the
//! compile pipeline produces (compile → codegen → each pass). Worker
//! threads get stable numeric track ids ([`SpanRecord::tid`]), so a
//! multi-threaded tune renders one Perfetto track per worker.
//!
//! **Zero overhead when disabled.** [`Telemetry::span`] reads one relaxed
//! atomic; when collection is off it returns an inert guard without
//! touching the clock, the heap, or any lock. Attribute setters on an
//! inert guard are no-ops (callers can skip building expensive attribute
//! values via [`SpanGuard::is_recording`]).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on buffered spans per collector: a runaway trace stops
/// recording (and counts drops) instead of exhausting memory.
pub(crate) const MAX_SPANS: usize = 1 << 20;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Collector-unique id (dense, starts at 1).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Span name (a pipeline stage, a pass, `candidate`, …).
    pub name: String,
    /// Microseconds since the collector's epoch (monotonic).
    pub start_us: u64,
    /// Duration in microseconds (`end_us - start_us`, both floored
    /// against the same epoch, so a child's interval always nests inside
    /// its parent's).
    pub dur_us: u64,
    /// Stable per-thread track id (0 = the first thread that recorded).
    pub tid: u64,
    /// `key=value` attributes in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// End of the span, microseconds since the epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// The value of attribute `key`, if set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Process-wide thread-track allocator (shared across collectors so one
/// thread renders on one track no matter which collector recorded).
/// Starts at 0: the first thread to record — the main thread, in
/// practice — takes track 0, which the exporters label `main`.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Collector instance ids, so nested guards of *different* collectors on
/// one thread never adopt each other as parents.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's track id.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Live spans on this thread: `(collector instance, span id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Per-thread collector override: while set, the free [`span`]
    /// function records here instead of [`global`]. This is how `lgend`
    /// captures a single request's span tree for tail-sampled slow-request
    /// tracing without enabling process-wide collection.
    static OVERRIDE: Cell<Option<&'static Telemetry>> = const { Cell::new(None) };
}

/// A span collector. Most code uses the process-global one ([`global`]);
/// tests build their own for isolation.
pub struct Telemetry {
    instance: u64,
    enabled: AtomicBool,
    next_id: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field(
                "spans",
                &self
                    .spans
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len(),
            )
            .finish()
    }
}

impl Telemetry {
    /// A collector, recording iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (already-live guards finish recording).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a span. When recording is off this is one atomic load and
    /// an inert guard.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { active: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s
                .iter()
                .rev()
                .find(|(inst, _)| *inst == self.instance)
                .map(|(_, id)| *id);
            s.push((self.instance, id));
            parent
        });
        SpanGuard {
            active: Some(ActiveSpan {
                t: self,
                id,
                parent,
                name: name.to_string(),
                attrs: Vec::new(),
                start: Instant::now(),
            }),
        }
    }

    /// Microseconds since this collector's epoch.
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A copy of every recorded span, in completion order.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Takes every recorded span, leaving the buffer empty.
    pub fn drain(&self) -> Vec<SpanRecord> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Spans discarded because the buffer hit `MAX_SPANS`.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    // Span-buffer locks swallow poisoning throughout: the critical
    // sections only push/clone/take a Vec (no half-written state to
    // observe), and a candidate panicking with the buffer locked must not
    // wedge every later span in a long-running service.
    fn record(&self, rec: SpanRecord) {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if spans.len() >= MAX_SPANS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(rec);
    }
}

struct ActiveSpan<'a> {
    t: &'a Telemetry,
    id: u64,
    parent: Option<u64>,
    name: String,
    attrs: Vec<(String, String)>,
    start: Instant,
}

/// RAII handle for a live span: records on drop.
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl SpanGuard<'_> {
    /// Whether this guard will record (false on the disabled path —
    /// callers can skip building expensive attribute values).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a `key=value` attribute. No-op on an inert guard.
    pub fn attr(&mut self, key: &str, value: impl fmt::Display) {
        if let Some(a) = &mut self.active {
            a.attrs.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(mut a) = self.active.take() else {
            return;
        };
        if std::thread::panicking() {
            a.attrs.push(("panicked".to_string(), "true".to_string()));
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|e| *e == (a.t.instance, a.id)) {
                s.remove(pos);
            }
        });
        // Both endpoints floor against the same epoch, so a child's
        // [start_us, end_us] always nests inside its parent's.
        let start_us = a.start.duration_since(a.t.epoch).as_micros() as u64;
        let end_us = a.t.now_us();
        a.t.record(SpanRecord {
            id: a.id,
            parent: a.parent,
            name: std::mem::take(&mut a.name),
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            tid: TID.with(|t| *t),
            attrs: std::mem::take(&mut a.attrs),
        });
    }
}

/// The process-global collector. Starts enabled iff `LGEN_TRACE` is set
/// to anything but `0`/empty; flip at runtime with [`set_enabled`].
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let on = std::env::var("LGEN_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
        Telemetry::new(on)
    })
}

/// Opens a span on this thread's current collector: the scoped override
/// installed by [`scoped_collector`] when one is live, the process-global
/// collector otherwise.
pub fn span(name: &str) -> SpanGuard<'static> {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(global).span(name)
}

/// Routes this thread's free [`span`] calls to `collector` until the
/// returned guard drops (RAII — restores the previous override even on
/// panic unwind, which matters because `lgend` installs one inside each
/// request's job, which runs under `catch_unwind`). Nesting is supported:
/// the guard remembers and restores whatever override was live before it.
pub fn scoped_collector(collector: &'static Telemetry) -> CollectorScope {
    let prev = OVERRIDE.with(|o| o.replace(Some(collector)));
    CollectorScope { prev }
}

/// RAII guard from [`scoped_collector`]: restores the previous per-thread
/// collector override on drop.
pub struct CollectorScope {
    prev: Option<&'static Telemetry>,
}

impl Drop for CollectorScope {
    fn drop(&mut self) {
        OVERRIDE.with(|o| o.set(self.prev));
    }
}

/// Enables or disables the process-global collector.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let t = Telemetry::new(false);
        {
            let mut g = t.span("root");
            assert!(!g.is_recording());
            g.attr("k", "v");
        }
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn spans_nest_by_thread_stack() {
        let t = Telemetry::new(true);
        {
            let _root = t.span("root");
            {
                let _child = t.span("child");
                let _grandchild = t.span("grandchild");
            }
            let _sibling = t.span("sibling");
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("root");
        assert_eq!(root.parent, None);
        assert_eq!(by_name("child").parent, Some(root.id));
        assert_eq!(by_name("grandchild").parent, Some(by_name("child").id));
        assert_eq!(by_name("sibling").parent, Some(root.id));
        // Intervals nest.
        for s in &spans {
            if let Some(p) = s.parent {
                let p = spans.iter().find(|x| x.id == p).unwrap();
                assert!(
                    p.start_us <= s.start_us,
                    "{} starts before {}",
                    s.name,
                    p.name
                );
                assert!(s.end_us() <= p.end_us(), "{} ends after {}", s.name, p.name);
            }
        }
    }

    #[test]
    fn attributes_are_kept_in_order() {
        let t = Telemetry::new(true);
        {
            let mut g = t.span("s");
            assert!(g.is_recording());
            g.attr("first", 1);
            g.attr("second", "two");
        }
        let spans = t.snapshot();
        assert_eq!(
            spans[0].attrs,
            vec![
                ("first".to_string(), "1".to_string()),
                ("second".to_string(), "two".to_string())
            ]
        );
        assert_eq!(spans[0].attr("second"), Some("two"));
        assert_eq!(spans[0].attr("third"), None);
    }

    #[test]
    fn two_collectors_do_not_adopt_each_others_spans() {
        let a = Telemetry::new(true);
        let b = Telemetry::new(true);
        {
            let _outer = a.span("outer");
            let _inner = b.span("inner");
            let _leaf = a.span("leaf");
        }
        let inner = &b.snapshot()[0];
        assert_eq!(inner.parent, None, "collector b has no live parent span");
        let spans = a.snapshot();
        let leaf = spans.iter().find(|s| s.name == "leaf").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(leaf.parent, Some(outer.id));
    }

    #[test]
    fn cross_thread_spans_get_distinct_tracks() {
        let t = Telemetry::new(true);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _g = t.span("worker");
                });
            }
        });
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].tid, spans[1].tid);
    }

    #[test]
    fn drain_empties_the_buffer() {
        let t = Telemetry::new(true);
        t.span("one");
        assert_eq!(t.drain().len(), 1);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn scoped_collector_redirects_free_span_and_restores() {
        let scoped: &'static Telemetry = Box::leak(Box::new(Telemetry::new(true)));
        {
            let _scope = crate::span::scoped_collector(scoped);
            let _g = crate::span::span("captured");
        }
        let spans = scoped.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "captured");
        // Override gone: free span() goes back to the (disabled-by-default
        // in tests) global collector, not the scoped one.
        let before = scoped.snapshot().len();
        let _g = crate::span::span("after-scope");
        assert_eq!(scoped.snapshot().len(), before);
    }

    #[test]
    fn scoped_collector_restores_across_panic() {
        let scoped: &'static Telemetry = Box::leak(Box::new(Telemetry::new(true)));
        let result = std::panic::catch_unwind(|| {
            let _scope = crate::span::scoped_collector(scoped);
            let _g = crate::span::span("doomed");
            panic!("boom");
        });
        assert!(result.is_err());
        // The unwind dropped the scope; later spans are not captured.
        let after = scoped.snapshot().len();
        let _g = crate::span::span("post-panic");
        drop(_g);
        assert_eq!(scoped.snapshot().len(), after);
        // The doomed span itself was recorded with the panicked marker.
        let spans = scoped.snapshot();
        let doomed = spans.iter().find(|s| s.name == "doomed").unwrap();
        assert_eq!(doomed.attr("panicked"), Some("true"));
    }

    #[test]
    fn scoped_collectors_nest() {
        let outer: &'static Telemetry = Box::leak(Box::new(Telemetry::new(true)));
        let inner: &'static Telemetry = Box::leak(Box::new(Telemetry::new(true)));
        {
            let _a = crate::span::scoped_collector(outer);
            {
                let _b = crate::span::scoped_collector(inner);
                let _g = crate::span::span("in-inner");
            }
            let _g = crate::span::span("in-outer");
        }
        assert_eq!(inner.snapshot()[0].name, "in-inner");
        assert_eq!(outer.snapshot()[0].name, "in-outer");
    }

    #[test]
    fn buffer_cap_counts_drops() {
        let t = Telemetry::new(true);
        // Fill the buffer artificially cheaply: record directly.
        for i in 0..3 {
            t.record(SpanRecord {
                id: i,
                parent: None,
                name: "x".into(),
                start_us: 0,
                dur_us: 0,
                tid: 1,
                attrs: Vec::new(),
            });
        }
        t.spans
            .lock()
            .unwrap()
            .resize_with(MAX_SPANS, || SpanRecord {
                id: 0,
                parent: None,
                name: String::new(),
                start_us: 0,
                dur_us: 0,
                tid: 1,
                attrs: Vec::new(),
            });
        t.span("overflow");
        assert_eq!(t.dropped(), 1);
    }
}
