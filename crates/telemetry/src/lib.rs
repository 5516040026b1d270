//! Unified telemetry for the compile/tune/measure path.
//!
//! LGen's value proposition is *measured* performance, so the toolchain
//! needs to know where its own time goes. This crate provides the three
//! pieces every layer shares:
//!
//! * **hierarchical spans** ([`span`](fn@span), [`Telemetry`]) — monotonic
//!   start/duration in microseconds since the process telemetry epoch,
//!   parent links via a per-thread span stack, and `key=value` attributes.
//!   Span collection is gated by an atomic flag: when disabled (the
//!   default), [`span()`] performs a single relaxed load and returns an
//!   inert guard — no clock read, no allocation, no lock (the "no-op
//!   sink" the overhead bench asserts on);
//! * a **process-wide metrics registry** ([`metrics`]) — named counters,
//!   gauges, and fixed-bucket latency histograms behind atomics, so the
//!   autotuner's worker pool records without locking. Registration takes
//!   a short-lived lock once per name; handles are `&'static` and
//!   lock-free thereafter;
//! * two **exporters** — a human-readable tree summary ([`summary`]) and
//!   Chrome `trace_event` JSON ([`chrome`]) that `chrome://tracing` and
//!   Perfetto open as a flame chart, one track per worker thread.
//!
//! The compile pipeline, the C-IR pass manager, the kernel cache, the
//! autotuner, and the Mediator all record against [`global()`];
//! `lgenc --trace-out <file.json>`, `--metrics`, and `LGEN_TRACE=1`
//! surface the result.

pub mod chrome;
pub mod json;
pub mod labels;
pub mod metrics;
pub mod span;
pub mod summary;

pub use chrome::chrome_trace;
pub use json::{json_objects, json_section, json_str, json_string, json_u64, metrics_json};
pub use labels::{Family, FamilySnapshot};
pub use metrics::{
    counter, counter_family, gauge, histogram, histogram_family, registry, Counter, Gauge,
    Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use span::{
    global, scoped_collector, set_enabled, span, CollectorScope, SpanGuard, SpanRecord, Telemetry,
};
pub use summary::{format_metrics, summary_tree};
