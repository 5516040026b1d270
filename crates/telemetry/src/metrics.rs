//! The process-wide metrics registry.
//!
//! Counters, gauges, and fixed-bucket latency histograms, all plain
//! atomics: the autotuner's worker pool and the Mediator's core workers
//! record without taking any lock. The registry itself (name → handle)
//! takes a short mutex only at *registration*; call sites cache the
//! returned `&'static` handle (e.g. in a `OnceLock`) and every subsequent
//! update is lock-free.
//!
//! Metric names are dot-separated lowercase (`lgen.cache.hits`,
//! `lgen.mediator.queue_wait_us`); histogram names end in their unit.
//! [`MetricsSnapshot`] reads every metric in one pass and renders to the
//! stable `name value` line format `lgenc --metrics` dumps (and `ci.sh`
//! greps).

use crate::labels::{Family, FamilySnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Histogram bucket upper bounds: powers of two from 1 µs to ~1 s, plus
/// an overflow bucket. Fixed so concurrent recording is a single
/// `fetch_add` with no resizing.
pub(crate) const BUCKET_BOUNDS: [u64; 20] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536, 262144, 1048576,
    4194304, 16777216,
];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram (bucket bounds in
/// `BUCKET_BOUNDS`, values in the metric's unit — microseconds by
/// convention).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (`BUCKET_BOUNDS.len() + 1` entries; last is
    /// overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Upper bucket bound at or above quantile `q` (0.0–1.0); 0 when
    /// empty. Bucketed, so an approximation from above.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return BUCKET_BOUNDS.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The standard reporting quantiles in one pass (all 0 when empty).
    /// Each is an upper bucket bound — an approximation from above — and
    /// observations past the last bound report [`Self::max`].
    pub(crate) fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

/// The p50/p90/p99/p999 upper bounds of a [`HistogramSnapshot`], in the
/// histogram's unit (microseconds by convention).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Percentiles {
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// 99.9th-percentile upper bound.
    pub p999: u64,
}

/// Name → handle tables. Handles are leaked `Box`es: the metric set is
/// small and fixed-per-process, and `&'static` is what makes the hot
/// path lock-free.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
    counter_families: Mutex<BTreeMap<String, &'static Family<Counter>>>,
    histogram_families: Mutex<BTreeMap<String, &'static Family<Histogram>>>,
}

impl MetricsRegistry {
    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        Self::intern(&self.counters, name)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        Self::intern(&self.gauges, name)
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        Self::intern(&self.histograms, name)
    }

    /// The labeled counter family named `name`, registering it on first
    /// use. `keys` are fixed at registration; passing different keys for
    /// an existing family returns the original registration.
    pub fn counter_family(&self, name: &str, keys: &[&str]) -> &'static Family<Counter> {
        Self::intern_family(&self.counter_families, name, keys)
    }

    /// The labeled histogram family named `name` (see
    /// [`Self::counter_family`]).
    pub fn histogram_family(&self, name: &str, keys: &[&str]) -> &'static Family<Histogram> {
        Self::intern_family(&self.histogram_families, name, keys)
    }

    /// Registered metric names across every table (plain and labeled) —
    /// the registry-size figure surfaced in `format_metrics` so operators
    /// can watch for unbounded growth.
    pub fn len(&self) -> usize {
        fn n<T>(t: &Mutex<BTreeMap<String, T>>) -> usize {
            t.lock().unwrap_or_else(PoisonError::into_inner).len()
        }
        n(&self.counters)
            + n(&self.gauges)
            + n(&self.histograms)
            + n(&self.counter_families)
            + n(&self.histogram_families)
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn intern_family<T: Default>(
        table: &Mutex<BTreeMap<String, &'static Family<T>>>,
        name: &str,
        keys: &[&str],
    ) -> &'static Family<T> {
        let mut table = table.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = table.get(name) {
            return f;
        }
        let leaked: &'static Family<T> = Box::leak(Box::new(Family::new(name, keys)));
        table.insert(name.to_string(), leaked);
        leaked
    }

    fn intern<T: Default>(table: &Mutex<BTreeMap<String, &'static T>>, name: &str) -> &'static T {
        // Swallow poisoning: the table holds only leaked pointers, which a
        // panicked registrant cannot leave half-written, and a poisoned
        // registry must not wedge every later metric user in the daemon.
        let mut table = table.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(m) = table.get(name) {
            return m;
        }
        let leaked: &'static T = Box::leak(Box::default());
        table.insert(name.to_string(), leaked);
        leaked
    }

    /// Reads every registered metric in one pass, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Taken before the per-table reads below: their lock guards are
        // temporaries that live to the end of the whole struct expression,
        // so calling `self.len()` (which re-locks every table) from a
        // field initializer would self-deadlock.
        let registry_size = self.len();
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
            counter_families: self
                .counter_families
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(n, f)| (n.clone(), f.snapshot()))
                .collect(),
            histogram_families: self
                .histogram_families
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(n, f)| (n.clone(), f.snapshot()))
                .collect(),
            registry_size,
        }
    }
}

/// One coherent read of the whole registry (counters, gauges,
/// histograms), names sorted; renders to the `lgenc --metrics` dump
/// format via [`crate::summary::format_metrics`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, snapshot)` for every labeled counter family.
    pub counter_families: Vec<(String, FamilySnapshot<u64>)>,
    /// `(name, snapshot)` for every labeled histogram family.
    pub histogram_families: Vec<(String, FamilySnapshot<HistogramSnapshot>)>,
    /// Registered metric names across every table at snapshot time.
    pub registry_size: usize,
}

/// The process-global registry.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

/// The process-global counter named `name`.
pub fn counter(name: &str) -> &'static Counter {
    registry().counter(name)
}

/// The process-global gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    registry().gauge(name)
}

/// The process-global histogram named `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    registry().histogram(name)
}

/// The process-global labeled counter family named `name`.
pub fn counter_family(name: &str, keys: &[&str]) -> &'static Family<Counter> {
    registry().counter_family(name, keys)
}

/// The process-global labeled histogram family named `name`.
pub fn histogram_family(name: &str, keys: &[&str]) -> &'static Family<Histogram> {
    registry().histogram_family(name, keys)
}

/// A `&'static Counter` resolved once per call site: the registry lookup
/// (and its mutex) runs only on the first hit; afterwards the expansion is
/// one acquire load plus the atomic update — safe for worker-pool hot
/// paths.
#[macro_export]
macro_rules! metric_counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// A `&'static Histogram` resolved once per call site (see
/// [`metric_counter!`]).
#[macro_export]
macro_rules! metric_histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::histogram($name))
    }};
}

/// A `&'static Gauge` resolved once per call site (see
/// [`metric_counter!`]).
#[macro_export]
macro_rules! metric_gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::gauge($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let r = MetricsRegistry::default();
        r.counter("a.b").add(3);
        r.counter("a.b").inc();
        assert_eq!(r.counter("a.b").get(), 4);
        assert_eq!(r.counter("a.c").get(), 0);
    }

    #[test]
    fn gauges_set_and_add() {
        let r = MetricsRegistry::default();
        r.gauge("g").set(10);
        r.gauge("g").add(-3);
        assert_eq!(r.gauge("g").get(), 7);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [1u64, 2, 2, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5105);
        assert_eq!(s.max, 5000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
        assert!(s.quantile(0.5) <= 128, "median bound: {}", s.quantile(0.5));
        assert!(s.quantile(1.0) >= 5000);
        assert!((s.mean() - 1021.0).abs() < 1.0);
        // Overflow bucket catches huge values.
        h.record(u64::MAX);
        assert_eq!(*h.snapshot().buckets.last().unwrap(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = MetricsRegistry::default();
        r.counter("z.last").inc();
        r.counter("a.first").inc();
        r.histogram("m.hist_us").record(7);
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].1.count, 1);
    }

    #[test]
    fn static_handle_macros_hit_one_registry_entry() {
        crate::metric_counter!("macro.test.counter").inc();
        crate::metric_counter!("macro.test.counter").inc(); // distinct call site
        assert_eq!(crate::counter("macro.test.counter").get(), 2);
        crate::metric_histogram!("macro.test.us").record(5);
        assert_eq!(crate::histogram("macro.test.us").count(), 1);
    }

    #[test]
    fn percentiles_of_empty_histogram_are_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(
            s.percentiles(),
            Percentiles {
                p50: 0,
                p90: 0,
                p99: 0,
                p999: 0
            }
        );
    }

    #[test]
    fn percentiles_of_single_bucket_fill_pin_that_bound() {
        // 1000 observations of value 3 land in the `<= 4` bucket, so every
        // quantile reports that bucket's upper bound exactly.
        let h = Histogram::default();
        for _ in 0..1000 {
            h.record(3);
        }
        let p = h.snapshot().percentiles();
        assert_eq!(
            p,
            Percentiles {
                p50: 4,
                p90: 4,
                p99: 4,
                p999: 4
            }
        );
    }

    #[test]
    fn percentiles_of_saturating_last_bucket_report_max() {
        // Everything overflows the final bound, so all quantiles fall back
        // to the recorded max rather than a bucket bound.
        let h = Histogram::default();
        let big = BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1] + 1;
        for i in 0..10u64 {
            h.record(big + i);
        }
        let p = h.snapshot().percentiles();
        assert_eq!(p.p50, big + 9);
        assert_eq!(p.p99, big + 9);
        assert_eq!(p.p999, big + 9);
    }

    #[test]
    fn percentiles_split_across_two_buckets() {
        // 90 observations <= 4 and 10 observations <= 1024: p50/p90 bound
        // at 4, p99/p999 at 1024.
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(3);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let p = h.snapshot().percentiles();
        assert_eq!(
            p,
            Percentiles {
                p50: 4,
                p90: 4,
                p99: 1024,
                p999: 1024
            }
        );
    }

    #[test]
    fn families_register_once_and_snapshot() {
        let r = MetricsRegistry::default();
        let f = r.counter_family("fam.requests", &["tenant"]);
        f.with(&["a"]).inc();
        // Same name returns the same family (keys from first registration).
        r.counter_family("fam.requests", &["ignored"])
            .with(&["a"])
            .inc();
        r.histogram_family("fam.wait_us", &["tenant"])
            .with(&["a"])
            .record(9);
        let s = r.snapshot();
        assert_eq!(s.counter_families.len(), 1);
        assert_eq!(s.counter_families[0].1.get(&["a"]), Some(&2));
        assert_eq!(s.histogram_families[0].1.get(&["a"]).unwrap().count, 1);
        assert_eq!(s.registry_size, 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = MetricsRegistry::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        r.counter("hot").inc();
                        r.histogram("hot_us").record(3);
                    }
                });
            }
        });
        assert_eq!(r.counter("hot").get(), 8000);
        assert_eq!(r.histogram("hot_us").count(), 8000);
    }
}
