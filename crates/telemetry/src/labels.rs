//! Labeled metric families: counters and histograms keyed by a
//! small, fixed set of label *keys* (declared at registration) and a
//! bounded set of label *values* (interned on first use).
//!
//! The service needs per-tenant and per-verb breakdowns
//! (`lgen.serve.tenant_requests{tenant=team-a,verb=compile}`), but the
//! hot path must stay as cheap as the unlabeled registry: a resolved
//! series handle is a plain `&'static Counter`/`Histogram`, so updates
//! are single atomics, and *resolution* ([`Family::with`]) is lock-free —
//! an open-addressed table of `OnceLock` slots probed by an FNV hash of
//! the label values. Only the very first observation of a new label
//! combination takes the `OnceLock` initialization path; every later
//! lookup is an atomic load plus a short string comparison.
//!
//! **Cardinality rules.** A family holds at most `MAX_SERIES` distinct
//! label combinations (the table has `SLOTS` slots to keep probe
//! chains short). Combinations beyond the cap are routed to a single
//! synthetic overflow series (label values `__overflow__`) and counted,
//! so an unbounded label (a client-controlled tenant id, say) degrades
//! into one aggregate series instead of unbounded memory. Label values
//! are rendered verbatim into `name{key=value}` rows; keep them to
//! `[A-Za-z0-9._-]` by convention (tenant names, verbs, outcome tokens).

use crate::metrics::{Counter, Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Open-addressed slots per family (fixed, so lookup never reallocates).
pub(crate) const SLOTS: usize = 128;

/// Maximum distinct label combinations per family; excess observations
/// are routed to the synthetic overflow series.
pub(crate) const MAX_SERIES: usize = 64;

/// The label values of the synthetic overflow series.
pub(crate) const OVERFLOW_VALUE: &str = "__overflow__";

/// One interned label combination and its metric.
struct Series<T> {
    values: Box<[String]>,
    metric: T,
}

impl<T: Default> Series<T> {
    fn new(values: &[&str]) -> Series<T> {
        Series {
            values: values.iter().map(|v| v.to_string()).collect(),
            metric: T::default(),
        }
    }

    fn matches(&self, values: &[&str]) -> bool {
        self.values.len() == values.len() && self.values.iter().zip(values).all(|(a, b)| a == b)
    }
}

/// A labeled metric family (see module docs). `T` is one of the plain
/// registry metrics: [`Counter`] or [`Histogram`].
pub struct Family<T: 'static> {
    name: String,
    keys: Box<[String]>,
    slots: Box<[OnceLock<Series<T>>]>,
    len: AtomicUsize,
    overflow: Series<T>,
    overflow_used: AtomicBool,
    overflowed: AtomicU64,
}

fn fnv(values: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ["ab",""] and ["a","b"] hash apart.
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl<T: Default + 'static> Family<T> {
    pub(crate) fn new(name: &str, keys: &[&str]) -> Family<T> {
        Family {
            name: name.to_string(),
            keys: keys.iter().map(|k| k.to_string()).collect(),
            slots: (0..SLOTS).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
            overflow: Series {
                values: keys.iter().map(|_| OVERFLOW_VALUE.to_string()).collect(),
                metric: T::default(),
            },
            overflow_used: AtomicBool::new(false),
            overflowed: AtomicU64::new(0),
        }
    }

    /// The family's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared label keys, in declaration order.
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// Distinct label combinations interned so far (excluding overflow).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no combination has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Observations routed to the overflow series because the family hit
    /// [`MAX_SERIES`].
    pub(crate) fn overflowed(&self) -> u64 {
        self.overflowed.load(Ordering::Relaxed)
    }

    /// The metric for the given label values (in key declaration order),
    /// interning the series on first use. Lock-free: probes `OnceLock`
    /// slots by value hash; a family past its cardinality cap answers
    /// with the shared overflow series instead of growing.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `values.len()` matches the declared key count.
    pub fn with(&self, values: &[&str]) -> &T {
        debug_assert_eq!(
            values.len(),
            self.keys.len(),
            "family {} declared {} label key(s)",
            self.name,
            self.keys.len()
        );
        let h = fnv(values) as usize;
        for probe in 0..SLOTS {
            let slot = &self.slots[(h + probe) % SLOTS];
            match slot.get() {
                Some(s) if s.matches(values) => return &s.metric,
                Some(_) => continue, // occupied by another combination
                None => {
                    // The cap is checked before claiming a slot; concurrent
                    // first-observations of different series can overshoot
                    // by a few — the cap bounds memory, it is not an exact
                    // quota.
                    if self.len.load(Ordering::Relaxed) >= MAX_SERIES {
                        break;
                    }
                    let s = slot.get_or_init(|| {
                        self.len.fetch_add(1, Ordering::Relaxed);
                        Series::new(values)
                    });
                    if s.matches(values) {
                        return &s.metric;
                    }
                    // Lost the initialization race to a different
                    // combination; keep probing.
                }
            }
        }
        self.overflow_used.store(true, Ordering::Relaxed);
        self.overflowed.fetch_add(1, Ordering::Relaxed);
        &self.overflow.metric
    }

    /// Every live series as `(label values, metric)` sorted by values
    /// (the overflow series last, when used).
    fn series(&self) -> Vec<(&[String], &T)> {
        let mut out: Vec<(&[String], &T)> = self
            .slots
            .iter()
            .filter_map(|s| s.get())
            .map(|s| (&s.values[..], &s.metric))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        if self.overflow_used.load(Ordering::Relaxed) {
            out.push((&self.overflow.values[..], &self.overflow.metric));
        }
        out
    }
}

impl Family<Counter> {
    /// A point-in-time copy of every series.
    pub fn snapshot(&self) -> FamilySnapshot<u64> {
        self.snap(|c| c.get())
    }
}

impl Family<Histogram> {
    /// A point-in-time copy of every series.
    pub fn snapshot(&self) -> FamilySnapshot<HistogramSnapshot> {
        self.snap(|h| h.snapshot())
    }
}

impl<T: Default + 'static> Family<T> {
    fn snap<V>(&self, read: impl Fn(&T) -> V) -> FamilySnapshot<V> {
        FamilySnapshot {
            keys: self.keys.to_vec(),
            series: self
                .series()
                .into_iter()
                .map(|(values, m)| (values.to_vec(), read(m)))
                .collect(),
            overflowed: self.overflowed(),
        }
    }
}

/// Point-in-time view of a [`Family`]: label keys, every interned series
/// (values sorted; overflow last when used), and the overflow count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FamilySnapshot<V> {
    /// Label keys in declaration order.
    pub keys: Vec<String>,
    /// `(label values, value)` per series, sorted by values.
    pub series: Vec<(Vec<String>, V)>,
    /// Observations routed to the overflow series.
    pub overflowed: u64,
}

impl<V> FamilySnapshot<V> {
    /// Renders one series' labels as `{k=v,k2=v2}` in key order.
    pub(crate) fn label_string(&self, values: &[String]) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.keys.iter().zip(values).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s.push('}');
        s
    }

    /// The value recorded for exactly `values`, if that series exists.
    pub fn get(&self, values: &[&str]) -> Option<&V> {
        self.series
            .iter()
            .find(|(v, _)| v.len() == values.len() && v.iter().zip(values).all(|(a, b)| a == b))
            .map(|(_, val)| val)
    }
}

/// A `&'static Family<Counter>` resolved once per call site (see
/// [`crate::metric_counter!`]); label keys are fixed at first expansion.
#[macro_export]
macro_rules! metric_counter_family {
    ($name:expr, $($key:expr),+ $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Family<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::counter_family($name, &[$($key),+]))
    }};
}

/// A `&'static Family<Histogram>` resolved once per call site (see
/// [`crate::metric_counter_family!`]).
#[macro_export]
macro_rules! metric_histogram_family {
    ($name:expr, $($key:expr),+ $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Family<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::histogram_family($name, &[$($key),+]))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_labels_intern_to_one_series() {
        let f: Family<Counter> = Family::new("t.requests", &["tenant", "verb"]);
        f.with(&["a", "compile"]).add(2);
        f.with(&["a", "compile"]).inc();
        f.with(&["b", "compile"]).inc();
        assert_eq!(f.len(), 2);
        let s = f.snapshot();
        assert_eq!(s.get(&["a", "compile"]), Some(&3));
        assert_eq!(s.get(&["b", "compile"]), Some(&1));
        assert_eq!(s.get(&["c", "compile"]), None);
        assert_eq!(s.overflowed, 0);
    }

    #[test]
    fn series_are_sorted_and_labels_render_in_key_order() {
        let f: Family<Counter> = Family::new("t.sorted", &["tenant"]);
        for t in ["zeta", "alpha", "mid"] {
            f.with(&[t]).inc();
        }
        let s = f.snapshot();
        let names: Vec<&str> = s.series.iter().map(|(v, _)| v[0].as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        assert_eq!(s.label_string(&s.series[0].0), "{tenant=alpha}");
    }

    #[test]
    fn cardinality_cap_routes_to_overflow() {
        let f: Family<Counter> = Family::new("t.cap", &["tenant"]);
        for i in 0..(MAX_SERIES + 10) {
            f.with(&[&format!("tenant-{i}")]).inc();
        }
        assert_eq!(f.len(), MAX_SERIES);
        assert_eq!(f.overflowed(), 10);
        let s = f.snapshot();
        assert_eq!(s.series.len(), MAX_SERIES + 1, "overflow series present");
        let (values, count) = s.series.last().unwrap();
        assert_eq!(values[0], OVERFLOW_VALUE);
        assert_eq!(*count, 10);
        // Established series still resolve exactly.
        f.with(&["tenant-0"]).inc();
        assert_eq!(f.snapshot().get(&["tenant-0"]), Some(&2));
    }

    #[test]
    fn distinct_value_splits_hash_apart() {
        let f: Family<Counter> = Family::new("t.split", &["a", "b"]);
        f.with(&["ab", ""]).inc();
        f.with(&["a", "b"]).inc();
        let s = f.snapshot();
        assert_eq!(s.series.len(), 2);
        assert_eq!(s.get(&["ab", ""]), Some(&1));
        assert_eq!(s.get(&["a", "b"]), Some(&1));
    }

    #[test]
    fn histogram_families_snapshot_percentiles() {
        let f: Family<Histogram> = Family::new("t.wait_us", &["tenant"]);
        for v in [1u64, 2, 4, 100] {
            f.with(&["a"]).record(v);
        }
        let s = f.snapshot();
        let h = s.get(&["a"]).unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 107);
    }

    #[test]
    fn concurrent_interning_never_loses_updates() {
        let f: Family<Counter> = Family::new("t.conc", &["tenant"]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..200 {
                        f.with(&[&format!("tenant-{}", i % 16)]).inc();
                    }
                });
            }
        });
        let snap = f.snapshot();
        let total: u64 = snap.series.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 8 * 200);
        assert_eq!(f.len(), 16);
    }
}
