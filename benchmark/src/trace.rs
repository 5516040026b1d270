//! In-memory spans and counts recorded by the benchmark around its calls
//! into each layer's public functions. Nothing here reaches into the
//! crates: a span covers exactly one call made from this package.
//!
//! Spans stay in memory while the workload runs; the caller writes them
//! out once ([`Tracer::chrome_json`]), when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The op (request) this span belongs to; spans of one op share it.
    pub op: u64,
    /// Which phase thread recorded it (a track in the written trace).
    pub track: u32,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    track: u32,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(epoch: Instant, track: u32) -> Tracer {
        Tracer {
            epoch,
            track,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread.
    pub fn fork(&self, track: u32) -> Tracer {
        Tracer::new(self.epoch, track)
    }

    /// Starts a new op: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, nested under any open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            dur_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            track: self.track,
        });
        self.open.push(idx);
        let start = Instant::now();
        let out = f(self);
        let dur = start.elapsed();
        self.open.pop();
        let span = &mut self.spans[idx];
        span.start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        span.dur_ns = dur.as_nanos() as u64;
        out
    }

    /// Records one observation of a count at the current boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Self times in µs of every span named `name`: its duration minus
    /// the part covered by its child spans.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns.saturating_sub(child_ns[i]) as f64 / 1e3)
            .collect()
    }

    pub fn counts(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Folds another tracer's spans and counts into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            self.counts.entry(k).or_default().extend(v);
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Chrome `trace_event` JSON (open in Perfetto or chrome://tracing).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.track,
                s.op,
                s.parent.map_or(-1, |p| p as i64)
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.next_op();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = t.self_us("outer")[0];
        let inner = t.self_us("inner")[0];
        assert!(inner >= 5000.0);
        assert!(outer < inner, "outer self {outer} vs inner {inner}");
        assert!(t.chrome_json().contains("\"name\":\"inner\""));
    }
}
