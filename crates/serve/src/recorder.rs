//! The request flight recorder: a fixed-capacity ring of the last N
//! per-request records.
//!
//! The daemon keeps one [`FlightRecorder`] and appends a [`FlightRecord`]
//! after every compile/tune request — sequence number, tenant, verb,
//! fingerprint, which cache tier answered, the coalesce role, queue-wait
//! and service nanoseconds, outcome token, and worker id. The ring is
//! dumped on demand via the `dump` protocol verb (rendered by `lgen-cli
//! tail`) and snapshotted to disk automatically when a worker panic is
//! contained, so the requests leading up to a crash are preserved even
//! when nobody was watching.
//!
//! **Never blocks the hot path.** A writer claims a slot index with one
//! `fetch_add` and then `try_lock`s that slot: if a (much slower) dump is
//! holding it, the record is counted as dropped instead of making the
//! worker wait. Readers lock slot-by-slot, so a dump sees each record
//! atomically but the ring as a whole is only causally consistent — fine
//! for a diagnostic tail.

use lgen_telemetry::json_string;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Which cache tier satisfied a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// In-memory kernel cache.
    Memory,
    /// Persistent disk cache.
    Disk,
    /// Ran the compile pipeline.
    Compiled,
    /// Not applicable (errors, follower answers carry the leader's tier).
    None,
}

impl CacheTier {
    /// The token used on the wire and in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheTier::Memory => "memory",
            CacheTier::Disk => "disk",
            CacheTier::Compiled => "compiled",
            CacheTier::None => "none",
        }
    }
}

/// How a request interacted with the coalescer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoalesceRole {
    /// Ran the compile closure for its fingerprint.
    Leader,
    /// Piggybacked on an identical in-flight compile.
    Follower,
}

impl CoalesceRole {
    /// The token used on the wire and in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            CoalesceRole::Leader => "leader",
            CoalesceRole::Follower => "follower",
        }
    }
}

/// One request's flight record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Daemon-wide request sequence number.
    pub seq: u64,
    /// Fairness lane the request billed to.
    pub tenant: String,
    /// `compile` or `tune`.
    pub verb: &'static str,
    /// Stable request fingerprint (0 when the request failed before
    /// fingerprinting).
    pub fingerprint: u64,
    /// Which cache tier answered.
    pub tier: CacheTier,
    /// Coalesce role.
    pub role: CoalesceRole,
    /// Nanoseconds spent queued before a worker picked the request up.
    pub queue_wait_ns: u64,
    /// Nanoseconds of worker service time (handling, excluding queue).
    pub service_ns: u64,
    /// Outcome token: `memory|disk|compiled|coalesced` or an error kind.
    pub outcome: String,
    /// Index of the worker thread that served the request.
    pub worker: usize,
}

impl FlightRecord {
    /// Renders as a single stable-field-order JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"tenant\":{},\"verb\":\"{}\",\
             \"fingerprint\":\"{:016x}\",\"tier\":\"{}\",\"role\":\"{}\",\
             \"queue_wait_ns\":{},\"service_ns\":{},\"outcome\":{},\
             \"worker\":{}}}",
            self.seq,
            json_string(&self.tenant),
            self.verb,
            self.fingerprint,
            self.tier.as_str(),
            self.role.as_str(),
            self.queue_wait_ns,
            self.service_ns,
            json_string(&self.outcome),
            self.worker
        )
    }
}

/// Slot content: the claim ticket that wrote it plus the record, so a
/// dump can restore arrival order across wrap-around.
type Slot = Mutex<Option<(u64, FlightRecord)>>;

/// Fixed-capacity lock-free-on-write ring of recent requests (see module
/// docs).
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` records (min 1).
    pub fn new(cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        FlightRecorder {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records accepted (including ones since overwritten).
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records refused because their slot was held by a reader.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends one record. Claims a slot with a single `fetch_add`, then
    /// `try_lock`s it — on contention (a dump in progress) the record is
    /// dropped and counted rather than blocking the worker.
    pub fn record(&self, rec: FlightRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut s) => {
                // A slower writer may still hold an older ticket for this
                // slot; keep whichever is newer.
                if s.as_ref().is_none_or(|(t, _)| *t < ticket) {
                    *s = Some((ticket, rec));
                }
                self.recorded.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The retained records, oldest first.
    pub fn dump(&self) -> Vec<FlightRecord> {
        let mut out: Vec<(u64, FlightRecord)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        out.sort_by_key(|(ticket, _)| *ticket);
        out.into_iter().map(|(_, rec)| rec).collect()
    }

    /// Renders the ring as stable-order JSON:
    /// `{"cap":..,"recorded":..,"dropped":..,"records":[...]}` with
    /// records oldest first.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"cap\":{},\"recorded\":{},\"dropped\":{},\"records\":[",
            self.capacity(),
            self.recorded(),
            self.dropped()
        );
        for (i, rec) in self.dump().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&rec.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> FlightRecord {
        FlightRecord {
            seq,
            tenant: format!("tenant-{}", seq % 3),
            verb: "compile",
            fingerprint: seq.wrapping_mul(0x9e37),
            tier: CacheTier::Compiled,
            role: CoalesceRole::Leader,
            queue_wait_ns: 100,
            service_ns: 2000,
            outcome: "compiled".to_string(),
            worker: 0,
        }
    }

    #[test]
    fn ring_keeps_the_last_cap_records_in_order() {
        let r = FlightRecorder::new(4);
        for seq in 0..10 {
            r.record(rec(seq));
        }
        let dump = r.dump();
        let seqs: Vec<u64> = dump.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn partial_fill_dumps_only_written_slots() {
        let r = FlightRecorder::new(8);
        r.record(rec(1));
        r.record(rec(2));
        let dump = r.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].seq, 1);
        assert_eq!(dump[1].seq, 2);
    }

    #[test]
    fn json_has_stable_fields() {
        let r = FlightRecorder::new(2);
        r.record(rec(5));
        let json = r.to_json();
        assert!(json.starts_with("{\"cap\":2,\"recorded\":1,\"dropped\":0,\"records\":["));
        assert!(json.contains("\"seq\":5"));
        assert!(json.contains("\"tenant\":\"tenant-2\""));
        assert!(json.contains("\"verb\":\"compile\""));
        assert!(json.contains("\"tier\":\"compiled\""));
        assert!(json.contains("\"role\":\"leader\""));
        assert!(json.contains("\"outcome\":\"compiled\""));
    }

    #[test]
    fn concurrent_writers_never_block_and_account_fully() {
        let r = FlightRecorder::new(64);
        std::thread::scope(|s| {
            for w in 0..8u64 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..500 {
                        r.record(rec(w * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(r.recorded() + r.dropped(), 4000);
        let dump = r.dump();
        assert!(dump.len() <= 64);
        // Order is by claim ticket: strictly increasing in the dump.
        let seqs: Vec<u64> = dump.iter().map(|x| x.seq).collect();
        assert!(!seqs.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let r = FlightRecorder::new(0);
        assert_eq!(r.capacity(), 1);
        r.record(rec(1));
        assert_eq!(r.dump().len(), 1);
    }
}
