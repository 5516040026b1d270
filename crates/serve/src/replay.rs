//! A deterministic traffic-replay load harness for `lgend`.
//!
//! Replays a seeded synthetic workload against a running daemon: several
//! concurrent client connections, several tenants, a controlled fraction
//! of duplicate fingerprints (the coalescing/caching signal), and a
//! controlled fraction of malformed traffic (frames that are not frames,
//! oversized announcements, requests that are not requests). The same
//! seed replays the same byte streams, so CI failures reproduce locally.
//!
//! The harness accounts per-request results from *response headers*
//! (`outcome: memory|disk|compiled|coalesced`), then fetches one
//! `stats --json` document at the end for the daemon-side view: request
//! latency quantiles, per-tenant request counts and service-time p99.
//! It also *audits* the daemon: the per-tenant counts must sum exactly
//! to the daemon's request total (labeled families and the unlabeled
//! counter move together), or replay fails. The [`ReplayReport`] renders
//! to the JSON consumed by `ci.sh` as `BENCH_serve.json`.

use crate::client::Client;
use crate::proto::{Request, Verb};
use lgen_telemetry::{json_section, json_u64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// Workload shape; see field docs. Percentages are of total requests.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Daemon socket to replay against.
    pub socket: PathBuf,
    /// Total well-formed requests to send.
    pub requests: usize,
    /// Concurrent client connections (requests are split round-robin).
    pub connections: usize,
    /// Distinct tenants cycling over requests.
    pub tenants: usize,
    /// Percent of requests that reuse an earlier request's fingerprint.
    pub duplicate_pct: usize,
    /// Percent of *additional* malformed sends (on dedicated
    /// connections, so a dropped connection never eats a real request).
    pub malformed_pct: usize,
    /// RNG seed; same seed, same workload.
    pub seed: u64,
}

impl ReplayConfig {
    /// The CI shape: 1000 requests, 4 connections, 3 tenants, 30%
    /// duplicates, 2% malformed, seed 7.
    pub fn new(socket: impl Into<PathBuf>) -> ReplayConfig {
        ReplayConfig {
            socket: socket.into(),
            requests: 1000,
            connections: 4,
            tenants: 3,
            duplicate_pct: 30,
            malformed_pct: 2,
            seed: 7,
        }
    }
}

/// What one replay run observed (client side + daemon-side quantiles).
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Well-formed requests sent.
    pub requests: usize,
    /// `ok` responses.
    pub ok: usize,
    /// `error busy` responses (admission pushback; retried once).
    pub busy: usize,
    /// Other error responses.
    pub errors: usize,
    /// Responses served from the in-memory cache.
    pub memory_hits: usize,
    /// Responses served from the persistent disk tier.
    pub disk_hits: usize,
    /// Responses that piggybacked on an identical in-flight compile.
    pub coalesced: usize,
    /// Responses that ran the pipeline.
    pub compiled: usize,
    /// Malformed sends performed.
    pub malformed_sent: usize,
    /// Malformed sends that were answered with `error bad-request`
    /// (the rest just had their connection dropped — also acceptable).
    pub malformed_answered: usize,
    /// Daemon-side p50 of `lgen.serve.request_wall_us`.
    pub p50_us: u64,
    /// Daemon-side p99 of `lgen.serve.request_wall_us`.
    pub p99_us: u64,
    /// Daemon-side total request count (includes this harness's own
    /// final `stats` request).
    pub daemon_requests_total: u64,
    /// Daemon-side per-tenant `(tenant, requests, service-time p99 µs)`,
    /// sorted by tenant name.
    pub tenants: Vec<(String, u64, u64)>,
}

impl ReplayReport {
    /// Fraction of ok responses served without running the pipeline.
    pub fn hit_rate(&self) -> f64 {
        if self.ok == 0 {
            return 0.0;
        }
        (self.memory_hits + self.disk_hits + self.coalesced) as f64 / self.ok as f64
    }

    /// Fraction of ok responses that coalesced onto an in-flight compile.
    pub fn coalesce_rate(&self) -> f64 {
        if self.ok == 0 {
            return 0.0;
        }
        self.coalesced as f64 / self.ok as f64
    }

    /// Stable JSON rendering (consumed by `ci.sh` → `BENCH_serve.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"requests\": {}, \"ok\": {}, \"busy\": {}, \"errors\": {}, ",
            self.requests, self.ok, self.busy, self.errors
        );
        let _ = write!(
            s,
            "\"memory_hits\": {}, \"disk_hits\": {}, \"coalesced\": {}, \"compiled\": {}, ",
            self.memory_hits, self.disk_hits, self.coalesced, self.compiled
        );
        let _ = write!(
            s,
            "\"malformed_sent\": {}, \"malformed_answered\": {}, ",
            self.malformed_sent, self.malformed_answered
        );
        let _ = write!(
            s,
            "\"hit_rate\": {:.4}, \"coalesce_rate\": {:.4}, \"p50_us\": {}, \"p99_us\": {}, ",
            self.hit_rate(),
            self.coalesce_rate(),
            self.p50_us,
            self.p99_us
        );
        let _ = write!(
            s,
            "\"daemon_requests_total\": {}, \"tenants\": {{",
            self.daemon_requests_total
        );
        for (i, (tenant, requests, p99)) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{tenant}\": {{\"requests\": {requests}, \"service_p99_us\": {p99}}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// One well-formed request descriptor, fully determined by the seed.
#[derive(Clone)]
struct Shot {
    tenant: String,
    name: String,
    source: String,
}

/// The distinct program pool: small LL programs across shapes and
/// targets so compiles are quick but not identical.
fn program_pool(seed: u64) -> Vec<(String, String)> {
    let mut pool = Vec::new();
    for n in [2usize, 3, 4, 6, 8] {
        pool.push((
            format!("mvm{n}"),
            format!("A = matrix({n}, {n})\nx = vector({n})\ny = vector({n})\ny = A * x;"),
        ));
        pool.push((
            format!("axpy{n}"),
            format!("x = vector({n})\ny = vector({n})\nz = vector({n})\nz = x + y;"),
        ));
    }
    for n in [2usize, 4] {
        pool.push((
            format!("chain{n}"),
            format!(
                "A = matrix({n}, {n})\nx = vector({n})\ny = vector({n})\n\
                 t = A * x; y = A * t;"
            ),
        ));
    }
    // Seed-dependent rotation so different seeds stress different
    // first-arrival orders without changing the pool itself.
    let rot = (seed as usize) % pool.len();
    pool.rotate_left(rot);
    pool
}

/// Builds the deterministic request schedule.
fn schedule(cfg: &ReplayConfig) -> Vec<Shot> {
    let pool = program_pool(cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut shots: Vec<Shot> = Vec::with_capacity(cfg.requests);
    // Fresh fingerprints come from suffixing the kernel name with a
    // unique id; duplicates reuse an earlier shot verbatim.
    let mut fresh = 0usize;
    for i in 0..cfg.requests {
        let tenant = format!("tenant-{}", i % cfg.tenants.max(1));
        let duplicate = !shots.is_empty() && rng.gen_range(0..100) < cfg.duplicate_pct;
        if duplicate {
            let prev = &shots[rng.gen_range(0..shots.len())];
            shots.push(Shot {
                tenant,
                name: prev.name.clone(),
                source: prev.source.clone(),
            });
        } else {
            let (base, source) = &pool[fresh % pool.len()];
            shots.push(Shot {
                tenant,
                name: format!("{base}_u{fresh}"),
                source: source.clone(),
            });
            fresh += 1;
        }
    }
    shots
}

/// Malformed byte streams sent on dedicated connections.
fn malformed_payloads() -> Vec<Vec<u8>> {
    let oversized = {
        let mut v = Vec::new();
        v.extend_from_slice(&u32::MAX.to_le_bytes());
        v
    };
    let truncated = {
        // Announces 64 bytes, sends 3, hangs up.
        let mut v = Vec::new();
        v.extend_from_slice(&64u32.to_le_bytes());
        v.extend_from_slice(b"abc");
        v
    };
    let not_utf8 = {
        let payload = [0xffu8, 0xfe, 0x00, 0x9f];
        let mut v = Vec::new();
        v.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v.extend_from_slice(&payload);
        v
    };
    let bad_verb = {
        let payload = b"frobnicate\n\n";
        let mut v = Vec::new();
        v.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v.extend_from_slice(payload);
        v
    };
    vec![oversized, truncated, not_utf8, bad_verb]
}

/// Runs the replay. The daemon must already be serving on
/// `config.socket`.
pub fn replay(config: &ReplayConfig) -> io::Result<ReplayReport> {
    let shots = schedule(config);
    let lanes: Vec<Vec<Shot>> = {
        let mut lanes = vec![Vec::new(); config.connections.max(1)];
        for (i, s) in shots.into_iter().enumerate() {
            lanes[i % config.connections.max(1)].push(s);
        }
        lanes
    };

    let mut report = ReplayReport::default();
    let lane_reports: Vec<io::Result<ReplayReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                let socket = config.socket.clone();
                scope.spawn(move || replay_lane(&socket, &lane))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for lr in lane_reports {
        let lr = lr?;
        report.requests += lr.requests;
        report.ok += lr.ok;
        report.busy += lr.busy;
        report.errors += lr.errors;
        report.memory_hits += lr.memory_hits;
        report.disk_hits += lr.disk_hits;
        report.coalesced += lr.coalesced;
        report.compiled += lr.compiled;
    }

    // Malformed traffic, each on a throwaway connection so the protocol
    // damage cannot leak into the accounted lanes.
    let n_malformed = config.requests * config.malformed_pct / 100;
    let payloads = malformed_payloads();
    for i in 0..n_malformed {
        let mut c = Client::connect_within(&config.socket, Duration::from_secs(5))?;
        // A bounded read, not an unbounded one: for a truncated frame the
        // daemon rightly waits for the rest of the announced bytes, and
        // reading forever would deadlock with it. Timing out and hanging
        // up is exactly what a broken client does.
        c.set_read_timeout(Some(Duration::from_millis(250)))?;
        report.malformed_sent += 1;
        if c.send_raw(&payloads[i % payloads.len()]).is_ok() && c.read_response().is_ok() {
            report.malformed_answered += 1;
        }
        // Dropped connections are the expected outcome for the rest.
    }

    // Daemon-side view from one `stats --json` document: latency
    // quantiles, per-tenant counts and service p99 — and the audit that
    // the per-tenant labeled counters sum exactly to the daemon's
    // unlabeled request total (the stats request itself bumps both
    // before snapshotting, so a quiesced daemon must balance).
    let mut c = Client::connect_within(&config.socket, Duration::from_secs(5))?;
    let stats = c
        .stats_json()
        .map_err(|e| io::Error::other(e.to_string()))?;
    audit_stats_json(&stats.body, &mut report)?;
    Ok(report)
}

/// Parses the daemon's `stats --json` body into `report` and performs
/// the per-tenant accounting audit. Field order in the document is a
/// stable contract (see `server::stats_json_response`), which is what
/// lets this scan by key without a JSON parser.
fn audit_stats_json(body: &str, report: &mut ReplayReport) -> io::Result<()> {
    let wall = json_section(body, "\"lgen.serve.request_wall_us\":{")
        .ok_or_else(|| io::Error::other("stats json: missing request_wall_us histogram"))?;
    report.p50_us = json_u64(wall, "p50").unwrap_or(0);
    report.p99_us = json_u64(wall, "p99").unwrap_or(0);
    report.daemon_requests_total = json_u64(body, "requests_total")
        .ok_or_else(|| io::Error::other("stats json: missing requests_total"))?;

    let by_tenant = json_section(body, "\"by_tenant\":{")
        .ok_or_else(|| io::Error::other("stats json: missing by_tenant"))?;
    let mut rest = by_tenant;
    let mut tenant_sum = 0u64;
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('"') else { break };
        let tenant = after[..close].to_string();
        let obj_start = match after.find(":{") {
            Some(p) => p + 2,
            None => break,
        };
        let Some(section) = json_section(after, ":{") else {
            break;
        };
        let requests = json_u64(section, "requests").unwrap_or(0);
        let p99 = json_section(section, "\"service_us\":{")
            .and_then(|h| json_u64(h, "p99"))
            .unwrap_or(0);
        tenant_sum += requests;
        report.tenants.push((tenant, requests, p99));
        // Hop past this tenant's whole object (including its closing
        // brace) before scanning for the next tenant name.
        rest = &after[obj_start + section.len() + 1..];
    }
    report.tenants.sort();

    if tenant_sum != report.daemon_requests_total {
        return Err(io::Error::other(format!(
            "stats json audit: per-tenant requests sum to {tenant_sum} \
             but requests_total is {} — labeled and unlabeled counters diverged",
            report.daemon_requests_total
        )));
    }
    Ok(())
}

/// Replays one connection's shots in order, retrying `busy` once after a
/// short backoff (admission pushback is part of the contract, not a
/// failure).
fn replay_lane(socket: &PathBuf, lane: &[Shot]) -> io::Result<ReplayReport> {
    let mut report = ReplayReport::default();
    if lane.is_empty() {
        return Ok(report);
    }
    let mut client = Client::connect_within(socket, Duration::from_secs(5))?;
    for shot in lane {
        report.requests += 1;
        let req = Request::new(Verb::Compile)
            .with("tenant", &shot.tenant)
            .with("name", &shot.name)
            .with_body(&shot.source);
        let mut resp = client
            .request(&req)
            .map_err(|e| io::Error::other(e.to_string()))?;
        if resp.error == Some(crate::proto::ErrorKind::Busy) {
            report.busy += 1;
            std::thread::sleep(Duration::from_millis(5));
            resp = client
                .request(&req)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        if resp.is_ok() {
            report.ok += 1;
            match resp.headers.get("outcome").map(String::as_str) {
                Some("memory") => report.memory_hits += 1,
                Some("disk") => report.disk_hits += 1,
                Some("coalesced") => report.coalesced += 1,
                Some("compiled") => report.compiled += 1,
                _ => {}
            }
        } else {
            report.errors += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_duplicate_heavy() {
        let cfg = ReplayConfig {
            socket: PathBuf::from("/nonexistent"),
            requests: 500,
            connections: 4,
            tenants: 3,
            duplicate_pct: 30,
            malformed_pct: 2,
            seed: 7,
        };
        let a = schedule(&cfg);
        let b = schedule(&cfg);
        assert_eq!(a.len(), 500);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.name == y.name && x.source == y.source && x.tenant == y.tenant));
        // Duplicate fraction lands near the configured 30%.
        let mut seen = std::collections::HashSet::new();
        let dups = a.iter().filter(|s| !seen.insert(s.name.clone())).count();
        assert!(
            (20..=45).contains(&(dups * 100 / a.len())),
            "duplicate fraction {dups}/{} off target",
            a.len()
        );
        // All tenants participate.
        let tenants: std::collections::HashSet<_> = a.iter().map(|s| &s.tenant).collect();
        assert_eq!(tenants.len(), 3);
    }

    #[test]
    fn report_json_has_the_ci_contract_keys() {
        let r = ReplayReport {
            requests: 10,
            ok: 9,
            memory_hits: 3,
            coalesced: 2,
            compiled: 4,
            p50_us: 40,
            p99_us: 900,
            ..Default::default()
        };
        let json = r.to_json();
        for key in [
            "\"requests\"",
            "\"hit_rate\"",
            "\"coalesce_rate\"",
            "\"p50_us\"",
            "\"p99_us\"",
            "\"compiled\"",
        ] {
            assert!(json.contains(key), "{json}");
        }
        assert!((r.hit_rate() - 5.0 / 9.0).abs() < 1e-9);
        for key in ["\"daemon_requests_total\"", "\"tenants\""] {
            assert!(json.contains(key), "{json}");
        }
    }

    /// A miniature but shape-faithful `stats --json` document.
    fn fake_stats(total: u64, a: u64, b: u64) -> String {
        format!(
            "{{\"service\":{{\"requests_total\":{total},\"queue_depth\":0,\
             \"by_tenant\":{{\
             \"tenant-a\":{{\"requests\":{a},\
             \"queue_wait_us\":{{\"p50\":1,\"p99\":2}},\
             \"service_us\":{{\"p50\":10,\"p99\":450}}}},\
             \"tenant-b\":{{\"requests\":{b},\
             \"queue_wait_us\":{{\"p50\":1,\"p99\":2}},\
             \"service_us\":{{\"p50\":11,\"p99\":900}}}}\
             }},\"by_verb\":{{}}}},\
             \"metrics\":{{\"histograms\":{{\
             \"lgen.serve.request_wall_us\":{{\"count\":{total},\"p50\":32,\"p99\":2048}}\
             }}}}}}"
        )
    }

    #[test]
    fn stats_json_audit_extracts_tenants_and_quantiles() {
        let mut report = ReplayReport::default();
        audit_stats_json(&fake_stats(10, 6, 4), &mut report).unwrap();
        assert_eq!(report.daemon_requests_total, 10);
        assert_eq!(report.p50_us, 32);
        assert_eq!(report.p99_us, 2048);
        assert_eq!(
            report.tenants,
            vec![
                ("tenant-a".to_string(), 6, 450),
                ("tenant-b".to_string(), 4, 900)
            ]
        );
    }

    #[test]
    fn stats_json_audit_rejects_diverged_tenant_counts() {
        let mut report = ReplayReport::default();
        let err = audit_stats_json(&fake_stats(11, 6, 4), &mut report).unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
    }
}
