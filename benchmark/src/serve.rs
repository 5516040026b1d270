//! The `serve` workload: `compile` requests to the shipped `lgend`
//! (`--cache-dir <fresh dir>`, the default 2 workers), closed loop over
//! 2 connections.
//!
//! The request mix, per block of twenty requests in seeded order:
//! - 18 repeats of a small hot set, served from memory;
//! - 1 first touch of a key an earlier daemon persisted during set-up,
//!   served from disk;
//! - 1 fresh key, which compiles and then writes (fsync) to disk.
//!
//! Disk and fresh keys are one in twenty each: every fresh or persisted
//! key costs an fsync'd file, fsync latency on a shared host varies
//! severalfold from run to run, and a heavier disk share made the run's
//! figures follow the host's disk instead of the daemon.
//!
//! Set-up starts a daemon, persists the disk keys through it, shuts it
//! down, warm-restarts a second daemon on the same directory, and primes
//! the hot set plus a few keys of each tier. The run stops early if it
//! uses up its schedule, so the mix never drifts.

use crate::inputs::{self, target_name, variant_name, Input, PoolSpec, Rng};
use crate::json;
use crate::layers::{compile_as_daemon, contained, simulate_as_program};
use crate::stats::{self, fnv};
use crate::trace::Tracer;
use crate::{med, peak_rss_mb, repeated_setup, Args, Report, Sample, PINNED_ENV};
use lgen_core::{stable_fingerprint, CompileConfig, DiskCache, ProgramCacheKey};
use lgen_serve::proto::{Request, Response, Verb};
use lgen_serve::Client;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Inputs behind the keys; sizes capped (64, programs 8) so a fresh
/// compile stays in the sub-millisecond range and the daemon's memory
/// tier stays small.
const SPEC: PoolSpec = PoolSpec {
    len: 570,
    max_size: 64,
    max_program_size: 8,
    extra_every: 0,
    prune_every: 0,
};

/// The hot set: the pool's first ten rounds, ten keys per family.
const HOT: usize = 190;
/// Served kernels the traced phase stores, loads and round-trips through
/// the codec in-process.
const PERSIST_SAMPLE: usize = 256;
/// Keys of each tier touched while priming the restarted daemon.
const WARM: usize = 24;
/// Schedule blocks per second of run time: above what the daemon sustains
/// on two cores, so the run ends on time, not on an exhausted schedule.
const BLOCKS_PER_SECOND: f64 = 400.0;
const CONNECTIONS: usize = 2;
/// `lgend`'s default worker count, used by the measured daemon.
const WORKERS: usize = 2;
/// Workers (and connections) of the set-up daemon that persists the disk
/// keys: its fsyncs overlap, so set-up time depends less on fsync latency.
const PERSIST_WORKERS: usize = 8;
/// Requests per schedule block: hot-set repeats, one disk first touch,
/// and fresh keys.
const BLOCK: usize = 20;
const HOT_PER_BLOCK: usize = 18;
const FRESH_PER_BLOCK: usize = BLOCK - 1 - HOT_PER_BLOCK;
const TENANT: &str = "bench";
/// `peak_rss_mb` is read when this many timed requests were answered (or
/// at the end of a shorter run): the memory tier grows with every new key,
/// so a fixed amount of work, not the run's speed, sets the figure.
const RSS_AFTER: usize = 40_000;
/// Flight-recorder ring size for traced runs: a full dump (about 190
/// bytes a record) stays under the protocol's 1 MiB frame cap.
const RECORDER_CAP: usize = 4096;
/// How often the traced run drains the ring; well under the time the
/// daemon takes to serve `RECORDER_CAP` requests.
const DUMP_EVERY: Duration = Duration::from_millis(250);
/// Set-up directory index of the traced phase (untraced runs use 0..3).
const TRACED_REP: usize = 3;

struct Key {
    input: usize,
    name: String,
}

struct Plan {
    pool: Vec<Input>,
    keys: Vec<Key>,
    /// Persisted by the first daemon: the disk keys and the warm disk keys.
    persist: Vec<usize>,
    /// Requested once by the restarted daemon before the timed loop.
    prime: Vec<usize>,
    /// Timed requests, as key ids.
    slots: Vec<usize>,
}

fn plan(seed: u64, seconds: f64) -> Plan {
    let pool = inputs::pool(seed, SPEC);
    let mut rng = Rng::new(seed ^ 0x5e4e_d0c5);
    let blocks = (seconds * BLOCKS_PER_SECOND).ceil() as usize;
    let mut keys = Vec::new();
    let add = |keys: &mut Vec<Key>, input: usize, name: String| {
        keys.push(Key { input, name });
        keys.len() - 1
    };
    let hot: Vec<usize> = (0..HOT)
        .map(|j| add(&mut keys, j % pool.len(), format!("hot_{j}")))
        .collect();
    let new_keys = |keys: &mut Vec<Key>, rng: &mut Rng, prefix: &str, n: usize| {
        (0..n)
            .map(|j| add(keys, rng.below(pool.len()), format!("{prefix}_{j}")))
            .collect::<Vec<_>>()
    };
    let disk = new_keys(&mut keys, &mut rng, "disk", blocks);
    let compiled = new_keys(&mut keys, &mut rng, "fresh", FRESH_PER_BLOCK * blocks);
    let warm_disk = new_keys(&mut keys, &mut rng, "warmdisk", WARM);
    let warm_fresh = new_keys(&mut keys, &mut rng, "warm", WARM);
    let mut slots = Vec::with_capacity(BLOCK * blocks);
    for b in 0..blocks {
        let mut block: Vec<usize> = (0..HOT_PER_BLOCK).map(|_| hot[rng.below(HOT)]).collect();
        block.push(disk[b]);
        block.extend_from_slice(&compiled[FRESH_PER_BLOCK * b..FRESH_PER_BLOCK * (b + 1)]);
        rng.shuffle(&mut block);
        slots.extend(block);
    }
    let persist = disk.iter().chain(&warm_disk).copied().collect();
    let prime = hot
        .iter()
        .chain(&warm_disk)
        .chain(&warm_fresh)
        .copied()
        .collect();
    Plan {
        pool,
        keys,
        persist,
        prime,
        slots,
    }
}

fn request(plan: &Plan, key: usize, tenant: &str) -> Request {
    let k = &plan.keys[key];
    let input = &plan.pool[k.input];
    Request::new(Verb::Compile)
        .with("tenant", tenant)
        .with("name", &k.name)
        .with("target", target_name(input.target))
        .with("variant", variant_name(input.variant))
        .with_body(&input.text)
}

/// A spawned `lgend`; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(
        lgend: &Path,
        dir: &Path,
        workers: usize,
        recorder_cap: Option<usize>,
    ) -> Result<Daemon, String> {
        let socket = dir.join("d.sock");
        let _ = std::fs::remove_file(&socket);
        let mut cmd = Command::new(lgend);
        cmd.arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .args(["--workers", &workers.to_string()]);
        if let Some(cap) = recorder_cap {
            cmd.args(["--recorder-cap", &cap.to_string()]);
        }
        for var in PINNED_ENV {
            cmd.env_remove(var);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", lgend.display()))?;
        let d = Daemon { child, socket };
        Client::connect_within(&d.socket, Duration::from_secs(20))
            .map_err(|e| format!("lgend did not come up: {e}"))?;
        Ok(d)
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| e.to_string())
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to drain and waits (bounded) for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.client()?.shutdown().map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("lgend did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Removes the set-up directories (their daemons have exited).
fn cleanup(args: &Args) {
    for rep in 0..=TRACED_REP {
        let _ = std::fs::remove_dir_all(args.out.join(format!("serve-{rep}")));
    }
}

/// Sends `keys` over `conns` connections; every reply must be ok.
fn send_all(d: &Daemon, plan: &Plan, keys: &[usize], conns: usize) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || -> Result<(), String> {
                    let mut client = d.client()?;
                    for &key in keys.iter().skip(c).step_by(conns) {
                        let resp = client
                            .request(&request(plan, key, "setup"))
                            .map_err(|e| e.to_string())?;
                        if !resp.is_ok() {
                            return Err(format!("set-up request failed: {:?}", resp.error));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .unwrap_or_else(|_| Err("set-up thread panicked".into()))
        })
    })
}

/// Set-up: fresh directory, first daemon persists the disk keys, then the
/// warm restart and priming. Returns the primed second daemon.
fn setup(
    args: &Args,
    plan: &Plan,
    rep: usize,
    recorder_cap: Option<usize>,
) -> Result<Daemon, String> {
    let dir = args.out.join(format!("serve-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("cache")).map_err(|e| e.to_string())?;
    let first = Daemon::start(&args.lgend, &dir, PERSIST_WORKERS, None)?;
    send_all(&first, plan, &plan.persist, PERSIST_WORKERS)?;
    first.shutdown()?;
    let second = Daemon::start(&args.lgend, &dir, WORKERS, recorder_cap)?;
    send_all(&second, plan, &plan.prime, CONNECTIONS)?;
    Ok(second)
}

/// One timed request as the client saw it.
struct Op {
    slot: usize,
    latency_us: f64,
    /// Client clock at the reply, for matching flight records.
    end: Instant,
    traced: bool,
    /// `(outcome header, fingerprint header, FNV of the C text)`.
    reply: Result<(String, String, u64), String>,
}

fn read_reply(resp: Response) -> Result<(String, String, u64), String> {
    if !resp.is_ok() {
        return Err(format!("{:?}: {}", resp.error, resp.body));
    }
    let header = |k: &str| resp.headers.get(k).cloned().unwrap_or_default();
    Ok((
        header("outcome"),
        header("fingerprint"),
        fnv(resp.body.as_bytes()),
    ))
}

/// What the timed loop hands back.
struct Looped {
    ops: Vec<Op>,
    start: Instant,
    wall: Duration,
    /// The loop used up its schedule before the deadline.
    exhausted: bool,
    /// `lgend`'s `VmHWM` once [`RSS_AFTER`] requests were answered.
    rss_mb: Option<f64>,
}

/// The closed loop: each connection takes the next slot of the schedule
/// until time or schedule runs out. With `tracers`, odd-numbered slots are
/// sent inside a `serve.request` span.
fn timed_loop(
    d: &Daemon,
    plan: &Plan,
    seconds: f64,
    tracers: Option<&mut Vec<Tracer>>,
) -> Result<Looped, String> {
    let next = AtomicUsize::new(0);
    let rss_mb = OnceLock::new();
    let pid = d.pid();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut clients = (0..CONNECTIONS)
        .map(|_| d.client())
        .collect::<Result<Vec<_>, _>>()?;
    let mut spare: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => (0..CONNECTIONS).map(|_| None).collect(),
    };
    let per_conn: Vec<Vec<Op>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(spare.iter_mut())
            .map(|(client, tracer)| {
                let (next, rss_mb, pid) = (&next, &rss_mb, &pid);
                s.spawn(move || {
                    let mut ops = Vec::new();
                    while Instant::now() < deadline {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= plan.slots.len() {
                            break;
                        }
                        let req = request(plan, plan.slots[slot], TENANT);
                        let traced = tracer.is_some() && slot % 2 == 1;
                        let t = Instant::now();
                        let resp = match (traced, tracer.as_deref_mut()) {
                            (true, Some(tr)) => {
                                tr.next_op();
                                tr.span("serve.request", |_| client.request(&req))
                            }
                            _ => client.request(&req),
                        };
                        let end = Instant::now();
                        if slot + 1 == RSS_AFTER {
                            rss_mb.get_or_init(|| peak_rss_mb(pid));
                        }
                        ops.push(Op {
                            slot,
                            latency_us: (end - t).as_nanos() as f64 / 1e3,
                            end,
                            traced,
                            reply: resp.map_err(|e| e.to_string()).and_then(read_reply),
                        });
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall = start.elapsed();
    let exhausted = next.load(Ordering::Relaxed) >= plan.slots.len();
    if exhausted {
        eprintln!("perfbench: warning: serve schedule exhausted before the deadline");
    }
    Ok(Looped {
        ops: per_conn.into_iter().flatten().collect(),
        start,
        wall,
        exhausted,
        rss_mb: rss_mb.into_inner(),
    })
}

/// Compares every reply with the in-process compile of the same
/// (program, name, target, variant) and counts failures. Returns up to
/// [`PERSIST_SAMPLE`] of the reference kernels, by key.
fn check(plan: &Plan, ops: &[Op], r: &mut Report) -> Vec<(usize, lgen_cir::Kernel)> {
    let mut reference: HashMap<usize, Option<u64>> = HashMap::new();
    let mut kept = Vec::new();
    r.attempted = ops.len() as u64;
    for op in ops {
        let key = plan.slots[op.slot];
        let want = *reference.entry(key).or_insert_with(|| {
            let k = &plan.keys[key];
            match contained(|| compile_as_daemon(&plan.pool[k.input], &k.name)) {
                Ok(o) => {
                    if kept.len() < PERSIST_SAMPLE {
                        kept.push((key, o.kernel));
                    }
                    Some(o.c_hash)
                }
                Err(e) => {
                    r.failed_checks
                        .push(format!("in-process compile of {}: {e}", k.name));
                    None
                }
            }
        });
        let good = matches!((&op.reply, want), (Ok((_, _, got)), Some(h)) if *got == h);
        if !good {
            r.failed += 1;
            if let Err(e) = &op.reply {
                eprintln!("perfbench: request failed: {e}");
            }
        }
    }
    kept
}

/// Geomean of simulated flops/cycle, and the output digest, over the
/// pool's default kernels (the programs every key serves), independent of
/// how far the loop got.
fn pool_geomean(plan: &Plan, r: &mut Report) {
    let mut fpc = Vec::new();
    let mut hashes = Vec::new();
    for input in &plan.pool {
        match contained(|| {
            let out = compile_as_daemon(input, "kernel")?;
            Ok((out.c_hash, simulate_as_program(input, &out.kernel)?))
        }) {
            Ok((hash, m)) => {
                hashes.push(hash);
                if m.flops > 0 {
                    fpc.push(m.flops_per_cycle());
                }
            }
            Err(e) => r.failed_checks.push(format!("{}: {e}", input.describe())),
        }
    }
    r.metric(
        "kernel_flops_per_cycle_geomean",
        stats::geomean(&fpc).unwrap_or(0.0),
        "flops/cycle",
    );
    let digest = stats::set_digest(hashes);
    r.note("c_output_digest", format!("{digest:016x}"));
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut rep = 0;
    let ((plan, daemon), setup_s) = repeated_setup(3, || {
        let plan = plan(args.seed, args.seconds);
        let d = setup(args, &plan, rep, None)?;
        rep += 1;
        Ok((plan, d))
    })?;
    // Earlier set-up rounds' daemons were dropped (and reaped) above.
    let Looped {
        ops,
        start,
        wall,
        exhausted,
        rss_mb,
    } = timed_loop(&daemon, &plan, args.seconds, None)?;
    let rss = rss_mb.unwrap_or_else(|| peak_rss_mb(&daemon.pid()));
    daemon.shutdown()?;
    cleanup(args);

    let mut r = Report::default();
    let samples: Vec<Sample> = ops
        .iter()
        .map(|o| Sample {
            at: o.end - start,
            latency_us: o.latency_us,
            ok: o.reply.is_ok(),
        })
        .collect();
    r.timing(&samples, wall);
    check(&plan, &ops, &mut r);
    pool_geomean(&plan, &mut r);
    r.metric("peak_rss_mb", rss, "MiB");
    r.metric("setup_s", setup_s, "s");
    r.note("schedule_exhausted", exhausted);
    for (tier, frac) in outcome_fracs(&ops) {
        r.note(&format!("{tier}_frac"), format!("{frac:.4}"));
    }
    Ok(r)
}

fn outcome_fracs(ops: &[Op]) -> Vec<(&'static str, f64)> {
    ["memory", "disk", "compiled", "coalesced"]
        .into_iter()
        .map(|tier| {
            let n = ops
                .iter()
                .filter(|o| matches!(&o.reply, Ok((out, _, _)) if out == tier))
                .count();
            (tier, stats::frac(n as u64, ops.len() as u64))
        })
        .collect()
}

/// One flight record of a timed request.
struct Flight {
    fingerprint: String,
    tier: String,
    queue_wait_us: f64,
    service_us: f64,
}

/// Adds the daemon's retained flight records of timed requests to `log`,
/// keyed by request sequence number.
fn collect_flights(d: &Daemon, log: &Mutex<BTreeMap<u64, Flight>>) -> Result<(), String> {
    let resp = d.client()?.dump().map_err(|e| e.to_string())?;
    let doc = json::parse(&resp.body)?;
    let recs = doc
        .get("records")
        .and_then(json::Value::as_arr)
        .ok_or("dump without records")?;
    let mut log = log.lock().map_err(|_| "flight log poisoned")?;
    for r in recs {
        if r.get("tenant").and_then(json::Value::as_str) != Some(TENANT) {
            continue;
        }
        let s = |k: &str| {
            r.get(k)
                .and_then(json::Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        let num = |k: &str| r.get(k).and_then(json::Value::as_f64).unwrap_or(0.0);
        log.insert(
            num("seq") as u64,
            Flight {
                fingerprint: s("fingerprint"),
                tier: s("tier"),
                queue_wait_us: num("queue_wait_ns") / 1e3,
                service_us: num("service_ns") / 1e3,
            },
        );
    }
    Ok(())
}

/// Traced serve phase: the same loop with every other request in a span,
/// the daemon's flight recorder (drained with `dump` while the loop runs),
/// and the disk tier and codec timed in-process on the served kernels in a
/// fresh directory.
pub fn run_traced(args: &Args, t: &mut Tracer, main: bool) -> Result<Report, String> {
    let plan = plan(args.seed, args.seconds);
    let daemon = setup(args, &plan, TRACED_REP, Some(RECORDER_CAP))?;
    let mut tracers: Vec<Tracer> = (0..CONNECTIONS).map(|c| t.fork(10 + c as u32)).collect();
    // A dump must fit one protocol frame (1 MiB), so the ring holds
    // RECORDER_CAP records and a poller drains it while the loop runs.
    let log = Mutex::new(BTreeMap::new());
    let done = AtomicBool::new(false);
    let (looped, polled) = std::thread::scope(|s| {
        let poller = s.spawn(|| -> Result<(), String> {
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(DUMP_EVERY);
                collect_flights(&daemon, &log)?;
            }
            Ok(())
        });
        let looped = timed_loop(&daemon, &plan, args.seconds, Some(&mut tracers));
        done.store(true, Ordering::SeqCst);
        let polled = poller
            .join()
            .unwrap_or_else(|_| Err("flight poller panicked".into()));
        (looped, polled)
    });
    let ops = looped?.ops;
    polled?;
    collect_flights(&daemon, &log)?;
    daemon.shutdown()?;
    cleanup(args);
    let flights: Vec<Flight> = log
        .into_inner()
        .map_err(|_| "flight log poisoned")?
        .into_values()
        .collect();
    for tr in tracers {
        t.absorb(tr);
    }

    let mut r = Report::default();
    let served = check(&plan, &ops, &mut r);
    let pct = |v: &[f64], p: f64| stats::quantile(v, p).unwrap_or(0.0);
    let waits: Vec<f64> = flights.iter().map(|f| f.queue_wait_us).collect();
    let services: Vec<f64> = flights.iter().map(|f| f.service_us).collect();
    r.metric("serve.queue_wait_us_p50", pct(&waits, 0.5), "us");
    r.metric("serve.queue_wait_us_p99", pct(&waits, 0.99), "us");
    r.metric("serve.service_us_p50", pct(&services, 0.5), "us");
    r.metric("serve.service_us_p99", pct(&services, 0.99), "us");
    for tier in ["memory", "disk", "compiled"] {
        let v: Vec<f64> = flights
            .iter()
            .filter(|f| f.tier == tier)
            .map(|f| f.service_us)
            .collect();
        r.metric(&format!("serve.service_us_p50.{tier}"), med(&v), "us");
    }
    r.metric(
        "serve.transport_us_p50",
        med(&transport(&ops, &flights)),
        "us",
    );
    for (tier, frac) in outcome_fracs(&ops) {
        r.metric(&format!("serve.{tier}_frac"), frac, "ratio");
    }
    persist_layers(args, &plan, &served, t)?;
    r.metric(
        "core.persist.store_us",
        med(&t.self_us("core.persist.store")),
        "us",
    );
    r.metric(
        "core.persist.load_us",
        med(&t.self_us("core.persist.load")),
        "us",
    );
    r.metric("cir.codec_us", med(&t.self_us("cir.codec")), "us");
    if main {
        let lat = |traced: bool| {
            ops.iter()
                .filter(|o| o.traced == traced)
                .map(|o| o.latency_us)
                .collect::<Vec<_>>()
        };
        r.metric(
            "trace_overhead_frac",
            med(&lat(true)) / med(&lat(false)) - 1.0,
            "ratio",
        );
    }
    r.note("ops", ops.len());
    r.note("flight_records", flights.len());
    Ok(r)
}

/// Client latency minus the daemon's queue wait and service time, per
/// request. Replies and flight records are matched per fingerprint in
/// completion order.
fn transport(ops: &[Op], flights: &[Flight]) -> Vec<f64> {
    let mut by_fp: HashMap<&str, Vec<&Flight>> = HashMap::new();
    for f in flights {
        by_fp.entry(f.fingerprint.as_str()).or_default().push(f);
    }
    let mut replies: Vec<&Op> = ops.iter().filter(|o| o.reply.is_ok()).collect();
    replies.sort_by_key(|o| o.end);
    let mut used: HashMap<&str, usize> = HashMap::new();
    let mut out = Vec::new();
    for op in replies {
        let Ok((_, fp, _)) = &op.reply else { continue };
        let n = used.entry(fp.as_str()).or_default();
        if let Some(f) = by_fp.get(fp.as_str()).and_then(|v| v.get(*n)) {
            out.push(op.latency_us - f.queue_wait_us - f.service_us);
        }
        *n += 1;
    }
    out
}

/// `DiskCache::store`/`load` and the kernel codec on served kernels,
/// keyed exactly as the daemon keys them, in a fresh directory.
fn persist_layers(
    args: &Args,
    plan: &Plan,
    served: &[(usize, lgen_cir::Kernel)],
    t: &mut Tracer,
) -> Result<(), String> {
    let dir = args.out.join("persist");
    let _ = std::fs::remove_dir_all(&dir);
    let disk = DiskCache::open(&dir).map_err(|e| e.to_string())?;
    for (key, kernel) in served {
        let k = &plan.keys[*key];
        let input = &plan.pool[k.input];
        let id = ProgramCacheKey {
            program: input.program.clone(),
            name: k.name.clone(),
            cfg: CompileConfig::variant(input.target, input.variant),
            policies: None,
        };
        let (fp, desc) = (stable_fingerprint(&id), format!("{id:?}"));
        t.next_op();
        if !t.span("core.persist.store", |_| disk.store(fp, &desc, kernel)) {
            return Err(format!("DiskCache::store failed for {}", k.name));
        }
        let loaded = t.span("core.persist.load", |_| disk.load(fp, &desc));
        if loaded.as_ref() != Some(kernel) {
            return Err(format!("DiskCache round trip changed {}", k.name));
        }
        let decoded = t.span("cir.codec", |_| {
            lgen_cir::decode_kernel(&lgen_cir::encode_kernel(kernel))
        });
        if decoded.as_ref().ok() != Some(kernel) {
            return Err(format!("codec round trip changed {}", k.name));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
