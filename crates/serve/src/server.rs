//! `lgend`: the long-running compile daemon.
//!
//! The daemon stacks the pieces the engine already has into a service
//! (ROADMAP item 1):
//!
//! ```text
//! UnixListener ── per-connection reader threads
//!        │  parse frame → Request          (proto.rs)
//!        ▼
//! FairQueue (bounded, per-tenant round-robin)      (lgen-mediator)
//!        │  Full → "busy" response, no queueing
//!        ▼
//! worker pool ── Coalescer (identical fingerprints compile once)
//!        │            │
//!        ▼            ▼
//! KernelCache (memory) → DiskCache (persistent, content-addressed)
//! ```
//!
//! Every compile answer reports which tier served it (`outcome:` header);
//! the traffic-replay harness aggregates those instead of scraping global
//! counters, so several daemons can share one process in tests.
//!
//! **Failure containment.** Each request runs under `catch_unwind`: a
//! panicking candidate produces an `error internal` response for exactly
//! that request and nothing else — the shard maps, memo, metrics registry,
//! span buffer, and coalescing map all swallow lock poisoning (see
//! DESIGN.md "The compile service"), and followers of a panicked
//! coalescing leader retry on their own. `LGEN_FAULTS=panic@i,...`
//! injects such panics by *request sequence number* for the regression
//! tests and the CI replay run.
//!
//! **Shutdown.** A `shutdown` request (there is no signal handling — the
//! accept loop polls a flag) answers `ok`, closes admission, drains the
//! queue, joins the workers, and removes the socket file. In-flight
//! requests finish; later requests get `error shutting-down`.

use crate::proto::{read_frame, write_frame, ErrorKind, ProtoError, Request, Response, Verb};
use crate::recorder::{CacheTier, CoalesceRole, FlightRecord, FlightRecorder};
use crate::trace::SlowTraceLog;
use lgen_core::{
    stable_fingerprint, Autotuner, Coalescer, CompileConfig, CompileOutcome, DiskCache, FaultPlan,
    KernelCache, PrunePolicy, SearchStrategy, Variant,
};
use lgen_mediator::{AdmissionError, FairQueue};
use lgen_telemetry::{
    metric_counter, metric_counter_family, metric_gauge, metric_histogram, metric_histogram_family,
    Telemetry,
};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default flight-recorder capacity (last N requests retained).
pub const DEFAULT_RECORDER_CAP: usize = 256;

/// How the daemon is wired; see the field docs for defaults.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path to bind (stale files are replaced).
    pub socket: PathBuf,
    /// Directory for the persistent kernel cache; `None` disables the
    /// disk tier (memory-only service).
    pub cache_dir: Option<PathBuf>,
    /// Compile worker threads.
    pub workers: usize,
    /// Total admission-queue capacity across tenants.
    pub queue_capacity: usize,
    /// Flight-recorder ring capacity (last N requests).
    pub recorder_cap: usize,
    /// Tail-sampling threshold: a request whose wall time (queue wait +
    /// service) is at least this long gets its span tree appended to the
    /// slow-trace log. `None` (the default) disables slow tracing.
    pub slow_threshold: Option<Duration>,
    /// Slow-trace log path; defaults to `<socket>.slow-trace.jsonl`.
    pub slow_trace_path: Option<PathBuf>,
    /// Size bound per slow-trace file before rotation to `<path>.1`.
    pub slow_trace_max_bytes: u64,
}

impl ServeConfig {
    /// A config with `workers = 2` and `queue_capacity = 64`.
    pub fn new(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            cache_dir: None,
            workers: 2,
            queue_capacity: 64,
            recorder_cap: DEFAULT_RECORDER_CAP,
            slow_threshold: None,
            slow_trace_path: None,
            slow_trace_max_bytes: crate::trace::DEFAULT_MAX_BYTES,
        }
    }

    /// Enables the persistent disk tier under `dir`.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> ServeConfig {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Overrides the worker count (min 1).
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> ServeConfig {
        self.workers = n.max(1);
        self
    }

    /// Overrides the admission-queue capacity (min 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, n: usize) -> ServeConfig {
        self.queue_capacity = n.max(1);
        self
    }

    /// Overrides the flight-recorder capacity (min 1).
    #[must_use]
    pub fn with_recorder_cap(mut self, n: usize) -> ServeConfig {
        self.recorder_cap = n.max(1);
        self
    }

    /// Enables tail-sampled slow-request tracing at `threshold`.
    #[must_use]
    pub fn with_slow_threshold(mut self, threshold: Duration) -> ServeConfig {
        self.slow_threshold = Some(threshold);
        self
    }

    /// Overrides where the slow-trace log is written.
    #[must_use]
    pub fn with_slow_trace_path(mut self, path: impl Into<PathBuf>) -> ServeConfig {
        self.slow_trace_path = Some(path.into());
        self
    }

    /// The effective slow-trace log path.
    pub fn slow_trace_path(&self) -> PathBuf {
        self.slow_trace_path
            .clone()
            .unwrap_or_else(|| suffixed(&self.socket, ".slow-trace.jsonl"))
    }

    /// Where the flight recorder is snapshotted when a panic is
    /// contained.
    pub fn flight_dump_path(&self) -> PathBuf {
        suffixed(&self.socket, ".flight-dump.json")
    }
}

/// `<path><suffix>` without touching the extension logic of `Path`.
fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// Tail-sampling state shared by workers when `--slow-ms` is set.
struct SlowTracing {
    threshold: Duration,
    log: SlowTraceLog,
}

/// Shared state behind every connection and worker.
struct Engine {
    cache: Arc<KernelCache>,
    disk: Option<Arc<DiskCache>>,
    coalescer: Coalescer<Result<CompileReply, String>>,
    queue: FairQueue<Job>,
    faults: FaultPlan,
    /// Request sequence numbers for fault injection and spans.
    seq: AtomicU64,
    shutdown: AtomicBool,
    /// Ring of the last N request records (`dump` verb, panic snapshot).
    recorder: FlightRecorder,
    /// Tail-sampled slow-request tracing, when enabled.
    slow: Option<SlowTracing>,
    /// Where the recorder is snapshotted when a panic is contained.
    flight_dump: PathBuf,
}

/// What a worker hands back for a compile/tune request.
#[derive(Clone)]
struct CompileReply {
    c_source: String,
    fingerprint: u64,
    outcome: CompileOutcome,
    flops: u64,
}

/// One admitted request: the parsed message plus the reply channel of the
/// connection thread that accepted it.
struct Job {
    req: Request,
    seq: u64,
    reply: mpsc::Sender<Response>,
}

/// A running daemon (in-process handle). Binds on
/// [`start`](Lgend::start); serves until a `shutdown` request arrives;
/// [`join`](Lgend::join) waits for that and tears everything down.
pub struct Lgend {
    engine: Arc<Engine>,
    socket: PathBuf,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Lgend {
    /// Binds the socket, spawns the accept loop and the worker pool, and
    /// returns immediately.
    pub fn start(config: ServeConfig) -> io::Result<Lgend> {
        for name in [
            "lgen.serve.requests",
            "lgen.serve.hits",
            "lgen.serve.coalesced",
            "lgen.serve.compiled",
            "lgen.serve.rejected",
            "lgen.serve.errors",
            "lgen.serve.slow_traces",
        ] {
            lgen_telemetry::counter(name);
        }
        // Pre-registered so `stats` output (and the ci.sh zero-drop
        // assertion) always has the rows, even before any traffic.
        lgen_telemetry::gauge("lgen.trace.spans_dropped").set(0);
        lgen_telemetry::counter_family("lgen.serve.tenant_requests", &["tenant", "verb"]);
        lgen_telemetry::counter_family("lgen.serve.outcomes", &["outcome"]);
        lgen_telemetry::histogram_family("lgen.serve.queue_wait_us", &["tenant"]);
        lgen_telemetry::histogram_family("lgen.serve.service_us", &["tenant"]);
        let disk = match &config.cache_dir {
            Some(dir) => Some(Arc::new(DiskCache::open(dir)?)),
            None => None,
        };
        let mut cache = KernelCache::new();
        if let Some(d) = &disk {
            cache = cache.with_disk(d.clone());
        }
        let engine = Arc::new(Engine {
            cache: Arc::new(cache),
            disk,
            coalescer: Coalescer::new(),
            queue: FairQueue::new(config.queue_capacity),
            faults: FaultPlan::from_env(),
            seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            recorder: FlightRecorder::new(config.recorder_cap),
            slow: config.slow_threshold.map(|threshold| SlowTracing {
                threshold,
                log: SlowTraceLog::new(config.slow_trace_path(), config.slow_trace_max_bytes),
            }),
            flight_dump: config.flight_dump_path(),
        });

        // Replace a stale socket file from a previous (crashed) daemon;
        // a *live* daemon would still fail to... no: bind after unlink
        // always succeeds, so ownership of a path is by convention the
        // caller's problem (matching every other Unix-socket daemon).
        let _ = std::fs::remove_file(&config.socket);
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;

        let workers = (0..config.workers)
            .map(|i| {
                let engine = engine.clone();
                std::thread::Builder::new()
                    .name(format!("lgend-worker-{i}"))
                    .spawn(move || worker_loop(&engine, i))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let engine = engine.clone();
            std::thread::Builder::new()
                .name("lgend-accept".to_string())
                .spawn(move || accept_loop(listener, &engine))
                .expect("spawn acceptor")
        };
        Ok(Lgend {
            engine,
            socket: config.socket,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The socket path the daemon is serving on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The kernel cache (memory tier) behind the daemon.
    pub fn cache(&self) -> &Arc<KernelCache> {
        &self.engine.cache
    }

    /// The persistent tier, when configured.
    pub fn disk(&self) -> Option<&Arc<DiskCache>> {
        self.engine.disk.as_ref()
    }

    /// The request flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.engine.recorder
    }

    /// Items currently queued for admission (this daemon only — unlike
    /// the `lgen.serve.queue_depth` gauge, which is process-global).
    pub fn queue_depth(&self) -> usize {
        self.engine.queue.depth()
    }

    /// Requests shutdown as if a `shutdown` frame had arrived.
    pub fn request_shutdown(&self) {
        self.engine.begin_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.engine.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the daemon has shut down (acceptor and workers
    /// joined), then removes the socket file.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Lgend {
    fn drop(&mut self) {
        // An abandoned handle still tears the daemon down cleanly.
        self.engine.begin_shutdown();
        self.join_inner();
    }
}

impl Engine {
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue.close();
        }
    }
}

fn accept_loop(listener: UnixListener, engine: &Arc<Engine>) {
    // Nonblocking accept + 20ms poll: the daemon notices a shutdown flag
    // set by any connection (or the in-process handle) without signals.
    while !engine.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let engine = engine.clone();
                let _ = std::thread::Builder::new()
                    .name("lgend-conn".to_string())
                    .spawn(move || connection_loop(stream, &engine));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }
    engine.begin_shutdown();
}

/// Serves one client connection: frames in lockstep until EOF, a protocol
/// violation (connection dropped — malformed traffic must not tie up a
/// reader thread), or daemon shutdown.
fn connection_loop(stream: UnixStream, engine: &Arc<Engine>) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(p) => p,
            Err(ProtoError::Io(_)) => return, // EOF or peer gone
            Err(_) => {
                // Oversized or unreadable frame: answer once, then close —
                // resynchronizing a byte stream after a bad prefix is
                // guesswork.
                metric_counter!("lgen.serve.errors").inc();
                let resp = Response::error(ErrorKind::BadRequest, "unreadable frame");
                let _ = write_frame(&mut writer, &resp.encode());
                return;
            }
        };
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                metric_counter!("lgen.serve.errors").inc();
                let resp = Response::error(ErrorKind::BadRequest, e.to_string());
                if write_frame(&mut writer, &resp.encode()).is_err() {
                    return;
                }
                continue; // framing is intact; the connection can go on
            }
        };
        let resp = dispatch(engine, req);
        let stop = resp.headers.get("closing").is_some_and(|v| v == "true");
        if write_frame(&mut writer, &resp.encode()).is_err() {
            return;
        }
        if stop {
            return;
        }
    }
}

/// Routes one request: control verbs answer inline on the connection
/// thread; compile verbs go through admission and a worker.
fn dispatch(engine: &Arc<Engine>, req: Request) -> Response {
    // The total and the per-tenant family move together, so when traffic
    // has quiesced (as in the replay harness's final stats read) the
    // by-tenant counts sum exactly to the total.
    metric_counter!("lgen.serve.requests").inc();
    metric_counter_family!("lgen.serve.tenant_requests", "tenant", "verb")
        .with(&[req.tenant(), req.verb.as_str()])
        .inc();
    let t = Instant::now();
    let mut span = lgen_telemetry::span("serve.request");
    if span.is_recording() {
        span.attr("verb", format!("{:?}", req.verb));
        span.attr("tenant", req.tenant());
    }
    let resp = match req.verb {
        Verb::Ping => Response::ok("pong"),
        Verb::Stats => {
            if req.headers.get("format").map(String::as_str) == Some("json") {
                stats_json_response(engine)
            } else {
                stats_response(engine)
            }
        }
        Verb::Dump => Response::ok(engine.recorder.to_json()),
        Verb::Shutdown => {
            engine.begin_shutdown();
            Response::ok("draining").with("closing", "true")
        }
        Verb::Compile | Verb::Tune => {
            let seq = engine.seq.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = mpsc::channel();
            let tenant = req.tenant().to_string();
            match engine.queue.push(
                &tenant,
                Job {
                    req,
                    seq,
                    reply: tx,
                },
            ) {
                Ok(()) => rx.recv().unwrap_or_else(|_| {
                    // The worker dropped the sender without replying:
                    // only possible on teardown races.
                    Response::error(ErrorKind::ShuttingDown, "daemon stopped")
                }),
                Err(AdmissionError::Full) => {
                    metric_counter!("lgen.serve.rejected").inc();
                    Response::error(ErrorKind::Busy, "admission queue full, retry")
                }
                Err(AdmissionError::Closed) => {
                    Response::error(ErrorKind::ShuttingDown, "daemon draining")
                }
            }
        }
    };
    let wall_us = t.elapsed().as_micros() as u64;
    metric_histogram!("lgen.serve.request_wall_us").record(wall_us);
    if span.is_recording() {
        span.attr("ok", resp.is_ok());
        if let Some(outcome) = resp.headers.get("outcome") {
            span.attr("outcome", outcome);
        }
    }
    let outcome_token = match (&resp.error, resp.headers.get("outcome")) {
        (Some(kind), _) => kind.as_str(),
        (None, Some(outcome)) => match outcome.as_str() {
            "memory" => "memory",
            "disk" => "disk",
            "compiled" => "compiled",
            "coalesced" => "coalesced",
            _ => "ok",
        },
        (None, None) => "ok",
    };
    metric_counter_family!("lgen.serve.outcomes", "outcome")
        .with(&[outcome_token])
        .inc();
    if resp.error.is_some() {
        metric_counter!("lgen.serve.errors").inc();
    }
    resp.with("wall_us", wall_us)
}

fn worker_loop(engine: &Arc<Engine>, worker: usize) {
    // When slow tracing is on, each worker owns a leaked always-enabled
    // collector; a scoped override routes every span the handler opens
    // into it, so one request's full span tree can be kept or discarded
    // at the end without enabling process-wide collection.
    let collector: Option<&'static Telemetry> = engine
        .slow
        .as_ref()
        .map(|_| &*Box::leak(Box::new(Telemetry::new(true))));
    while let Some((tenant, job, queue_wait)) = engine.queue.pop_timed() {
        let started = Instant::now();
        // Contain per-request panics (injected or real): the requester
        // gets `error internal`; the daemon keeps serving. Poison-safe
        // locks everywhere below make this sound.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            // The scope guard drops on unwind too, restoring the global
            // collector for whatever this worker does next.
            let _scope = collector.map(lgen_telemetry::scoped_collector);
            let mut root = lgen_telemetry::span("serve.handle");
            if root.is_recording() {
                root.attr("verb", job.req.verb.as_str());
                root.attr("tenant", &tenant);
                root.attr("seq", job.seq);
                root.attr("queue_wait_us", queue_wait.as_micros());
            }
            handle_compile(engine, &job.req, job.seq)
        }));
        let panicked = outcome.is_err();
        let resp = match outcome {
            Ok(resp) => resp,
            Err(cause) => {
                metric_counter!("lgen.serve.panics_contained").inc();
                let what = cause
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| cause.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                Response::error(ErrorKind::Internal, format!("request panicked: {what}"))
            }
        };
        let service = started.elapsed();
        metric_histogram_family!("lgen.serve.service_us", "tenant")
            .with(&[&tenant])
            .record(service.as_micros() as u64);

        // Tail sampling: drain the collector either way (the buffer must
        // not accumulate across requests); keep the tree only when the
        // request's wall time crossed the threshold.
        if let (Some(slow), Some(col)) = (&engine.slow, collector) {
            let spans = col.drain();
            if queue_wait + service >= slow.threshold {
                metric_counter!("lgen.serve.slow_traces").inc();
                let _ = slow.log.append(&lgen_telemetry::chrome_trace(&spans));
            }
        }

        engine.recorder.record(flight_record(
            &job, &tenant, &resp, queue_wait, service, worker,
        ));
        if panicked {
            // Preserve the requests leading up to (and including) the
            // contained panic even if nobody issues a `dump`.
            let _ = std::fs::write(&engine.flight_dump, engine.recorder.to_json());
        }
        // A dropped receiver (client gone) is fine; the work is cached.
        let _ = job.reply.send(resp);
    }
}

/// Builds the flight record for one finished request from its response.
fn flight_record(
    job: &Job,
    tenant: &str,
    resp: &Response,
    queue_wait: Duration,
    service: Duration,
    worker: usize,
) -> FlightRecord {
    let outcome_header = resp.headers.get("outcome").map(String::as_str);
    let (tier, role) = match outcome_header {
        Some("memory") => (CacheTier::Memory, CoalesceRole::Leader),
        Some("disk") => (CacheTier::Disk, CoalesceRole::Leader),
        Some("compiled") => (CacheTier::Compiled, CoalesceRole::Leader),
        Some("coalesced") => (CacheTier::None, CoalesceRole::Follower),
        _ => (CacheTier::None, CoalesceRole::Leader),
    };
    let outcome = match &resp.error {
        Some(kind) => kind.as_str().to_string(),
        None => outcome_header.unwrap_or("ok").to_string(),
    };
    let fingerprint = resp
        .headers
        .get("fingerprint")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .unwrap_or(0);
    FlightRecord {
        seq: job.seq,
        tenant: tenant.to_string(),
        verb: job.req.verb.as_str(),
        fingerprint,
        tier,
        role,
        queue_wait_ns: queue_wait.as_nanos() as u64,
        service_ns: service.as_nanos() as u64,
        outcome,
        worker,
    }
}

/// Compiles (or tunes) the LL program in `req`, coalescing with identical
/// in-flight requests and answering from the cache tiers.
fn handle_compile(engine: &Arc<Engine>, req: &Request, seq: u64) -> Response {
    use lgen_core::FaultKind;
    match engine.faults.kind(seq as usize) {
        Some(FaultKind::Panic) => panic!("injected fault: panic at request {seq}"),
        Some(FaultKind::Hang(d)) => std::thread::sleep(d),
        _ => {}
    }

    let arch = match req.target() {
        Ok(a) => a,
        Err(e) => return Response::error(ErrorKind::BadRequest, e.to_string()),
    };
    let variant = match req.headers.get("variant").map(String::as_str) {
        None | Some("full") => Variant::Full,
        Some("base") => Variant::Base,
        Some("align") => Variant::Align,
        Some("mvm") => Variant::Mvm,
        Some(other) => {
            return Response::error(ErrorKind::BadRequest, format!("unknown variant {other:?}"))
        }
    };
    let mut cfg = CompileConfig::variant(arch, variant);
    if let Some(spec) = req.headers.get("passes") {
        match spec.parse() {
            Ok(p) => cfg = cfg.with_passes(p),
            Err(e) => {
                return Response::error(ErrorKind::BadRequest, format!("bad passes spec: {e}"))
            }
        }
    }
    let program = match lgen_ll::parse_program(&req.body) {
        Ok(p) => p,
        Err(e) => return Response::error(ErrorKind::CompileFailed, e.to_string()),
    };
    let name = req.kernel_name().to_string();
    let tune = req.verb == Verb::Tune;

    // The coalescing identity is the *request*, not the parsed structures:
    // stable across processes (it also keys the replay harness's
    // duplicate accounting).
    let fp = stable_fingerprint(&(
        tune,
        &name,
        format!("{arch:?}"),
        req.headers.get("variant"),
        req.headers.get("passes"),
        &req.body,
    ));

    let cache = engine.cache.clone();
    let cfg2 = cfg.clone();
    let program2 = program.clone();
    let name2 = name.clone();
    let (result, coalesced) = engine.coalescer.run(fp, move || {
        if tune {
            // Bounded joint genome tune (deterministic seed); the winner's
            // kernel is cached under its genome so the follow-up compile
            // below is a memory hit. No candidate faults: the daemon's
            // `LGEN_FAULTS` addresses requests, not candidates.
            let tuned = Autotuner::new(cfg2.clone())
                .with_strategy(SearchStrategy::Exhaustive)
                .with_cache(cache.clone())
                .with_mixed_samples(4)
                .with_prune(PrunePolicy::TopK(4))
                .with_faults(FaultPlan::none())
                .try_tune_program(&program2, &name2)
                .map_err(|e| e.to_string())?;
            cache
                .try_get_or_compile_program_outcome(&program2, &name2, &cfg2, Some(&tuned.policies))
                .map_err(|e| e.to_string())
                .map(|(k, outcome)| CompileReply {
                    c_source: lgen_cir::unparse::unparse(&k, cfg2.arch.vector_isa()),
                    fingerprint: fp,
                    outcome,
                    flops: k.flops,
                })
        } else {
            cache
                .try_get_or_compile_program_outcome(&program2, &name2, &cfg2, None)
                .map_err(|e| e.to_string())
                .map(|(k, outcome)| CompileReply {
                    c_source: lgen_cir::unparse::unparse(&k, cfg2.arch.vector_isa()),
                    fingerprint: fp,
                    outcome,
                    flops: k.flops,
                })
        }
    });

    match result {
        Ok(reply) => {
            let outcome = if coalesced {
                metric_counter!("lgen.serve.coalesced").inc();
                "coalesced"
            } else {
                match reply.outcome {
                    CompileOutcome::Memory => {
                        metric_counter!("lgen.serve.hits").inc();
                        "memory"
                    }
                    CompileOutcome::Disk => {
                        metric_counter!("lgen.serve.hits").inc();
                        "disk"
                    }
                    CompileOutcome::Compiled => {
                        metric_counter!("lgen.serve.compiled").inc();
                        "compiled"
                    }
                }
            };
            Response::ok(reply.c_source)
                .with("outcome", outcome)
                .with("fingerprint", format!("{:016x}", reply.fingerprint))
                .with("flops", reply.flops)
        }
        Err(msg) => Response::error(ErrorKind::CompileFailed, msg),
    }
}

/// Mirrors the span-ring drop counter into a gauge just before a stats
/// snapshot, so silent trace truncation shows up in both report formats.
fn refresh_derived_metrics() {
    metric_gauge!("lgen.trace.spans_dropped").set(lgen_telemetry::global().dropped() as i64);
}

fn stats_response(engine: &Arc<Engine>) -> Response {
    refresh_derived_metrics();
    let mut body = String::new();
    body.push_str(&lgen_telemetry::format_metrics(
        &lgen_telemetry::registry().snapshot(),
    ));
    body.push_str(&format!("cache: {}\n", engine.cache.stats()));
    if let Some(disk) = &engine.disk {
        body.push_str(&format!("disk: {}\n", disk.stats()));
    }
    body.push_str(&format!(
        "coalesced: {} led: {} in_flight: {}\n",
        engine.coalescer.coalesced(),
        engine.coalescer.led(),
        engine.coalescer.in_flight()
    ));
    body.push_str(&format!("queue_depth: {}\n", engine.queue.depth()));
    body.push_str(&format!(
        "recorder: cap {} recorded {} dropped {}\n",
        engine.recorder.capacity(),
        engine.recorder.recorded(),
        engine.recorder.dropped()
    ));
    Response::ok(body)
}

/// The stable-order JSON stats document (the `stats` verb with
/// `format: json`; `lgen-cli stats --json`). Field order never varies:
/// `service` (totals and per-tenant/per-verb/per-outcome breakdowns),
/// `cache`, `disk`, `coalescer`, `recorder`, `slow_trace`, `telemetry`,
/// then the full `metrics` registry export.
fn stats_json_response(engine: &Arc<Engine>) -> Response {
    use lgen_telemetry::json::histogram_json;
    use std::fmt::Write as _;

    refresh_derived_metrics();
    let snap = lgen_telemetry::registry().snapshot();
    let find_counter_family = |name: &str| {
        snap.counter_families
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f)
    };
    let find_histogram_family = |name: &str| {
        snap.histogram_families
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f)
    };

    // Per-tenant totals from the {tenant, verb} family; per-verb and
    // per-outcome are straight aggregations. BTreeMaps keep key order
    // deterministic.
    let mut by_tenant: std::collections::BTreeMap<String, u64> = Default::default();
    let mut by_verb: std::collections::BTreeMap<String, u64> = Default::default();
    if let Some(fam) = find_counter_family("lgen.serve.tenant_requests") {
        for (values, count) in &fam.series {
            *by_tenant.entry(values[0].clone()).or_default() += count;
            *by_verb.entry(values[1].clone()).or_default() += count;
        }
    }
    let empty_hist = lgen_telemetry::Histogram::default().snapshot();
    let wait_fam = find_histogram_family("lgen.serve.queue_wait_us");
    let service_fam = find_histogram_family("lgen.serve.service_us");

    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };

    let mut out = String::from("{\"service\":{");
    let _ = write!(
        out,
        "\"requests_total\":{},\"queue_depth\":{},\"queue_capacity\":{},\"tenants\":{}",
        counter("lgen.serve.requests"),
        engine.queue.depth(),
        engine.queue.capacity(),
        engine.queue.tenants()
    );
    out.push_str(",\"by_tenant\":{");
    for (i, (tenant, requests)) in by_tenant.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let wait = wait_fam
            .and_then(|f| f.get(&[tenant]))
            .unwrap_or(&empty_hist);
        let service = service_fam
            .and_then(|f| f.get(&[tenant]))
            .unwrap_or(&empty_hist);
        let _ = write!(
            out,
            "{}:{{\"requests\":{},\"queue_wait_us\":{},\"service_us\":{}}}",
            json_quote(tenant),
            requests,
            histogram_json(wait),
            histogram_json(service)
        );
    }
    out.push_str("},\"by_verb\":{");
    for (i, (verb, n)) in by_verb.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_quote(verb), n);
    }
    out.push_str("},\"by_outcome\":{");
    if let Some(fam) = find_counter_family("lgen.serve.outcomes") {
        for (i, (values, n)) in fam.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_quote(&values[0]), n);
        }
    }
    out.push_str("}},");

    let _ = write!(
        out,
        "\"cache\":{},",
        json_quote(&engine.cache.stats().to_string())
    );
    match &engine.disk {
        Some(disk) => {
            let _ = write!(out, "\"disk\":{},", json_quote(&disk.stats().to_string()));
        }
        None => out.push_str("\"disk\":null,"),
    }
    let _ = write!(
        out,
        "\"coalescer\":{{\"coalesced\":{},\"led\":{},\"in_flight\":{}}},",
        engine.coalescer.coalesced(),
        engine.coalescer.led(),
        engine.coalescer.in_flight()
    );
    let _ = write!(
        out,
        "\"recorder\":{{\"cap\":{},\"recorded\":{},\"dropped\":{}}},",
        engine.recorder.capacity(),
        engine.recorder.recorded(),
        engine.recorder.dropped()
    );
    match &engine.slow {
        Some(slow) => {
            let _ = write!(
                out,
                "\"slow_trace\":{{\"enabled\":true,\"threshold_ms\":{},\"chunks\":{}}},",
                slow.threshold.as_millis(),
                slow.log.chunks()
            );
        }
        None => out.push_str("\"slow_trace\":{\"enabled\":false,\"threshold_ms\":0,\"chunks\":0},"),
    }
    let _ = write!(
        out,
        "\"telemetry\":{{\"spans_dropped\":{},\"registry_size\":{}}},",
        lgen_telemetry::global().dropped(),
        snap.registry_size
    );
    let _ = write!(out, "\"metrics\":{}}}", lgen_telemetry::metrics_json(&snap));
    Response::ok(out)
}

/// Minimal JSON string quoting for stats fields (tenant names, cache
/// report lines).
fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
