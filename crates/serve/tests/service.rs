//! End-to-end tests for the `lgend` compile service: coalescing under
//! concurrent identical requests, warm restarts from the persistent
//! cache, corrupt-entry quarantine, protocol-error containment, and the
//! `tune` verb.
//!
//! Each test runs its own in-process daemon on a private socket. The
//! metrics registry is process-global, so assertions go through
//! response headers (`outcome: ...`) and per-instance cache/disk stats,
//! never through global counters.

use lgen_core::{Autotuner, CompileConfig, FaultPlan, KernelCache, PrunePolicy, SearchStrategy};
use lgen_isa::Microarch;
use lgen_serve::{Client, ErrorKind, Lgend, Request, ServeConfig, Verb};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const MVM: &str = "A = matrix(4, 4)\nx = vector(4)\ny = vector(4)\ny = A * x;\n";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lgen-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lgen-serve-test-{}-{tag}.sock", std::process::id()))
}

fn connect(sock: &PathBuf) -> Client {
    Client::connect_within(sock, Duration::from_secs(5)).expect("daemon not up")
}

#[test]
fn concurrent_identical_requests_compile_once() {
    let sock = socket("coalesce");
    let daemon = Lgend::start(ServeConfig::new(&sock).with_workers(4)).unwrap();

    const N: usize = 8;
    let barrier = Arc::new(Barrier::new(N));
    let outcomes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let sock = sock.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    let mut c = connect(&sock);
                    barrier.wait();
                    let resp = c
                        .compile(&format!("tenant-{}", i % 3), "same_kernel", MVM)
                        .expect("request failed");
                    assert!(resp.is_ok(), "response was {:?}: {}", resp.error, resp.body);
                    resp.headers.get("outcome").cloned().unwrap_or_default()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let compiled = outcomes.iter().filter(|o| *o == "compiled").count();
    assert_eq!(
        compiled, 1,
        "identical fingerprints must compile exactly once, got {outcomes:?}"
    );
    // Everyone else piggybacked on the in-flight compile or hit the
    // promoted entry in memory.
    assert!(
        outcomes
            .iter()
            .all(|o| o == "compiled" || o == "coalesced" || o == "memory"),
        "unexpected outcome in {outcomes:?}"
    );
    // The daemon's own cache agrees: one pipeline run total.
    assert_eq!(daemon.cache().pass_stats().compiles(), 1);

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn restart_on_same_cache_dir_serves_from_disk() {
    let dir = tmpdir("restart");
    let sock1 = socket("restart1");

    let daemon = Lgend::start(ServeConfig::new(&sock1).with_cache_dir(&dir)).unwrap();
    let resp = connect(&sock1).compile("t", "warm_kernel", MVM).unwrap();
    assert!(resp.is_ok());
    assert_eq!(
        resp.headers.get("outcome").map(String::as_str),
        Some("compiled")
    );
    let fp = resp.headers.get("fingerprint").cloned().unwrap();
    assert_eq!(daemon.disk().unwrap().entries(), 1);
    daemon.request_shutdown();
    daemon.join();

    // A new daemon — cold in memory, warm on disk.
    let sock2 = socket("restart2");
    let daemon = Lgend::start(ServeConfig::new(&sock2).with_cache_dir(&dir)).unwrap();
    let resp = connect(&sock2).compile("t", "warm_kernel", MVM).unwrap();
    assert!(resp.is_ok());
    assert_eq!(
        resp.headers.get("outcome").map(String::as_str),
        Some("disk"),
        "restarted daemon should serve from the persistent tier"
    );
    assert_eq!(resp.headers.get("fingerprint"), Some(&fp));
    assert_eq!(daemon.disk().unwrap().stats().hits, 1);
    assert_eq!(daemon.cache().pass_stats().compiles(), 0);
    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn corrupt_cache_entries_are_quarantined_and_recompiled() {
    let dir = tmpdir("corrupt");
    let sock1 = socket("corrupt1");

    let daemon = Lgend::start(ServeConfig::new(&sock1).with_cache_dir(&dir)).unwrap();
    let resp = connect(&sock1).compile("t", "fragile_kernel", MVM).unwrap();
    assert!(resp.is_ok());
    daemon.request_shutdown();
    daemon.join();

    // Flip bytes in the middle of the (checksummed) entry.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "lgk"))
        .expect("no persisted entry");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    bytes[mid + 1] ^= 0xff;
    std::fs::write(&entry, &bytes).unwrap();

    let sock2 = socket("corrupt2");
    let daemon = Lgend::start(ServeConfig::new(&sock2).with_cache_dir(&dir)).unwrap();
    let resp = connect(&sock2).compile("t", "fragile_kernel", MVM).unwrap();
    assert!(resp.is_ok());
    assert_eq!(
        resp.headers.get("outcome").map(String::as_str),
        Some("compiled"),
        "corrupt entry must be recompiled, not trusted"
    );
    let disk = daemon.disk().unwrap();
    assert_eq!(disk.stats().quarantined, 1);
    assert_eq!(disk.quarantine_entries(), 1);
    // The recompile re-persisted a good entry.
    assert_eq!(disk.entries(), 1);
    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn protocol_and_compile_errors_do_not_wedge_the_daemon() {
    let sock = socket("errors");
    let daemon = Lgend::start(ServeConfig::new(&sock)).unwrap();

    // An unknown verb is a clean bad-request.
    let mut c = connect(&sock);
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    c.send_raw(&{
        let payload = b"frobnicate\n\n";
        let mut v = (payload.len() as u32).to_le_bytes().to_vec();
        v.extend_from_slice(payload);
        v
    })
    .unwrap();
    let resp = c.read_response().unwrap();
    assert_eq!(resp.error, Some(ErrorKind::BadRequest));

    // Unparseable LL is a compile-failed, not a dropped connection.
    let mut c = connect(&sock);
    let resp = c.compile("t", "bad", "y = spaghetti(").unwrap();
    assert_eq!(resp.error, Some(ErrorKind::CompileFailed));

    // A bogus target is rejected before it reaches the pipeline.
    let resp = c
        .request(
            &Request::new(Verb::Compile)
                .with("name", "k")
                .with("target", "z80")
                .with_body(MVM),
        )
        .unwrap();
    assert_eq!(resp.error, Some(ErrorKind::BadRequest));

    // ...and the same connection still compiles fine afterwards.
    let resp = c.compile("t", "fine", MVM).unwrap();
    assert!(resp.is_ok(), "daemon wedged after errors: {:?}", resp.error);

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn tune_returns_the_in_process_winner() {
    // The daemon's tune verb is the one tuner at its fixed settings
    // (exhaustive, 4 mixed genomes, top-4 pruning, Atom `full`): its reply
    // is the C of the winner an in-process tune picks, for a program and
    // for a single BLAC. The winner is a candidate the tune compiled
    // through the daemon's cache, so the reply's compile of its genome is
    // a memory hit.
    const KALMAN: &str = "F = matrix(4, 4)\nB = matrix(4, 2)\nu = vector(2)\nx = vector(4)\n\
         x_next = vector(4)\nP = matrix(4, 4) symmetric\nQ = matrix(4, 4) symmetric\n\
         P_next = matrix(4, 4)\n\
         x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;\n";
    let sock = socket("tune");
    let daemon = Lgend::start(ServeConfig::new(&sock)).unwrap();
    let mut c = connect(&sock);
    let cfg = CompileConfig::full(Microarch::Atom);
    for (name, src) in [("kalman", KALMAN), ("mvm", MVM)] {
        let resp = c
            .request(&Request::new(Verb::Tune).with("name", name).with_body(src))
            .unwrap();
        assert!(resp.is_ok(), "{name}: {:?} {}", resp.error, resp.body);
        let outcome = resp.headers.get("outcome").map(String::as_str);
        assert_eq!(outcome, Some("memory"), "{name}");
        let tuned = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Exhaustive)
            .with_cache(std::sync::Arc::new(KernelCache::new()))
            .with_mixed_samples(4)
            .with_prune(PrunePolicy::TopK(4))
            .with_faults(FaultPlan::none())
            .try_tune_program(&lgen_ll::parse_program(src).unwrap(), name)
            .unwrap();
        let c_source = lgen_cir::unparse::unparse(&tuned.kernel, cfg.arch.vector_isa());
        assert_eq!(resp.body, c_source, "{name}");
    }
    daemon.request_shutdown();
    daemon.join();
}
