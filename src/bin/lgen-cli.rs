//! `lgen-cli` — client for the `lgend` compile daemon.
//!
//! ```text
//! lgen-cli compile <file.blac> --socket <path> [--name <kernel>]
//!          [--tenant <id>] [--target atom|cortex-a8|cortex-a9|arm1176]
//!          [--variant base|align|mvm|full] [--passes <spec>] [--tune]
//! lgen-cli stats    --socket <path> [--json]
//! lgen-cli tail     --socket <path> [--json]
//! lgen-cli ping     --socket <path>
//! lgen-cli shutdown --socket <path>
//! lgen-cli replay   --socket <path> [--requests N] [--connections N]
//!          [--tenants N] [--duplicate-pct P] [--malformed-pct P]
//!          [--seed S] [--json <file>]
//! ```
//!
//! `stats --json` prints the daemon's stable-field-order JSON stats
//! document (per-tenant/per-verb counts, queue-wait and service-time
//! quantiles); `tail` dumps the daemon's request flight recorder — the
//! last N requests with cache tier, coalesce role, queue wait and
//! service time. `replay` drives the deterministic load harness
//! (`lgen::serve::replay`) against a running daemon and prints — or
//! writes with `--json <file>`, for `BENCH_serve.json` — the
//! client-side outcome counts plus the daemon-side latency quantiles.

use lgen::serve::{replay, Client, ReplayConfig, Request, Verb};
use lgen::telemetry::{json_objects, json_str, json_u64};
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: lgen-cli <compile|stats|tail|ping|shutdown|replay> --socket <path> [options]\n\
         \n\
         compile <file.blac> [--name <kernel>] [--tenant <id>]\n\
         \x20       [--target atom|cortex-a8|cortex-a9|arm1176]\n\
         \x20       [--variant base|align|mvm|full] [--passes <spec>] [--tune]\n\
         stats      print the daemon's metrics/cache report\n\
         \x20       [--json]  stable-order JSON stats document instead\n\
         tail       dump the daemon's request flight recorder\n\
         \x20       [--json]  raw dump document instead of a table\n\
         ping       liveness check\n\
         shutdown   ask the daemon to drain and exit\n\
         replay     [--requests N] [--connections N] [--tenants N]\n\
         \x20       [--duplicate-pct P] [--malformed-pct P] [--seed S] [--json <file>]"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("lgen-cli: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);

    // Pull out `--flag value` pairs; whatever is left is positional.
    let mut take = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        if i + 1 >= args.len() {
            usage();
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Some(v)
    };

    let socket = take("--socket").map(PathBuf::from);
    let name = take("--name");
    let tenant = take("--tenant");
    let target = take("--target");
    let variant = take("--variant");
    let passes = take("--passes");
    let requests = take("--requests");
    let connections = take("--connections");
    let tenants = take("--tenants");
    let duplicate_pct = take("--duplicate-pct");
    let malformed_pct = take("--malformed-pct");
    let seed = take("--seed");
    // `--json` means two different things: for `replay` it takes a file
    // path (where to write the report); for `stats`/`tail` it is a
    // boolean (emit the raw JSON document). Parse per command so
    // `stats --json` never eats a following argument.
    let json_out = if cmd == "replay" {
        take("--json")
    } else {
        None
    };
    let json_flag = if matches!(cmd.as_str(), "stats" | "tail") {
        if let Some(i) = args.iter().position(|a| a == "--json") {
            args.remove(i);
            true
        } else {
            false
        }
    } else {
        false
    };
    let tune = if let Some(i) = args.iter().position(|a| a == "--tune") {
        args.remove(i);
        true
    } else {
        false
    };
    if matches!(cmd.as_str(), "-h" | "--help" | "help") {
        usage();
    }
    let Some(socket) = socket else {
        eprintln!("lgen-cli: --socket is required");
        usage();
    };

    let connect = || {
        Client::connect_within(&socket, Duration::from_secs(5))
            .unwrap_or_else(|e| fail(format!("connect {}: {e}", socket.display())))
    };

    match cmd.as_str() {
        "compile" => {
            if args.len() != 1 {
                usage();
            }
            let file = &args[0];
            let source =
                std::fs::read_to_string(file).unwrap_or_else(|e| fail(format!("read {file}: {e}")));
            let stem = std::path::Path::new(file)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "kernel".into());
            let verb = if tune { Verb::Tune } else { Verb::Compile };
            let mut req = Request::new(verb)
                .with("name", name.as_deref().unwrap_or(&stem))
                .with_body(&source);
            if let Some(t) = &tenant {
                req = req.with("tenant", t);
            }
            if let Some(t) = &target {
                req = req.with("target", t);
            }
            if let Some(v) = &variant {
                req = req.with("variant", v);
            }
            if let Some(p) = &passes {
                req = req.with("passes", p);
            }
            let resp = connect()
                .request(&req)
                .unwrap_or_else(|e| fail(format!("request: {e}")));
            if resp.is_ok() {
                for key in ["outcome", "fingerprint", "flops", "wall_us"] {
                    if let Some(v) = resp.headers.get(key) {
                        eprintln!("{key}: {v}");
                    }
                }
                print!("{}", resp.body);
            } else {
                fail(format!(
                    "{}: {}",
                    resp.error.map(|e| e.as_str()).unwrap_or("error"),
                    resp.body.trim()
                ));
            }
        }
        "stats" => {
            if !args.is_empty() {
                usage();
            }
            let mut client = connect();
            let resp = if json_flag {
                client.stats_json()
            } else {
                client.stats()
            }
            .unwrap_or_else(|e| fail(format!("request: {e}")));
            if json_flag {
                println!("{}", resp.body.trim_end());
            } else {
                print!("{}", resp.body);
            }
        }
        "tail" => {
            if !args.is_empty() {
                usage();
            }
            let resp = connect()
                .dump()
                .unwrap_or_else(|e| fail(format!("request: {e}")));
            if json_flag {
                println!("{}", resp.body.trim_end());
            } else {
                render_flight_dump(&resp.body);
            }
        }
        "ping" => {
            if !args.is_empty() {
                usage();
            }
            let resp = connect()
                .request(&Request::new(Verb::Ping))
                .unwrap_or_else(|e| fail(format!("request: {e}")));
            println!("{}", resp.body.trim());
        }
        "shutdown" => {
            if !args.is_empty() {
                usage();
            }
            let resp = connect()
                .shutdown()
                .unwrap_or_else(|e| fail(format!("request: {e}")));
            println!("{}", resp.body.trim());
        }
        "replay" => {
            if !args.is_empty() {
                usage();
            }
            let parse = |v: Option<String>, d: usize| -> usize {
                v.map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(d)
            };
            let mut cfg = ReplayConfig::new(&socket);
            cfg.requests = parse(requests, cfg.requests);
            cfg.connections = parse(connections, cfg.connections);
            cfg.tenants = parse(tenants, cfg.tenants);
            cfg.duplicate_pct = parse(duplicate_pct, cfg.duplicate_pct);
            cfg.malformed_pct = parse(malformed_pct, cfg.malformed_pct);
            cfg.seed = seed
                .map(|s| s.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(cfg.seed);
            let report = replay(&cfg).unwrap_or_else(|e| fail(format!("replay: {e}")));
            let json = report.to_json();
            if let Some(path) = &json_out {
                std::fs::write(path, format!("{json}\n"))
                    .unwrap_or_else(|e| fail(format!("write {path}: {e}")));
                eprintln!("lgen-cli: wrote {path}");
            }
            eprintln!(
                "replayed {} requests: {} ok, {} busy retries, {} errors",
                report.requests, report.ok, report.busy, report.errors
            );
            eprintln!(
                "outcomes: {} compiled, {} coalesced, {} memory, {} disk \
                 (hit rate {:.1}%, coalesce rate {:.1}%)",
                report.compiled,
                report.coalesced,
                report.memory_hits,
                report.disk_hits,
                report.hit_rate() * 100.0,
                report.coalesce_rate() * 100.0
            );
            eprintln!(
                "daemon latency: p50 {}us, p99 {}us; malformed: {} sent, {} answered",
                report.p50_us, report.p99_us, report.malformed_sent, report.malformed_answered
            );
            for (tenant, requests, p99) in &report.tenants {
                eprintln!("  {tenant}: {requests} requests, service p99 {p99}us");
            }
            println!("{json}");
        }
        other => {
            eprintln!("lgen-cli: unknown command `{other}`");
            usage();
        }
    }
}

/// Renders the daemon's flight-recorder dump (`lgen-cli tail`) as a
/// human-readable table, oldest request first. The dump's field order is
/// a stable contract (see `lgen::serve::recorder::FlightRecord`), which
/// is what lets this scan by key without a JSON parser.
fn render_flight_dump(body: &str) {
    eprintln!(
        "flight recorder: cap {}, recorded {}, dropped {}",
        json_u64(body, "cap").unwrap_or(0),
        json_u64(body, "recorded").unwrap_or(0),
        json_u64(body, "dropped").unwrap_or(0)
    );
    let records = json_objects(body, "\"records\":[");
    if records.is_empty() {
        eprintln!("(no requests recorded)");
        return;
    }
    println!(
        "{:>8}  {:<12} {:<8} {:<10} {:<8} {:<8} {:>10} {:>11}  {:<6} fingerprint",
        "seq", "tenant", "verb", "outcome", "tier", "role", "wait_us", "service_us", "worker"
    );
    for obj in records {
        println!(
            "{:>8}  {:<12} {:<8} {:<10} {:<8} {:<8} {:>10} {:>11}  {:<6} {}",
            json_u64(obj, "seq").unwrap_or(0),
            json_str(obj, "tenant").unwrap_or_default(),
            json_str(obj, "verb").unwrap_or_default(),
            json_str(obj, "outcome").unwrap_or_default(),
            json_str(obj, "tier").unwrap_or_default(),
            json_str(obj, "role").unwrap_or_default(),
            json_u64(obj, "queue_wait_ns").unwrap_or(0) / 1_000,
            json_u64(obj, "service_ns").unwrap_or(0) / 1_000,
            json_u64(obj, "worker").unwrap_or(0),
            json_str(obj, "fingerprint").unwrap_or_default(),
        );
    }
}
