//! End-to-end tests of the `lgenc` binary: every flag-parse error path
//! must exit nonzero with the usage message, and the tuning failure
//! summary must reach stderr (the line `ci.sh` greps).

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes the usage example's BLAC to a unique temp file.
fn blac_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lgenc_cli_{}_{tag}.blac", std::process::id()));
    std::fs::write(
        &path,
        "alpha = scalar\n\
         A = matrix(4, 8)\n\
         x = vector(8)\n\
         y = vector(4)\n\
         y = alpha * (A * x) + y\n",
    )
    .unwrap();
    path
}

fn lgenc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lgenc"))
        .args(args)
        .output()
        .expect("lgenc runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = lgenc(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage: lgenc"),
        "{args:?} must print usage, got: {stderr}"
    );
}

#[test]
fn missing_or_bad_flag_values_exit_with_usage() {
    let file = blac_file("flags");
    let file = file.to_str().unwrap();
    // No input file at all.
    assert_usage_error(&[]);
    // --threads / -j: missing and non-numeric values.
    assert_usage_error(&[file, "--threads"]);
    assert_usage_error(&[file, "--threads", "many"]);
    assert_usage_error(&[file, "-j"]);
    assert_usage_error(&[file, "-j", "-1"]);
    // --tune-deadline / --tune-budget: missing and non-duration values.
    assert_usage_error(&[file, "--tune", "--tune-deadline"]);
    assert_usage_error(&[file, "--tune", "--tune-deadline", "soon"]);
    assert_usage_error(&[file, "--tune", "--tune-budget"]);
    assert_usage_error(&[file, "--tune", "--tune-budget", "10x"]);
    // --target / --variant: missing and unknown values.
    assert_usage_error(&[file, "--target"]);
    assert_usage_error(&[file, "--target", "z80"]);
    assert_usage_error(&[file, "--variant"]);
    assert_usage_error(&[file, "--variant", "turbo"]);
    // --prune: missing, malformed, and out-of-range values (both the
    // `--prune V` and `--prune=V` spellings are strict).
    assert_usage_error(&[file, "--tune", "--prune"]);
    assert_usage_error(&[file, "--tune", "--prune", "sometimes"]);
    assert_usage_error(&[file, "--tune", "--prune=topk:0"]);
    assert_usage_error(&[file, "--tune", "--prune=topk:"]);
    assert_usage_error(&[file, "--tune", "--prune=frac:0"]);
    assert_usage_error(&[file, "--tune", "--prune=frac:1.5"]);
    assert_usage_error(&[file, "--tune", "--prune="]);
    // Unknown flags.
    assert_usage_error(&[file, "--frobnicate"]);
    // --trace-out: missing value and unwritable path.
    assert_usage_error(&[file, "--trace-out"]);
    assert_usage_error(&[file, "--trace-out", "/nonexistent-dir/trace.json"]);
}

/// Strict flag parsing for the `lgend` daemon binary: a missing or
/// malformed value for any numeric flag must be a usage error (exit 2),
/// never a daemon silently running with a default.
#[test]
fn lgend_flag_errors_exit_with_usage() {
    let lgend = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_lgend"))
            .args(args)
            .output()
            .expect("lgend runs")
    };
    let assert_usage = |args: &[&str]| {
        let out = lgend(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr: {stderr}"
        );
        assert!(
            stderr.contains("usage: lgend"),
            "{args:?} must print usage, got: {stderr}"
        );
    };
    // No socket at all.
    assert_usage(&[]);
    // --slow-ms: missing, non-numeric, and negative values.
    assert_usage(&["--socket", "/tmp/x.sock", "--slow-ms"]);
    assert_usage(&["--socket", "/tmp/x.sock", "--slow-ms", "fast"]);
    assert_usage(&["--socket", "/tmp/x.sock", "--slow-ms", "-5"]);
    // --recorder-cap: missing and non-numeric values.
    assert_usage(&["--socket", "/tmp/x.sock", "--recorder-cap"]);
    assert_usage(&["--socket", "/tmp/x.sock", "--recorder-cap", "lots"]);
    // The pre-existing numeric flags stay just as strict.
    assert_usage(&["--socket", "/tmp/x.sock", "--workers", "two"]);
    assert_usage(&["--socket", "/tmp/x.sock", "--queue-capacity"]);
    // Unknown flags.
    assert_usage(&["--frobnicate"]);
}

/// `lgen-cli` flag errors: every command requires `--socket`, and the
/// `tail`/`stats` commands reject stray positionals.
#[test]
fn lgen_cli_flag_errors_exit_with_usage() {
    let cli = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_lgen-cli"))
            .args(args)
            .output()
            .expect("lgen-cli runs")
    };
    for args in [
        &["stats"][..],
        &["tail"][..],
        &["stats", "--json", "--socket"][..],
        &["tail", "--socket", "/tmp/x.sock", "stray"][..],
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr: {stderr}"
        );
        assert!(
            stderr.contains("usage: lgen-cli"),
            "{args:?} must print usage, got: {stderr}"
        );
    }
}

#[test]
fn bad_passes_spec_exits_nonzero() {
    let file = blac_file("passes");
    let out = lgenc(&[file.to_str().unwrap(), "--passes", "unroll,notapass"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --passes spec"), "{stderr}");
}

#[test]
fn compiles_and_prints_c() {
    let file = blac_file("ok");
    let out = lgenc(&[file.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("void kernel"), "no C emitted: {stdout}");
    assert!(stderr.contains("validated"), "{stderr}");
}

#[test]
fn trace_out_writes_a_chrome_trace_and_metrics_dump() {
    let file = blac_file("trace");
    let trace = std::env::temp_dir().join(format!("lgenc_cli_{}_trace.json", std::process::id()));
    let out = lgenc(&[
        file.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let json = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    // One complete-event span per pipeline stage, at minimum.
    for stage in ["compile", "codegen", "ll_tiling", "sigma_ll_rewrite", "dce"] {
        assert!(json.contains(&format!("\"name\":\"{stage}\"")), "{json}");
    }
    assert!(
        stderr.contains("wrote"),
        "span-count note missing: {stderr}"
    );
    // The --metrics dump reaches stderr, cache counters included (they
    // are pre-registered, so they appear even at zero).
    for key in ["lgen.compile.count 1", "lgen.cache.hits 0"] {
        assert!(stderr.contains(key), "metrics dump missing {key}: {stderr}");
    }
    let _ = std::fs::remove_file(trace);
}

#[test]
fn lgen_trace_env_prints_the_span_tree() {
    let file = blac_file("treeenv");
    let out = Command::new(env!("CARGO_BIN_EXE_lgenc"))
        .args([file.to_str().unwrap()])
        .env("LGEN_TRACE", "1")
        .output()
        .expect("lgenc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("[main]"), "no main track header: {stderr}");
    assert!(stderr.contains("compile "), "no compile span: {stderr}");
}

#[test]
fn pruned_tune_reports_skips_and_matches_the_full_winner() {
    let file = blac_file("prune");
    let file = file.to_str().unwrap();
    let winner_line = |args: &[&str]| {
        let out = lgenc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
        stderr
            .lines()
            .find(|l| l.contains("autotuned to"))
            .expect("winner line")
            .to_string()
    };
    let full = winner_line(&[file, "--tune", "--prune=off"]);
    let out = lgenc(&[file, "--tune", "--prune=topk:4", "--metrics"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let pruned = stderr
        .lines()
        .find(|l| l.contains("autotuned to"))
        .expect("winner line");
    // Winner parity is judged on the objective: the pruned search must
    // land on an equally-fast kernel. (Candidates can tie in measured
    // cycles, in which case the two searches may name different but
    // equally-good unroll decisions.)
    let cycles = |l: &str| {
        l.split('(')
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(cycles(pruned), cycles(&full), "pruned: {pruned} vs {full}");
    assert!(
        stderr.contains("pruning (topk:4):"),
        "pruning stats line missing: {stderr}"
    );
    assert!(
        stderr.contains("lgen.tune.candidates_pruned 14"),
        "pruned counter missing from metrics: {stderr}"
    );
}

#[test]
fn faulted_tune_prints_failure_summary_and_survives() {
    let file = blac_file("faults");
    let out = Command::new(env!("CARGO_BIN_EXE_lgenc"))
        .args([
            file.to_str().unwrap(),
            "--tune",
            "--tune-deadline",
            "30s",
            "-j",
            "2",
        ])
        .env("LGEN_FAULTS", "panic@1,corrupt@3")
        .output()
        .expect("lgenc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "degrades, not aborts: {stderr}");
    assert!(
        stderr.contains("2 candidate(s) failed"),
        "summary missing: {stderr}"
    );
    assert!(stderr.contains("1 panicked"), "{stderr}");
    assert!(stderr.contains("1 verify-rejected"), "{stderr}");
    assert!(
        stderr.contains("autotuned to"),
        "a winner emerged: {stderr}"
    );
}

/// Writes the Kalman predict program to a unique temp file.
fn kalman_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lgenc_cli_{}_{tag}.ll", std::process::id()));
    std::fs::write(
        &path,
        "F = matrix(4, 4)\nB = matrix(4, 2)\nu = vector(2)\nx = vector(4)\n\
         x_next = vector(4)\nP = matrix(4, 4) symmetric\nQ = matrix(4, 4) symmetric\n\
         P_next = matrix(4, 4)\n\
         x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;\n",
    )
    .unwrap();
    path
}

#[test]
fn program_tune_takes_the_tuning_flags() {
    // Programs tune on the same tuner as single BLACs: the winner is the
    // same at any worker count, and --tune-passes searches schedules.
    let path = kalman_file("tune");
    let file = path.to_str().unwrap();
    let winner_line = |args: &[&str]| {
        let out = lgenc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
        assert!(!stderr.contains("not supported"), "{stderr}");
        stderr
            .lines()
            .find(|l| l.contains("autotuned to"))
            .expect("winner line")
            .to_string()
    };
    let one = winner_line(&[file, "--tune", "--threads", "1"]);
    assert_eq!(one, winner_line(&[file, "--tune", "--threads", "2"]));
    let passes = winner_line(&[file, "--tune-passes", "--threads", "2"]);
    let cycles = |l: &str| -> u64 {
        let tail = l.rsplit('(').next().unwrap();
        tail.split(' ').next().unwrap().parse().unwrap()
    };
    assert!(cycles(&passes) <= cycles(&one), "{passes} vs {one}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn print_after_all_traces_every_pass_of_a_program() {
    let path = kalman_file("kalman");
    let out = lgenc(&[path.to_str().unwrap(), "--print-after-all"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let blocks: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("== IR after ")?.strip_suffix(" =="))
        .collect();
    assert_eq!(
        blocks,
        ["codegen", "unroll", "scalrep", "copyprop", "dce", "align"],
        "{stderr}"
    );
    assert!(!stderr.contains("not supported"), "{stderr}");
    let _ = std::fs::remove_file(path);
}
