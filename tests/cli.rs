//! End-to-end tests of the `lgenc` binary: every flag-parse error path
//! must exit nonzero with the usage message, and the tuning failure
//! summary must reach stderr (the line `ci.sh` greps).

use lgen::cir::unparse::unparse;
use lgen::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `text` to a temp file unique to this process and `name`.
fn temp_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lgenc_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

/// The usage example's BLAC.
const GEMV: &str = "alpha = scalar\n\
                    A = matrix(4, 8)\n\
                    x = vector(8)\n\
                    y = vector(4)\n\
                    y = alpha * (A * x) + y\n";

/// Writes the usage example's BLAC to a unique temp file.
fn blac_file(tag: &str) -> PathBuf {
    temp_file(&format!("{tag}.blac"), GEMV)
}

fn lgenc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lgenc"))
        .args(args)
        .output()
        .expect("lgenc runs")
}

/// Runs `lgenc`, asserts that it exits 0, and returns its stdout and
/// stderr.
fn lgenc_ok(args: &[&str]) -> (String, String) {
    let out = lgenc(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "{args:?} stderr: {stderr}");
    (String::from_utf8(out.stdout).unwrap(), stderr)
}

/// The `autotuned to …` line of a tuning run's stderr.
fn winner_line(stderr: &str) -> &str {
    stderr
        .lines()
        .find(|l| l.contains("autotuned to"))
        .expect("winner line")
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
    let (stdout, stderr) = lgenc_ok(&[file.to_str().unwrap()]);
    assert!(stdout.contains("void kernel"), "no C emitted: {stdout}");
    assert!(stderr.contains("validated"), "{stderr}");
}

#[test]
fn trace_out_writes_a_chrome_trace_and_metrics_dump() {
    let file = blac_file("trace");
    let trace = std::env::temp_dir().join(format!("lgenc_cli_{}_trace.json", std::process::id()));
    let (_, stderr) = lgenc_ok(&[
        file.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics",
    ]);
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
    // The BLAC's 18 policies make 2 kernels: topk:1 skips one.
    let (_, full) = lgenc_ok(&[file, "--tune", "--prune=off"]);
    let full = winner_line(&full);
    let (_, stderr) = lgenc_ok(&[file, "--tune", "--prune=topk:1", "--metrics"]);
    let pruned = winner_line(&stderr);
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
    assert_eq!(cycles(pruned), cycles(full), "pruned: {pruned} vs {full}");
    assert!(
        stderr.contains("pruning (topk:1):"),
        "pruning stats line missing: {stderr}"
    );
    assert!(
        stderr.contains("lgen.tune.candidates_pruned 1\n"),
        "pruned counter missing from metrics: {stderr}"
    );
}

#[test]
fn faulted_tune_prints_failure_summary_and_survives() {
    // y = A*x + y with A 9x23: its 18 policies make 4 kernels, so fault
    // indices 1 and 3 name candidates.
    let gemv = "A = matrix(9, 23)\nx = vector(23)\ny = vector(9)\ny = A * x + y\n";
    let file = temp_file("faults.blac", gemv);
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

/// The Kalman filter's predict step as a three-statement program.
const KALMAN: &str = "F = matrix(4, 4)\nB = matrix(4, 2)\nu = vector(2)\nx = vector(4)\n\
                      x_next = vector(4)\nP = matrix(4, 4) symmetric\n\
                      Q = matrix(4, 4) symmetric\nP_next = matrix(4, 4)\n\
                      x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;\n";

/// Writes the Kalman predict program to a unique temp file.
fn kalman_file(tag: &str) -> PathBuf {
    temp_file(&format!("{tag}.ll"), KALMAN)
}

#[test]
fn program_tune_takes_the_tuning_flags() {
    // Programs tune on the same tuner as single BLACs: the winner is the
    // same at any worker count, and --tune-passes searches schedules.
    let path = kalman_file("tune");
    let file = path.to_str().unwrap();
    let winner = |args: &[&str]| {
        let (_, stderr) = lgenc_ok(args);
        assert!(!stderr.contains("not supported"), "{stderr}");
        winner_line(&stderr).to_string()
    };
    let one = winner(&[file, "--tune", "--threads", "1"]);
    assert_eq!(one, winner(&[file, "--tune", "--threads", "2"]));
    let passes = winner(&[file, "--tune-passes", "--threads", "2"]);
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
    // A tuned program replays its winning per-statement unroll genome,
    // which must show up as the `unroll` stage like the pass it replaces.
    for extra in [&[][..], &["--tune"][..]] {
        let mut args = vec![path.to_str().unwrap(), "--print-after-all"];
        args.extend(extra);
        let (_, stderr) = lgenc_ok(&args);
        let blocks: Vec<&str> = stderr
            .lines()
            .filter_map(|l| l.strip_prefix("== IR after ")?.strip_suffix(" =="))
            .collect();
        assert_eq!(
            blocks,
            ["codegen", "unroll", "scalrep", "copyprop", "dce", "align"],
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("not supported"), "{stderr}");
    }
    let _ = std::fs::remove_file(path);
}

/// `y = A*x + B*z`: five vector-sized arrays, past the three that
/// alignment versioning accepts.
const FIVE_ARRAYS: &str = "A = matrix(4, 8)\nx = vector(8)\nB = matrix(4, 8)\nz = vector(8)\n\
                           y = vector(4)\ny = A * x + B * z\n";

/// `--version-align` on a BLAC with more vector-sized arrays than
/// versioning accepts compiles the kernel unversioned and says so,
/// instead of aborting.
#[test]
fn version_align_past_the_array_limit_compiles_unversioned_with_a_note() {
    let path = temp_file("five.blac", FIVE_ARRAYS);
    let (c, stderr) = lgenc_ok(&[path.to_str().unwrap(), "--version-align"]);
    assert!(
        stderr.contains(
            "lgenc: --version-align: 5 vector-sized arrays exceed the limit of 3; \
             compiled unversioned"
        ),
        "note missing: {stderr}"
    );
    assert!(stderr.contains("lgenc: validated"), "{stderr}");
    assert!(!c.contains("uintptr_t"), "no dispatch chain expected: {c}");
    // Within the limit, the same flag versions and prints no note.
    let small = blac_file("valign");
    let (c, stderr) = lgenc_ok(&[small.to_str().unwrap(), "--version-align"]);
    assert!(!stderr.contains("compiled unversioned"), "{stderr}");
    assert!(c.contains("uintptr_t"));
}

/// `lgenc` prints the library's kernel: the plain compile's, the BLAC
/// tuner's and the program tuner's under the same settings. A parsed
/// single-BLAC file is its BLAC's one-statement program, so the driver's
/// program calls see what the BLAC calls would: the same cache key,
/// operand table, test data and layout.
#[test]
fn lgenc_prints_the_library_kernel() {
    let gemv = "A = matrix(9, 23)\nx = vector(23)\ny = vector(9)\ny = A * x + y\n";
    for src in [GEMV, FIVE_ARRAYS, gemv] {
        let program = parse_program(src).unwrap();
        assert_eq!(Program::from(&program.view(0)), program, "{src}");
    }
    let cfg = CompileConfig::full(Microarch::Atom);
    let c = |kernel: &lgen::cir::Kernel| unparse(kernel, Microarch::Atom.vector_isa());
    let tuner =
        || Autotuner::new(cfg.clone()).with_strategy(lgen::core::SearchStrategy::Exhaustive);
    let stdout = |args: &[&str]| lgenc_ok(args).0;

    let path = blac_file("parity");
    let file = path.to_str().unwrap();
    let program = parse_program(GEMV).unwrap();
    let blac = program.view(0);
    let compiled = try_compile_program(&program, "kernel", &cfg).unwrap();
    assert_eq!(stdout(&[file]), c(&compiled.kernel));
    let tuned = tuner().try_tune(&blac, "kernel").unwrap();
    assert_eq!(stdout(&[file, "--tune"]), c(&tuned.kernel));
    let searched = tuner().with_pipeline_search().try_tune(&blac, "kernel");
    assert_eq!(
        stdout(&[file, "--tune-passes"]),
        c(&searched.unwrap().kernel)
    );

    let path = kalman_file("parity");
    let tuned = tuner().try_tune_program(&parse_program(KALMAN).unwrap(), "kernel");
    assert_eq!(
        stdout(&[path.to_str().unwrap(), "--tune"]),
        c(&tuned.unwrap().kernel)
    );
    let _ = std::fs::remove_file(path);
}
