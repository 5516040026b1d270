//! `lgenc` — the LGen command-line compiler.
//!
//! Reads an LL source file — a single BLAC (declarations + equation, see
//! `lgen::ll::parse`) or a multi-statement program with structure
//! annotations and `let`-bound temporaries — compiles it for a target
//! processor, checks it against the naive reference, prints the
//! generated C and the simulated performance. A program compiles to **one
//! fused kernel**: single-use temporaries are substituted into their
//! consumers before code generation; a single BLAC runs as its
//! one-statement program.
//!
//! The check is the tuner's: a kernel whose largest difference from the
//! reference reaches `tolerance(flops)` is a mismatch, and `lgenc` exits 1
//! with `kernel does not match the reference` before printing any C.
//!
//! `lgenc --help` prints the options (see `usage` below).
//!
//! Telemetry: `--trace-out` records spans for the whole run and writes
//! Chrome `trace_event` JSON (open in `chrome://tracing` or Perfetto);
//! `--metrics` dumps the process metrics registry to stderr at exit;
//! `LGEN_TRACE=1` records spans and prints the tree summary to stderr.

use lgen::cir::passes::align::{versioned_arrays, MAX_VERSIONED_ARRAYS};
use lgen::cir::passes::UnrollPolicy;
use lgen::cir::Kernel;
use lgen::core::exec::tolerance;
use lgen::core::{
    effective_threads, parse_duration, try_compile_program_with, KernelCache, PassStats, PassTrace,
    PrunePolicy, SearchStrategy, TuneError, VerifyFailure, VerifyLevel,
};
use lgen::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: lgenc <file.blac> [--target atom|cortex-a8|cortex-a9|arm1176]\n\
         \x20            [--variant base|align|mvm|full] [--passes <spec>]\n\
         \x20            [--tune] [--tune-passes] [--peel] [--version-align]\n\
         \x20            [--tune-deadline <dur>] [--tune-budget <dur>] [--tune-sweeps N]\n\
         \x20            [--prune off|topk:N|frac:F]\n\
         \x20            [--verify[=paranoid]] [--print-after-all]\n\
         \x20            [--threads N | -j N] [--cache-stats]\n\
         \x20            [--trace-out <file.json>] [--metrics]\n\
         \n\
         \x20 --passes <spec>     C-IR pass schedule, e.g. \"unroll,scalrep,copyprop,dce,align\"\n\
         \x20                     or \"unroll,scalrep,repeat(copyprop,dce)\" (fixpoint group)\n\
         \x20 --print-after-all   dump the IR after codegen and after every pass (stderr)\n\
         \x20 --tune              autotune the unrolling decision (for programs: jointly\n\
         \x20                     search one unroll policy per statement)\n\
         \x20 --tune-passes       also search over pass schedules (implies --tune)\n\
         \x20 --peel              peel to an aligned loop body with scalar head/tail\n\
         \x20                     (single-kernel transform; warned about and ignored\n\
         \x20                     when the input is a multi-statement program)\n\
         \x20 --version-align     emit per-alignment kernel versions behind a runtime\n\
         \x20                     dispatch (likewise warned about and ignored for\n\
         \x20                     multi-statement programs)\n\
         \x20 --tune-deadline <dur>  per-candidate time limit (e.g. 250ms, 2s); slow or hung\n\
         \x20                     candidates are abandoned and the search degrades gracefully\n\
         \x20 --tune-budget <dur> whole-search time budget; unstarted candidates are skipped\n\
         \x20 --tune-sweeps N     repeat the search N times against the warm kernel cache\n\
         \x20                     (steady-state tuning throughput; telemetry records each sweep)\n\
         \x20 --prune <policy>    model-guided pruning: rank candidates with the static cost\n\
         \x20                     predictor and simulate only the best (topk:N or frac:F,\n\
         \x20                     default off); N and F count distinct kernels, not unroll\n\
         \x20                     policies; reports the model's rank correlation\n\
         \x20 --verify            statically verify the kernel at pipeline boundaries\n\
         \x20 --verify=paranoid   verify between every optimization pass\n\
         \x20 --threads N, -j N   worker threads for tuning/compilation (0 = one per core)\n\
         \x20 --cache-stats       print kernel-cache and per-pass timing counters\n\
         \x20 --trace-out <file>  write a Chrome trace_event JSON of the whole run\n\
         \x20                     (open in chrome://tracing or Perfetto)\n\
         \x20 --metrics           dump the metrics registry (name value lines) at exit\n\
         \n\
         The kernel is checked against the naive reference; a mismatch (max|err|\n\
         past the tuner's tolerance) exits 1 before any C is printed.\n\
         \n\
         example input file (single BLAC):\n\
         \x20 alpha = scalar\n\
         \x20 A = matrix(4, 8)\n\
         \x20 x = vector(8)\n\
         \x20 y = vector(4)\n\
         \x20 y = alpha * (A * x) + y\n\
         \n\
         example input file (program; `S` is a let-bound temporary):\n\
         \x20 F = matrix(4, 4)\n\
         \x20 P = matrix(4, 4) symmetric\n\
         \x20 Q = matrix(4, 4) symmetric\n\
         \x20 P_next = matrix(4, 4)\n\
         \x20 S = P * F';\n\
         \x20 P_next = F * S + Q;"
    );
    std::process::exit(2);
}

/// The value of a flag, or the usage message (exit 2) when it is missing
/// or malformed: the strict flag-value convention.
fn or_usage<T>(value: Option<T>) -> T {
    value.unwrap_or_else(|| usage())
}

/// Parsed command-line options the driver reads besides the compile
/// configuration.
struct Opts {
    tune: bool,
    tune_passes: bool,
    print_after_all: bool,
    threads: usize,
    cache_stats: bool,
    tune_deadline: Option<Duration>,
    tune_budget: Option<Duration>,
    tune_sweeps: usize,
    prune: PrunePolicy,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut target = Microarch::Atom;
    let mut variant = Variant::Full;
    let mut passes: Option<PassPipeline> = None;
    let mut peel = false;
    let mut version_align = false;
    let mut verify = None;
    let mut trace_out: Option<String> = None;
    let mut metrics = false;
    let mut o = Opts {
        tune: false,
        tune_passes: false,
        print_after_all: false,
        threads: 0, // one worker per available core
        cache_stats: false,
        tune_deadline: None,
        tune_budget: None,
        tune_sweeps: 1,
        prune: PrunePolicy::Off,
    };

    // Strict flag-value convention: a bad policy is a usage error (exit
    // 2), not a silent fall-back to `off`.
    let parse_prune = |v: Option<&str>| -> PrunePolicy {
        or_usage(v).parse().unwrap_or_else(|e| {
            eprintln!("lgenc: bad --prune value: {e}");
            usage()
        })
    };
    let count = |v: Option<&String>| v.and_then(|v| v.parse().ok());
    let duration = |v: Option<&String>| Some(or_usage(v.and_then(|v| parse_duration(v))));

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" | "-j" => o.threads = or_usage(count(it.next())),
            "--tune-deadline" => o.tune_deadline = duration(it.next()),
            "--tune-budget" => o.tune_budget = duration(it.next()),
            "--tune-sweeps" => o.tune_sweeps = or_usage(count(it.next()).filter(|&n| n >= 1)),
            "--cache-stats" => o.cache_stats = true,
            "--trace-out" => trace_out = Some(or_usage(it.next()).clone()),
            "--metrics" => metrics = true,
            "--target" => {
                target = match it.next().map(String::as_str) {
                    Some("atom") => Microarch::Atom,
                    Some("cortex-a8") => Microarch::CortexA8,
                    Some("cortex-a9") => Microarch::CortexA9,
                    Some("arm1176") => Microarch::Arm1176,
                    _ => usage(),
                }
            }
            "--variant" => {
                variant = match it.next().map(String::as_str) {
                    Some("base") => Variant::Base,
                    Some("align") => Variant::Align,
                    Some("mvm") => Variant::Mvm,
                    Some("full") => Variant::Full,
                    _ => usage(),
                }
            }
            "--passes" => {
                let spec = or_usage(it.next()).parse::<PassPipeline>();
                passes = Some(spec.unwrap_or_else(|e| {
                    eprintln!("lgenc: bad --passes spec: {e}");
                    std::process::exit(2);
                }));
            }
            "--prune" => o.prune = parse_prune(it.next().map(String::as_str)),
            other if other.starts_with("--prune=") => {
                o.prune = parse_prune(other.strip_prefix("--prune="));
            }
            "--tune" => o.tune = true,
            "--tune-passes" => {
                o.tune = true;
                o.tune_passes = true;
            }
            "--peel" => peel = true,
            "--version-align" => version_align = true,
            "--print-after-all" => o.print_after_all = true,
            "--verify" => verify = Some(VerifyLevel::Boundaries),
            "--verify=paranoid" | "--verify=every-pass" => verify = Some(VerifyLevel::EveryPass),
            "--help" | "-h" => usage(),
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };

    if let Some(path) = &trace_out {
        // Fail the unwritable-path case up front (strict flag-value
        // convention), not after a whole compile/tune run.
        if let Err(e) = std::fs::write(path, "") {
            eprintln!("lgenc: cannot write --trace-out {path}: {e}");
            usage();
        }
        lgen::telemetry::set_enabled(true);
    }

    let src = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("lgenc: cannot read {file}: {e}");
        std::process::exit(1);
    });
    // The program grammar is a strict superset of the single-BLAC one, so
    // every input parses as a program; a single BLAC is its one-statement
    // program.
    let program = lgen::ll::parse_program(&src).unwrap_or_else(|e| {
        eprintln!("lgenc: {e}");
        std::process::exit(1);
    });

    let mut cfg = CompileConfig::variant(target, variant);
    cfg.pipeline = passes.unwrap_or(cfg.pipeline);
    cfg.peeling = peel;
    cfg.alignment_versioning = version_align;
    // --verify wins over LGEN_VERIFY (already folded in by `variant`).
    cfg.verify = verify.unwrap_or(cfg.verify);
    let kernel = run(&program, cfg, &o);

    // The product: C on stdout.
    print!(
        "{}",
        lgen::cir::unparse::unparse(&kernel, target.vector_isa())
    );

    // Telemetry exports last, so they cover the whole run.
    if let Some(path) = &trace_out {
        let spans = lgen::telemetry::global().snapshot();
        let json = lgen::telemetry::chrome_trace(&spans);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("lgenc: cannot write --trace-out {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("lgenc: wrote {} span(s) to {path}", spans.len());
    }
    if std::env::var("LGEN_TRACE").is_ok_and(|v| !v.is_empty() && v != "0") {
        eprint!(
            "{}",
            lgen::telemetry::summary_tree(&lgen::telemetry::global().snapshot())
        );
    }
    if metrics {
        eprint!(
            "{}",
            lgen::telemetry::format_metrics(&lgen::telemetry::registry().snapshot())
        );
    }
}

/// The driver: compiles (or autotunes) `program` to one kernel, checks it
/// against the statement-by-statement reference, measures it and returns
/// it. A single BLAC (one statement, no temporaries) runs as its
/// one-statement program; it differs only in the lines it prints (its
/// header and `tuning on` line, no fusion line), the peeling and
/// versioning flags it keeps, and the tuner call it makes.
fn run(program: &Program, mut cfg: CompileConfig, o: &Opts) -> Kernel {
    let target = cfg.arch;
    let single = program.statements.len() == 1 && !program.temps.iter().any(|&t| t);
    if !single && (cfg.peeling || cfg.alignment_versioning) {
        // Peeling and alignment versioning version a kernel on one BLAC's
        // parameter alignment classes; they have no program analogue yet.
        eprintln!(
            "lgenc: --peel/--version-align are single-kernel transforms; ignored for programs"
        );
        cfg.peeling = false;
        cfg.alignment_versioning = false;
    }
    // A BLAC's display is followed by three spaces, a program's count by one.
    let subject = if single {
        format!("{}  ", program.view(0))
    } else {
        format!("program of {} statement(s)", program.statements.len())
    };
    eprintln!(
        "lgenc: {subject} ({} flops) for {target}, passes \"{}\"",
        program.flops(),
        cfg.pipeline
    );
    let cache = Arc::new(KernelCache::new());
    let (kernel, fusions) = if o.tune {
        if single {
            eprintln!(
                "lgenc: tuning on {} worker(s)",
                effective_threads(o.threads)
            );
        }
        // Extra sweeps re-run the identical search against the
        // now-warm kernel cache: every sweep lands in the tune/compile
        // histograms, so the metrics dump captures steady-state
        // (memoized) tuning throughput, not just the cold first pass.
        let mut tuned = None;
        for _ in 0..o.tune_sweeps {
            tuned = Some(tune(program, single, &cfg, o, &cache).unwrap_or_else(|e| {
                eprintln!("lgenc: tuning failed: {e}");
                std::process::exit(1);
            }));
        }
        let tuned = tuned.expect("at least one tuning sweep");
        eprintln!(
            "lgenc: autotuned to {} under \"{}\" ({} cycles over {} candidates)",
            tuned.winner, tuned.replay.pipeline, tuned.cycles, tuned.candidates
        );
        if let Some(summary) = &tuned.failure_summary {
            eprintln!("lgenc: {summary}");
        }
        if !o.prune.is_off() {
            eprintln!(
                "lgenc: pruning ({}): {} candidate(s) skipped, rank correlation {}",
                o.prune,
                tuned.pruned,
                tuned
                    .rank_correlation
                    .map_or_else(|| "n/a".to_string(), |r| format!("{r:.3}")),
            );
        }
        if o.print_after_all {
            // Replay the winning compile with tracing on (outside the
            // cache, so snapshots reflect every pass).
            compile_traced(program, &tuned.replay, tuned.genome.as_deref(), None);
        }
        (tuned.kernel, tuned.fusions)
    } else if o.print_after_all {
        let compiled = compile_traced(program, &cfg, None, Some(cache.pass_stats()));
        (compiled.kernel, compiled.fusions)
    } else {
        let kernel = match cache.try_get_or_compile_program(program, "kernel", &cfg, None) {
            Ok(kernel) => (*kernel).clone(),
            Err(failure) => verification_failed(&failure),
        };
        (kernel, lgen::sigma::fuse_program(program).1)
    };

    if cfg.alignment_versioning && kernel.versions.len() == 1 {
        // The compile declined to version (versioning always adds the
        // unaligned fallback, so a versioned kernel has 2+ versions).
        eprintln!(
            "lgenc: --version-align: {} vector-sized arrays exceed the limit of {}; compiled unversioned",
            versioned_arrays(&kernel).len(),
            MAX_VERSIONED_ARRAYS
        );
    }
    if !single {
        eprintln!(
            "lgenc: {fusions} cross-statement fusion(s), kernel covers {} statement(s)",
            program.statements.len() - fusions
        );
    }
    if o.cache_stats {
        // One coherent snapshot: counters and per-pass rows are read
        // together, so they cannot disagree mid-run.
        for line in cache.snapshot().to_string().lines() {
            eprintln!("lgenc: {line}");
        }
    }

    // Check against the statement-by-statement reference, then measure.
    let diff = check_program(program, &kernel, target.vector_isa(), 1).unwrap_or_else(|e| {
        eprintln!("lgenc: kernel failed to execute: {e}");
        std::process::exit(1);
    });
    let verdict = verdict(diff, program.flops());
    eprintln!("lgenc: {}", verdict.as_ref().unwrap_or_else(|miss| miss));
    if verdict.is_err() {
        std::process::exit(1);
    }
    match measure_program(program, &kernel, target, 3) {
        Ok(m) => eprintln!(
            "lgenc: {} cycles, {:.3} flops/cycle (peak {:.1}), {:.2} nJ",
            m.cycles,
            m.flops_per_cycle(),
            target.peak_flops_per_cycle(),
            m.energy_pj as f64 / 1000.0
        ),
        Err(e) => eprintln!("lgenc: measurement failed: {e}"),
    }
    kernel
}

/// The check's verdict on a kernel whose largest difference from the
/// reference is `diff`, by the tuner's own criterion: the line to print,
/// as `Ok` when the kernel matches and as `Err` when it does not.
fn verdict(diff: f32, flops: u64) -> Result<String, String> {
    let tolerance = tolerance(flops);
    if diff < tolerance {
        Ok(format!("validated, max|err| = {diff:.2e}"))
    } else {
        Err(format!(
            "kernel does not match the reference: max|err| = {diff:.2e} exceeds tolerance {tolerance:.2e}"
        ))
    }
}

/// A finished tune, from either tuner call, as the driver reports it.
struct Tuned {
    kernel: Kernel,
    fusions: usize,
    /// The winning unroll policy, or per-statement genome, as printed.
    winner: String,
    cycles: u64,
    candidates: usize,
    failure_summary: Option<String>,
    pruned: usize,
    rank_correlation: Option<f64>,
    /// The configuration, winning schedule included, and the genome that
    /// replay the winning compile.
    replay: CompileConfig,
    genome: Option<Vec<UnrollPolicy>>,
}

/// One tuning sweep on the one tuner, configured from the tuning flags. A
/// single BLAC tunes through [`Autotuner::try_tune`], any other program
/// through [`Autotuner::try_tune_program`].
fn tune(
    program: &Program,
    single: bool,
    cfg: &CompileConfig,
    o: &Opts,
    cache: &Arc<KernelCache>,
) -> Result<Tuned, TuneError> {
    let mut tuner = Autotuner::new(cfg.clone())
        .with_strategy(SearchStrategy::Exhaustive)
        .with_threads(o.threads)
        .with_cache(cache.clone())
        .with_prune(o.prune);
    if o.tune_passes {
        tuner = tuner.with_pipeline_search();
    }
    if let Some(d) = o.tune_deadline {
        tuner = tuner.with_deadline(d);
    }
    if let Some(b) = o.tune_budget {
        tuner = tuner.with_budget(b);
    }
    Ok(if single {
        let t = tuner.try_tune(&program.view(0), "kernel")?;
        Tuned {
            winner: format!("{:?}", t.unroll),
            cycles: t.measurement.cycles,
            candidates: t.samples.len(),
            failure_summary: t.failure_summary(),
            pruned: t.pruned,
            rank_correlation: t.rank_correlation,
            replay: cfg.clone().with_unroll(t.unroll).with_passes(t.pipeline),
            genome: None,
            fusions: 0,
            kernel: t.kernel,
        }
    } else {
        let t = tuner.try_tune_program(program, "kernel")?;
        Tuned {
            winner: format!("{:?}", t.policies),
            cycles: t.measurement.cycles,
            candidates: t.samples.len(),
            failure_summary: t.failure_summary(),
            pruned: t.pruned,
            rank_correlation: t.rank_correlation,
            replay: cfg.clone().with_passes(t.pipeline),
            genome: Some(t.policies),
            fusions: t.fusions,
            kernel: t.kernel,
        }
    })
}

/// Compiles outside the cache with `--print-after-all` tracing on and
/// prints every recorded IR snapshot to stderr.
fn compile_traced(
    program: &Program,
    cfg: &CompileConfig,
    genome: Option<&[UnrollPolicy]>,
    stats: Option<&PassStats>,
) -> CompiledProgram {
    let trace = PassTrace::new();
    let result = try_compile_program_with(program, "kernel", cfg, genome, stats, Some(&trace));
    let compiled = result.unwrap_or_else(|failure| verification_failed(&failure));
    for (stage, ir) in trace.snapshots() {
        eprintln!("== IR after {stage} ==");
        eprint!("{ir}");
    }
    compiled
}

/// Reports a kernel that failed static verification and exits.
fn verification_failed(failure: &VerifyFailure) -> ! {
    eprintln!("lgenc: verification failed after pass `{}`:", failure.pass);
    eprint!("{}", lgen::cir::render(&failure.diagnostics));
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accepts_within_tolerance_and_rejects_past_it() {
        let flops = 72;
        let tol = tolerance(flops);
        assert_eq!(
            verdict(2.98e-8, flops),
            Ok("validated, max|err| = 2.98e-8".to_string())
        );
        let miss = 2.0 * tol;
        assert_eq!(
            verdict(miss, flops),
            Err(format!(
                "kernel does not match the reference: max|err| = {miss:.2e} \
                 exceeds tolerance {tol:.2e}"
            ))
        );
        // The tolerance itself is a miss, as in the tuner; so is a NaN.
        assert!(verdict(tol, flops).is_err());
        assert!(verdict(f32::NAN, flops).is_err());
    }
}
