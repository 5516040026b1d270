//! `lgenc` — the LGen command-line compiler.
//!
//! Reads an LL source file — a single BLAC (declarations + equation, see
//! `lgen::ll::parse`) or a multi-statement program with structure
//! annotations and `let`-bound temporaries — compiles it for a target
//! processor, validates it against the naive reference, prints the
//! generated C and the simulated performance. A program compiles to **one
//! fused kernel**: single-use temporaries are substituted into their
//! consumers before code generation.
//!
//! ```text
//! lgenc <file.blac> [--target atom|cortex-a8|cortex-a9|arm1176]
//!       [--variant base|align|mvm|full] [--passes <spec>]
//!       [--tune] [--tune-passes] [--peel] [--version-align]
//!       [--tune-deadline <dur>] [--tune-budget <dur>] [--tune-sweeps N]
//!       [--prune off|topk:N|frac:F]
//!       [--verify[=paranoid]] [--print-after-all]
//!       [--threads N | -j N] [--cache-stats]
//!       [--trace-out <file.json>] [--metrics]
//! ```
//!
//! Telemetry: `--trace-out` records spans for the whole run and writes
//! Chrome `trace_event` JSON (open in `chrome://tracing` or Perfetto);
//! `--metrics` dumps the process metrics registry to stderr at exit;
//! `LGEN_TRACE=1` records spans and prints the tree summary to stderr.

use lgen::cir::passes::align::{versioned_arrays, MAX_VERSIONED_ARRAYS};
use lgen::cir::passes::UnrollPolicy;
use lgen::core::{
    parse_duration, try_compile_program_with, KernelCache, PassStats, PassTrace, PrunePolicy,
    SearchStrategy, TuneError, VerifyFailure, VerifyLevel,
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

/// Parsed command-line options shared by the BLAC and program paths.
struct Opts {
    target: Microarch,
    tune: bool,
    tune_passes: bool,
    peel: bool,
    version_align: bool,
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
    let mut tune = false;
    let mut tune_passes = false;
    let mut peel = false;
    let mut version_align = false;
    let mut print_after_all = false;
    let mut threads = 0usize; // 0 = one worker per available core
    let mut cache_stats = false;
    let mut verify = None;
    let mut tune_deadline: Option<Duration> = None;
    let mut tune_budget: Option<Duration> = None;
    let mut tune_sweeps = 1usize;
    let mut prune = PrunePolicy::Off;
    let mut trace_out: Option<String> = None;
    let mut metrics = false;

    // Strict flag-value convention: a bad policy is a usage error (exit
    // 2), not a silent fall-back to `off`.
    let parse_prune = |v: Option<&str>| -> PrunePolicy {
        match v.map(str::parse) {
            Some(Ok(p)) => p,
            Some(Err(e)) => {
                eprintln!("lgenc: bad --prune value: {e}");
                usage();
            }
            None => usage(),
        }
    };

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" | "-j" => {
                threads = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => usage(),
                }
            }
            "--tune-deadline" => {
                tune_deadline = match it.next().and_then(|v| parse_duration(v)) {
                    Some(d) => Some(d),
                    None => usage(),
                }
            }
            "--tune-budget" => {
                tune_budget = match it.next().and_then(|v| parse_duration(v)) {
                    Some(d) => Some(d),
                    None => usage(),
                }
            }
            "--tune-sweeps" => {
                tune_sweeps = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage(),
                }
            }
            "--cache-stats" => cache_stats = true,
            "--trace-out" => {
                trace_out = match it.next() {
                    Some(path) => Some(path.clone()),
                    None => usage(),
                }
            }
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
                let Some(spec) = it.next() else { usage() };
                passes = match spec.parse::<PassPipeline>() {
                    Ok(p) => Some(p),
                    Err(e) => {
                        eprintln!("lgenc: bad --passes spec: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--prune" => prune = parse_prune(it.next().map(String::as_str)),
            other if other.starts_with("--prune=") => {
                prune = parse_prune(other.strip_prefix("--prune="));
            }
            "--tune" => tune = true,
            "--tune-passes" => {
                tune = true;
                tune_passes = true;
            }
            "--peel" => peel = true,
            "--version-align" => version_align = true,
            "--print-after-all" => print_after_all = true,
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
    // every input parses as a program; a one-statement file without
    // temporaries then takes the original single-kernel path (where
    // peeling, alignment versioning, and pass-schedule search apply).
    let program = lgen::ll::parse_program(&src).unwrap_or_else(|e| {
        eprintln!("lgenc: {e}");
        std::process::exit(1);
    });
    let single = program.statements.len() == 1 && !program.temps.iter().any(|&t| t);

    let mut cfg = CompileConfig::variant(target, variant);
    if let Some(p) = passes {
        cfg = cfg.with_passes(p);
    }
    if peel {
        cfg = cfg.with_peeling();
    }
    if version_align {
        cfg = cfg.with_versioning();
    }
    // --verify wins over LGEN_VERIFY (already folded in by `variant`).
    if let Some(level) = verify {
        cfg = cfg.with_verify(level);
    }
    let opts = Opts {
        target,
        tune,
        tune_passes,
        peel,
        version_align,
        print_after_all,
        threads,
        cache_stats,
        tune_deadline,
        tune_budget,
        tune_sweeps,
        prune,
    };

    let kernel = if single {
        run_blac(&program.view(0), &cfg, &opts)
    } else {
        run_program(&program, cfg, &opts)
    };

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

/// The one tuner both paths run, configured from the tuning flags; extra
/// `--tune-sweeps` re-run it against the same, now warm, kernel cache.
fn tuner(cfg: &CompileConfig, o: &Opts, cache: &Arc<KernelCache>) -> Autotuner {
    let mut tuner = Autotuner::new(cfg.clone())
        .with_strategy(SearchStrategy::Exhaustive)
        .with_threads(o.threads)
        .with_cache(cache.clone());
    if o.tune_passes {
        tuner = tuner.with_pipeline_search();
    }
    if let Some(d) = o.tune_deadline {
        tuner = tuner.with_deadline(d);
    }
    if let Some(b) = o.tune_budget {
        tuner = tuner.with_budget(b);
    }
    tuner.with_prune(o.prune)
}

/// Prints the pruning line of a pruned tune.
fn report_pruning(o: &Opts, pruned: usize, rank_correlation: Option<f64>) {
    if !o.prune.is_off() {
        eprintln!(
            "lgenc: pruning ({}): {pruned} candidate(s) skipped, rank correlation {}",
            o.prune,
            rank_correlation.map_or_else(|| "n/a".to_string(), |r| format!("{r:.3}")),
        );
    }
}

/// Reports an all-candidates-failed tune and exits.
fn tuning_failed(e: &TuneError) -> ! {
    eprintln!("lgenc: tuning failed: {e}");
    std::process::exit(1);
}

/// The original single-BLAC path: compile or autotune one kernel,
/// validate it, measure it, return it.
fn run_blac(blac: &Blac, cfg: &CompileConfig, o: &Opts) -> lgen::cir::Kernel {
    let target = o.target;
    eprintln!(
        "lgenc: {blac}   ({} flops) for {target}, passes \"{}\"",
        blac.flops(),
        cfg.pipeline
    );
    let cache = Arc::new(KernelCache::new());
    let kernel = if o.tune {
        eprintln!(
            "lgenc: tuning on {} worker(s)",
            lgen::core::effective_threads(o.threads)
        );
        // Extra sweeps re-run the identical search against the
        // now-warm kernel cache: every sweep lands in the tune/compile
        // histograms, so the metrics dump captures steady-state
        // (memoized) tuning throughput, not just the cold first pass.
        let mut last = None;
        for _ in 0..o.tune_sweeps {
            match tuner(cfg, o, &cache).try_tune(blac, "kernel") {
                Ok(tuned) => last = Some(tuned),
                Err(e) => tuning_failed(&e),
            }
        }
        let tuned = last.expect("at least one tuning sweep");
        eprintln!(
            "lgenc: autotuned to {:?} under \"{}\" ({} cycles over {} candidates)",
            tuned.unroll,
            tuned.pipeline,
            tuned.measurement.cycles,
            tuned.samples.len()
        );
        if let Some(summary) = tuned.failure_summary() {
            eprintln!("lgenc: {summary}");
        }
        report_pruning(o, tuned.pruned, tuned.rank_correlation);
        if o.print_after_all {
            // Replay the winning compile with tracing on (outside the
            // cache, so snapshots reflect every pass).
            let winner_cfg = cfg
                .clone()
                .with_unroll(tuned.unroll)
                .with_passes(tuned.pipeline.clone());
            compile_traced(&Program::from(blac), &winner_cfg, None, None);
        }
        tuned.kernel
    } else if o.print_after_all {
        let program = Program::from(blac);
        compile_traced(&program, cfg, None, Some(cache.pass_stats())).kernel
    } else {
        match cache.try_get_or_compile(blac, "kernel", cfg) {
            Ok(kernel) => (*kernel).clone(),
            Err(failure) => verification_failed(&failure),
        }
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

    if o.cache_stats {
        // One coherent snapshot: counters and per-pass rows are read
        // together, so they cannot disagree mid-run.
        for line in cache.snapshot().to_string().lines() {
            eprintln!("lgenc: {line}");
        }
    }

    // Validate and measure.
    match check_kernel(blac, &kernel, target.vector_isa(), 1) {
        Ok(diff) => eprintln!("lgenc: validated, max|err| = {diff:.2e}"),
        Err(e) => {
            eprintln!("lgenc: kernel failed to execute: {e}");
            std::process::exit(1);
        }
    }
    let offsets = vec![0usize; blac.operands.len()];
    match measure_blac(blac, &kernel, target, &offsets, 3) {
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

/// The program path: fuse, compile (or jointly tune) one kernel for the
/// whole statement sequence, validate it against the statement-by-statement
/// reference, measure it, return it.
fn run_program(program: &Program, mut cfg: CompileConfig, o: &Opts) -> lgen::cir::Kernel {
    let target = o.target;
    if o.peel || o.version_align {
        // Peeling and alignment versioning version a kernel on one BLAC's
        // parameter alignment classes; they have no program analogue yet.
        eprintln!(
            "lgenc: --peel/--version-align are single-kernel transforms; ignored for programs"
        );
        cfg.peeling = false;
        cfg.alignment_versioning = false;
    }
    eprintln!(
        "lgenc: program of {} statement(s) ({} flops) for {target}, passes \"{}\"",
        program.statements.len(),
        program.flops(),
        cfg.pipeline
    );
    let cache = Arc::new(KernelCache::new());
    let (kernel, fusions) = if o.tune {
        let mut last = None;
        for _ in 0..o.tune_sweeps {
            match tuner(&cfg, o, &cache).try_tune_program(program, "kernel") {
                Ok(tuned) => last = Some(tuned),
                Err(e) => tuning_failed(&e),
            }
        }
        let tuned = last.expect("at least one tuning sweep");
        eprintln!(
            "lgenc: autotuned to {:?} under \"{}\" ({} cycles over {} candidates)",
            tuned.policies,
            tuned.pipeline,
            tuned.measurement.cycles,
            tuned.samples.len()
        );
        if let Some(summary) = tuned.failure_summary() {
            eprintln!("lgenc: {summary}");
        }
        report_pruning(o, tuned.pruned, tuned.rank_correlation);
        if o.print_after_all {
            // Replay the winning genome and schedule with tracing on.
            let winner_cfg = cfg.clone().with_passes(tuned.pipeline.clone());
            compile_traced(program, &winner_cfg, Some(&tuned.policies), None);
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
        let (_, fusions) = lgen::sigma::fuse_program(program);
        (kernel, fusions)
    };
    eprintln!(
        "lgenc: {fusions} cross-statement fusion(s), kernel covers {} statement(s)",
        program.statements.len() - fusions
    );

    if o.cache_stats {
        for line in cache.snapshot().to_string().lines() {
            eprintln!("lgenc: {line}");
        }
    }

    // Validate against the statement-by-statement reference and measure.
    match check_program(program, &kernel, target.vector_isa(), 1) {
        Ok(diff) => eprintln!("lgenc: validated, max|err| = {diff:.2e}"),
        Err(e) => {
            eprintln!("lgenc: kernel failed to execute: {e}");
            std::process::exit(1);
        }
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
