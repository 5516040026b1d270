//! Every call the benchmark makes into the lgen crates, in one place: the
//! one-shot compile `lgenc` performs, its staged (traced) twin, the two
//! autotuners, and the independent checks.

use crate::inputs::Input;
use crate::stats::fnv;
use crate::trace::Tracer;
use lgen_analysis::analyze_kernel;
use lgen_cir::passes::{version_for_alignment, PipelineStep};
use lgen_cir::unparse::unparse;
use lgen_cir::{Kernel, PassCtx, PassPipeline, VerifyLevel};
use lgen_core::exec::tolerance;
use lgen_core::{
    check_kernel, check_program, measure_blac, measure_program, try_compile, try_compile_program,
    Autotuner, CompileConfig, KernelCache, ProgramTuner, PrunePolicy, SearchStrategy,
};
use lgen_isa::VectorIsa;
use lgen_ll::{parse_program, Program};
use lgen_machine::Measurement;
use lgen_sigma::{compile_blac, fuse_program, CodegenOptions};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The kernel symbol every compile and tune op emits (`lgenc`'s name).
pub const KERNEL: &str = "kernel";

/// What one compile or tune produced.
pub struct Output {
    pub kernel: Kernel,
    /// FNV-1a of the emitted C.
    pub c_hash: u64,
}

fn single(program: &Program) -> bool {
    program.statements.len() == 1 && !program.temps.iter().any(|&t| t)
}

/// Runs `f`, turning a panic into an error so one bad op never aborts
/// the run.
pub fn contained<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())),
    }
}

/// The `compile` op: parse the LL source, one uncached compile through
/// the public entry point, unparse — `lgenc` without `--tune`.
pub fn compile_one_shot(text: &str, name: &str, cfg: &CompileConfig) -> Result<Output, String> {
    let program = parse_program(text).map_err(|e| e.to_string())?;
    let kernel = if single(&program) {
        try_compile(&program.view(0), name, cfg).map_err(|e| e.to_string())?
    } else {
        try_compile_program(&program, name, cfg)
            .map_err(|e| e.to_string())?
            .kernel
    };
    let c = unparse(&kernel, cfg.arch.vector_isa());
    Ok(Output {
        c_hash: fnv(c.as_bytes()),
        kernel,
    })
}

fn step_spec(step: &PipelineStep) -> String {
    match step {
        PipelineStep::Pass(name) => name.to_string(),
        PipelineStep::Repeat(inner) => format!(
            "repeat({})",
            inner.iter().map(step_spec).collect::<Vec<_>>().join(",")
        ),
    }
}

/// Span and IR-size count names of one pipeline step.
fn step_names(step: &PipelineStep) -> (&'static str, &'static str) {
    match step {
        PipelineStep::Pass("unroll") => ("cir.unroll", "cir.unroll_insts"),
        PipelineStep::Pass("scalrep") => ("cir.scalrep", "cir.scalrep_insts"),
        PipelineStep::Pass("copyprop") => ("cir.copyprop", "cir.copyprop_insts"),
        PipelineStep::Pass("dce") => ("cir.dce", "cir.dce_insts"),
        PipelineStep::Pass("align") => ("cir.align", "cir.align_insts"),
        _ => ("cir.other", "cir.other_insts"),
    }
}

/// The compile op split at every layer boundary: parse, fusion, Σ-LL
/// codegen, one single-step `PassPipeline::run` per schedule step,
/// alignment versioning, unparse — each call in its own span. It must
/// emit byte-identical C to [`compile_one_shot`]; the caller checks.
pub fn compile_staged(
    t: &mut Tracer,
    text: &str,
    name: &str,
    cfg: &CompileConfig,
) -> Result<Output, String> {
    let program = t
        .span("ll.parse", |_| parse_program(text))
        .map_err(|e| e.to_string())?;
    let isa = cfg.arch.vector_isa();
    let single = single(&program);
    let kernel = if single && cfg.peeling && isa != VectorIsa::Scalar {
        // Peeling compiles one body per offset class inside the pipeline;
        // the smallest public call containing it is the whole compile.
        let blac = program.view(0);
        t.span("cir.version", |_| try_compile(&blac, name, cfg))
            .map_err(|e| e.to_string())?
    } else {
        let opts = CodegenOptions {
            isa,
            mvm: cfg.mvm,
            specialized_leftovers: cfg.specialized_leftovers,
            peel_offset: None,
        };
        let mut kernel = if single {
            let blac = program.view(0);
            t.span("sigma.codegen", |_| compile_blac(&blac, name, &opts))
        } else {
            t.span("sigma.fuse", |_| fuse_program(&program));
            t.span("sigma.codegen", |_| {
                lgen_sigma::compile_program(&program, name, &opts).kernel
            })
        };
        t.count("sigma.insts", kernel.static_size() as f64);
        let versioning = single && cfg.alignment_versioning;
        let pipeline = if versioning {
            cfg.pipeline.without("align")
        } else {
            cfg.pipeline.clone()
        };
        let ctx = PassCtx {
            unroll: cfg.unroll,
            verify: VerifyLevel::Off,
            isa,
            stats: None,
            trace: None,
        };
        for step in pipeline.steps() {
            let one = PassPipeline::parse(&step_spec(step)).map_err(|e| e.to_string())?;
            let (span, size) = step_names(step);
            t.span(span, |_| one.run(&mut kernel, &ctx))
                .map_err(|e| e.to_string())?;
            t.count(size, kernel.static_size() as f64);
        }
        if versioning {
            kernel = t.span("cir.version", |_| version_for_alignment(&kernel));
        }
        kernel
    };
    let c = t.span("cir.unparse", |_| unparse(&kernel, isa));
    t.count("cir.c_bytes", c.len() as f64);
    Ok(Output {
        c_hash: fnv(c.as_bytes()),
        kernel,
    })
}

/// Runs the kernel in the interpreter against the naive reference
/// (`eval_reference` / `eval_program_reference`) and checks the largest
/// difference against `tolerance(flops)`.
pub fn validate(input: &Input, kernel: &Kernel, seed: u64) -> Result<f32, String> {
    let isa = input.target.vector_isa();
    let diff = if input.single() {
        check_kernel(&input.program.view(0), kernel, isa, seed)
    } else {
        check_program(&input.program, kernel, isa, seed)
    }
    .map_err(|e| e.to_string())?;
    if diff < tolerance(input.flops()) {
        Ok(diff)
    } else {
        Err(format!(
            "{}: max|err| {diff} exceeds tolerance {}",
            input.describe(),
            tolerance(input.flops())
        ))
    }
}

/// Simulated measurement on the input's core (aligned operands, the
/// §5.1.4 protocol the tuners use).
pub fn simulate(input: &Input, kernel: &Kernel) -> Result<Measurement, String> {
    if input.single() {
        let blac = input.program.view(0);
        let offsets = vec![0usize; blac.operands.len()];
        measure_blac(&blac, kernel, input.target, &offsets, 3)
    } else {
        measure_program(&input.program, kernel, input.target, 3)
    }
    .map_err(|e| e.to_string())
}

/// The in-process twin of an `lgend` `compile`: `lgend` compiles every
/// request, single BLACs included, on the program path.
pub fn compile_as_daemon(input: &Input, name: &str) -> Result<Output, String> {
    let cfg = CompileConfig::variant(input.target, input.variant);
    let kernel = try_compile_program(&input.program, name, &cfg)
        .map_err(|e| e.to_string())?
        .kernel;
    let c = unparse(&kernel, input.target.vector_isa());
    Ok(Output {
        c_hash: fnv(c.as_bytes()),
        kernel,
    })
}

/// [`simulate`] for a kernel from [`compile_as_daemon`].
pub fn simulate_as_program(input: &Input, kernel: &Kernel) -> Result<Measurement, String> {
    measure_program(&input.program, kernel, input.target, 3).map_err(|e| e.to_string())
}

/// Everything a tune op reports.
pub struct Tuned {
    pub out: Output,
    pub measurement: Measurement,
    /// Candidates in the search space (genomes for programs).
    pub candidates: usize,
    /// Measured candidates with their cycles (labels are the `Debug`
    /// rendering of the unroll decision or genome).
    pub samples: Vec<(String, u64)>,
    pub pruned: usize,
    pub rank_correlation: Option<f64>,
    pub cache: Arc<KernelCache>,
}

/// The `tune` op: one autotune from a fresh `KernelCache`, as `lgenc
/// --tune` runs it. BLACs use the exhaustive `Autotuner` on a pool of
/// `threads` workers; programs use `ProgramTuner`. Pruned inputs use
/// `PrunePolicy::TopK(4)`, the setting of `lgend`'s `tune` verb.
pub fn tune(input: &Input, threads: usize) -> Result<Tuned, String> {
    let cfg = input.config();
    let isa = input.target.vector_isa();
    let cache = Arc::new(KernelCache::new());
    let prune = if input.prune {
        PrunePolicy::TopK(4)
    } else {
        PrunePolicy::Off
    };
    if input.single() {
        let mut tuner = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .with_threads(threads)
            .with_cache(cache.clone());
        if input.prune {
            tuner = tuner.with_prune(prune);
        }
        let t = tuner
            .try_tune(&input.program.view(0), KERNEL)
            .map_err(|e| e.to_string())?;
        Ok(Tuned {
            out: Output {
                c_hash: fnv(unparse(&t.kernel, isa).as_bytes()),
                kernel: t.kernel,
            },
            measurement: t.measurement,
            candidates: Autotuner::search_space().len(),
            samples: t
                .samples
                .iter()
                .map(|(u, c)| (format!("{u:?}"), *c))
                .collect(),
            pruned: t.pruned,
            rank_correlation: t.rank_correlation,
            cache,
        })
    } else {
        let tuner = ProgramTuner::new(cfg)
            .with_cache(cache.clone())
            .with_prune(prune);
        let t = contained(|| Ok(tuner.tune(&input.program, KERNEL)))?;
        Ok(Tuned {
            out: Output {
                c_hash: fnv(unparse(&t.kernel, isa).as_bytes()),
                kernel: t.kernel,
            },
            measurement: t.measurement,
            candidates: t.samples.len() + t.pruned,
            samples: t
                .samples
                .iter()
                .map(|(g, c)| (format!("{g:?}"), *c))
                .collect(),
            pruned: t.pruned,
            rank_correlation: t.rank_correlation,
            cache,
        })
    }
}

/// Replays a finished tune's candidates one layer call at a time — compile
/// through a fresh cache, static analysis (pruned tunes), interpreter
/// validation, simulation — so the per-candidate split shows in spans.
/// Returns how many replayed measurements disagree with the tuner's own
/// samples (0 when the replay measured the same work).
pub fn replay_candidates(t: &mut Tracer, input: &Input, tuned: &Tuned) -> Result<usize, String> {
    let cfg = input.config();
    let arch = input.target;
    let isa = arch.vector_isa();
    let cache = KernelCache::new();
    let measured: HashMap<&str, u64> = tuned
        .samples
        .iter()
        .map(|(l, c)| (l.as_str(), *c))
        .collect();
    let mut mismatches = 0usize;
    let mut evaluated: HashMap<usize, u64> = HashMap::new();
    let program = &input.program;
    let blac = input.single().then(|| program.view(0));
    let jobs: Vec<(String, Option<lgen_core::CompileConfig>, Option<Vec<_>>)> = match &blac {
        Some(_) => Autotuner::search_space()
            .into_iter()
            .map(|u| (format!("{u:?}"), Some(cfg.clone().with_unroll(u)), None))
            .collect(),
        None => {
            // Genome lists are private to `ProgramTuner`; the measured
            // genomes are recovered from its samples.
            let (fused, _) = fuse_program(program);
            let space = Autotuner::search_space();
            let mut genomes = Vec::new();
            for (label, _) in &tuned.samples {
                let g = parse_genome(label, &space, fused.statements.len())
                    .ok_or_else(|| format!("unreadable genome {label}"))?;
                genomes.push((label.clone(), None, Some(g)));
            }
            genomes
        }
    };
    for (label, ccfg, genome) in jobs {
        let start = Instant::now();
        let kernel = t.span("core.compile", |_| match (&blac, &ccfg, &genome) {
            (Some(b), Some(c), _) => cache.try_get_or_compile(b, KERNEL, c),
            (_, _, Some(g)) => cache.try_get_or_compile_program(program, KERNEL, &cfg, Some(g)),
            _ => unreachable!("a BLAC job has a config, a program job a genome"),
        });
        let kernel = kernel.map_err(|e| e.to_string())?;
        if input.prune {
            t.span("analysis.static", |_| analyze_kernel(&kernel, arch));
        }
        let Some(&want) = measured.get(label.as_str()) else {
            continue; // pruned: never validated or simulated
        };
        let key = Arc::as_ptr(&kernel) as usize;
        let cycles = match evaluated.get(&key) {
            // The tuner's eval memo skips a kernel it already measured.
            Some(&c) if blac.is_some() => c,
            _ => {
                let diff = t.span("cir.interp", |_| match &blac {
                    Some(b) => check_kernel(b, &kernel, isa, 11),
                    None => check_program(program, &kernel, isa, 11),
                });
                diff.map_err(|e| e.to_string())?;
                let m = t.span("machine.simulate", |_| match &blac {
                    Some(b) => measure_blac(b, &kernel, arch, &vec![0; b.operands.len()], 3),
                    None => measure_program(program, &kernel, arch, 3),
                });
                let m = m.map_err(|e| e.to_string())?;
                t.count("machine.dyn_insts", m.dynamic_insts as f64);
                evaluated.insert(key, m.cycles);
                m.cycles
            }
        };
        if cycles != want {
            mismatches += 1;
        }
        t.count("core.candidate_us", start.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(mismatches)
}

/// Reads back a genome from its `Debug` rendering by matching each
/// element against the search space's renderings.
fn parse_genome(
    label: &str,
    space: &[lgen_cir::passes::UnrollPolicy],
    len: usize,
) -> Option<Vec<lgen_cir::passes::UnrollPolicy>> {
    let inner = label.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::with_capacity(len);
    let mut rest = inner;
    while !rest.is_empty() {
        let p = space.iter().find(|p| rest.starts_with(&format!("{p:?}")))?;
        out.push(*p);
        rest = rest[format!("{p:?}").len()..].trim_start_matches(", ");
    }
    (out.len() == len).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{pool, PoolSpec};

    #[test]
    fn staged_and_one_shot_compiles_emit_the_same_c() {
        let spec = PoolSpec {
            len: 40,
            max_size: 128,
            max_program_size: 8,
            extra_every: 4,
            prune_every: 0,
        };
        let mut t = Tracer::new(Instant::now(), 0);
        for input in pool(5, spec) {
            let cfg = input.config();
            let one = compile_one_shot(&input.text, KERNEL, &cfg).unwrap();
            let staged = compile_staged(&mut t, &input.text, KERNEL, &cfg).unwrap();
            assert_eq!(one.c_hash, staged.c_hash, "{}", input.describe());
        }
        assert!(!t.self_us("cir.scalrep").is_empty());
        assert!(!t.self_us("sigma.fuse").is_empty());
    }

    #[test]
    fn genomes_round_trip_through_their_rendering() {
        let space = Autotuner::search_space();
        let g = vec![space[3], space[0], space[15]];
        assert_eq!(parse_genome(&format!("{g:?}"), &space, 3), Some(g));
    }
}
