//! Whole-program compilation, execution, and joint autotuning.
//!
//! Every compile runs the one path in [`crate::pipeline`]; this module
//! holds its program-level entry points — cross-statement fusion happens
//! in `lgen-sigma` ([`lgen_sigma::compile_program`]) and the pass manager
//! then optimizes the single fused kernel — plus program execution and
//! the joint autotuner, which searches per-statement unroll policies: one
//! genome assigns each fused statement its own policy, applied to that
//! statement's instruction range before the rest of the schedule runs.
//!
//! Peeling and alignment versioning version the whole kernel on one
//! BLAC's parameter alignment classes, so they apply only to a program
//! that is a single BLAC (one statement, no temporaries); other programs
//! compile without them.

use crate::cache::KernelCache;
use crate::config::CompileConfig;
use crate::evaluate::Evaluator;
use crate::exec::tolerance;
use crate::pipeline::compile_with;
use lgen_analysis::analyze_kernel;
use lgen_cir::passes::{PassStats, PassTrace, UnrollPolicy};
use lgen_cir::{run_kernel, ExecError, Kernel, MemLayout, VerifyFailure};
use lgen_isa::inst::NullSink;
use lgen_isa::Microarch;
use lgen_ll::reference::{test_data_for, MatrixValue};
use lgen_ll::Program;
use lgen_machine::{measure_protocol, Measurement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// A compiled program: the optimized fused kernel plus the fusion record.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The single optimized kernel. Parameters are the program's
    /// non-temporary operands, in operand order.
    pub kernel: Kernel,
    /// The program after cross-statement fusion.
    pub fused: Program,
    /// Number of producer→consumer substitutions performed.
    pub fusions: usize,
}

/// Compiles a program to a finished kernel for `cfg` — the
/// [`compile`](crate::compile) analogue for multi-statement inputs.
///
/// # Panics
///
/// Panics if the program does not validate, or if `cfg.verify` is enabled
/// and the kernel fails static verification. Use [`try_compile_program`]
/// to handle verification failures programmatically.
///
/// # Example
///
/// ```
/// use lgen_core::{compile_program, CompileConfig};
/// use lgen_isa::Microarch;
///
/// let program = lgen_ll::parse_program(
///     "A = matrix(4, 4)\nx = vector(4)\ny = vector(4)\n\
///      t = A * x; y = A * t;",
/// )
/// .unwrap();
/// let compiled = compile_program(&program, "aax", &CompileConfig::full(Microarch::Atom));
/// assert_eq!(compiled.fusions, 1); // t fused into its consumer
/// assert_eq!(compiled.kernel.flops, program.flops());
/// ```
pub fn compile_program(program: &Program, name: &str, cfg: &CompileConfig) -> CompiledProgram {
    try_compile_program(program, name, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`compile_program`] that reports verification failures instead of
/// panicking.
pub fn try_compile_program(
    program: &Program,
    name: &str,
    cfg: &CompileConfig,
) -> Result<CompiledProgram, VerifyFailure> {
    try_compile_program_with(program, name, cfg, None, None, None)
}

/// [`try_compile_program`] with a joint per-statement unroll genome,
/// per-pass accounting, and a `--print-after-all` trace.
///
/// When `policies` is given it must hold one [`UnrollPolicy`] per *fused*
/// statement (see [`lgen_sigma::fuse_program`]); each statement's
/// top-level instruction range is unrolled under its own policy and the
/// rest of the schedule then runs without its `unroll` step. Without a
/// genome, `cfg.unroll` applies kernel-wide. When `stats` is given, every
/// pass the pipeline runs (plus `codegen`) adds its wall-clock time to the
/// shared counters; when `trace` is given, it records an IR snapshot after
/// codegen and after every pass.
pub fn try_compile_program_with(
    program: &Program,
    name: &str,
    cfg: &CompileConfig,
    policies: Option<&[UnrollPolicy]>,
    stats: Option<&PassStats>,
    trace: Option<&PassTrace>,
) -> Result<CompiledProgram, VerifyFailure> {
    let c = compile_with(program, name, cfg, policies, stats, trace, None)?;
    Ok(CompiledProgram {
        // Nothing else holds the kernel without a memo: no copy.
        kernel: Arc::unwrap_or_clone(c.kernel),
        fused: c.fused,
        fusions: c.fusions,
    })
}

/// Deterministic structured test data for every operand of a program
/// (seeded per operand index; structure contracts honoured — see
/// [`test_data_for`]).
pub fn program_test_values(program: &Program, seed: u64) -> Vec<MatrixValue> {
    program
        .operands
        .iter()
        .enumerate()
        .map(|(i, op)| test_data_for(op, seed + i as u64))
        .collect()
}

/// Runs a compiled program kernel on explicit operand values (one per
/// operand, temporaries included — their entries are ignored) and returns
/// the post-run value of every operand: non-temporaries from the kernel's
/// parameter buffers, temporaries copied from the input unchanged.
///
/// # Errors
///
/// Propagates [`ExecError`] from the interpreter.
///
/// # Panics
///
/// Panics if `values` does not match the program's operand list.
pub fn run_program_kernel(
    program: &Program,
    kernel: &Kernel,
    isa: lgen_isa::VectorIsa,
    values: &[MatrixValue],
) -> Result<Vec<MatrixValue>, ExecError> {
    assert_eq!(values.len(), program.operands.len());
    let mut bufs: Vec<Vec<f32>> = program
        .operands
        .iter()
        .enumerate()
        .filter(|(i, _)| !program.temps[*i])
        .map(|(i, _)| values[i].data.clone())
        .collect();
    let layout = MemLayout::aligned(kernel);
    {
        let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        run_kernel(kernel, &mut refs, &layout, isa, &mut NullSink)?;
    }
    let mut out = Vec::with_capacity(values.len());
    let mut param = 0usize;
    for (i, op) in program.operands.iter().enumerate() {
        if program.temps[i] {
            out.push(values[i].clone());
        } else {
            out.push(MatrixValue::new(op.dims, bufs[param].clone()));
            param += 1;
        }
    }
    Ok(out)
}

/// Validates a program kernel against the statement-by-statement reference
/// composition ([`eval_program_reference`](lgen_ll::eval_program_reference))
/// on deterministic structured data: an [`Evaluator`]'s validation run on
/// the data of `seed`. Returns the maximum absolute difference over the
/// non-temporary operands.
///
/// # Errors
///
/// Propagates [`ExecError`] from the interpreter.
pub fn check_program(
    program: &Program,
    kernel: &Kernel,
    isa: lgen_isa::VectorIsa,
    seed: u64,
) -> Result<f32, ExecError> {
    Evaluator::seeded(program, seed).check(kernel, isa)
}

/// Measures a compiled program kernel on `arch` with deterministic
/// structured test data (aligned layout, one buffer per non-temporary
/// operand).
///
/// # Errors
///
/// Propagates [`ExecError`] from the interpreter.
pub fn measure_program(
    program: &Program,
    kernel: &Kernel,
    arch: Microarch,
    reps: usize,
) -> Result<Measurement, ExecError> {
    let mut bufs: Vec<Vec<f32>> = program
        .operands
        .iter()
        .enumerate()
        .filter(|(i, _)| !program.temps[*i])
        .map(|(i, op)| test_data_for(op, 77 + i as u64).data)
        .collect();
    let layout = MemLayout::aligned(kernel);
    let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
    measure_protocol(kernel, &mut refs, &layout, arch, reps)
}

/// Result of a joint program tuning run.
#[derive(Clone, Debug)]
pub struct TunedProgram {
    /// The fastest validated kernel.
    pub kernel: Kernel,
    /// The program after cross-statement fusion.
    pub fused: Program,
    /// Number of producer→consumer substitutions performed.
    pub fusions: usize,
    /// Its measurement.
    pub measurement: Measurement,
    /// The winning genome: one unroll policy per fused statement.
    pub policies: Vec<UnrollPolicy>,
    /// `(genome, median cycles)` for every measured candidate.
    pub samples: Vec<(Vec<UnrollPolicy>, u64)>,
    /// Candidates the static cost model pruned from the measured set.
    pub pruned: usize,
    /// Spearman rank correlation between predicted and measured cycles
    /// over the measured set (`None` below two measured candidates or for
    /// constant rankings).
    pub rank_correlation: Option<f64>,
}

/// The joint program autotuner: searches per-statement unroll genomes for
/// one fused kernel (§5.1.5's feedback loop with the candidate widened
/// from a single unroll decision to a decision *vector*).
///
/// The genome space is the diagonal of [`crate::Autotuner::search_space`]
/// (every statement under the same policy — exactly the single-BLAC space
/// when the fused program has one statement) plus a seeded sample of mixed
/// genomes. Evaluation is compile (through the shared cache's program
/// memo when attached) → validate and measure through one
/// [`Evaluator`] per tune, the one the [`crate::Autotuner`] uses; the
/// reduction keeps the first best under a strict `<`, so the result is
/// deterministic per seed.
#[derive(Clone, Debug)]
pub struct ProgramTuner {
    cfg: CompileConfig,
    mixed_samples: usize,
    seed: u64,
    prune: crate::autotune::PrunePolicy,
    cache: Option<Arc<KernelCache>>,
}

impl ProgramTuner {
    /// A tuner with the paper's defaults: the diagonal genome space plus
    /// 16 mixed samples, minimizing cycles.
    pub fn new(cfg: CompileConfig) -> Self {
        ProgramTuner {
            cfg,
            mixed_samples: 16,
            seed: 0x5EED,
            prune: crate::autotune::PrunePolicy::Off,
            cache: None,
        }
    }

    /// Overrides how many mixed (non-diagonal) genomes are sampled.
    #[must_use]
    pub fn with_mixed_samples(mut self, n: usize) -> Self {
        self.mixed_samples = n;
        self
    }

    /// Overrides the RNG seed for mixed-genome sampling.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Shares a kernel cache: genomes recompiling the same fused kernel
    /// (and repeated tunes) skip fusion, codegen, and the pass pipeline.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<KernelCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets model-guided pruning: rank every genome with the static cost
    /// predictor and simulate only the best
    /// [`survivors`](crate::autotune::PrunePolicy::survivors).
    #[must_use]
    pub fn with_prune(mut self, prune: crate::autotune::PrunePolicy) -> Self {
        self.prune = prune;
        self
    }

    /// The genome list for a program whose fused form has `nstmt`
    /// statements: the diagonal of the single-BLAC space, then seeded
    /// mixed genomes (deduplicated; a one-statement program gets exactly
    /// the single-BLAC space).
    fn genomes(&self, nstmt: usize) -> Vec<Vec<UnrollPolicy>> {
        let space = crate::autotune::Autotuner::search_space();
        let mut genomes: Vec<Vec<UnrollPolicy>> = space.iter().map(|&p| vec![p; nstmt]).collect();
        if nstmt > 1 {
            let mut rng = StdRng::seed_from_u64(self.seed);
            for _ in 0..self.mixed_samples {
                let g: Vec<UnrollPolicy> = (0..nstmt)
                    .map(|_| space[rng.gen_range(0..space.len())])
                    .collect();
                if !genomes.contains(&g) {
                    genomes.push(g);
                }
            }
        }
        genomes
    }

    fn compile_genome(
        &self,
        program: &Program,
        name: &str,
        genome: &[UnrollPolicy],
    ) -> Result<Arc<Kernel>, VerifyFailure> {
        match &self.cache {
            Some(cache) => cache.try_get_or_compile_program(program, name, &self.cfg, Some(genome)),
            None => compile_with(program, name, &self.cfg, Some(genome), None, None, None)
                .map(|c| c.kernel),
        }
    }

    /// Tunes `program`, returning the best validated genome's kernel.
    ///
    /// # Panics
    ///
    /// Panics if the program does not validate, a candidate fails numeric
    /// validation, or every candidate fails to compile.
    pub fn tune(&self, program: &Program, name: &str) -> TunedProgram {
        let t = Instant::now();
        let mut span = lgen_telemetry::span("tune");
        if span.is_recording() {
            span.attr("kernel", name);
            span.attr("statements", program.statements.len());
        }
        let (fused, fusions) = lgen_sigma::fuse_program(program);
        let genomes = self.genomes(fused.statements.len());
        lgen_telemetry::counter("lgen.tune.program.candidates").add(genomes.len() as u64);

        // Static ranking (model-guided pruning): compile everything (cheap
        // and memoized), predict, keep the best K for simulation.
        let survivors = self.prune.survivors(genomes.len());
        let measured_idx: Vec<usize> = if survivors >= genomes.len() {
            (0..genomes.len()).collect()
        } else {
            let scores: Vec<u128> = genomes
                .iter()
                .map(|g| match self.compile_genome(program, name, g) {
                    Ok(k) => analyze_kernel(&k, self.cfg.arch).predicted_cycles() as u128,
                    Err(_) => 0, // always measured; real failure surfaces there
                })
                .collect();
            let mut ranked: Vec<usize> = (0..genomes.len()).collect();
            ranked.sort_by_key(|&i| (scores[i], i));
            let mut keep: Vec<usize> = ranked.into_iter().take(survivors).collect();
            keep.sort_unstable();
            keep
        };
        let pruned = genomes.len() - measured_idx.len();
        if let Some(cache) = &self.cache {
            cache.record_tune_pruned(pruned as u64);
        }

        let evaluator = Evaluator::new(program);
        let mut samples = Vec::new();
        let mut evaluated: Vec<(usize, Arc<Kernel>, Measurement)> = Vec::new();
        let mut predicted: Vec<u128> = Vec::new();
        for &i in &measured_idx {
            let kernel = match self.compile_genome(program, name, &genomes[i]) {
                Ok(k) => k,
                Err(e) => panic!("program candidate {:?} rejected: {e}", genomes[i]),
            };
            let (diff, m) = evaluator
                .evaluate(&kernel, self.cfg.arch)
                .unwrap_or_else(|e| panic!("program candidate failed to execute: {e}"));
            assert!(
                diff < tolerance(program.flops()),
                "program candidate {:?} numerically wrong: {diff}",
                genomes[i]
            );
            samples.push((genomes[i].clone(), m.cycles));
            predicted.push(analyze_kernel(&kernel, self.cfg.arch).predicted_cycles() as u128);
            evaluated.push((i, kernel, m));
        }
        assert!(!evaluated.is_empty(), "no program candidate survived");
        let measured_cycles: Vec<u128> = evaluated.iter().map(|e| e.2.cycles as u128).collect();
        let rank_correlation = crate::autotune::spearman(&predicted, &measured_cycles);

        let mut best = 0;
        for i in 1..evaluated.len() {
            if evaluated[i].2.cycles < evaluated[best].2.cycles {
                best = i;
            }
        }
        let (gi, kernel, measurement) = &evaluated[best];
        lgen_telemetry::histogram("lgen.tune.program.wall_us")
            .record(t.elapsed().as_micros() as u64);
        if span.is_recording() {
            span.attr("ok", true);
        }
        TunedProgram {
            kernel: (**kernel).clone(),
            fused,
            fusions,
            measurement: *measurement,
            policies: genomes[*gi].clone(),
            samples,
            pruned,
            rank_correlation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotune::PrunePolicy;
    use crate::pipeline::compile;
    use lgen_ll::parse_program;

    fn kalman_predict() -> Program {
        parse_program(
            "F = matrix(4, 4)\nB = matrix(4, 2)\nu = vector(2)\nx = vector(4)\n\
             x_next = vector(4)\nP = matrix(4, 4) symmetric\nQ = matrix(4, 4) symmetric\n\
             P_next = matrix(4, 4)\n\
             x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;",
        )
        .unwrap()
    }

    #[test]
    fn compile_program_correct_on_all_archs() {
        let program = kalman_predict();
        for arch in Microarch::EVALUATED {
            let c = compile_program(&program, "kp", &CompileConfig::full(arch));
            assert_eq!(c.fusions, 1, "{arch:?}"); // S fused into P_next
            assert_eq!(c.kernel.flops, program.flops(), "{arch:?}");
            let diff = check_program(&program, &c.kernel, arch.vector_isa(), 5).unwrap();
            assert!(diff < tolerance(program.flops()), "{arch:?}: {diff}");
        }
    }

    #[test]
    fn fused_program_beats_statement_by_statement_compiles() {
        let program = kalman_predict();
        let cfg = CompileConfig::full(Microarch::Atom);
        let fused = compile_program(&program, "kp", &cfg);
        let fused_cycles = measure_program(&program, &fused.kernel, cfg.arch, 3)
            .unwrap()
            .cycles;
        let mut unfused_cycles = 0u64;
        for i in 0..program.statements.len() {
            let blac = program.statement_blac(i);
            let k = compile(&blac, &format!("s{i}"), &cfg);
            let m =
                crate::exec::measure_blac(&blac, &k, cfg.arch, &vec![0; blac.operands.len()], 3)
                    .unwrap();
            unfused_cycles += m.cycles;
        }
        assert!(
            fused_cycles < unfused_cycles,
            "fused {fused_cycles} vs unfused {unfused_cycles}"
        );
    }

    #[test]
    fn per_statement_genome_compiles_and_stays_correct() {
        let program = kalman_predict();
        let cfg = CompileConfig::full(Microarch::Atom);
        let (fused, _) = lgen_sigma::fuse_program(&program);
        let space = crate::autotune::Autotuner::search_space();
        let genome: Vec<UnrollPolicy> = (0..fused.statements.len())
            .map(|i| space[i % space.len()])
            .collect();
        let c = try_compile_program_with(&program, "kp", &cfg, Some(&genome), None, None).unwrap();
        let diff = check_program(&program, &c.kernel, cfg.arch.vector_isa(), 9).unwrap();
        assert!(diff < tolerance(program.flops()), "{diff}");
    }

    #[test]
    fn cache_serves_program_hits_and_shares_lowering_across_genomes() {
        let program = kalman_predict();
        let cfg = CompileConfig::full(Microarch::Atom);
        let cache = KernelCache::new();
        let k1 = cache.get_or_compile_program(&program, "kp", &cfg, None);
        let k2 = cache.get_or_compile_program(&program, "kp", &cfg, None);
        assert!(Arc::ptr_eq(&k1, &k2));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);

        // A different genome misses the kernel cache but reuses the memo's
        // program lowering: the lowered-entry count must not grow.
        let (lowered_before, _) = cache.memo().entries();
        let space = crate::autotune::Autotuner::search_space();
        let genome = vec![space[1]; 2];
        let k3 = cache.get_or_compile_program(&program, "kp", &cfg, Some(&genome));
        assert!(!Arc::ptr_eq(&k1, &k3));
        let (lowered_after, _) = cache.memo().entries();
        assert_eq!(lowered_before, lowered_after);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn program_tuner_finds_a_validated_best() {
        let program = kalman_predict();
        let cfg = CompileConfig::full(Microarch::Atom);
        let cache = Arc::new(KernelCache::new());
        let tuned = ProgramTuner::new(cfg.clone())
            .with_mixed_samples(4)
            .with_cache(cache)
            .tune(&program, "kp");
        assert_eq!(tuned.fusions, 1);
        assert_eq!(tuned.policies.len(), tuned.fused.statements.len());
        assert!(!tuned.samples.is_empty());
        assert_eq!(tuned.pruned, 0);
        let best_cycles = tuned.measurement.cycles;
        assert!(tuned.samples.iter().all(|(_, c)| best_cycles <= *c));
        let diff = check_program(&program, &tuned.kernel, cfg.arch.vector_isa(), 23).unwrap();
        assert!(diff < tolerance(program.flops()), "{diff}");
    }

    #[test]
    fn program_tuner_prunes_with_the_static_model() {
        let program = kalman_predict();
        let cfg = CompileConfig::full(Microarch::Atom);
        let tuned = ProgramTuner::new(cfg)
            .with_mixed_samples(4)
            .with_prune(PrunePolicy::TopK(3))
            .tune(&program, "kp");
        assert!(tuned.pruned > 0);
        assert_eq!(tuned.samples.len(), 3);
    }

    #[test]
    fn single_statement_program_matches_single_blac_compile() {
        let program =
            parse_program("A = matrix(6, 6)\nx = vector(6)\ny = vector(6)\ny = A * x;").unwrap();
        let cfg = CompileConfig::full(Microarch::Atom);
        let c = compile_program(&program, "mvm", &cfg);
        assert_eq!(c.fusions, 0);
        let diff = check_program(&program, &c.kernel, cfg.arch.vector_isa(), 13).unwrap();
        assert!(diff < tolerance(program.flops()), "{diff}");
    }
}
