//! Whole-program compilation and execution.
//!
//! Every compile runs the one path in [`crate::pipeline`]; this module
//! holds its program-level entry points — cross-statement fusion happens
//! in `lgen-sigma` ([`lgen_sigma::compile_program`]) and the pass manager
//! then optimizes the single fused kernel — plus program execution and
//! measurement. A compile may carry a per-statement unroll genome: one
//! policy per fused statement, applied to that statement's instruction
//! range before the rest of the schedule runs. Programs tune on the one
//! tuner, [`Autotuner::try_tune_program`]; [`ProgramTuner`] is its old
//! builder.
//!
//! Peeling and alignment versioning version the whole kernel on one
//! BLAC's parameter alignment classes, so they apply only to a program
//! that is a single BLAC (one statement, no temporaries); other programs
//! compile without them.

use crate::autotune::{Autotuner, PrunePolicy, SearchStrategy, TunedProgram};
use crate::cache::KernelCache;
use crate::config::CompileConfig;
use crate::pipeline::compile_with;
use lgen_cir::passes::{PassStats, PassTrace, UnrollPolicy};
use lgen_cir::{run_kernel, ExecError, Kernel, MemLayout, VerifyFailure};
use lgen_isa::inst::NullSink;
use lgen_isa::Microarch;
use lgen_ll::reference::{test_data_for, MatrixValue};
use lgen_ll::Program;
use lgen_machine::{measure_protocol, Measurement};
use std::sync::Arc;

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
    measure_on(program, kernel, arch, &MemLayout::aligned(kernel), reps)
}

/// The body of [`measure_program`] and
/// [`measure_blac`](crate::measure_blac): the §5.1.4 protocol on `layout`,
/// over the test data of seed 77.
pub(crate) fn measure_on(
    program: &Program,
    kernel: &Kernel,
    arch: Microarch,
    layout: &MemLayout,
    reps: usize,
) -> Result<Measurement, ExecError> {
    let mut bufs: Vec<Vec<f32>> = program
        .operands
        .iter()
        .enumerate()
        .filter(|(i, _)| !program.temps[*i])
        .map(|(i, op)| test_data_for(op, 77 + i as u64).data)
        .collect();
    let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
    measure_protocol(kernel, &mut refs, layout, arch, reps)
}

/// The historical builder of program tunes: an [`Autotuner`] preset to
/// exhaustive search (on one worker, 16 mixed genomes, seed `0x5EED`,
/// cycles, as every `Autotuner` starts), whose [`tune`](Self::tune) is
/// [`Autotuner::try_tune_program`].
///
/// It holds no logic of its own. It stays only because the benchmark calls
/// this API, and goes the next time the benchmark changes; other callers
/// use [`Autotuner::try_tune_program`].
#[derive(Clone, Debug)]
pub struct ProgramTuner(Autotuner);

impl ProgramTuner {
    /// A tuner with the defaults above.
    pub fn new(cfg: CompileConfig) -> Self {
        ProgramTuner(Autotuner::new(cfg).with_strategy(SearchStrategy::Exhaustive))
    }

    /// [`Autotuner::with_mixed_samples`].
    #[must_use]
    pub fn with_mixed_samples(self, n: usize) -> Self {
        ProgramTuner(self.0.with_mixed_samples(n))
    }

    /// [`Autotuner::with_cache`].
    #[must_use]
    pub fn with_cache(self, cache: Arc<KernelCache>) -> Self {
        ProgramTuner(self.0.with_cache(cache))
    }

    /// [`Autotuner::with_prune`].
    #[must_use]
    pub fn with_prune(self, prune: PrunePolicy) -> Self {
        ProgramTuner(self.0.with_prune(prune))
    }

    /// [`Autotuner::try_tune_program`].
    ///
    /// # Panics
    ///
    /// Panics if the program does not validate or every candidate fails.
    pub fn tune(&self, program: &Program, name: &str) -> TunedProgram {
        self.0
            .try_tune_program(program, name)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::check_program;
    use crate::exec::tolerance;
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
