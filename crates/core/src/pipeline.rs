//! The compilation pipeline: LL → Σ-LL-style codegen → C-IR pass pipeline
//! → kernel, one path for every input.
//!
//! A [`Program`] is the unit of work; a [`Blac`] compiles as the
//! one-statement program without temporaries ([`Program::from`]), which
//! lowers to the very kernel the BLAC does. One crate-internal body runs
//! every compile — the public entry points here and in
//! [`crate::program`], and the [`KernelCache`] — behind one telemetry
//! shell (the `compile` span, `lgen.compile.count`,
//! `lgen.compile.wall_us`, `program.statements`).
//!
//! The C-IR optimization schedule is *data*, not code: the config's
//! [`PassPipeline`] (see `lgen_cir::passes::manager`) is run by the pass
//! manager, which owns per-pass timing ([`PassStats`]), between-pass
//! verification, fixpoint `repeat(...)` groups, and `--print-after-all`
//! tracing ([`PassTrace`]). The body contributes only what sits outside
//! the schedule: fusion and codegen in front of it, the cross-candidate
//! [`CompileMemo`], and — for a single BLAC (one statement, no
//! temporaries) — the whole-kernel alignment versioning / loop-peeling
//! transforms behind it. Every C-IR transform is a sweep over the arena
//! codegen emitted: the optional per-statement unroll genome (a
//! [`PassCtx::stage`], timed, traced and verified like a pass), the
//! schedule and peeling's alignment assumptions.

use crate::cache::KernelCache;
use crate::config::CompileConfig;
use crate::memo::{CompileMemo, OptKey, ProgramLoweredEntry};
use crate::pool::run_indexed;
use crate::program::try_compile_program;
use lgen_cir::arena::{align_block, unroll_statements};
use lgen_cir::passes::align::{can_version, ALIGN_CLASSES};
use lgen_cir::passes::{
    version_for_alignment, PassCtx, PassPipeline, PassStats, PassTrace, UnrollPolicy,
};
use lgen_cir::{
    merge_kernel_versions, verify_stage, ArrayKind, Kernel, VerifyFailure, VerifyLevel,
};
use lgen_isa::VectorIsa;
use lgen_ll::{Blac, Program};
use lgen_sigma::{CodegenOptions, ProgramKernel};
use lgen_telemetry::{metric_counter, metric_histogram};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Compiles a BLAC to a finished kernel for `cfg` (Fig. 2.1, minus the
/// autotuning loop — see [`crate::Autotuner`]).
///
/// # Panics
///
/// Panics if the BLAC does not validate, or if `cfg.verify` is enabled and
/// the kernel fails static verification (the message names the offending
/// pass and renders the diagnostics). Use [`try_compile`] to handle
/// verification failures programmatically.
///
/// # Example
///
/// ```
/// use lgen_core::{compile, CompileConfig};
/// use lgen_isa::Microarch;
///
/// let blac = lgen_ll::paper::gemv(4, 12);
/// let kernel = compile(&blac, "sgemv_4x12", &CompileConfig::full(Microarch::Atom));
/// assert_eq!(kernel.flops, 2 * 4 * 12 + 12);
/// let c = lgen_cir::unparse::unparse(&kernel, Microarch::Atom.vector_isa());
/// assert!(c.contains("_mm_")); // vectorized
/// ```
pub fn compile(blac: &Blac, name: &str, cfg: &CompileConfig) -> Kernel {
    try_compile(blac, name, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`compile`] that reports verification failures instead of panicking.
/// Per `cfg.verify`, the kernel is checked at pipeline boundaries or
/// between every pass, so the returned failure pinpoints the stage that
/// broke an invariant.
pub fn try_compile(blac: &Blac, name: &str, cfg: &CompileConfig) -> Result<Kernel, VerifyFailure> {
    try_compile_program(&Program::from(blac), name, cfg).map(|c| c.kernel)
}

/// Compiles many `(BLAC, name, config)` jobs over one worker pool and one
/// shared cache, returning kernels in job order. The batch analogue of
/// [`KernelCache::get_or_compile`]: repeated points across the batch (or
/// across batches on the same cache) compile once.
pub fn compile_many(
    jobs: &[(Blac, String, CompileConfig)],
    threads: usize,
    cache: &Arc<KernelCache>,
) -> Vec<Arc<Kernel>> {
    let jobs: Arc<[(Blac, String, CompileConfig)]> = jobs.into();
    let cache = cache.clone();
    run_indexed(jobs.len(), threads, move |i| {
        let (blac, name, cfg) = &jobs[i];
        cache.get_or_compile(blac, name, cfg)
    })
}

/// What one compile produces: the finished kernel (shared with the memo
/// when one served the compile) and the fusion record.
pub(crate) struct Compiled {
    pub kernel: Arc<Kernel>,
    /// The program after cross-statement fusion.
    pub fused: Program,
    /// Number of producer→consumer substitutions performed.
    pub fusions: usize,
}

/// The one compile path behind every entry point and the kernel cache.
///
/// `genome`, when given, holds one [`UnrollPolicy`] per *fused* statement
/// (see [`lgen_sigma::fuse_program`]): each statement's top-level
/// instruction range is unrolled under its own policy, observed by the
/// pass manager as the `unroll` stage, and the schedule then runs without
/// its `unroll` step. `stats` accumulates per-pass time, `trace` records
/// a `--print-after-all` snapshot after codegen and after every pass, and
/// lowering and optimization are shared through `memo` when
/// [`CompileMemo::eligible`] holds and no trace is requested.
///
/// This shell records the `compile` span and the compile metrics; the
/// work happens in [`compile_body`].
pub(crate) fn compile_with(
    program: &Program,
    name: &str,
    cfg: &CompileConfig,
    genome: Option<&[UnrollPolicy]>,
    stats: Option<&PassStats>,
    trace: Option<&PassTrace>,
    memo: Option<&CompileMemo>,
) -> Result<Compiled, VerifyFailure> {
    let t = Instant::now();
    let mut span = lgen_telemetry::span("compile");
    if span.is_recording() {
        span.attr("kernel", name);
        span.attr("arch", format!("{:?}", cfg.arch));
        span.attr("pipeline", cfg.pipeline.to_spec());
        span.attr("statements", program.statements.len());
    }
    metric_counter!("program.statements").add(program.statements.len() as u64);
    let result = compile_body(program, name, cfg, genome, stats, trace, memo);
    metric_counter!("lgen.compile.count").inc();
    metric_histogram!("lgen.compile.wall_us").record(t.elapsed().as_micros() as u64);
    if span.is_recording() {
        span.attr("ok", result.is_ok());
    }
    result
}

/// The memoized lowering that a compile of `(program, name, cfg)` through
/// `memo` starts from, built (and its codegen timed into `stats`) on a
/// miss. Only the codegen fields of `cfg` matter.
pub(crate) fn memo_lowering(
    program: &Program,
    name: &str,
    cfg: &CompileConfig,
    stats: Option<&PassStats>,
    memo: &CompileMemo,
) -> ProgramLoweredEntry {
    let lower = Lowering {
        program,
        name,
        cfg,
        pipeline: &cfg.pipeline,
        genome: None,
        stats,
        trace: None,
    };
    memo.program_lowered_for(program, name, cfg, || lower.codegen(None))
}

/// The LL → Σ-LL → C-IR body behind the telemetry shell of
/// [`compile_with`].
fn compile_body(
    program: &Program,
    name: &str,
    cfg: &CompileConfig,
    genome: Option<&[UnrollPolicy]>,
    stats: Option<&PassStats>,
    trace: Option<&PassTrace>,
    memo: Option<&CompileMemo>,
) -> Result<Compiled, VerifyFailure> {
    if let Some(s) = stats {
        s.record_compile();
    }
    // Peeling and versioning version the whole kernel on the parameter
    // alignment classes of one BLAC; other programs compile without.
    let single = program.statements.len() == 1 && !program.temps.contains(&true);
    let peeling = single && cfg.peeling && cfg.arch.vector_isa() != VectorIsa::Scalar;
    let versioning = single && !peeling && cfg.alignment_versioning;
    // The schedule actually run: a genome replaces the `unroll` step, and
    // per-version alignment detection replaces the all-aligned `align`.
    let mut pipeline = Cow::Borrowed(&cfg.pipeline);
    if genome.is_some() {
        pipeline = Cow::Owned(cfg.pipeline.without("unroll"));
    }
    let lower = Lowering {
        program,
        name,
        cfg,
        pipeline: &pipeline,
        genome,
        stats,
        trace,
    };
    if peeling {
        let unaligned = pipeline.without("align");
        let compiled = Lowering {
            pipeline: &unaligned,
            ..lower
        }
        .peeled()?;
        verify_stage("peeling", &compiled.kernel, cfg.verify, true)?;
        return Ok(compiled);
    }
    let compiled = if versioning {
        // Alignment versioning with runtime dispatch (§3.2.4) for kernels
        // it accepts; one with too many vector-sized parameters compiles
        // unversioned.
        let pk = lower.codegen(None);
        if can_version(&pk.kernel) {
            let unaligned = pipeline.without("align");
            let mut compiled = Lowering {
                pipeline: &unaligned,
                ..lower
            }
            .finish(pk, None)?;
            let t = Instant::now();
            let _span = lgen_telemetry::span("align-version");
            compiled.kernel = Arc::new(version_for_alignment(&compiled.kernel));
            if let Some(s) = stats {
                s.record("align-version", t.elapsed().as_nanos() as u64);
            }
            verify_stage("alignment-versioning", &compiled.kernel, cfg.verify, true)?;
            return Ok(compiled);
        }
        lower.finish(pk, None)?
    } else {
        let memo = memo.filter(|_| CompileMemo::eligible(cfg) && trace.is_none());
        lower.run(None, memo)?
    };
    if cfg.verify != VerifyLevel::EveryPass || pipeline.is_empty() {
        // Pipeline-exit boundary check; at EveryPass the manager already
        // verified this exact kernel after its final pass.
        verify_stage("pipeline", &compiled.kernel, cfg.verify, true)?;
    }
    Ok(compiled)
}

/// One compile request as the body has resolved it: the input, the
/// schedule actually run, and the instrumentation to thread through.
#[derive(Clone, Copy)]
struct Lowering<'a> {
    program: &'a Program,
    name: &'a str,
    cfg: &'a CompileConfig,
    pipeline: &'a PassPipeline,
    genome: Option<&'a [UnrollPolicy]>,
    stats: Option<&'a PassStats>,
    trace: Option<&'a PassTrace>,
}

impl Lowering<'_> {
    /// Fusion and Σ-LL codegen, with an optional peel assumption.
    fn codegen(&self, peel: Option<usize>) -> ProgramKernel {
        let opts = CodegenOptions {
            isa: self.cfg.arch.vector_isa(),
            mvm: self.cfg.mvm,
            specialized_leftovers: self.cfg.specialized_leftovers,
            peel_offset: peel,
        };
        let t = Instant::now();
        let pk = {
            let _span = lgen_telemetry::span("codegen");
            lgen_sigma::compile_program(self.program, self.name, &opts)
        };
        if let Some(s) = self.stats {
            s.record("codegen", t.elapsed().as_nanos() as u64);
        }
        pk
    }

    /// One body: codegen (through `memo` when given), then the genome and
    /// the C-IR pass schedule (§2.1.4, §3.1) under the pass manager. A
    /// memo hit on the (lowering × schedule × unroll) key skips both.
    /// `peel` is the base offset class a peeled body is generated and
    /// analyzed for.
    fn run(
        &self,
        peel: Option<usize>,
        memo: Option<&CompileMemo>,
    ) -> Result<Compiled, VerifyFailure> {
        let Some(memo) = memo else {
            return self.finish(self.codegen(peel), peel);
        };
        let entry =
            memo.program_lowered_for(self.program, self.name, self.cfg, || self.codegen(peel));
        let key = OptKey::for_program(&entry, self.cfg, self.genome);
        // The shared lowering is copied, since the passes rewrite it in
        // place.
        let kernel = memo.optimized_or_run(key, || {
            self.optimize(entry.pk.kernel.clone(), &entry.pk.stmt_ranges, peel)
        })?;
        Ok(Compiled {
            kernel,
            fused: entry.pk.fused.clone(),
            fusions: entry.pk.fusions,
        })
    }

    /// [`optimize`](Self::optimize) on a fresh lowering.
    fn finish(&self, pk: ProgramKernel, peel: Option<usize>) -> Result<Compiled, VerifyFailure> {
        let ProgramKernel {
            kernel,
            stmt_ranges,
            fused,
            fusions,
        } = pk;
        Ok(Compiled {
            kernel: Arc::new(self.optimize(kernel, &stmt_ranges, peel)?),
            fused,
            fusions,
        })
    }

    /// The genome, the pass schedule and, for a body peeled for base
    /// offset class `peel`, alignment detection under that assumption —
    /// all in place on the lowered kernel's arena.
    fn optimize(
        &self,
        mut kernel: Kernel,
        stmt_ranges: &[std::ops::Range<usize>],
        peel: Option<usize>,
    ) -> Result<Kernel, VerifyFailure> {
        let isa = self.cfg.arch.vector_isa();
        if let Some(tr) = self.trace {
            tr.record("codegen", &kernel, isa);
        }
        verify_stage("codegen", &kernel, self.cfg.verify, true)?;
        let ctx = PassCtx {
            unroll: self.cfg.unroll,
            verify: self.cfg.verify,
            isa,
            stats: self.stats,
            trace: self.trace,
        };
        if let Some(genome) = self.genome {
            ctx.stage("unroll", &mut kernel, |a, root, _| {
                unroll_statements(a, root, stmt_ranges, genome)
            })?;
        }
        self.pipeline.run(&mut kernel, &ctx)?;
        if let Some(off) = peel {
            // Vector-sized parameters share the class; locals are aligned
            // by the layout, short parameters are never assumed aligned.
            let assumptions: Vec<Option<usize>> = kernel
                .arrays
                .iter()
                .map(|a| match a.kind {
                    ArrayKind::Local => Some(0),
                    _ if a.len >= ALIGN_CLASSES => Some(off),
                    _ => None,
                })
                .collect();
            let body = kernel.body_mut();
            align_block(&mut body.arena, body.root, &assumptions);
        }
        Ok(kernel)
    }

    /// §6 future-work loop peeling: one version per shared base-offset
    /// class of the vector-sized parameter arrays (a common
    /// single-allocation pattern — exactly the Fig. 5.9 protocol), each
    /// analyzed under its own assumption, plus an unconditional unaligned
    /// fallback.
    fn peeled(&self) -> Result<Compiled, VerifyFailure> {
        let mut versions = Vec::with_capacity(ALIGN_CLASSES + 1);
        for off in 0..ALIGN_CLASSES {
            let k = Arc::unwrap_or_clone(self.run(Some(off), None)?.kernel);
            let required: Vec<Option<usize>> = k
                .arrays
                .iter()
                .filter(|a| a.kind.is_param())
                .map(|a| (a.len >= ALIGN_CLASSES).then_some(off))
                .collect();
            versions.push((Some(required), k));
        }
        let fallback = self.run(None, None)?;
        versions.push((None, Arc::unwrap_or_clone(fallback.kernel)));
        Ok(Compiled {
            kernel: Arc::new(merge_kernel_versions(versions)),
            ..fallback
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use lgen_cir::passes::align::count_aligned;
    use lgen_cir::passes::UnrollPolicy;
    use lgen_isa::Microarch;
    use lgen_ll::paper;

    #[test]
    fn align_variant_marks_accesses() {
        let blac = paper::axpy(32);
        let base = compile(
            &blac,
            "k",
            &CompileConfig::variant(Microarch::Atom, Variant::Base),
        );
        let full = compile(&blac, "k", &CompileConfig::full(Microarch::Atom));
        assert_eq!(count_aligned(base.body()).0, 0);
        let (aligned, total) = count_aligned(full.body());
        assert_eq!(aligned, total);
        assert!(total > 0);
    }

    #[test]
    fn versioning_produces_dispatch_kernels() {
        let blac = paper::axpy(16);
        let cfg = CompileConfig::full(Microarch::Atom).with_versioning();
        let k = compile(&blac, "k", &cfg);
        // x and y are versioned (alpha is scalar): 4^2 + 1.
        assert_eq!(k.versions.len(), 17);
    }

    /// Past `MAX_VERSIONED_ARRAYS` vector-sized parameters, versioning is
    /// declined: `y = A*x + B*z` (A, B 4×8) compiles to the one version
    /// the same BLAC gets without versioning.
    #[test]
    fn versioning_past_the_array_limit_compiles_unversioned() {
        let program = lgen_ll::parse_program(
            "A = matrix(4, 8)\nx = vector(8)\nB = matrix(4, 8)\nz = vector(8)\n\
             y = vector(4)\ny = A * x + B * z\n",
        )
        .unwrap();
        let blac = program.view(0);
        let plain = compile(&blac, "k", &CompileConfig::full(Microarch::Atom));
        let cfg = CompileConfig::full(Microarch::Atom).with_versioning();
        let k = compile(&blac, "k", &cfg);
        assert_eq!(k.versions.len(), 1);
        assert_eq!(k, plain);
    }

    #[test]
    fn optimization_shrinks_chains() {
        // addt_gemm materializes a temporary; scalar replacement + DCE must
        // still leave a working kernel smaller than the raw emission.
        let blac = paper::addt_gemm(8, 4, 4);
        let cfg = CompileConfig::full(Microarch::Atom).with_unroll(UnrollPolicy::None);
        let raw = lgen_sigma::compile_blac(
            &blac,
            "raw",
            &lgen_sigma::CodegenOptions::full(Microarch::Atom.vector_isa()),
        );
        let opt = compile(&blac, "opt", &cfg);
        assert!(
            opt.static_size() <= raw.static_size(),
            "passes must not grow unrolled-free code: {} vs {}",
            opt.static_size(),
            raw.static_size()
        );
    }

    #[test]
    fn unroll_policy_is_respected() {
        let blac = paper::mvm(4, 64);
        let rolled = compile(
            &blac,
            "k",
            &CompileConfig::full(Microarch::Atom).with_unroll(UnrollPolicy::None),
        );
        let unrolled = compile(
            &blac,
            "k",
            &CompileConfig::full(Microarch::Atom).with_unroll(UnrollPolicy::Full { max_trip: 64 }),
        );
        assert!(unrolled.static_size() > rolled.static_size());
        // Fully unrolled: no loops remain.
        let mut loops = 0;
        let body = unrolled.body();
        body.arena.visit(body.root, &mut |_, i| {
            if matches!(i, lgen_cir::AInst::Loop { .. }) {
                loops += 1;
            }
        });
        assert_eq!(loops, 0);
    }

    #[test]
    fn custom_pipeline_spec_drives_the_schedule() {
        // A schedule without `align` must leave no aligned marks even on
        // the Full variant; a repeat(...) schedule still converges and
        // matches the standard schedule's output bits.
        let blac = paper::gemv(4, 12);
        let no_align = CompileConfig::full(Microarch::Atom)
            .with_passes(PassPipeline::parse("unroll,scalrep,copyprop,dce").unwrap());
        let k = compile(&blac, "k", &no_align);
        assert_eq!(count_aligned(k.body()).0, 0);

        let fixpoint = CompileConfig::full(Microarch::Atom)
            .with_passes(PassPipeline::parse("unroll,scalrep,repeat(copyprop,dce),align").unwrap());
        let kf = compile(&blac, "k", &fixpoint);
        let ks = compile(&blac, "k", &CompileConfig::full(Microarch::Atom));
        assert_eq!(kf.flops, ks.flops);
    }

    #[test]
    fn traced_compiles_snapshot_every_pass() {
        let blac = paper::gemv(4, 8);
        let cfg = CompileConfig::full(Microarch::Atom);
        let trace = PassTrace::new();
        let program = Program::from(&blac);
        crate::try_compile_program_with(&program, "k", &cfg, None, None, Some(&trace)).unwrap();
        let stages: Vec<String> = trace.snapshots().iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(
            stages,
            ["codegen", "unroll", "scalrep", "copyprop", "dce", "align"]
        );
        // Every snapshot is renderable C text.
        assert!(trace.snapshots().iter().all(|(_, ir)| ir.contains("void")));
    }

    #[test]
    fn pass_stats_have_one_row_per_pass_actually_run() {
        let program = Program::from(&paper::gemv(4, 8));
        let stats = PassStats::new();
        crate::try_compile_program_with(
            &program,
            "k",
            &CompileConfig::full(Microarch::Atom),
            None,
            Some(&stats),
            None,
        )
        .unwrap();
        let names: Vec<String> = stats.rows().iter().map(|(n, _, _)| n.clone()).collect();
        assert_eq!(
            names,
            ["codegen", "unroll", "scalrep", "copyprop", "dce", "align"]
        );
        assert_eq!(stats.compiles(), 1);
        // The base schedule runs fewer passes: no align row appears.
        let base_stats = PassStats::new();
        crate::try_compile_program_with(
            &program,
            "k",
            &CompileConfig::base(Microarch::Atom),
            None,
            Some(&base_stats),
            None,
        )
        .unwrap();
        let names: Vec<String> = base_stats
            .rows()
            .iter()
            .map(|(n, _, _)| n.clone())
            .collect();
        assert!(!names.contains(&"align".to_string()));
    }

    #[test]
    fn peeled_kernels_have_five_versions_and_aligned_main_loops() {
        let blac = paper::axpy(37);
        let cfg = CompileConfig::full(Microarch::Atom).with_peeling();
        let k = compile(&blac, "k", &cfg);
        assert_eq!(k.versions.len(), 5);
        // Every non-fallback version must contain aligned full-width ops.
        for v in &k.versions[..4] {
            let (aligned, total) = count_aligned(v);
            assert!(
                aligned > 0,
                "peeled version has no aligned access ({total} total)"
            );
        }
        // The fallback has none.
        assert_eq!(count_aligned(&k.versions[4]).0, 0);
    }

    #[test]
    fn peeled_kernels_correct_at_every_shared_offset() {
        use lgen_ll::reference::{eval_reference, max_abs_diff, test_data};
        for blac in [paper::axpy(23), paper::madd(5, 7), paper::mvm(6, 10)] {
            let cfg = CompileConfig::full(Microarch::Atom).with_peeling();
            let kernel = compile(&blac, "k", &cfg);
            for off in 0..4usize {
                let values: Vec<_> = blac
                    .operands
                    .iter()
                    .enumerate()
                    .map(|(i, op)| test_data(op.dims, 55 + i as u64))
                    .collect();
                let expected = eval_reference(&blac, &values);
                let mut bufs: Vec<Vec<f32>> = values.iter().map(|v| v.data.clone()).collect();
                let offsets: Vec<usize> = blac
                    .operands
                    .iter()
                    .map(|o| if o.dims.len() >= 4 { off } else { 0 })
                    .collect();
                let layout = lgen_cir::MemLayout::with_float_offsets(&kernel, &offsets);
                {
                    let mut refs: Vec<&mut [f32]> =
                        bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                    lgen_cir::run_kernel(
                        &kernel,
                        &mut refs,
                        &layout,
                        lgen_isa::VectorIsa::Ssse3,
                        &mut lgen_isa::inst::NullSink,
                    )
                    .unwrap_or_else(|e| panic!("off {off}: {e}"));
                }
                let got = lgen_ll::reference::MatrixValue::new(
                    blac.dims(blac.output),
                    bufs[blac.output.0].clone(),
                );
                assert!(max_abs_diff(&got, &expected) < 1e-3, "off {off}");
            }
        }
    }

    #[test]
    fn peeling_beats_plain_versioning_on_misaligned_elementwise() {
        // The Fig. 5.9 limitation: plain alignment versioning cannot help
        // when every row is off by one float; peeling can.
        use crate::exec::measure_blac;
        let blac = paper::axpy(256);
        let peeled = compile(
            &blac,
            "k",
            &CompileConfig::full(Microarch::Atom).with_peeling(),
        );
        let versioned = compile(
            &blac,
            "k",
            &CompileConfig::full(Microarch::Atom).with_versioning(),
        );
        let offs = [0usize, 1, 1]; // alpha aligned, x and y off by one float
        let mp = measure_blac(&blac, &peeled, Microarch::Atom, &offs, 3).unwrap();
        let mv = measure_blac(&blac, &versioned, Microarch::Atom, &offs, 3).unwrap();
        assert!(
            mp.cycles < mv.cycles,
            "peeled {} vs versioned {}",
            mp.cycles,
            mv.cycles
        );
    }

    #[test]
    fn scalar_target_compiles_scalar_code() {
        let blac = paper::gemm(4, 5, 6);
        let k = compile(&blac, "k", &CompileConfig::full(Microarch::Arm1176));
        let c = lgen_cir::unparse::unparse(&k, lgen_isa::VectorIsa::Scalar);
        assert!(!c.contains("_mm_"));
        assert!(!c.contains("vld1"));
    }
}
