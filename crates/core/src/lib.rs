//! LGen-rs driver: the full compilation pipeline and the autotuner.
//!
//! This crate ties the layers together exactly as Fig. 2.1 describes:
//!
//! 1. a program (from `lgen-ll`; a single BLAC is the one-statement
//!    program) is fused, tiled and lowered through the Σ-LL-style code
//!    generator (`lgen-sigma`) into C-IR — one compile path for both;
//! 2. the code-level optimizations of `lgen-cir` run as a data-driven
//!    [`PassPipeline`] (by default: loop unrolling, scalar replacement,
//!    copy propagation, DCE, alignment detection — any other spec-string
//!    schedule is equally runnable, and alignment versioning is a
//!    whole-kernel step behind the pipeline);
//! 3. the kernel is measured on the target microarchitecture simulator
//!    (`lgen-machine`) inside the **autotuning feedback loop**: LGen "was
//!    configured to use a random search over the search space with sample
//!    size 10" (§5.1.5) — the [`Autotuner`] samples unrolling/tiling
//!    decisions, validates each candidate numerically, measures it, and
//!    keeps the best.
//!
//! The paper's plot series map to [`Variant`]s: `LGen` (base), `LGen-Align`,
//! `LGen-MVM`, and `LGen-Full`.

pub mod autotune;
pub mod cache;
pub mod coalesce;
pub mod config;
pub mod evaluate;
pub mod exec;
pub mod fault;
pub mod memo;
pub mod persist;
pub mod pipeline;
pub mod pool;
pub mod program;

pub use autotune::{
    spearman, Autotuner, CandidateFailure, FailReason, Objective, PrunePolicy, SearchStrategy,
    TuneBudget, TuneError, TunedKernel, TunedProgram, UnrollChoice,
};
pub use cache::{CacheSnapshot, CacheStats, CompileOutcome, KernelCache, ProgramCacheKey};
pub use coalesce::Coalescer;
pub use config::{CompileConfig, Variant};
pub use evaluate::{check_program, Evaluator, Validated};
pub use exec::{check_kernel, measure_blac, run_blac_kernel};
pub use fault::{parse_duration, FaultKind, FaultPlan};
pub use lgen_cir::passes::UnrollDecision;
pub use lgen_cir::{PassPipeline, PassStats, PassTrace, VerifyFailure, VerifyLevel};
pub use memo::{CompileMemo, UnrollSig};
pub use persist::{stable_fingerprint, DiskCache, DiskStats, StableHasher};
pub use pipeline::{compile, compile_many, try_compile};
pub use pool::{effective_threads, JobOutcome};
pub use program::{
    compile_program, measure_program, program_test_values, run_program_kernel, try_compile_program,
    try_compile_program_with, CompiledProgram, ProgramTuner,
};
