//! # lgen — a basic linear algebra compiler for embedded processors
//!
//! A Rust reimplementation of **LGen**, the Spiral-style research compiler
//! for small-scale, fixed-size basic linear algebra computations (BLACs),
//! as extended for embedded processors (Intel Atom/SSSE3, ARM
//! Cortex-A8/A9 NEON, ARM1176 scalar) — see the repository's `DESIGN.md`
//! for the paper mapping.
//!
//! This facade crate re-exports the workspace layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`ll`] | `lgen-ll` | the LL language: BLACs, size inference, tiling grids, naive reference |
//! | [`absint`] | `lgen-absint` | abstract interpretation: Interval × Congruence reduced product |
//! | [`isa`] | `lgen-isa` | vector ISAs, machine opcodes, per-core cost tables |
//! | [`cir`] | `lgen-cir` | C-IR, generic loads/stores, passes, interpreter, C unparser |
//! | [`analysis`] | `lgen-analysis` | static instruction-mix and cost prediction over the arena C-IR |
//! | [`sigma`] | `lgen-sigma` | Σ-LL, the 18 ν-BLACs, the code generator |
//! | [`machine`] | `lgen-machine` | the microarchitecture simulator and measurement protocol |
//! | [`core`] | `lgen-core` | compile pipeline, variants, autotuner |
//! | [`baselines`] | `lgen-baselines` | competitor models (MKL/IPP/Eigen/ATLAS/compilers) |
//! | [`mediator`] | `lgen-mediator` | the experiment-farm middleware |
//! | [`serve`] | `lgen-serve` | the `lgend` compile daemon, client, and replay harness |
//!
//! # Quickstart
//!
//! Compile `y = αAx + βy` for Intel Atom, validate it, inspect the C code,
//! and measure flops/cycle:
//!
//! ```
//! use lgen::prelude::*;
//!
//! let blac = lgen::ll::paper::gemv(4, 12);
//! let cfg = CompileConfig::full(Microarch::Atom);
//! let kernel = compile(&blac, "sgemv_4x12", &cfg);
//!
//! // Numeric validation against the naive reference (§5.1.4).
//! let diff = check_kernel(&blac, &kernel, Microarch::Atom.vector_isa(), 1)?;
//! assert!(diff < 1e-3);
//!
//! // Cycle measurement on the Atom model.
//! let m = measure_blac(&blac, &kernel, Microarch::Atom, &[0; 5], 3)?;
//! assert!(m.flops_per_cycle() > 0.5);
//!
//! // The generated C.
//! let c_code = lgen::cir::unparse::unparse(&kernel, Microarch::Atom.vector_isa());
//! assert!(c_code.contains("_mm_load_ps"));
//! # Ok::<(), lgen::cir::ExecError>(())
//! ```

pub use lgen_absint as absint;
pub use lgen_analysis as analysis;
pub use lgen_baselines as baselines;
pub use lgen_cir as cir;
pub use lgen_core as core;
pub use lgen_isa as isa;
pub use lgen_ll as ll;
pub use lgen_machine as machine;
pub use lgen_mediator as mediator;
pub use lgen_serve as serve;
pub use lgen_sigma as sigma;
pub use lgen_telemetry as telemetry;

/// The most commonly used items, for `use lgen::prelude::*`.
pub mod prelude {
    pub use lgen_analysis::{analyze_kernel, StaticCost};
    pub use lgen_baselines::{compile_baseline, Competitor};
    pub use lgen_core::{
        check_kernel, check_program, compile, compile_program, measure_blac, measure_program,
        run_program_kernel, try_compile, try_compile_program, Autotuner, CompileConfig,
        CompiledProgram, FaultPlan, PassPipeline, PrunePolicy, TuneBudget, TuneError, TunedProgram,
        Variant, VerifyLevel,
    };
    pub use lgen_isa::{Microarch, VectorIsa};
    pub use lgen_ll::{parse_program, Blac, BlacBuilder, Program, ProgramBuilder, Structure};
    pub use lgen_machine::Simulator;
}
