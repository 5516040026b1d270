//! Code-level optimizations on C-IR (paper §2.1.4, §3.1, §3.2).
//!
//! Each optimization is a plain function over instruction bodies (below)
//! and an arena sweep ([`crate::arena`]). The [`manager`] schedules the
//! sweeps by name; the standard LGen schedule is the
//! [`PassPipeline::standard`] spec `unroll,scalrep,copyprop,dce,align`:
//!
//! 1. `unroll` — loop unrolling (full or by a factor), exposing
//!    instruction-level parallelism and constant addresses;
//! 2. `scalrep` — replaces store→load sequences through local temporary
//!    arrays with register moves, matching on generic-load/store
//!    footprints (§3.1);
//! 3. `copyprop` — forwards register copies introduced by scalar
//!    replacement;
//! 4. `dce` — removes dead stores to local arrays and dead value
//!    computations;
//! 5. `align` — alignment detection via abstract interpretation (§3.2);
//!    alignment *versioning* with runtime dispatch (§3.2.4) is a
//!    whole-kernel transform outside the pipeline
//!    ([`version_for_alignment`]).
//!
//! Any other schedule is equally runnable: build a [`PassPipeline`] from a
//! spec string (e.g. `"unroll,scalrep,repeat(copyprop,dce),align"`) and
//! [`run`](PassPipeline::run) it. The tree functions remain the reference
//! semantics ([`PassPipeline::run_reference`]) and serve the whole-kernel
//! transforms that run outside the schedule.

pub mod align;
pub mod copy_prop;
pub mod dce;
pub mod manager;
pub mod scalar_replacement;
pub mod unroll;

pub use align::{detect_alignment, detect_alignment_partial, version_for_alignment};
pub use copy_prop::copy_prop;
pub use dce::dce;
pub use manager::{
    pass_by_name, PassCtx, PassPipeline, PassStats, PassTrace, PipelineSpecError, PipelineStep,
    PASS_NAMES,
};
pub use scalar_replacement::scalar_replacement;
pub use unroll::{unroll, UnrollDecision, UnrollPolicy};
