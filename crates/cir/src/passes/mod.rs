//! Code-level optimizations on C-IR (paper §2.1.4, §3.1, §3.2).
//!
//! Each optimization is one arena sweep ([`crate::arena`]); the
//! [`PassPipeline`] schedules the sweeps by name. The standard LGen schedule is
//! the [`PassPipeline::standard`] spec `unroll,scalrep,copyprop,dce,align`:
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
//! 5. `align` — alignment detection via abstract interpretation (§3.2).
//!
//! Any other schedule is equally runnable: build a [`PassPipeline`] from a
//! spec string (e.g. `"unroll,scalrep,repeat(copyprop,dce),align"`) and
//! [`run`](PassPipeline::run) it. The whole-kernel transforms run on the
//! same sweeps: alignment *versioning* with runtime dispatch (§3.2.4,
//! [`version_for_alignment`]) renders every version with the alignment
//! sweep on its own copy of the body's arena, and a compile's
//! per-statement unroll genome and loop peeling's alignment assumptions
//! sweep the same arena the schedule runs on.

pub mod align;
pub(crate) mod manager;
pub mod unroll;

pub use align::version_for_alignment;
pub use manager::{
    PassCtx, PassPipeline, PassStats, PassTrace, PipelineSpecError, PipelineStep, PASS_NAMES,
};
pub use unroll::{UnrollDecision, UnrollPolicy};

// Unit tests of the passes whose whole implementation is an arena sweep.
#[cfg(test)]
mod copy_prop;
#[cfg(test)]
mod dce;
#[cfg(test)]
mod scalar_replacement;
