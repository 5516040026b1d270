//! Code-level optimizations on C-IR (paper §2.1.4, §3.1, §3.2).
//!
//! Each optimization is available two ways: as a plain function over
//! instruction bodies (below), and as a registered first-class [`Pass`]
//! scheduled by the [`manager`]. The standard LGen schedule is the
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
//! [`run`](PassPipeline::run) it.

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
    pass_by_name, Analysis, Pass, PassCtx, PassPipeline, PassStats, PassTrace, PipelineReport,
    PipelineSpecError, PipelineStep, PASSES,
};
pub use scalar_replacement::scalar_replacement;
pub use unroll::{unroll, UnrollDecision, UnrollPolicy};

use crate::ir::Kernel;
use crate::verify::{verify_stage, VerifyFailure, VerifyLevel};

/// Applies the standard optimization schedule in the canonical order.
///
/// A thin wrapper over the default [`PassPipeline`]: it builds
/// [`PassPipeline::standard`] (dropping the final `align` step when
/// `detect_align` is false) and [`run`](PassPipeline::run)s it with the
/// given unrolling decision. Alignment detection assumes all parameter
/// arrays are 16-byte aligned; versioning for arbitrary alignment is a
/// separate, opt-in step via [`version_for_alignment`].
///
/// Runs no verification; see [`optimize_verified`].
pub fn optimize(kernel: &mut Kernel, policy: UnrollPolicy, detect_align: bool) {
    optimize_verified(kernel, policy, detect_align, VerifyLevel::Off).expect("verification is off");
}

/// [`optimize`] under a [`VerifyLevel`]: the same thin wrapper over the
/// default [`PassPipeline`], with the kernel statically verified at the
/// pipeline boundaries (entry and exit) — or between every pass at
/// [`VerifyLevel::EveryPass`], where the first failure names the pass
/// whose output broke an invariant.
pub fn optimize_verified(
    kernel: &mut Kernel,
    policy: UnrollPolicy,
    detect_align: bool,
    level: VerifyLevel,
) -> Result<(), VerifyFailure> {
    let pipeline = if detect_align {
        PassPipeline::standard()
    } else {
        PassPipeline::standard().without("align")
    };
    verify_stage("codegen", kernel, level, true)?;
    let mut ctx = PassCtx::new(policy);
    ctx.verify = level;
    pipeline.run(kernel, &ctx)?;
    verify_stage("pipeline", kernel, level, true)?;
    Ok(())
}
