//! C-IR: LGen's C-like intermediate representation (paper §2.1.4, §3.1, §3.2).
//!
//! A [`Kernel`] is a loop nest over straight-line blocks of
//! vector/scalar instructions whose memory accesses are *generic loads and
//! stores* (§3.1): each carries an affine address and a [`MemMap`]
//! describing which memory offsets map to which vector lanes. Generic memory
//! ops are kept abstract through all code-level optimizations and lowered to
//! concrete ISA instructions only at the very end, which is what makes scalar
//! replacement work even when a store and the matching load would be
//! implemented by different instruction sequences (Fig. 3.4).
//!
//! C-IR has one form: each kernel version's body is an [`Arena`] of
//! [`AInst`]s with interned operands ([`arena`]). Codegen emits into it,
//! the passes rewrite it in place, and every consumer below reads it.
//!
//! The crate provides:
//!
//! * the IR itself ([`arena`], [`ir`], [`map`]) and a builder API
//!   ([`KernelBuilder`]),
//! * code-level optimizations: loop unrolling, scalar replacement, copy
//!   propagation, dead-code elimination, and alignment detection with
//!   alignment versioning (§3.2), each implemented once, as a sweep over
//!   the arena, and scheduled by name in a spec-string [`PassPipeline`]
//!   ([`passes`]) with per-pass timing, between-pass verification,
//!   fixpoint `repeat(...)` groups, and IR tracing,
//! * lowering of C-IR to machine opcodes per ISA ([`lower`]),
//! * a reference interpreter that executes kernels numerically while
//!   emitting the dynamic instruction trace ([`interp`]),
//! * a static verifier that re-proves the pass invariants (bounds,
//!   def-before-use, lane consistency) by abstract interpretation
//!   ([`verify`], with [`Diagnostic`] reports),
//! * an unparser producing C-with-intrinsics source text ([`unparse`]),
//! * a versioned binary codec for persisting compiled kernels on disk
//!   ([`codec`]), used by the compile service's warm-start cache.

pub mod arena;
pub(crate) mod builder;
pub mod codec;
pub(crate) mod diag;
pub mod interp;
pub mod ir;
pub mod lower;
pub mod map;
pub mod passes;
pub mod unparse;
pub mod verify;

pub use arena::{AInst, Arena, BlockId, ExprId, ExprPool, InstId, MapId, MapPool, Sym, SymTable};
pub use builder::KernelBuilder;
pub use codec::{decode_kernel, encode_kernel, CodecError};
pub use diag::{render, Check, Diagnostic};
pub use interp::{dispatch_version, overhead_mop, run_kernel, ExecError, MemLayout};
pub use ir::{
    merge_kernel_versions, ArrayDecl, ArrayId, ArrayKind, Kernel, KernelVersion, OverheadKind,
    VArith, VMove, VReg, VWidth,
};
pub use map::MemMap;
pub use passes::{PassCtx, PassPipeline, PassStats, PassTrace};
pub use verify::{verify_kernel, verify_stage, VerifyFailure, VerifyLevel};
