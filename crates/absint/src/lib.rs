//! Abstract interpretation for LGen's alignment detection.
//!
//! This crate implements the static-analysis machinery of the paper's
//! Sections 2.3 and 3.2:
//!
//! * the [`AbstractDomain`] trait modelling a complete lattice with
//!   abstract transfer functions for `+` and `*`,
//! * the [`Interval`] domain of Fig. 2.6 and Table 2.7,
//! * the [`Congruence`] domain of Fig. 2.7 and Table 2.8,
//! * their [reduced product](IntervalCongruence) with the reduction
//!   function `red` and the `R`/`L` bound-tightening helpers (§2.3.4),
//! * the loop-index fixpoint [`loop_index_value`] for the loop nests LGen
//!   generates (Listing 3.1) and the affine address evaluator
//!   [`eval_affine`], which the alignment-detection pass and the C-IR
//!   verifier in `lgen-cir` run on every address.
//!
//! # Example
//!
//! Detecting that a memory access `A + k` inside `for k in (0..8).step_by(13)`
//! is 16-byte aligned (the paper's Listing 3.2 — the loop is taken once, the
//! Interval half of the reduced product detects this and the reduction
//! function refines the Congruence half):
//!
//! ```
//! use lgen_absint::{
//!     eval_affine, loop_index_value, AbstractDomain, AffineExpr, Congruence, LoopSpec,
//! };
//!
//! let k = loop_index_value(&LoopSpec::new("k", 0, 8, 13));
//! let addr = AffineExpr::var(0); // address A + 1*k + 0, with k as variable 0
//! let value = eval_affine(addr.constant, &addr.terms, |_| k);
//! assert!(value.congruence().le(&Congruence::modulo(0, 4)));
//! ```

pub mod analysis;
pub mod congruence;
pub(crate) mod domain;
pub mod interval;
pub(crate) mod reduced;

pub use analysis::{eval_affine, loop_index_value, AffineExpr, LoopSpec, VarId};
pub use congruence::Congruence;
pub use domain::AbstractDomain;
pub use interval::Interval;
pub use reduced::IntervalCongruence;
