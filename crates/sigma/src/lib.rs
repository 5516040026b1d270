//! Σ-LL and code generation: from BLACs to C-IR kernels (paper §2.1.3–2.1.4,
//! §3.3, §3.4).
//!
//! This crate contains:
//!
//! * [`sigma_ll`] — the Σ-LL representation: gather/scatter operators and
//!   explicit summations over tiles (Fig. 2.2, equations (2.4), (3.7),
//!   (3.8)), with executable semantics used to validate the tiling algebra;
//! * [`nu_blacs`] — the catalogue of Table 2.1's 18 ν-BLACs, grouped by
//!   operator;
//! * [`codegen`] — the Σ-LL-to-C-IR lowering: tile the computation at ν
//!   granularity, fuse element-wise operators into the consumer loops (the
//!   Σ-LL loop-merging of §2.1.3), instantiate ν-BLAC-shaped code per tile
//!   with Loader/Storer packing for leftovers, and emit computation chains
//!   that the C-IR passes then clean up.
//!
//! The code generator implements both matrix-vector multiplication
//! strategies of §3.3 ([`MvmStrategy`]) and the specialized leftover
//! ν-BLACs of §3.4 (doubleword NEON operations, no zero padding), selected
//! through [`CodegenOptions`].

pub mod codegen;
pub mod nu_blacs;
pub mod program;
pub mod sigma_ll;

pub use codegen::{compile_blac, CodegenOptions, MvmStrategy};
pub use program::{compile_program, fuse_program, ProgramKernel};

#[cfg(test)]
mod tests {
    use super::*;
    use lgen_isa::VectorIsa;

    #[test]
    fn default_options_are_paper_defaults() {
        let o = CodegenOptions::new(VectorIsa::Ssse3);
        assert_eq!(o.mvm, MvmStrategy::Classic);
        assert!(!o.specialized_leftovers);
    }
}
