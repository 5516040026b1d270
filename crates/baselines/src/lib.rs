//! Competitor baselines (paper §5.1.2).
//!
//! The paper compares LGen against Intel MKL, Intel IPP, Eigen, ATLAS, and
//! compilers (icc/gcc/clang) on naive handwritten code with fixed (`fixed`)
//! or runtime (`gen`) problem sizes. None of those closed/compiled
//! artifacts can run inside this repository, so each competitor is modelled
//! as a *C-IR kernel generator* that reproduces the documented code
//! structure of the original — and is then executed and measured on exactly
//! the same simulator as LGen's kernels:
//!
//! * [`Competitor::HandwrittenFixed`] — a moderate auto-vectorizer model:
//!   unit-stride innermost loops are vectorized with unaligned accesses and
//!   scalar remainders; on NEON only element-wise loops vectorize (the
//!   "mixing of scalar and vectorized code" the paper blames for poor
//!   Cortex-A8 results, §5.3.1).
//! * [`Competitor::HandwrittenGen`] — scalar code plus per-access address
//!   arithmetic: with runtime sizes the model compiler does not vectorize.
//! * [`Competitor::Mkl`] / [`Competitor::Atlas`] / [`Competitor::Ipp`] —
//!   BLAS-library models: per-call dispatch overhead, generic vectorized
//!   kernels, ATLAS packs operands into buffers before multiplying (the
//!   large-size design that loses at small sizes, §1.4), BLACs outside the
//!   BLAS interface take multiple calls (§5.1.5).
//! * [`Competitor::Eigen`] — fixed-size expression templates: vectorized,
//!   unrolled, and with *runtime loop peeling for alignment* (§5.2.4), the
//!   behaviour that beats LGen on misaligned input in Fig. 5.9.
//!
//! Every generated baseline kernel is validated against the naive
//! reference, like LGen's own kernels.

pub(crate) mod blas;
pub mod eigen;
pub mod emit;
pub(crate) mod handwritten;
pub(crate) mod pattern;

use lgen_cir::Kernel;
use lgen_isa::Microarch;
use lgen_ll::Blac;
use pattern::classify;

/// A competitor of §5.1.2.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Competitor {
    /// Handwritten naive code, sizes known at compile time, compiled by the
    /// model auto-vectorizer ("Handwritten fixed").
    HandwrittenFixed,
    /// Handwritten naive code with runtime sizes ("Handwritten gen").
    HandwrittenGen,
    /// Intel MKL 11.1 model (x86 only).
    Mkl,
    /// Intel IPP 8.0 model (x86 only).
    Ipp,
    /// Eigen 3.2.0 model.
    Eigen,
    /// ATLAS 3.10.1 model.
    Atlas,
}

impl Competitor {
    /// All competitors, in the paper's legend order.
    pub const ALL: [Competitor; 6] = [
        Competitor::HandwrittenFixed,
        Competitor::HandwrittenGen,
        Competitor::Mkl,
        Competitor::Eigen,
        Competitor::Ipp,
        Competitor::Atlas,
    ];

    /// Plot label.
    pub fn label(self) -> &'static str {
        match self {
            Competitor::HandwrittenFixed => "Handwritten fixed",
            Competitor::HandwrittenGen => "Handwritten gen",
            Competitor::Mkl => "MKL 11.1",
            Competitor::Ipp => "IPP 8.0",
            Competitor::Eigen => "Eigen-3.2.0",
            Competitor::Atlas => "Atlas-3.10.1",
        }
    }

    /// Whether the competitor exists on the platform (MKL and IPP are
    /// x86-only, §5.1.2).
    pub fn available_on(self, arch: Microarch) -> bool {
        match self {
            Competitor::Mkl | Competitor::Ipp => arch.vector_isa() == lgen_isa::VectorIsa::Ssse3,
            _ => true,
        }
    }
}

/// Builds the competitor's kernel for a BLAC on an architecture.
///
/// Returns `None` when the competitor does not exist on the platform or
/// does not cover the BLAC's shape (libraries only implement their
/// interface; unrecognized BLACs have no library mapping).
pub fn compile_baseline(blac: &Blac, comp: Competitor, arch: Microarch) -> Option<Kernel> {
    if !comp.available_on(arch) {
        return None;
    }
    let pattern = classify(blac)?;
    let k = match comp {
        Competitor::HandwrittenFixed => handwritten::build(blac, &pattern, arch, false),
        Competitor::HandwrittenGen => handwritten::build(blac, &pattern, arch, true),
        Competitor::Mkl => blas::build(blac, &pattern, arch, blas::Flavor::Mkl),
        Competitor::Atlas => blas::build(blac, &pattern, arch, blas::Flavor::Atlas),
        Competitor::Ipp => blas::build(blac, &pattern, arch, blas::Flavor::Ipp),
        Competitor::Eigen => eigen::build(blac, &pattern, arch),
    };
    Some(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_rules() {
        assert!(Competitor::Mkl.available_on(Microarch::Atom));
        assert!(!Competitor::Mkl.available_on(Microarch::CortexA8));
        assert!(!Competitor::Ipp.available_on(Microarch::Arm1176));
        assert!(Competitor::Atlas.available_on(Microarch::Arm1176));
        assert!(Competitor::Eigen.available_on(Microarch::CortexA9));
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Competitor::Mkl.label(), "MKL 11.1");
        assert_eq!(Competitor::Eigen.label(), "Eigen-3.2.0");
        assert_eq!(Competitor::Atlas.label(), "Atlas-3.10.1");
    }
}
