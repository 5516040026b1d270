//! BLAS-library competitor models: MKL, ATLAS, and IPP.
//!
//! Common traits of the library models: per-routine call-dispatch overhead,
//! runtime-generic kernels, and multi-call compositions for BLACs outside
//! the BLAS interface (§5.1.5: `αAx + βBx` = two `sgemv`, `xᵀAy` = `sgemv`
//! + `sdot`, `α(A0+A1)ᵀB + βC` = `somatadd`/`saxpy` + `sgemm`).
//!
//! Flavor differences:
//! * **MKL** — peeled/aligned element-wise kernels (it "applies loop
//!   peeling", §5.2.4), 4-row blocked gemm, generic-size loop bookkeeping.
//! * **ATLAS** — packs gemm operands into aligned buffers before computing
//!   (the large-size design that loses at small sizes).
//! * **IPP** — small-size fast paths: no packing, no generic bookkeeping,
//!   single dispatch.

use crate::eigen::{peeled_axpy, peeled_gemv};
use crate::emit::*;
use crate::pattern::Pattern;
use lgen_cir::Kernel;
use lgen_isa::{Microarch, VectorIsa};
use lgen_ll::Blac;

/// The library being modelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub(crate) enum Flavor {
    /// Intel MKL 11.1.
    Mkl,
    /// ATLAS 3.10.1.
    Atlas,
    /// Intel IPP 8.0.
    Ipp,
}

impl Flavor {
    fn loop_overhead(self) -> bool {
        matches!(self, Flavor::Mkl | Flavor::Atlas)
    }

    fn name(self) -> &'static str {
        match self {
            Flavor::Mkl => "mkl",
            Flavor::Atlas => "atlas",
            Flavor::Ipp => "ipp",
        }
    }
}

/// Builds the library-call sequence for a recognized BLAC shape.
pub fn build(blac: &Blac, p: &Pattern, arch: Microarch, flavor: Flavor) -> Kernel {
    let isa = arch.vector_isa();
    if isa == VectorIsa::Scalar {
        return build_scalar(blac, p, flavor);
    }
    // MKL's peeled element-wise kernels are version-dispatched like Eigen's.
    if isa == VectorIsa::Ssse3 && flavor == Flavor::Mkl {
        if let Pattern::Axpy { alpha, x } = *p {
            return peeled_axpy(blac, alpha, x, "mkl_saxpy", 1);
        }
        if let Pattern::Gemv { alpha, beta, a, x } = *p {
            let s = ScaleIds {
                alpha: Some(alpha),
                beta: BetaId::Scalar(beta),
            };
            return peeled_gemv(blac, a, x, s, "mkl_sgemv", 1);
        }
        if let Pattern::Mvm { a, x } = *p {
            let s = ScaleIds {
                alpha: None,
                beta: BetaId::Zero,
            };
            return peeled_gemv(blac, a, x, s, "mkl_sgemv", 1);
        }
    }
    let (mut b, ar) = declare(blac, flavor.name());
    let d = |id: lgen_ll::blac::OperandId| blac.dims(id);
    let ov = flavor.loop_overhead();
    let out = ar[blac.output.0];

    match *p {
        Pattern::Axpy { alpha, x } => {
            call_overhead(&mut b, 1);
            vec_axpy(&mut b, ar[alpha.0], ar[x.0], out, d(x).len());
        }
        Pattern::Madd { a, b: bb } => {
            call_overhead(&mut b, 1);
            vec_madd(&mut b, ar[a.0], ar[bb.0], out, d(a).len());
        }
        Pattern::Mvm { a, x } => {
            call_overhead(&mut b, 1);
            let (m, n) = (d(a).rows, d(a).cols);
            vec_gemv(&mut b, ar[a.0], ar[x.0], out, m, n, Scale::none(), ov);
        }
        Pattern::Gemv { alpha, beta, a, x } => {
            call_overhead(&mut b, 1);
            let (m, n) = (d(a).rows, d(a).cols);
            let s = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Scalar(ar[beta.0]),
            };
            vec_gemv(&mut b, ar[a.0], ar[x.0], out, m, n, s, ov);
        }
        Pattern::TwoGemv {
            alpha,
            beta,
            a,
            b: bm,
            x,
        } => {
            let (m, n) = (d(a).rows, d(a).cols);
            call_overhead(&mut b, 1);
            let s1 = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Zero,
            };
            vec_gemv(&mut b, ar[a.0], ar[x.0], out, m, n, s1, ov);
            call_overhead(&mut b, 1);
            let s2 = Scale {
                alpha: Some(ar[beta.0]),
                beta: Beta::One,
            };
            vec_gemv(&mut b, ar[bm.0], ar[x.0], out, m, n, s2, ov);
        }
        Pattern::Bilinear { x, a, y } => {
            let (m, n) = (d(a).rows, d(a).cols);
            let t = b.local("t", m);
            call_overhead(&mut b, 1);
            vec_gemv(&mut b, ar[a.0], ar[y.0], t, m, n, Scale::none(), ov);
            call_overhead(&mut b, 1);
            vec_dot(&mut b, ar[x.0], t, out, m);
        }
        Pattern::Mmm { a, b: bm } => {
            let (m, k, n) = (d(a).rows, d(a).cols, d(bm).cols);
            emit_gemm(
                &mut b,
                flavor,
                ar[a.0],
                ar[bm.0],
                out,
                m,
                k,
                n,
                Scale::none(),
            );
        }
        Pattern::Gemm {
            alpha,
            beta,
            a,
            b: bm,
        } => {
            let (m, k, n) = (d(a).rows, d(a).cols, d(bm).cols);
            let s = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Scalar(ar[beta.0]),
            };
            emit_gemm(&mut b, flavor, ar[a.0], ar[bm.0], out, m, k, n, s);
        }
        Pattern::AddTGemm {
            alpha,
            beta,
            a0,
            a1,
            b: bm,
        } => {
            let (k, m) = (d(a0).rows, d(a0).cols);
            let n = d(bm).cols;
            // Staging call: somatadd (MKL) / saxpy+transpose (ATLAS).
            call_overhead(&mut b, 1);
            let t = b.local("t", m * k);
            scalar_transpose_add(&mut b, ar[a0.0], ar[a1.0], t, k, m);
            let s = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Scalar(ar[beta.0]),
            };
            emit_gemm(&mut b, flavor, t, ar[bm.0], out, m, k, n, s);
        }
        Pattern::Transpose { a } => {
            call_overhead(&mut b, 1);
            let (m, n) = (d(a).rows, d(a).cols);
            scalar_transpose(&mut b, ar[a.0], out, m, n, false);
        }
    }
    b.finish(blac.flops())
}

/// The gemm routine: blocked compute, with ATLAS packing its operands into
/// aligned local buffers first.
#[allow(clippy::too_many_arguments)]
fn emit_gemm(
    b: &mut lgen_cir::KernelBuilder,
    flavor: Flavor,
    a: lgen_cir::ArrayId,
    bm: lgen_cir::ArrayId,
    cm: lgen_cir::ArrayId,
    m: usize,
    k: usize,
    n: usize,
    scale: Scale,
) {
    call_overhead(b, 1);
    match flavor {
        // Both MKL and ATLAS pack gemm operands into aligned internal
        // buffers — the copy cost that dooms them at small sizes.
        Flavor::Mkl | Flavor::Atlas => {
            let pa = b.local("packA", m * k);
            let pb = b.local("packB", k * n);
            vec_copy(b, a, pa, m * k);
            vec_copy(b, bm, pb, k * n);
            // Packed buffers are aligned locals; row loads of B are aligned
            // only when the row length is a multiple of ν.
            let aligned_b = n.is_multiple_of(NU);
            vec_gemm_blocked4(b, pa, pb, cm, m, k, n, scale, false, false, aligned_b);
        }
        Flavor::Ipp => {
            vec_gemm_blocked4(b, a, bm, cm, m, k, n, scale, false, false, false);
        }
    }
}

/// Scalar-ISA (ARM1176) variants: every flavor falls back to scalar
/// routines behind the same call structure.
fn build_scalar(blac: &Blac, p: &Pattern, flavor: Flavor) -> Kernel {
    let (mut b, ar) = declare(blac, flavor.name());
    let d = |id: lgen_ll::blac::OperandId| blac.dims(id);
    let out = ar[blac.output.0];
    match *p {
        Pattern::Axpy { alpha, x } => {
            call_overhead(&mut b, 1);
            scalar_axpy(&mut b, ar[alpha.0], ar[x.0], out, d(x).len(), false);
        }
        Pattern::Madd { a, b: bb } => {
            call_overhead(&mut b, 1);
            scalar_madd(&mut b, ar[a.0], ar[bb.0], out, d(a).len(), false);
        }
        Pattern::Mvm { a, x } => {
            call_overhead(&mut b, 1);
            scalar_gemv(
                &mut b,
                ar[a.0],
                ar[x.0],
                out,
                d(a).rows,
                d(a).cols,
                Scale::none(),
                false,
            );
        }
        Pattern::Gemv { alpha, beta, a, x } => {
            call_overhead(&mut b, 1);
            let s = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Scalar(ar[beta.0]),
            };
            scalar_gemv(
                &mut b,
                ar[a.0],
                ar[x.0],
                out,
                d(a).rows,
                d(a).cols,
                s,
                false,
            );
        }
        Pattern::TwoGemv {
            alpha,
            beta,
            a,
            b: bm,
            x,
        } => {
            let (m, n) = (d(a).rows, d(a).cols);
            call_overhead(&mut b, 1);
            let s1 = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Zero,
            };
            scalar_gemv(&mut b, ar[a.0], ar[x.0], out, m, n, s1, false);
            call_overhead(&mut b, 1);
            let s2 = Scale {
                alpha: Some(ar[beta.0]),
                beta: Beta::One,
            };
            scalar_gemv(&mut b, ar[bm.0], ar[x.0], out, m, n, s2, false);
        }
        Pattern::Bilinear { x, a, y } => {
            let (m, n) = (d(a).rows, d(a).cols);
            let t = b.local("t", m);
            call_overhead(&mut b, 1);
            scalar_gemv(&mut b, ar[a.0], ar[y.0], t, m, n, Scale::none(), false);
            call_overhead(&mut b, 1);
            scalar_dot(&mut b, ar[x.0], t, out, m, false);
        }
        Pattern::Mmm { a, b: bm } => {
            call_overhead(&mut b, 1);
            let (m, k, n) = (d(a).rows, d(a).cols, d(bm).cols);
            scalar_gemm(
                &mut b,
                ar[a.0],
                ar[bm.0],
                out,
                m,
                k,
                n,
                Scale::none(),
                false,
                false,
            );
        }
        Pattern::Gemm {
            alpha,
            beta,
            a,
            b: bm,
        } => {
            call_overhead(&mut b, 1);
            let (m, k, n) = (d(a).rows, d(a).cols, d(bm).cols);
            let s = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Scalar(ar[beta.0]),
            };
            scalar_gemm(&mut b, ar[a.0], ar[bm.0], out, m, k, n, s, false, false);
        }
        Pattern::AddTGemm {
            alpha,
            beta,
            a0,
            a1,
            b: bm,
        } => {
            let (k, m) = (d(a0).rows, d(a0).cols);
            let n = d(bm).cols;
            call_overhead(&mut b, 2);
            let t = b.local("t", m * k);
            scalar_transpose_add(&mut b, ar[a0.0], ar[a1.0], t, k, m);
            let s = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Scalar(ar[beta.0]),
            };
            scalar_gemm(&mut b, t, ar[bm.0], out, m, k, n, s, false, false);
        }
        Pattern::Transpose { a } => {
            call_overhead(&mut b, 1);
            scalar_transpose(&mut b, ar[a.0], out, d(a).rows, d(a).cols, false);
        }
    }
    b.finish(blac.flops())
}

/// Operand-id form of [`Scale`] used by the peeled builders (which declare
/// their own arrays per version).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ScaleIds {
    /// α operand.
    pub alpha: Option<lgen_ll::blac::OperandId>,
    /// β side.
    pub beta: BetaId,
}

/// Operand-id form of [`Beta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BetaId {
    /// `out = α·t`.
    Zero,
    /// `out = α·t + β·out`.
    Scalar(lgen_ll::blac::OperandId),
}
