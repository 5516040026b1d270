//! The Eigen 3.2 competitor model.
//!
//! Eigen compiles fixed-size expressions into vectorized, unrolled code and
//! — crucially for Fig. 5.9 — *peels* element-wise and row traversals at
//! runtime until the destination (or matrix row) pointer is aligned, then
//! uses aligned packet ops (§5.2.4: "Eigen peels the part of the loop that
//! corresponds to the first 3 columns of A … and uses aligned accesses for
//! the remaining of the computation"). Peeling is modelled with the same
//! runtime version-dispatch machinery as LGen's alignment versioning, and
//! the per-version aligned marks are *derived* by the abstract
//! interpretation under each version's assumption — never asserted by hand.

use crate::blas::{BetaId, ScaleIds};
use crate::emit::*;
use crate::pattern::Pattern;
use lgen_absint::AffineExpr;
use lgen_cir::arena::align_block;
use lgen_cir::{merge_kernel_versions, ArrayId, Kernel, KernelBuilder, MemMap, VArith, VWidth};
use lgen_isa::{Microarch, VectorIsa};
use lgen_ll::blac::OperandId;
use lgen_ll::Blac;

fn c(v: i64) -> AffineExpr {
    AffineExpr::constant(v)
}

fn scale_of(ar: &[lgen_cir::ArrayId], s: ScaleIds) -> Scale {
    Scale {
        alpha: s.alpha.map(|id| ar[id.0]),
        beta: match s.beta {
            BetaId::Zero => Beta::Zero,
            BetaId::Scalar(id) => Beta::Scalar(ar[id.0]),
        },
    }
}

/// Builds the Eigen kernel for a recognized BLAC shape.
pub fn build(blac: &Blac, p: &Pattern, arch: Microarch) -> Kernel {
    let isa = arch.vector_isa();
    if isa == VectorIsa::Scalar {
        // Scalar fallback (ARM1176): plain loops, no call overhead.
        return crate::handwritten::build(blac, p, arch, false);
    }
    let peel = isa == VectorIsa::Ssse3;
    match *p {
        Pattern::Axpy { alpha, x } if peel => peeled_axpy(blac, alpha, x, "eigen_axpy", 0),
        Pattern::Mvm { a, x } if peel => peeled_gemv(
            blac,
            a,
            x,
            ScaleIds {
                alpha: None,
                beta: BetaId::Zero,
            },
            "eigen_mvm",
            0,
        ),
        Pattern::Gemv { alpha, beta, a, x } if peel => peeled_gemv(
            blac,
            a,
            x,
            ScaleIds {
                alpha: Some(alpha),
                beta: BetaId::Scalar(beta),
            },
            "eigen_gemv",
            0,
        ),
        _ => build_plain(blac, p, isa),
    }
}

/// Non-peeled Eigen kernels: vectorized, no call overhead, no generic-size
/// bookkeeping (fixed sizes via templates).
fn build_plain(blac: &Blac, p: &Pattern, isa: VectorIsa) -> Kernel {
    // Eigen 3.2's NEON product kernels accumulate through memory (the
    // packetized gemv/gemm paths spill), matching the weak Cortex-A
    // showings of Figs. 5.10–5.17.
    let weak_products = isa == VectorIsa::Neon;
    let (mut b, ar) = declare(blac, "eigen");
    let d = |id: OperandId| blac.dims(id);
    let out = ar[blac.output.0];
    match *p {
        Pattern::Axpy { alpha, x } => {
            vec_axpy(&mut b, ar[alpha.0], ar[x.0], out, d(x).len());
        }
        Pattern::Madd { a, b: bb } => {
            vec_madd(&mut b, ar[a.0], ar[bb.0], out, d(a).len());
        }
        Pattern::Mvm { a, x } => {
            let (m, n) = (d(a).rows, d(a).cols);
            if weak_products {
                vec_gemv_spill(&mut b, ar[a.0], ar[x.0], out, m, n, Scale::none());
            } else {
                vec_gemv(&mut b, ar[a.0], ar[x.0], out, m, n, Scale::none(), false);
            }
        }
        Pattern::Gemv { alpha, beta, a, x } => {
            let (m, n) = (d(a).rows, d(a).cols);
            let s = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Scalar(ar[beta.0]),
            };
            if weak_products {
                vec_gemv_spill(&mut b, ar[a.0], ar[x.0], out, m, n, s);
            } else {
                vec_gemv(&mut b, ar[a.0], ar[x.0], out, m, n, s, false);
            }
        }
        Pattern::TwoGemv {
            alpha,
            beta,
            a,
            b: bm,
            x,
        } => {
            let (m, n) = (d(a).rows, d(a).cols);
            let s1 = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Zero,
            };
            let s2 = Scale {
                alpha: Some(ar[beta.0]),
                beta: Beta::One,
            };
            if weak_products {
                vec_gemv_spill(&mut b, ar[a.0], ar[x.0], out, m, n, s1);
                vec_gemv_spill(&mut b, ar[bm.0], ar[x.0], out, m, n, s2);
            } else {
                vec_gemv(&mut b, ar[a.0], ar[x.0], out, m, n, s1, false);
                vec_gemv(&mut b, ar[bm.0], ar[x.0], out, m, n, s2, false);
            }
        }
        Pattern::Bilinear { x, a, y } => {
            let (m, n) = (d(a).rows, d(a).cols);
            let t = b.local("t", m);
            if weak_products {
                vec_gemv_spill(&mut b, ar[a.0], ar[y.0], t, m, n, Scale::none());
            } else {
                vec_gemv(&mut b, ar[a.0], ar[y.0], t, m, n, Scale::none(), false);
            }
            vec_dot(&mut b, ar[x.0], t, out, m);
        }
        Pattern::Mmm { a, b: bm } => {
            let (m, k, n) = (d(a).rows, d(a).cols, d(bm).cols);
            if weak_products {
                vec_gemm_reload(&mut b, ar[a.0], ar[bm.0], out, m, k, n, Scale::none());
            } else {
                // Fixed-size Eigen products are coefficient-based (lazy):
                // one row of register blocking, no packing.
                vec_gemm_1row(
                    &mut b,
                    ar[a.0],
                    ar[bm.0],
                    out,
                    m,
                    k,
                    n,
                    Scale::none(),
                    false,
                );
            }
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
            if weak_products {
                vec_gemm_reload(&mut b, ar[a.0], ar[bm.0], out, m, k, n, s);
            } else {
                vec_gemm_1row(&mut b, ar[a.0], ar[bm.0], out, m, k, n, s, false);
            }
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
            let t = b.local("t", m * k);
            scalar_transpose_add(&mut b, ar[a0.0], ar[a1.0], t, k, m);
            let s = Scale {
                alpha: Some(ar[alpha.0]),
                beta: Beta::Scalar(ar[beta.0]),
            };
            if weak_products {
                vec_gemm_reload(&mut b, t, ar[bm.0], out, m, k, n, s);
            } else {
                vec_gemm_1row(&mut b, t, ar[bm.0], out, m, k, n, s, false);
            }
        }
        Pattern::Transpose { a } => {
            scalar_transpose(&mut b, ar[a.0], out, d(a).rows, d(a).cols, false);
        }
    }
    b.finish(blac.flops())
}

/// Peeled `y = αx + y`: runtime-dispatched on `y`'s alignment; each version
/// peels `(ν − off) mod ν` scalar elements, runs an aligned-destination
/// packet loop, and finishes with a scalar tail.
pub(crate) fn peeled_axpy(
    blac: &Blac,
    alpha: OperandId,
    x: OperandId,
    name: &str,
    calls: u16,
) -> Kernel {
    let n = blac.dims(x).len();
    let y_param = blac.output.0;
    let nparams = blac.operands.len();
    let build_version = |off: Option<usize>| -> Kernel {
        let (mut b, ar) = declare(blac, name);
        if calls > 0 {
            call_overhead(&mut b, calls);
        }
        let al = splat(&mut b, ar[alpha.0]);
        let (xa, ya) = (ar[x.0], ar[y_param]);
        let p = off.map_or(0, |o| (NU - o) % NU).min(n);
        // Scalar peel.
        for i in 0..p {
            let xe = b.load(xa, c(i as i64), MemMap::scalar());
            let ye = b.load(ya, c(i as i64), MemMap::scalar());
            let t = b.arith(VArith::Mul(VWidth::S), xe, al);
            let s = b.arith(VArith::Add(VWidth::S), t, ye);
            b.store(s, ya, c(i as i64), MemMap::scalar());
        }
        // Packet loop.
        let end = p + (n - p) / NU * NU;
        if end > p {
            let i = b.begin_loop("i", p as i64, end as i64, NU as i64);
            let xv = b.load(xa, AffineExpr::var(i), MemMap::horizontal(NU));
            let yv = b.load(ya, AffineExpr::var(i), MemMap::horizontal(NU));
            let t = b.arith(VArith::Mul(VWidth::Q), xv, al);
            let s = b.arith(VArith::Add(VWidth::Q), t, yv);
            b.store(s, ya, AffineExpr::var(i), MemMap::horizontal(NU));
            b.end_loop();
        }
        // Scalar tail.
        for i in end..n {
            let xe = b.load(xa, c(i as i64), MemMap::scalar());
            let ye = b.load(ya, c(i as i64), MemMap::scalar());
            let t = b.arith(VArith::Mul(VWidth::S), xe, al);
            let s = b.arith(VArith::Add(VWidth::S), t, ye);
            b.store(s, ya, c(i as i64), MemMap::scalar());
        }
        let mut k = b.finish(blac.flops());
        if let Some(o) = off {
            mark_aligned(&mut k, ya, o);
        }
        k
    };
    let mut versions = Vec::with_capacity(NU + 1);
    for off in 0..NU {
        let mut req = vec![None; nparams];
        req[y_param] = Some(off);
        versions.push((Some(req), build_version(Some(off))));
    }
    versions.push((None, build_version(None)));
    merge_kernel_versions(versions)
}

/// Peeled row-traversal gemv, dispatched on `A`'s base alignment: rows are
/// statically unrolled; each row peels to its own alignment boundary and
/// then uses aligned loads of `A` (`x` loads stay unaligned — its relative
/// alignment is unknown).
pub(crate) fn peeled_gemv(
    blac: &Blac,
    a: OperandId,
    x: OperandId,
    scale: ScaleIds,
    name: &str,
    calls: u16,
) -> Kernel {
    let (m, n) = (blac.dims(a).rows, blac.dims(a).cols);
    let nparams = blac.operands.len();
    let build_version = |off: Option<usize>| -> Kernel {
        let (mut b, ar) = declare(blac, name);
        if calls > 0 {
            call_overhead(&mut b, calls);
        }
        let s = scale_of(&ar, scale);
        let (aa, xa, ya) = (ar[a.0], ar[x.0], ar[blac.output.0]);
        for i in 0..m {
            let row = (i * n) as i64;
            let p = off.map_or(0, |o| (NU - (o + i * n) % NU) % NU).min(n);
            // Scalar peel of the row.
            let mut t = b.zero();
            for j in 0..p {
                let ae = b.load(aa, c(row + j as i64), MemMap::scalar());
                let xe = b.load(xa, c(j as i64), MemMap::scalar());
                b.arith_acc(VArith::Fma(VWidth::S), t, ae, xe);
            }
            // Aligned packet segment.
            let end = p + (n - p) / NU * NU;
            if end > p {
                let vacc = b.zero();
                let j = b.begin_loop("j", p as i64, end as i64, NU as i64);
                let av = b.load(aa, AffineExpr::var(j).offset(row), MemMap::horizontal(NU));
                let xv = b.load(xa, AffineExpr::var(j), MemMap::horizontal(NU));
                b.arith_acc(VArith::Fma(VWidth::Q), vacc, av, xv);
                b.end_loop();
                let h = b.arith(VArith::Hadd, vacc, vacc);
                let red = b.arith(VArith::Hadd, h, h);
                let nt = b.arith(VArith::Add(VWidth::S), t, red);
                t = nt;
            }
            // Scalar tail.
            for j in end..n {
                let ae = b.load(aa, c(row + j as i64), MemMap::scalar());
                let xe = b.load(xa, c(j as i64), MemMap::scalar());
                let prod = b.arith(VArith::Mul(VWidth::S), ae, xe);
                t = b.arith(VArith::Add(VWidth::S), t, prod);
            }
            let idx = c(i as i64);
            let r = combine_for(&mut b, t, s, ya, &idx);
            b.store(r, ya, idx, MemMap::scalar());
        }
        let mut k = b.finish(blac.flops());
        if let Some(o) = off {
            mark_aligned(&mut k, aa, o);
        }
        k
    };
    let mut versions = Vec::with_capacity(NU + 1);
    for off in 0..NU {
        let mut req = vec![None; nparams];
        req[a.0] = Some(off);
        versions.push((Some(req), build_version(Some(off))));
    }
    versions.push((None, build_version(None)));
    merge_kernel_versions(versions)
}

/// Marks the accesses of `k` that are aligned when array `arr` sits at
/// float offset `off` (mod ν); no other array is assumed aligned.
fn mark_aligned(k: &mut Kernel, arr: ArrayId, off: usize) {
    let mut offsets = vec![None; k.arrays.len()];
    offsets[arr.0] = Some(off);
    let body = k.body_mut();
    align_block(&mut body.arena, body.root, &offsets);
}

/// Scalar combine duplicated here to keep `emit`'s helper private.
fn combine_for(
    b: &mut KernelBuilder,
    t: lgen_cir::VReg,
    scale: Scale,
    out: lgen_cir::ArrayId,
    idx: &AffineExpr,
) -> lgen_cir::VReg {
    let mut r = t;
    if let Some(alpha) = scale.alpha {
        let al = b.load(alpha, c(0), MemMap::scalar());
        r = b.arith(VArith::Mul(VWidth::S), r, al);
    }
    match scale.beta {
        Beta::Zero => r,
        Beta::One => {
            let old = b.load(out, idx.clone(), MemMap::scalar());
            b.arith(VArith::Add(VWidth::S), r, old)
        }
        Beta::Scalar(beta) => {
            let be = b.load(beta, c(0), MemMap::scalar());
            let old = b.load(out, idx.clone(), MemMap::scalar());
            let by = b.arith(VArith::Mul(VWidth::S), old, be);
            b.arith(VArith::Add(VWidth::S), r, by)
        }
    }
}
