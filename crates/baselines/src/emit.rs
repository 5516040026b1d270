//! Shared kernel-emission primitives for the competitor models.
//!
//! All emitters produce numerically correct C-IR; what distinguishes the
//! competitors is *structure*: scalar vs. vectorized loops, unaligned vs.
//! peeled/aligned accesses, register blocking, packing copies, call and
//! addressing overhead.

use lgen_absint::AffineExpr;
use lgen_cir::{ArrayId, KernelBuilder, MemMap, OverheadKind, VArith, VReg, VWidth};

/// Vector width of the modelled SIMD units.
pub(crate) const NU: usize = 4;

/// How a result combines with the existing output: `out = α·t ⊕ β`-style.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Scale {
    /// Multiply the computed term by this scalar operand (`None` = 1).
    pub alpha: Option<ArrayId>,
    /// What to add from the old output value.
    pub beta: Beta,
}

impl Scale {
    /// Plain `out = t`.
    pub fn none() -> Self {
        Scale {
            alpha: None,
            beta: Beta::Zero,
        }
    }
}

/// The `β`-side of a [`Scale`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Beta {
    /// `out = α·t`.
    Zero,
    /// `out = α·t + out` (accumulate).
    One,
    /// `out = α·t + β·out`.
    Scalar(ArrayId),
}

fn c(v: i64) -> AffineExpr {
    AffineExpr::constant(v)
}

/// Loads a scalar operand broadcast into a register.
pub fn splat(b: &mut KernelBuilder, s: ArrayId) -> VReg {
    b.load(s, c(0), MemMap::splat(NU))
}

/// Charges "gen"-style per-access address arithmetic.
fn gen_cost(b: &mut KernelBuilder, gen: bool, n: u16) {
    if gen {
        b.overhead(OverheadKind::Addr, n);
    }
}

/// Applies `scale` to the lane-0 scalar `t`, reading `out[idx]` as needed,
/// and returns the register to store.
fn combine_scalar(
    b: &mut KernelBuilder,
    t: VReg,
    scale: Scale,
    out: ArrayId,
    idx: &AffineExpr,
) -> VReg {
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

/// Vector variant of [`combine_scalar`] for a chunk `out[idx .. idx+w)`.
fn combine_vec(
    b: &mut KernelBuilder,
    t: VReg,
    scale: Scale,
    out: ArrayId,
    idx: &AffineExpr,
    w: usize,
) -> VReg {
    let mut r = t;
    if let Some(alpha) = scale.alpha {
        let al = splat(b, alpha);
        r = b.arith(VArith::Mul(VWidth::Q), r, al);
    }
    match scale.beta {
        Beta::Zero => r,
        Beta::One => {
            let old = b.load(out, idx.clone(), MemMap::horizontal(w));
            b.arith(VArith::Add(VWidth::Q), r, old)
        }
        Beta::Scalar(beta) => {
            let be = splat(b, beta);
            let old = b.load(out, idx.clone(), MemMap::horizontal(w));
            let by = b.arith(VArith::Mul(VWidth::Q), old, be);
            b.arith(VArith::Add(VWidth::Q), r, by)
        }
    }
}

// ---------------------------------------------------------------- axpy ---

/// Scalar `y = αx + y`.
pub(crate) fn scalar_axpy(
    b: &mut KernelBuilder,
    alpha: ArrayId,
    x: ArrayId,
    y: ArrayId,
    n: usize,
    gen: bool,
) {
    let al = b.load(alpha, c(0), MemMap::scalar());
    let i = b.begin_loop("i", 0, n as i64, 1);
    gen_cost(b, gen, 2);
    let xe = b.load(x, AffineExpr::var(i), MemMap::scalar());
    let ye = b.load(y, AffineExpr::var(i), MemMap::scalar());
    let t = b.arith(VArith::Mul(VWidth::S), xe, al);
    let s = b.arith(VArith::Add(VWidth::S), t, ye);
    b.store(s, y, AffineExpr::var(i), MemMap::scalar());
    b.end_loop();
}

/// Vectorized `y = αx + y`, unaligned accesses, scalar remainder.
pub(crate) fn vec_axpy(b: &mut KernelBuilder, alpha: ArrayId, x: ArrayId, y: ArrayId, n: usize) {
    let al = splat(b, alpha);
    let full = n / NU * NU;
    if full > 0 {
        let i = b.begin_loop("i", 0, full as i64, NU as i64);
        let xv = b.load(x, AffineExpr::var(i), MemMap::horizontal(NU));
        let yv = b.load(y, AffineExpr::var(i), MemMap::horizontal(NU));
        let t = b.arith(VArith::Mul(VWidth::Q), xv, al);
        let s = b.arith(VArith::Add(VWidth::Q), t, yv);
        b.store(s, y, AffineExpr::var(i), MemMap::horizontal(NU));
        b.end_loop();
    }
    for i in full..n {
        let xe = b.load(x, c(i as i64), MemMap::scalar());
        let ye = b.load(y, c(i as i64), MemMap::scalar());
        let t = b.arith(VArith::Mul(VWidth::S), xe, al);
        let s = b.arith(VArith::Add(VWidth::S), t, ye);
        b.store(s, y, c(i as i64), MemMap::scalar());
    }
}

// ---------------------------------------------------------------- gemv ---

/// Scalar row-wise `y = α·A·x ⊕ β` (`A` is `m×n`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn scalar_gemv(
    b: &mut KernelBuilder,
    a: ArrayId,
    x: ArrayId,
    y: ArrayId,
    m: usize,
    n: usize,
    scale: Scale,
    gen: bool,
) {
    let i = b.begin_loop("i", 0, m as i64, 1);
    let acc = b.zero();
    let j = b.begin_loop("j", 0, n as i64, 1);
    gen_cost(b, gen, 2);
    let addr = AffineExpr::var(i).scale(n as i64).plus(&AffineExpr::var(j));
    let ae = b.load(a, addr, MemMap::scalar());
    let xe = b.load(x, AffineExpr::var(j), MemMap::scalar());
    b.arith_acc(VArith::Fma(VWidth::S), acc, ae, xe);
    b.end_loop();
    let idx = AffineExpr::var(i);
    let r = combine_scalar(b, acc, scale, y, &idx);
    b.store(r, y, idx, MemMap::scalar());
    b.end_loop();
}

/// Vectorized dot-product gemv: per row, vector multiply-accumulate over
/// column chunks, horizontal reduction, scalar combine. Unaligned loads.
/// `loop_overhead` charges the generic-library per-iteration bookkeeping.
#[allow(clippy::too_many_arguments)]
pub(crate) fn vec_gemv(
    b: &mut KernelBuilder,
    a: ArrayId,
    x: ArrayId,
    y: ArrayId,
    m: usize,
    n: usize,
    scale: Scale,
    loop_overhead: bool,
) {
    let full = n / NU * NU;
    let i = b.begin_loop("i", 0, m as i64, 1);
    let acc = b.zero();
    if full > 0 {
        let j = b.begin_loop("j", 0, full as i64, NU as i64);
        gen_cost(b, loop_overhead, 1);
        let addr = AffineExpr::var(i).scale(n as i64).plus(&AffineExpr::var(j));
        let av = b.load(a, addr, MemMap::horizontal(NU));
        let xv = b.load(x, AffineExpr::var(j), MemMap::horizontal(NU));
        b.arith_acc(VArith::Fma(VWidth::Q), acc, av, xv);
        b.end_loop();
    }
    // Horizontal reduction to lane 0.
    let h = b.arith(VArith::Hadd, acc, acc);
    let mut t = b.arith(VArith::Hadd, h, h);
    // Scalar remainder columns.
    for j in full..n {
        let addr = AffineExpr::var(i).scale(n as i64).offset(j as i64);
        let ae = b.load(a, addr, MemMap::scalar());
        let xe = b.load(x, c(j as i64), MemMap::scalar());
        let p = b.arith(VArith::Mul(VWidth::S), ae, xe);
        t = b.arith(VArith::Add(VWidth::S), t, p);
    }
    let idx = AffineExpr::var(i);
    let r = combine_scalar(b, t, scale, y, &idx);
    b.store(r, y, idx, MemMap::scalar());
    b.end_loop();
}

// ---------------------------------------------------------------- gemm ---

/// Element address of logical `A[i, k]` for an `m×kdim` matrix, optionally
/// stored transposed (physical `kdim×m`).
fn a_elem_addr(i: &AffineExpr, k: &AffineExpr, m: usize, kdim: usize, a_t: bool) -> AffineExpr {
    if a_t {
        k.scale(m as i64).plus(i)
    } else {
        let _ = kdim;
        i.scale(kdim as i64).plus(k)
    }
}

/// Scalar triple-loop `C = α·A·B ⊕ β` (`A` `m×k`, `B` `k×n`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn scalar_gemm(
    b: &mut KernelBuilder,
    a: ArrayId,
    bm: ArrayId,
    cm: ArrayId,
    m: usize,
    kdim: usize,
    n: usize,
    scale: Scale,
    a_t: bool,
    gen: bool,
) {
    let i = b.begin_loop("i", 0, m as i64, 1);
    let j = b.begin_loop("j", 0, n as i64, 1);
    let acc = b.zero();
    let k = b.begin_loop("k", 0, kdim as i64, 1);
    gen_cost(b, gen, 2);
    let aaddr = a_elem_addr(&AffineExpr::var(i), &AffineExpr::var(k), m, kdim, a_t);
    let ae = b.load(a, aaddr, MemMap::scalar());
    let baddr = AffineExpr::var(k).scale(n as i64).plus(&AffineExpr::var(j));
    let be = b.load(bm, baddr, MemMap::scalar());
    b.arith_acc(VArith::Fma(VWidth::S), acc, ae, be);
    b.end_loop();
    let idx = AffineExpr::var(i).scale(n as i64).plus(&AffineExpr::var(j));
    let r = combine_scalar(b, acc, scale, cm, &idx);
    b.store(r, cm, idx, MemMap::scalar());
    b.end_loop();
    b.end_loop();
}

/// Vectorized single-row gemm: per `(row, column-chunk)`, accumulate
/// `splat(A[i,k]) · B[k, chunk]` over `k`. Unaligned. One row of register
/// blocking only (the naive auto-vectorized shape).
#[allow(clippy::too_many_arguments)]
pub(crate) fn vec_gemm_1row(
    b: &mut KernelBuilder,
    a: ArrayId,
    bm: ArrayId,
    cm: ArrayId,
    m: usize,
    kdim: usize,
    n: usize,
    scale: Scale,
    a_t: bool,
) {
    let full = n / NU * NU;
    let i = b.begin_loop("i", 0, m as i64, 1);
    if full > 0 {
        let j = b.begin_loop("j", 0, full as i64, NU as i64);
        let acc = b.zero();
        let k = b.begin_loop("k", 0, kdim as i64, 1);
        let aaddr = a_elem_addr(&AffineExpr::var(i), &AffineExpr::var(k), m, kdim, a_t);
        let asp = b.load(a, aaddr, MemMap::splat(NU));
        let baddr = AffineExpr::var(k).scale(n as i64).plus(&AffineExpr::var(j));
        let bv = b.load(bm, baddr, MemMap::horizontal(NU));
        b.arith_acc(VArith::Fma(VWidth::Q), acc, bv, asp);
        b.end_loop();
        let idx = AffineExpr::var(i).scale(n as i64).plus(&AffineExpr::var(j));
        let r = combine_vec(b, acc, scale, cm, &idx, NU);
        b.store(r, cm, idx, MemMap::horizontal(NU));
        b.end_loop();
    }
    // Remainder columns, scalar.
    for j in full..n {
        let acc = b.zero();
        let k = b.begin_loop("k", 0, kdim as i64, 1);
        let aaddr = a_elem_addr(&AffineExpr::var(i), &AffineExpr::var(k), m, kdim, a_t);
        let ae = b.load(a, aaddr, MemMap::scalar());
        let baddr = AffineExpr::var(k).scale(n as i64).offset(j as i64);
        let be = b.load(bm, baddr, MemMap::scalar());
        b.arith_acc(VArith::Fma(VWidth::S), acc, ae, be);
        b.end_loop();
        let idx = AffineExpr::var(i).scale(n as i64).offset(j as i64);
        let r = combine_scalar(b, acc, scale, cm, &idx);
        b.store(r, cm, idx, MemMap::scalar());
    }
    b.end_loop();
}

/// Library gemm kernel: 4-row register blocking over column chunks
/// (generic-size code: per-`k` loop bookkeeping when `loop_overhead`).
/// `aligned_b` marks the B row loads as 16-byte aligned — only valid when B
/// is a packed, aligned local buffer whose row length is a multiple of ν.
#[allow(clippy::too_many_arguments)]
pub(crate) fn vec_gemm_blocked4(
    b: &mut KernelBuilder,
    a: ArrayId,
    bm: ArrayId,
    cm: ArrayId,
    m: usize,
    kdim: usize,
    n: usize,
    scale: Scale,
    a_t: bool,
    loop_overhead: bool,
    aligned_b: bool,
) {
    let rfull = m / NU * NU;
    if rfull > 0 {
        let i = b.begin_loop("ib", 0, rfull as i64, NU as i64);
        gemm_row_block(
            b,
            a,
            bm,
            cm,
            AffineExpr::var(i),
            NU,
            m,
            kdim,
            n,
            scale,
            a_t,
            loop_overhead,
            aligned_b,
        );
        b.end_loop();
    }
    if !m.is_multiple_of(NU) {
        gemm_row_block(
            b,
            a,
            bm,
            cm,
            c(rfull as i64),
            m % NU,
            m,
            kdim,
            n,
            scale,
            a_t,
            loop_overhead,
            aligned_b,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_row_block(
    b: &mut KernelBuilder,
    a: ArrayId,
    bm: ArrayId,
    cm: ArrayId,
    i0: AffineExpr,
    rows: usize,
    m: usize,
    kdim: usize,
    n: usize,
    scale: Scale,
    a_t: bool,
    loop_overhead: bool,
    aligned_b: bool,
) {
    let cfull = n / NU * NU;
    #[allow(unused_mut)]
    let mut col_chunk = |b: &mut KernelBuilder, j0: AffineExpr, w: usize| {
        let accs: Vec<VReg> = (0..rows).map(|_| b.zero()).collect();
        let k = b.begin_loop("k", 0, kdim as i64, 1);
        gen_cost(b, loop_overhead, 1);
        let baddr = AffineExpr::var(k).scale(n as i64).plus(&j0);
        let bmap = MemMap::horizontal(w);
        let bv = if aligned_b && w == NU {
            b.load_aligned(bm, baddr, bmap)
        } else {
            b.load(bm, baddr, bmap)
        };
        for (r, acc) in accs.iter().enumerate() {
            let aaddr = a_elem_addr(&i0.offset(r as i64), &AffineExpr::var(k), m, kdim, a_t);
            let asp = b.load(a, aaddr, MemMap::splat(NU));
            b.arith_acc(VArith::Fma(VWidth::Q), *acc, bv, asp);
        }
        b.end_loop();
        for (r, acc) in accs.iter().enumerate() {
            let idx = i0.offset(r as i64).scale(n as i64).plus(&j0);
            let rr = combine_vec(b, *acc, scale, cm, &idx, w);
            b.store(rr, cm, idx, MemMap::horizontal(w));
        }
    };
    if cfull > 0 {
        let j = b.begin_loop("jb", 0, cfull as i64, NU as i64);
        col_chunk(b, AffineExpr::var(j), NU);
        b.end_loop();
    }
    if !n.is_multiple_of(NU) {
        col_chunk(b, c(cfull as i64), n % NU);
    }
}

// ------------------------------------------------------------- madd etc ---

/// Scalar element-wise `C = A + B`.
pub(crate) fn scalar_madd(
    b: &mut KernelBuilder,
    a: ArrayId,
    bm: ArrayId,
    cm: ArrayId,
    len: usize,
    gen: bool,
) {
    let i = b.begin_loop("i", 0, len as i64, 1);
    gen_cost(b, gen, 2);
    let ae = b.load(a, AffineExpr::var(i), MemMap::scalar());
    let be = b.load(bm, AffineExpr::var(i), MemMap::scalar());
    let s = b.arith(VArith::Add(VWidth::S), ae, be);
    b.store(s, cm, AffineExpr::var(i), MemMap::scalar());
    b.end_loop();
}

/// Vectorized element-wise `C = A + B` (unaligned), scalar remainder.
pub(crate) fn vec_madd(b: &mut KernelBuilder, a: ArrayId, bm: ArrayId, cm: ArrayId, len: usize) {
    let full = len / NU * NU;
    if full > 0 {
        let i = b.begin_loop("i", 0, full as i64, NU as i64);
        let av = b.load(a, AffineExpr::var(i), MemMap::horizontal(NU));
        let bv = b.load(bm, AffineExpr::var(i), MemMap::horizontal(NU));
        let s = b.arith(VArith::Add(VWidth::Q), av, bv);
        b.store(s, cm, AffineExpr::var(i), MemMap::horizontal(NU));
        b.end_loop();
    }
    for i in full..len {
        let ae = b.load(a, c(i as i64), MemMap::scalar());
        let be = b.load(bm, c(i as i64), MemMap::scalar());
        let s = b.arith(VArith::Add(VWidth::S), ae, be);
        b.store(s, cm, c(i as i64), MemMap::scalar());
    }
}

/// Scalar transpose `C = Aᵀ` (`A` is `m×n`).
pub(crate) fn scalar_transpose(
    b: &mut KernelBuilder,
    a: ArrayId,
    cm: ArrayId,
    m: usize,
    n: usize,
    gen: bool,
) {
    let i = b.begin_loop("i", 0, m as i64, 1);
    let j = b.begin_loop("j", 0, n as i64, 1);
    gen_cost(b, gen, 2);
    let ae = b.load(
        a,
        AffineExpr::var(i).scale(n as i64).plus(&AffineExpr::var(j)),
        MemMap::scalar(),
    );
    b.store(
        ae,
        cm,
        AffineExpr::var(j).scale(m as i64).plus(&AffineExpr::var(i)),
        MemMap::scalar(),
    );
    b.end_loop();
    b.end_loop();
}

/// Scalar transposing add into `dst`: `dst = (A0 + A1)ᵀ` (`A0`, `A1` are
/// `k×m`, `dst` is `m×k`) — the `MKL_Somatadd`/`saxpy` staging step.
pub(crate) fn scalar_transpose_add(
    b: &mut KernelBuilder,
    a0: ArrayId,
    a1: ArrayId,
    dst: ArrayId,
    k: usize,
    m: usize,
) {
    let i = b.begin_loop("i", 0, k as i64, 1);
    let j = b.begin_loop("j", 0, m as i64, 1);
    let addr = AffineExpr::var(i).scale(m as i64).plus(&AffineExpr::var(j));
    let x0 = b.load(a0, addr.clone(), MemMap::scalar());
    let x1 = b.load(a1, addr, MemMap::scalar());
    let s = b.arith(VArith::Add(VWidth::S), x0, x1);
    b.store(
        s,
        dst,
        AffineExpr::var(j).scale(k as i64).plus(&AffineExpr::var(i)),
        MemMap::scalar(),
    );
    b.end_loop();
    b.end_loop();
}

/// Vectorized dot product into `out[0]`.
pub(crate) fn vec_dot(b: &mut KernelBuilder, u: ArrayId, v: ArrayId, out: ArrayId, n: usize) {
    let full = n / NU * NU;
    let acc = b.zero();
    if full > 0 {
        let i = b.begin_loop("i", 0, full as i64, NU as i64);
        let uv = b.load(u, AffineExpr::var(i), MemMap::horizontal(NU));
        let vv = b.load(v, AffineExpr::var(i), MemMap::horizontal(NU));
        b.arith_acc(VArith::Fma(VWidth::Q), acc, uv, vv);
        b.end_loop();
    }
    let h = b.arith(VArith::Hadd, acc, acc);
    let mut t = b.arith(VArith::Hadd, h, h);
    for i in full..n {
        let ue = b.load(u, c(i as i64), MemMap::scalar());
        let ve = b.load(v, c(i as i64), MemMap::scalar());
        let p = b.arith(VArith::Mul(VWidth::S), ue, ve);
        t = b.arith(VArith::Add(VWidth::S), t, p);
    }
    b.store(t, out, c(0), MemMap::scalar());
}

/// Scalar dot product into `out[0]`.
pub(crate) fn scalar_dot(
    b: &mut KernelBuilder,
    u: ArrayId,
    v: ArrayId,
    out: ArrayId,
    n: usize,
    gen: bool,
) {
    let acc = b.zero();
    let i = b.begin_loop("i", 0, n as i64, 1);
    gen_cost(b, gen, 2);
    let ue = b.load(u, AffineExpr::var(i), MemMap::scalar());
    let ve = b.load(v, AffineExpr::var(i), MemMap::scalar());
    b.arith_acc(VArith::Fma(VWidth::S), acc, ue, ve);
    b.end_loop();
    b.store(acc, out, c(0), MemMap::scalar());
}

/// Vectorized packing copy `dst[0..len) = src[0..len)` (ATLAS-style
/// operand packing; unaligned source, aligned local destination).
pub(crate) fn vec_copy(b: &mut KernelBuilder, src: ArrayId, dst: ArrayId, len: usize) {
    let full = len / NU * NU;
    if full > 0 {
        let i = b.begin_loop("i", 0, full as i64, NU as i64);
        let v = b.load(src, AffineExpr::var(i), MemMap::horizontal(NU));
        b.store_aligned(v, dst, AffineExpr::var(i), MemMap::horizontal(NU));
        b.end_loop();
    }
    for i in full..len {
        let v = b.load(src, c(i as i64), MemMap::scalar());
        b.store(v, dst, c(i as i64), MemMap::scalar());
    }
}

/// Library-call dispatch overhead.
pub(crate) fn call_overhead(b: &mut KernelBuilder, calls: u16) {
    b.overhead(OverheadKind::Call, calls);
}

/// Declares kernel parameter arrays for every BLAC operand (in operand
/// order, mirroring LGen's own kernels) and returns the builder plus the
/// operand→array mapping.
pub fn declare(blac: &lgen_ll::Blac, name: &str) -> (KernelBuilder, Vec<ArrayId>) {
    let mut b = KernelBuilder::new(name);
    let mut arrs = Vec::with_capacity(blac.operands.len());
    for (i, op) in blac.operands.iter().enumerate() {
        let id = if lgen_ll::blac::OperandId(i) == blac.output {
            if blac.output_is_input() {
                b.inout(&op.name, op.dims.len())
            } else {
                b.output(&op.name, op.dims.len())
            }
        } else {
            b.input(&op.name, op.dims.len())
        };
        arrs.push(id);
    }
    (b, arrs)
}

/// Truly naive vectorized gemm: the output chunk is *reloaded and restored
/// through memory on every k iteration* — the accumulate-through-memory
/// code that weak auto-vectorizers and Eigen 3.2's NEON path produce. The
/// store→load dependency serializes the k loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn vec_gemm_reload(
    b: &mut KernelBuilder,
    a: ArrayId,
    bm: ArrayId,
    cm: ArrayId,
    m: usize,
    kdim: usize,
    n: usize,
    scale: Scale,
) {
    // Work in a zero-initialized accumulator buffer, then combine into C.
    let acc_buf = b.local("accbuf", n.max(NU));
    let full = n / NU * NU;
    let i = b.begin_loop("i", 0, m as i64, 1);
    // Zero the row accumulator buffer.
    if full > 0 {
        let j = b.begin_loop("jz", 0, full as i64, NU as i64);
        let z = b.zero();
        b.store(z, acc_buf, AffineExpr::var(j), MemMap::horizontal(NU));
        b.end_loop();
    }
    for j in full..n {
        let z = b.zero();
        b.store(z, acc_buf, c(j as i64), MemMap::scalar());
    }
    // k loop with memory-resident accumulators.
    let k = b.begin_loop("k", 0, kdim as i64, 1);
    let asp = {
        let aaddr = AffineExpr::var(i)
            .scale(kdim as i64)
            .plus(&AffineExpr::var(k));
        b.load(a, aaddr, MemMap::splat(NU))
    };
    if full > 0 {
        let j = b.begin_loop("j", 0, full as i64, NU as i64);
        let acc = b.load(acc_buf, AffineExpr::var(j), MemMap::horizontal(NU));
        let baddr = AffineExpr::var(k).scale(n as i64).plus(&AffineExpr::var(j));
        let bv = b.load(bm, baddr, MemMap::horizontal(NU));
        b.arith_acc(VArith::Fma(VWidth::Q), acc, bv, asp);
        b.store(acc, acc_buf, AffineExpr::var(j), MemMap::horizontal(NU));
        b.end_loop();
    }
    for j in full..n {
        let acc = b.load(acc_buf, c(j as i64), MemMap::scalar());
        let baddr = AffineExpr::var(k).scale(n as i64).offset(j as i64);
        let be = b.load(bm, baddr, MemMap::scalar());
        b.arith_acc(VArith::Fma(VWidth::S), acc, be, asp);
        b.store(acc, acc_buf, c(j as i64), MemMap::scalar());
    }
    b.end_loop();
    // Combine into C.
    for j in 0..n {
        let t = b.load(acc_buf, c(j as i64), MemMap::scalar());
        let idx = AffineExpr::var(i).scale(n as i64).offset(j as i64);
        let r = combine_scalar(b, t, scale, cm, &idx);
        b.store(r, cm, idx, MemMap::scalar());
    }
    b.end_loop();
}

/// Gemv with a memory-resident (spilled) accumulator: the per-row dot
/// product round-trips through the stack every chunk — Eigen 3.2's NEON
/// gemv shape.
#[allow(clippy::too_many_arguments)]
pub(crate) fn vec_gemv_spill(
    b: &mut KernelBuilder,
    a: ArrayId,
    x: ArrayId,
    y: ArrayId,
    m: usize,
    n: usize,
    scale: Scale,
) {
    let spill = b.local("spill", NU);
    let full = n / NU * NU;
    let i = b.begin_loop("i", 0, m as i64, 1);
    let z = b.zero();
    b.store(z, spill, c(0), MemMap::horizontal(NU));
    if full > 0 {
        let j = b.begin_loop("j", 0, full as i64, NU as i64);
        let acc = b.load(spill, c(0), MemMap::horizontal(NU));
        let addr = AffineExpr::var(i).scale(n as i64).plus(&AffineExpr::var(j));
        let av = b.load(a, addr, MemMap::horizontal(NU));
        let xv = b.load(x, AffineExpr::var(j), MemMap::horizontal(NU));
        b.arith_acc(VArith::Fma(VWidth::Q), acc, av, xv);
        b.store(acc, spill, c(0), MemMap::horizontal(NU));
        b.end_loop();
    }
    let acc = b.load(spill, c(0), MemMap::horizontal(NU));
    let h = b.arith(VArith::Hadd, acc, acc);
    let mut t = b.arith(VArith::Hadd, h, h);
    for j in full..n {
        let addr = AffineExpr::var(i).scale(n as i64).offset(j as i64);
        let ae = b.load(a, addr, MemMap::scalar());
        let xe = b.load(x, c(j as i64), MemMap::scalar());
        let p = b.arith(VArith::Mul(VWidth::S), ae, xe);
        t = b.arith(VArith::Add(VWidth::S), t, p);
    }
    let idx = AffineExpr::var(i);
    let r = combine_scalar(b, t, scale, y, &idx);
    b.store(r, y, idx, MemMap::scalar());
    b.end_loop();
}
