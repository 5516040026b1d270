//! Lowering BLACs to C-IR kernels.
//!
//! The generator tiles every computation at ν granularity (ν-tiles plus
//! leftover tiles along the edges, §2.1.2), drives the output through
//! row-block × column-chunk loops, and *fuses* element-wise operators
//! (addition, scalar multiplication, MVH) into the consumer's tile loop —
//! the loop-merging that Σ-LL enables (§2.1.3). Multiplications, reductions
//! and transpositions are "barrier" operators: products are computed inline
//! per output tile with their own contraction loops; transposed operands
//! are read through vertical generic loads; operand *expressions* of
//! barriers are materialized into local temporaries first (a computation
//! chain in the sense of Fig. 2.3 — scalar replacement then shortens the
//! chains within each tile body).
//!
//! The §3.3 matrix-vector strategies and the §3.4 specialized leftover
//! ν-BLACs are selected via [`CodegenOptions`].

use lgen_absint::AffineExpr;
use lgen_cir::{ArrayId, Inst, Kernel, KernelBuilder, MemMap, VArith, VMove, VReg, VWidth};
use lgen_isa::VectorIsa;
use lgen_ll::blac::{infer_dims, Blac, Dims, Expr, Operand, OperandId, Structure};
use lgen_ll::TileGrid;
use std::collections::HashMap;

/// Matrix-vector multiplication strategy (§3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MvmStrategy {
    /// Equation (3.7): per tile, the matrix-vector ν-BLAC — multiplies
    /// followed by a horizontal-add tree — accumulated over column blocks.
    Classic,
    /// Equation (3.8): MVH (lane-wise FMA) accumulation over column blocks,
    /// with a single row reduction at the end. Moves the summation between
    /// the ⊙ and the ⊘, trading horizontal adds for normal adds.
    MvhRr,
}

/// Code-generation options.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CodegenOptions {
    /// Target vector ISA.
    pub isa: VectorIsa,
    /// Matrix-vector strategy.
    pub mvm: MvmStrategy,
    /// Use the §3.4 specialized leftover ν-BLACs on NEON: doubleword
    /// operations for narrow tiles and no zero padding of the contraction
    /// dimension.
    pub specialized_leftovers: bool,
    /// §6 future-work loop peeling: generate this body under the assumption
    /// that every parameter array starts `peel_offset` floats past a
    /// 16-byte boundary, peeling `(ν − offset) mod ν` leading elements of
    /// linearly-driven outputs so the main loop runs on aligned boundaries.
    /// `None` = no peeling (the paper's shipped behaviour).
    pub peel_offset: Option<usize>,
}

impl CodegenOptions {
    /// Baseline options: the pre-thesis LGen behaviour (classic MVM, padded
    /// leftovers).
    pub fn new(isa: VectorIsa) -> Self {
        CodegenOptions {
            isa,
            mvm: MvmStrategy::Classic,
            specialized_leftovers: false,
            peel_offset: None,
        }
    }

    /// All thesis optimizations enabled ("LGen-Full" in the plots; the
    /// alignment-detection pass lives in `lgen-cir` and is applied by the
    /// driver in `lgen-core`).
    pub fn full(isa: VectorIsa) -> Self {
        CodegenOptions {
            isa,
            mvm: MvmStrategy::MvhRr,
            specialized_leftovers: true,
            peel_offset: None,
        }
    }
}

/// A materialized operand location: an array holding a (possibly
/// transposed) logical `rows×cols` matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LocInfo {
    arr: ArrayId,
    /// Logical rows.
    rows: usize,
    /// Logical cols.
    cols: usize,
    /// The array stores the transpose of the logical matrix.
    transposed: bool,
    /// Structure of the *logical* matrix (zero-region promise). Locals
    /// and computed values are always [`Structure::General`].
    structure: Structure,
}

impl LocInfo {
    fn plain(arr: ArrayId, d: Dims) -> Self {
        LocInfo {
            arr,
            rows: d.rows,
            cols: d.cols,
            transposed: false,
            structure: Structure::General,
        }
    }

    fn structured(arr: ArrayId, d: Dims, structure: Structure) -> Self {
        LocInfo {
            arr,
            rows: d.rows,
            cols: d.cols,
            transposed: false,
            structure,
        }
    }

    fn flip(self) -> Self {
        LocInfo {
            arr: self.arr,
            rows: self.cols,
            cols: self.rows,
            transposed: !self.transposed,
            structure: self.structure.transposed(),
        }
    }

    /// Physical row length of the backing array.
    fn phys_row_len(self) -> usize {
        if self.transposed {
            self.rows
        } else {
            self.cols
        }
    }
}

/// A fused computation node over output tiles.
#[derive(Clone, Debug)]
enum Node {
    Loc(LocInfo),
    Add(Box<Node>, Box<Node>),
    ScalarMul(VReg, Box<Node>),
    Mvh(Box<Node>, LocInfo),
    Mvm { a: LocInfo, x: LocInfo },
    Mmm { a: LocInfo, b: LocInfo },
    Dot { u: LocInfo, v: LocInfo },
    Rr(LocInfo),
}

/// Tile context handed to node generators.
#[derive(Clone, Debug)]
struct TileCtx {
    /// `true`: the output is a vector/scalar addressed linearly by `row0`;
    /// `rows == 1` and `width` is the chunk length. `false`: matrix mode,
    /// `row0`/`col0` index a `rows×width` tile.
    linear: bool,
    row0: AffineExpr,
    col0: AffineExpr,
    rows: usize,
    width: usize,
}

struct Cg<'a> {
    operands: &'a [Operand],
    opts: CodegenOptions,
    nu: usize,
    b: KernelBuilder,
    operand_arrays: Vec<ArrayId>,
    splats: HashMap<usize, VReg>,
    ntmp: usize,
}

/// Compiles a validated BLAC into an (unoptimized) C-IR kernel.
///
/// The result still contains the full computation chains through local
/// arrays; run the `lgen-cir` pass pipeline (or use `lgen-core`'s driver)
/// to apply unrolling, scalar replacement, DCE and alignment detection.
///
/// # Panics
///
/// Panics if the BLAC does not validate.
///
/// # Example
///
/// ```
/// use lgen_sigma::{compile_blac, CodegenOptions};
/// use lgen_isa::VectorIsa;
///
/// let blac = lgen_ll::paper::mvm(4, 8);
/// let kernel = compile_blac(&blac, "mvm_4x8", &CodegenOptions::full(VectorIsa::Ssse3));
/// assert_eq!(kernel.flops, 2 * 4 * 8);
/// assert_eq!(kernel.arrays.len(), 3); // A, x, y
/// ```
pub fn compile_blac(blac: &Blac, name: &str, opts: &CodegenOptions) -> Kernel {
    blac.validate()
        .expect("BLAC must validate before compilation");
    let mut b = KernelBuilder::new(name);
    let mut operand_arrays = Vec::with_capacity(blac.operands.len());
    for (i, op) in blac.operands.iter().enumerate() {
        let arr = if OperandId(i) == blac.output {
            if blac.output_is_input() {
                b.inout(&op.name, op.dims.len())
            } else {
                b.output(&op.name, op.dims.len())
            }
        } else {
            b.input(&op.name, op.dims.len())
        };
        operand_arrays.push(arr);
    }
    let (b, _) = lower_statement(
        &blac.operands,
        blac.output,
        &blac.expr,
        opts,
        b,
        operand_arrays,
        0,
    );
    b.finish(blac.flops())
}

/// Tiles and drives one statement `output = expr` over a shared operand
/// table into an existing builder — the building block of the program
/// lowering in [`crate::program`]. `operand_arrays` maps every operand id
/// to its array; `ntmp` is the running local-temporary counter (threaded
/// across statements so names stay unique). Returns the builder and the
/// updated counter.
pub(crate) fn lower_statement(
    operands: &[Operand],
    output: OperandId,
    expr: &Expr,
    opts: &CodegenOptions,
    b: KernelBuilder,
    operand_arrays: Vec<ArrayId>,
    ntmp: usize,
) -> (KernelBuilder, usize) {
    let mut cg = Cg {
        operands,
        opts: *opts,
        nu: opts.isa.nu(),
        b,
        operand_arrays,
        splats: HashMap::new(),
        ntmp,
    };
    let node = {
        let _span = lgen_telemetry::span("ll_tiling");
        cg.lower(expr)
    };
    let out = LocInfo::plain(cg.operand_arrays[output.0], operands[output.0].dims);
    {
        let _span = lgen_telemetry::span("sigma_ll_rewrite");
        cg.drive(&node, out);
    }
    (cg.b, cg.ntmp)
}

impl Cg<'_> {
    // ----- lowering of the expression tree -----

    fn dims(&self, e: &Expr) -> Dims {
        infer_dims(self.operands, e).expect("validated")
    }

    fn lower(&mut self, e: &Expr) -> Node {
        match e {
            Expr::Ref(id) => Node::Loc(LocInfo::structured(
                self.operand_arrays[id.0],
                self.operands[id.0].dims,
                self.operands[id.0].structure,
            )),
            Expr::Trans(inner) => {
                let di = self.dims(inner);
                if di.is_vector() || di.is_scalar() {
                    // Vectors of both orientations share the same layout.
                    self.lower(inner)
                } else {
                    Node::Loc(self.loc_of(inner).flip())
                }
            }
            Expr::Add(a, c) => Node::Add(Box::new(self.lower(a)), Box::new(self.lower(c))),
            Expr::Mul(a, c) => {
                let (da, dc) = (self.dims(a), self.dims(c));
                if da.is_scalar() {
                    let s = self.splat_of(a);
                    Node::ScalarMul(s, Box::new(self.lower(c)))
                } else if dc.is_scalar() {
                    let s = self.splat_of(c);
                    Node::ScalarMul(s, Box::new(self.lower(a)))
                } else if da.rows == 1 && dc.cols == 1 {
                    Node::Dot {
                        u: self.loc_of(a),
                        v: self.loc_of(c),
                    }
                } else if dc.cols == 1 {
                    Node::Mvm {
                        a: self.loc_of(a),
                        x: self.loc_of(c),
                    }
                } else if da.rows == 1 {
                    // xᵀ B = (Bᵀ x)ᵀ — a transposed-operand MVM.
                    Node::Mvm {
                        a: self.loc_of(c).flip(),
                        x: self.loc_of(a),
                    }
                } else {
                    Node::Mmm {
                        a: self.loc_of(a),
                        b: self.loc_of(c),
                    }
                }
            }
            Expr::Mvh(a, x) => {
                let xl = self.loc_of(x);
                Node::Mvh(Box::new(self.lower(a)), xl)
            }
            Expr::Rr(a) => Node::Rr(self.loc_of(a)),
        }
    }

    /// Location of an operand expression: direct for (possibly transposed)
    /// references, otherwise materialized into a local temporary.
    fn loc_of(&mut self, e: &Expr) -> LocInfo {
        match e {
            Expr::Ref(id) => LocInfo::structured(
                self.operand_arrays[id.0],
                self.operands[id.0].dims,
                self.operands[id.0].structure,
            ),
            Expr::Trans(inner) => self.loc_of(inner).flip(),
            _ => {
                let d = self.dims(e);
                let node = self.lower(e);
                let name = format!("t{}", self.ntmp);
                self.ntmp += 1;
                let arr = self.b.local(&name, d.len());
                let loc = LocInfo::plain(arr, d);
                self.drive(&node, loc);
                loc
            }
        }
    }

    /// Broadcast register for a scalar expression (hoisted and cached for
    /// scalar operands).
    fn splat_of(&mut self, e: &Expr) -> VReg {
        if let Expr::Ref(id) = e {
            if let Some(&r) = self.splats.get(&id.0) {
                return r;
            }
            let arr = self.operand_arrays[id.0];
            let r = self
                .b
                .load(arr, AffineExpr::constant(0), MemMap::splat(self.nu));
            self.splats.insert(id.0, r);
            return r;
        }
        let loc = self.loc_of(e);
        self.b
            .load(loc.arr, AffineExpr::constant(0), MemMap::splat(self.nu))
    }

    // ----- emission helpers -----

    /// Arithmetic width for a tile of `width` lanes: scalar on the scalar
    /// ISA; doubleword on NEON for narrow tiles when specialized leftover
    /// ν-BLACs are enabled (§3.4); quadword otherwise.
    fn aw(&self, width: usize) -> VWidth {
        if self.nu == 1 {
            VWidth::S
        } else if self.opts.specialized_leftovers && self.opts.isa == VectorIsa::Neon && width <= 2
        {
            VWidth::D
        } else {
            VWidth::Q
        }
    }

    fn chunk_map(&self, width: usize) -> MemMap {
        MemMap::horizontal(width)
    }

    /// Loads `width` elements of row `row`, columns `col..col+width`, of a
    /// (possibly transposed) location.
    fn load_row(&mut self, loc: LocInfo, row: &AffineExpr, col: &AffineExpr, width: usize) -> VReg {
        let p = loc.phys_row_len() as i64;
        if !loc.transposed {
            let addr = row.scale(p).plus(col);
            self.b.load(loc.arr, addr, self.chunk_map(width))
        } else {
            let addr = col.scale(p).plus(row);
            let map = if width == 1 {
                MemMap::scalar()
            } else {
                MemMap::vertical(width, p)
            };
            self.b.load(loc.arr, addr, map)
        }
    }

    /// Loads one element of a location broadcast to all lanes.
    fn load_elem_splat(&mut self, loc: LocInfo, row: &AffineExpr, col: &AffineExpr) -> VReg {
        let p = loc.phys_row_len() as i64;
        let addr = if !loc.transposed {
            row.scale(p).plus(col)
        } else {
            col.scale(p).plus(row)
        };
        self.b.load(loc.arr, addr, MemMap::splat(self.nu))
    }

    /// Loads `width` consecutive elements of a vector location.
    fn load_lin(&mut self, loc: LocInfo, pos: &AffineExpr, width: usize) -> VReg {
        self.b.load(loc.arr, pos.clone(), self.chunk_map(width))
    }

    /// In-place accumulate: `acc += val` (keeps `acc` stable across loop
    /// iterations, unlike the fresh-register [`KernelBuilder::arith`]).
    fn add_acc(&mut self, acc: VReg, val: VReg, w: VWidth) {
        self.b.push(Inst::Arith {
            op: VArith::Add(w),
            dst: acc,
            a: acc,
            b: val,
        });
    }

    /// The contraction support `(klo, khi)` a structured left operand
    /// contributes for output rows `row0..row0+rows` — the structurally
    /// non-zero columns of those rows. Only applies when `row0` is a
    /// compile-time constant (the structured drivers unroll their row
    /// loops to make it one); otherwise the full `(0, n)` range.
    fn contraction_range(&self, a: LocInfo, row0: &AffineExpr, rows: usize) -> (usize, usize) {
        let n = a.cols;
        if !row0.terms.is_empty() || row0.constant < 0 {
            return (0, n);
        }
        let lo = row0.constant as usize;
        a.structure.col_support(lo, lo + rows, n)
    }

    // ----- per-node tile generation -----

    fn gen(&mut self, node: &Node, ctx: &TileCtx) -> Vec<VReg> {
        match node {
            Node::Loc(loc) => {
                if ctx.linear {
                    vec![self.load_lin(*loc, &ctx.row0, ctx.width)]
                } else {
                    (0..ctx.rows)
                        .map(|r| {
                            let row = ctx.row0.offset(r as i64);
                            self.load_row(*loc, &row, &ctx.col0, ctx.width)
                        })
                        .collect()
                }
            }
            Node::Add(a, c) => {
                let ra = self.gen(a, ctx);
                let rc = self.gen(c, ctx);
                let w = self.aw(ctx.width);
                ra.into_iter()
                    .zip(rc)
                    .map(|(x, y)| self.b.arith(VArith::Add(w), x, y))
                    .collect()
            }
            Node::ScalarMul(s, inner) => {
                let regs = self.gen(inner, ctx);
                let w = self.aw(ctx.width);
                let s = *s;
                regs.into_iter()
                    .map(|r| self.b.arith(VArith::Mul(w), r, s))
                    .collect()
            }
            Node::Mvh(a, x) => {
                let regs = self.gen(a, ctx);
                let xk = self.load_lin(*x, &ctx.col0, ctx.width);
                let w = self.aw(ctx.width);
                regs.into_iter()
                    .map(|r| self.b.arith(VArith::Mul(w), r, xk))
                    .collect()
            }
            Node::Mvm { a, x } => self.gen_mvm(*a, *x, ctx),
            Node::Mmm { a, b } => self.gen_mmm(*a, *b, ctx),
            Node::Dot { u, v } => self.gen_dot(*u, *v),
            Node::Rr(a) => self.gen_rr(*a, ctx),
        }
    }

    /// Horizontal-add reduction tree turning per-row accumulators into one
    /// register of row sums (the ⊘ / RR ν-BLAC, Listing 3.7).
    fn hadd_tree(&mut self, accs: &[VReg]) -> VReg {
        debug_assert!(!accs.is_empty() && accs.len() <= 4);
        if self.nu == 1 {
            return accs[0];
        }
        let h0 = if accs.len() >= 2 {
            self.b.arith(VArith::Hadd, accs[0], accs[1])
        } else {
            self.b.arith(VArith::Hadd, accs[0], accs[0])
        };
        let h1 = if accs.len() >= 3 {
            let a3 = if accs.len() >= 4 { accs[3] } else { accs[2] };
            self.b.arith(VArith::Hadd, accs[2], a3)
        } else {
            h0
        };
        self.b.arith(VArith::Hadd, h0, h1)
    }

    /// Matrix-vector product tile: `w = ctx.width` consecutive rows of the
    /// result vector, starting at `ctx.row0`.
    fn gen_mvm(&mut self, a: LocInfo, x: LocInfo, ctx: &TileCtx) -> Vec<VReg> {
        debug_assert!(ctx.linear);
        let w = ctx.width;
        let nu = self.nu;
        let (klo, khi) = self.contraction_range(a, &ctx.row0, w);
        if nu == 1 {
            // Scalar: one dot product per element.
            let acc = self.b.zero();
            let kvar = self.b.begin_loop("k", klo as i64, khi as i64, 1);
            let ae = self.load_row(a, &ctx.row0, &AffineExpr::var(kvar), 1);
            let xe = self.load_lin(x, &AffineExpr::var(kvar), 1);
            self.b.arith_acc(VArith::Fma(VWidth::S), acc, ae, xe);
            self.b.end_loop();
            return vec![acc];
        }

        // Vector blocks cover `k0..khi` (the support rounded down to a ν
        // boundary — head lanes outside the support hold structural zeros
        // and contribute nothing). With no structure this is `0..n`.
        let k0 = klo / nu * nu;
        let span = khi - k0;
        let full = k0 + span / nu * nu;
        let kw0 = nu.min(span);
        match self.opts.mvm {
            MvmStrategy::MvhRr => {
                // Equation (3.8): per-row FMA accumulators, reduced once.
                // First block peeled into plain multiplies (Table 3.2's
                // MN/4 multiplies and M(N/4 − 1) additions).
                let x0 = self.load_lin(x, &AffineExpr::constant(k0 as i64), kw0);
                let mut accs = Vec::with_capacity(w);
                for r in 0..w {
                    let row = ctx.row0.offset(r as i64);
                    let ar = self.load_row(a, &row, &AffineExpr::constant(k0 as i64), kw0);
                    accs.push(self.b.arith(VArith::Mul(VWidth::Q), ar, x0));
                }
                let block = |cg: &mut Self, kb: AffineExpr, kw: usize| {
                    let xk = cg.load_lin(x, &kb, kw);
                    for (r, acc) in accs.iter().enumerate() {
                        let row = ctx.row0.offset(r as i64);
                        let ar = cg.load_row(a, &row, &kb, kw);
                        cg.b.arith_acc(VArith::Fma(VWidth::Q), *acc, ar, xk);
                    }
                };
                if full > k0 + nu {
                    let kv = self
                        .b
                        .begin_loop("kb", (k0 + nu) as i64, full as i64, nu as i64);
                    block(self, AffineExpr::var(kv), nu);
                    self.b.end_loop();
                }
                if !span.is_multiple_of(nu) && span > nu {
                    block(self, AffineExpr::constant(full as i64), span % nu);
                }
                vec![self.hadd_tree(&accs)]
            }
            MvmStrategy::Classic => {
                // Equation (3.7): the hadd-based MVM ν-BLAC per block,
                // accumulated with vector adds.
                let mut acc = None;
                let mut block = |cg: &mut Self, kb: AffineExpr, kw: usize| {
                    let xk = cg.load_lin(x, &kb, kw);
                    let mut muls = Vec::with_capacity(w);
                    for r in 0..w {
                        let row = ctx.row0.offset(r as i64);
                        let ar = cg.load_row(a, &row, &kb, kw);
                        muls.push(cg.b.arith(VArith::Mul(VWidth::Q), ar, xk));
                    }
                    let t = cg.hadd_tree(&muls);
                    match acc {
                        None => acc = Some(t),
                        Some(accr) => cg.add_acc(accr, t, VWidth::Q),
                    }
                };
                block(self, AffineExpr::constant(k0 as i64), kw0);
                if full > k0 + nu {
                    let kv = self
                        .b
                        .begin_loop("kb", (k0 + nu) as i64, full as i64, nu as i64);
                    block(self, AffineExpr::var(kv), nu);
                    self.b.end_loop();
                }
                if !span.is_multiple_of(nu) && span > nu {
                    block(self, AffineExpr::constant(full as i64), span % nu);
                }
                vec![acc.expect("at least one block")]
            }
        }
    }

    /// Matrix-matrix product tile: `ctx.rows × ctx.width` of `A·B`.
    fn gen_mmm(&mut self, a: LocInfo, bm: LocInfo, ctx: &TileCtx) -> Vec<VReg> {
        debug_assert!(!ctx.linear);
        let rows = ctx.rows;
        let width = ctx.width;
        let nu = self.nu;
        let (klo, khi) = self.contraction_range(a, &ctx.row0, rows);

        if nu == 1 {
            let acc = self.b.zero();
            let kv = self.b.begin_loop("k", klo as i64, khi as i64, 1);
            let ae = self.load_row(a, &ctx.row0, &AffineExpr::var(kv), 1);
            let be = self.load_row(bm, &AffineExpr::var(kv), &ctx.col0, 1);
            self.b.arith_acc(VArith::Fma(VWidth::S), acc, ae, be);
            self.b.end_loop();
            return vec![acc];
        }

        let aw = self.aw(width);
        let accs: Vec<VReg> = (0..rows).map(|_| self.b.zero()).collect();

        if self.opts.isa == VectorIsa::Ssse3 {
            // Broadcast-element form: acc_r += B[k][·] * A[r][k].
            let kv = self.b.begin_loop("k", klo as i64, khi as i64, 1);
            let ke = AffineExpr::var(kv);
            let bk = self.load_row(bm, &ke, &ctx.col0, width);
            for (r, acc) in accs.iter().enumerate() {
                let row = ctx.row0.offset(r as i64);
                let asp = self.load_elem_splat(a, &row, &ke);
                self.b.arith_acc(VArith::Fma(VWidth::Q), *acc, bk, asp);
            }
            self.b.end_loop();
            return accs;
        }

        // NEON lane form: load 4 A elements per row at once, then FMA by
        // lane — no shuffles (§2.2.2). Blocks cover `k0..khi`, the
        // structured support rounded down to a ν boundary (`0..kdim` when
        // unstructured).
        let specialized = self.opts.specialized_leftovers;
        let k0 = klo / nu * nu;
        let span = khi - k0;
        let kfull = k0 + span / nu * nu;
        // The old padded ν-BLACs embed leftover tiles into full ν-sized
        // registers before computing: explicit zeros and register moves
        // that survive compilation (Listing 3.9's vmov.i32/vorr), and all
        // ν lanes processed. Specialized ν-BLACs (Listing 3.10) touch only
        // the live lanes with doubleword operations.
        let pad_zero = if !specialized && (width < nu || !span.is_multiple_of(nu)) {
            Some(self.b.zero())
        } else {
            None
        };
        let block = |cg: &mut Self, kb: AffineExpr, klen: usize| {
            let avecs: Vec<VReg> = (0..rows)
                .map(|r| {
                    let row = ctx.row0.offset(r as i64);
                    let v = cg.load_row(a, &row, &kb, klen);
                    match pad_zero {
                        Some(z) if klen < nu => cg.b.mov_op(VMove::Shuf([0, 1, 2, 3]), v, z),
                        _ => v,
                    }
                })
                .collect();
            let lanes = if specialized { klen } else { nu };
            for l in 0..lanes {
                let bl = if l < klen {
                    let brow = kb.offset(l as i64);
                    let v = cg.load_row(bm, &brow, &ctx.col0, width);
                    match pad_zero {
                        Some(z) if width < nu => cg.b.mov_op(VMove::Shuf([0, 1, 2, 3]), v, z),
                        _ => v,
                    }
                } else {
                    cg.b.zero()
                };
                for (r, acc) in accs.iter().enumerate() {
                    cg.b.arith_acc(VArith::FmaLane(aw, l as u8), *acc, bl, avecs[r]);
                }
            }
        };
        if kfull > k0 {
            let kv = self.b.begin_loop("kb", k0 as i64, kfull as i64, nu as i64);
            block(self, AffineExpr::var(kv), nu);
            self.b.end_loop();
        }
        if !span.is_multiple_of(nu) {
            block(self, AffineExpr::constant(kfull as i64), span % nu);
        }
        accs
    }

    /// Inner product of two vectors of equal length; result in lane 0.
    fn gen_dot(&mut self, u: LocInfo, v: LocInfo) -> Vec<VReg> {
        let len = u.rows * u.cols;
        let nu = self.nu;
        let acc = self.b.zero();
        if nu == 1 {
            let kv = self.b.begin_loop("k", 0, len as i64, 1);
            let ue = self.load_lin(u, &AffineExpr::var(kv), 1);
            let ve = self.load_lin(v, &AffineExpr::var(kv), 1);
            self.b.arith_acc(VArith::Fma(VWidth::S), acc, ue, ve);
            self.b.end_loop();
            return vec![acc];
        }
        let full = len / nu * nu;
        if full > 0 {
            let kv = self.b.begin_loop("kb", 0, full as i64, nu as i64);
            let ue = self.load_lin(u, &AffineExpr::var(kv), nu);
            let ve = self.load_lin(v, &AffineExpr::var(kv), nu);
            self.b.arith_acc(VArith::Fma(VWidth::Q), acc, ue, ve);
            self.b.end_loop();
        }
        if !len.is_multiple_of(nu) {
            let ue = self.load_lin(u, &AffineExpr::constant(full as i64), len % nu);
            let ve = self.load_lin(v, &AffineExpr::constant(full as i64), len % nu);
            self.b.arith_acc(VArith::Fma(VWidth::Q), acc, ue, ve);
        }
        let h = self.b.arith(VArith::Hadd, acc, acc);
        vec![self.b.arith(VArith::Hadd, h, h)]
    }

    /// Row reduction ⊘A for `ctx.width` consecutive rows.
    fn gen_rr(&mut self, a: LocInfo, ctx: &TileCtx) -> Vec<VReg> {
        debug_assert!(ctx.linear);
        let w = ctx.width;
        let nu = self.nu;
        let (klo, khi) = self.contraction_range(a, &ctx.row0, w);
        if nu == 1 {
            let acc = self.b.zero();
            let kv = self.b.begin_loop("k", klo as i64, khi as i64, 1);
            let ae = self.load_row(a, &ctx.row0, &AffineExpr::var(kv), 1);
            self.add_acc(acc, ae, VWidth::S);
            self.b.end_loop();
            return vec![acc];
        }
        let k0 = klo / nu * nu;
        let span = khi - k0;
        let full = k0 + span / nu * nu;
        let kw0 = nu.min(span);
        let mut accs = Vec::with_capacity(w);
        for r in 0..w {
            let row = ctx.row0.offset(r as i64);
            accs.push(self.load_row(a, &row, &AffineExpr::constant(k0 as i64), kw0));
        }
        let block = |cg: &mut Self, kb: AffineExpr, kw: usize| {
            for (r, acc) in accs.iter().enumerate() {
                let row = ctx.row0.offset(r as i64);
                let ar = cg.load_row(a, &row, &kb, kw);
                cg.add_acc(*acc, ar, VWidth::Q);
            }
        };
        if full > k0 + nu {
            let kv = self
                .b
                .begin_loop("kb", (k0 + nu) as i64, full as i64, nu as i64);
            block(self, AffineExpr::var(kv), nu);
            self.b.end_loop();
        }
        if !span.is_multiple_of(nu) && span > nu {
            block(self, AffineExpr::constant(full as i64), span % nu);
        }
        vec![self.hadd_tree(&accs)]
    }

    // ----- output drivers -----

    /// Whether a node is purely element-wise over plainly-stored operands,
    /// so a matrix output can be driven over its row-major layout as one
    /// linear sweep (fewer loop levels, no per-row column leftovers).
    fn is_elementwise(node: &Node) -> bool {
        match node {
            Node::Loc(l) => !l.transposed,
            Node::Add(a, b) => Self::is_elementwise(a) && Self::is_elementwise(b),
            Node::ScalarMul(_, inner) => Self::is_elementwise(inner),
            _ => false,
        }
    }

    /// Whether a node contains a contraction whose left operand has a
    /// zero region ([`Structure::col_support`] is a real restriction). The
    /// drivers then unroll their output row loops so every tile sees a
    /// constant row index and [`Cg::contraction_range`] can shrink the
    /// contraction.
    fn structure_restricts(node: &Node) -> bool {
        let skippable = |s: Structure| {
            matches!(
                s,
                Structure::LowerTriangular | Structure::UpperTriangular | Structure::Diagonal
            )
        };
        match node {
            Node::Loc(_) => false,
            Node::Add(a, b) => Self::structure_restricts(a) || Self::structure_restricts(b),
            Node::ScalarMul(_, inner) => Self::structure_restricts(inner),
            Node::Mvh(a, _) => Self::structure_restricts(a),
            Node::Mvm { a, .. } | Node::Mmm { a, .. } | Node::Rr(a) => skippable(a.structure),
            Node::Dot { .. } => false,
        }
    }

    /// Emits the loops computing `node` into `dest`.
    fn drive(&mut self, node: &Node, dest: LocInfo) {
        let d = Dims::new(dest.rows, dest.cols);
        let nu = self.nu;
        if d.is_scalar() || d.is_vector() || Self::is_elementwise(node) {
            let len = d.len();
            // §6-style loop peeling: shift the chunk boundaries so the main
            // loop is aligned under this version's base-offset assumption.
            let peel = match self.opts.peel_offset {
                Some(off) if nu > 1 => ((nu - off % nu) % nu).min(len),
                _ => 0,
            };
            if peel > 0 {
                let ctx = TileCtx {
                    linear: true,
                    row0: AffineExpr::constant(0),
                    col0: AffineExpr::constant(0),
                    rows: 1,
                    width: peel,
                };
                let regs = self.gen(node, &ctx);
                self.b.store(
                    regs[0],
                    dest.arr,
                    AffineExpr::constant(0),
                    self.chunk_map(peel),
                );
            }
            let main_len = len - peel;
            let full = peel + main_len / nu * nu;
            if full - peel >= nu {
                if Self::structure_restricts(node) {
                    // Unrolled chunks: each tile gets a constant position,
                    // letting the contraction generators skip the
                    // structurally-zero region per chunk.
                    for p in (peel..full).step_by(nu) {
                        let ctx = TileCtx {
                            linear: true,
                            row0: AffineExpr::constant(p as i64),
                            col0: AffineExpr::constant(0),
                            rows: 1,
                            width: nu,
                        };
                        let regs = self.gen(node, &ctx);
                        self.b.store(
                            regs[0],
                            dest.arr,
                            AffineExpr::constant(p as i64),
                            self.chunk_map(nu),
                        );
                    }
                } else {
                    let pv = self.b.begin_loop("p", peel as i64, full as i64, nu as i64);
                    let ctx = TileCtx {
                        linear: true,
                        row0: AffineExpr::var(pv),
                        col0: AffineExpr::constant(0),
                        rows: 1,
                        width: nu,
                    };
                    let regs = self.gen(node, &ctx);
                    self.b
                        .store(regs[0], dest.arr, AffineExpr::var(pv), self.chunk_map(nu));
                    self.b.end_loop();
                }
            }
            if len % nu != peel % nu || (len - full) > 0 {
                let tail = len - full;
                if tail > 0 {
                    let ctx = TileCtx {
                        linear: true,
                        row0: AffineExpr::constant(full as i64),
                        col0: AffineExpr::constant(0),
                        rows: 1,
                        width: tail,
                    };
                    let regs = self.gen(node, &ctx);
                    self.b.store(
                        regs[0],
                        dest.arr,
                        AffineExpr::constant(full as i64),
                        self.chunk_map(tail),
                    );
                }
            }
        } else {
            // ν-tiling of the output rows (§2.1.2): full row blocks in a
            // loop, the leftover block peeled.
            let (m, n) = (d.rows, d.cols);
            let rows = TileGrid::new(m, nu);
            if rows.full >= 1 {
                if Self::structure_restricts(node) {
                    // Unrolled row blocks: constant row indices let the
                    // contraction generators skip structurally-zero
                    // columns of annotated operands per block.
                    for rb in (0..rows.leftover_start()).step_by(nu) {
                        self.drive_rows(node, dest, AffineExpr::constant(rb as i64), nu, n);
                    }
                } else {
                    let rv = self
                        .b
                        .begin_loop("rb", 0, rows.leftover_start() as i64, nu as i64);
                    self.drive_rows(node, dest, AffineExpr::var(rv), nu, n);
                    self.b.end_loop();
                }
            }
            if rows.leftover > 0 {
                self.drive_rows(
                    node,
                    dest,
                    AffineExpr::constant(rows.leftover_start() as i64),
                    rows.leftover,
                    n,
                );
            }
        }
    }

    /// One row block: sweep the columns (full ν-tiles in a loop, the
    /// leftover columns peeled).
    fn drive_rows(&mut self, node: &Node, dest: LocInfo, row0: AffineExpr, rows: usize, n: usize) {
        let nu = self.nu;
        let cols = TileGrid::new(n, nu);
        let cfull = cols.leftover_start();
        let store_tile =
            |cg: &mut Self, regs: &[VReg], row0: &AffineExpr, col0: &AffineExpr, w: usize| {
                for (r, reg) in regs.iter().enumerate() {
                    let addr = row0.offset(r as i64).scale(n as i64).plus(col0);
                    cg.b.store(*reg, dest.arr, addr, cg.chunk_map(w));
                }
            };
        if cfull >= nu {
            let cv = self.b.begin_loop("cb", 0, cfull as i64, nu as i64);
            let ctx = TileCtx {
                linear: false,
                row0: row0.clone(),
                col0: AffineExpr::var(cv),
                rows,
                width: nu,
            };
            let regs = self.gen(node, &ctx);
            store_tile(self, &regs, &row0, &AffineExpr::var(cv), nu);
            self.b.end_loop();
        }
        if !n.is_multiple_of(nu) {
            let ctx = TileCtx {
                linear: false,
                row0: row0.clone(),
                col0: AffineExpr::constant(cfull as i64),
                rows,
                width: n % nu,
            };
            let regs = self.gen(node, &ctx);
            store_tile(
                self,
                &regs,
                &row0,
                &AffineExpr::constant(cfull as i64),
                n % nu,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgen_cir::{run_kernel, MemLayout};
    use lgen_isa::inst::{CountingSink, NullSink};
    use lgen_isa::MOp;
    use lgen_ll::paper;
    use lgen_ll::reference::{eval_reference, max_abs_diff, test_data, MatrixValue};

    /// Compiles and executes a BLAC, comparing against the naive reference
    /// (the §5.1.4 validation).
    fn check(blac: &Blac, opts: &CodegenOptions) {
        let kernel = compile_blac(blac, "k", opts);
        let values: Vec<MatrixValue> = blac
            .operands
            .iter()
            .enumerate()
            .map(|(i, op)| test_data(op.dims, i as u64 + 1))
            .collect();
        let expected = eval_reference(blac, &values);
        let mut bufs: Vec<Vec<f32>> = values.iter().map(|v| v.data.clone()).collect();
        let layout = MemLayout::aligned(&kernel);
        {
            let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            run_kernel(&kernel, &mut refs, &layout, opts.isa, &mut NullSink)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        }
        let got = MatrixValue::new(blac.dims(blac.output), bufs[blac.output.0].clone());
        let tol = 1e-4 + 1e-6 * blac.flops() as f32;
        let diff = max_abs_diff(&got, &expected);
        assert!(
            diff < tol,
            "{} on {:?} (mvm {:?}, spec {}): diff {diff} > {tol}",
            kernel.name,
            opts.isa,
            opts.mvm,
            opts.specialized_leftovers
        );
    }

    fn all_option_combos() -> Vec<CodegenOptions> {
        let mut v = Vec::new();
        for isa in [VectorIsa::Ssse3, VectorIsa::Neon, VectorIsa::Scalar] {
            for mvm in [MvmStrategy::Classic, MvmStrategy::MvhRr] {
                for spec in [false, true] {
                    v.push(CodegenOptions {
                        isa,
                        mvm,
                        specialized_leftovers: spec,
                        peel_offset: None,
                    });
                }
            }
        }
        v
    }

    #[test]
    fn paper_blacs_correct_on_all_isas_exact_sizes() {
        let blacs = [
            paper::mvm(4, 8),
            paper::mmm(4, 4, 4),
            paper::axpy(16),
            paper::gemv(4, 8),
            paper::gemm(4, 8, 4),
            paper::two_gemv(4, 8),
            paper::bilinear(4, 8),
            paper::addt_gemm(8, 4, 4),
            paper::madd(8, 8),
            paper::transpose(4, 8),
        ];
        for blac in &blacs {
            for opts in all_option_combos() {
                check(blac, &opts);
            }
        }
    }

    #[test]
    fn paper_blacs_correct_with_leftovers() {
        let blacs = [
            paper::mvm(6, 10),
            paper::mvm(3, 5),
            paper::mmm(5, 7, 3),
            paper::mmm(2, 2, 2),
            paper::axpy(13),
            paper::gemv(30, 11),
            paper::gemm(3, 9, 6),
            paper::two_gemv(5, 9),
            paper::bilinear(7, 6),
            paper::addt_gemm(9, 5, 6),
            paper::madd(6, 7),
            paper::transpose(5, 6),
        ];
        for blac in &blacs {
            for opts in all_option_combos() {
                check(blac, &opts);
            }
        }
    }

    #[test]
    fn larger_panel_shapes_correct() {
        for blac in [
            paper::mvm(4, 100),
            paper::mvm(101, 4),
            paper::gemm(4, 50, 4),
            paper::mmm(33, 4, 33),
        ] {
            for isa in [VectorIsa::Ssse3, VectorIsa::Neon] {
                check(&blac, &CodegenOptions::new(isa));
                check(&blac, &CodegenOptions::full(isa));
            }
        }
    }

    /// Table 3.2, verified on the dynamic trace: exact multiply / add /
    /// hadd counts for both MVM strategies on x86 (M = 8, N = 16).
    #[test]
    fn table_3_2_operation_counts() {
        let (m, n) = (8usize, 16usize);
        let blac = paper::mvm(m, n);
        let count = |strategy: MvmStrategy| {
            let opts = CodegenOptions {
                isa: VectorIsa::Ssse3,
                mvm: strategy,
                specialized_leftovers: false,
                peel_offset: None,
            };
            let kernel = compile_blac(&blac, "mvm", &opts);
            let mut a = vec![0.5f32; m * n];
            let mut x = vec![0.5f32; n];
            let mut y = vec![0.0f32; m];
            let layout = MemLayout::aligned(&kernel);
            let mut sink = CountingSink::new();
            run_kernel(
                &kernel,
                &mut [&mut a, &mut x, &mut y],
                &layout,
                VectorIsa::Ssse3,
                &mut sink,
            )
            .unwrap();
            (
                sink.count(MOp::MmMulPs),
                sink.count(MOp::MmAddPs),
                sink.count(MOp::MmHaddPs),
            )
        };
        let (mul_old, add_old, hadd_old) = count(MvmStrategy::Classic);
        let (mul_new, add_new, hadd_new) = count(MvmStrategy::MvhRr);
        let (m64, n64) = (m as u64, n as u64);
        // Old: MN/4 muls, (M/4)(N/4−1) adds, 3MN/16 hadds.
        assert_eq!(mul_old, m64 * n64 / 4);
        assert_eq!(add_old, (m64 / 4) * (n64 / 4 - 1));
        assert_eq!(hadd_old, 3 * m64 * n64 / 16);
        // New: MN/4 muls, M(N/4−1) adds, 3M/4 hadds.
        assert_eq!(mul_new, m64 * n64 / 4);
        assert_eq!(add_new, m64 * (n64 / 4 - 1));
        assert_eq!(hadd_new, 3 * m64 / 4);
        // Same total arithmetic, different mix.
        assert_eq!(mul_old + add_old + hadd_old, (m64 / 4) * (2 * n64 - 1));
        assert_eq!(mul_new + add_new + hadd_new, (m64 / 4) * (2 * n64 - 1));
    }

    /// §3.4: the specialized leftover ν-BLACs use doubleword FMAs and no
    /// zero padding on a 2×2×2 product; the padded path uses quadword FMAs
    /// and explicit zero loads (Listing 3.9 vs 3.10).
    #[test]
    fn specialized_nu_blacs_change_instruction_mix() {
        let blac = paper::mmm(2, 2, 2);
        let trace = |spec: bool| {
            let opts = CodegenOptions {
                isa: VectorIsa::Neon,
                mvm: MvmStrategy::MvhRr,
                specialized_leftovers: spec,
                peel_offset: None,
            };
            let kernel = compile_blac(&blac, "mmm222", &opts);
            let mut a = vec![1.0f32; 4];
            let mut b = vec![1.0f32; 4];
            let mut c = vec![0.0f32; 4];
            let layout = MemLayout::aligned(&kernel);
            let mut sink = CountingSink::new();
            run_kernel(
                &kernel,
                &mut [&mut a, &mut b, &mut c],
                &layout,
                VectorIsa::Neon,
                &mut sink,
            )
            .unwrap();
            sink
        };
        let padded = trace(false);
        let special = trace(true);
        // Padded: 4 quadword lane-FMAs per row (2 on zeros), zero loads.
        assert!(padded.count(MOp::VmlaLaneQ) > 0);
        assert!(padded.count(MOp::Vzero) > 0);
        assert_eq!(padded.count(MOp::VmlaLaneD), 0);
        // Specialized: doubleword lane-FMAs only, no zero padding.
        assert!(special.count(MOp::VmlaLaneD) > 0);
        assert_eq!(special.count(MOp::VmlaLaneQ), 0);
        // Strictly fewer dynamic instructions.
        assert!(
            special.total() < padded.total(),
            "{} vs {}",
            special.total(),
            padded.total()
        );
    }

    /// The fusion property: y = αAx + βy compiles to a single sweep with no
    /// local temporary arrays at all.
    #[test]
    fn gemv_is_fully_fused() {
        let kernel = compile_blac(
            &paper::gemv(8, 12),
            "gemv",
            &CodegenOptions::full(VectorIsa::Ssse3),
        );
        assert!(
            kernel
                .arrays
                .iter()
                .all(|a| a.kind != lgen_cir::ArrayKind::Local),
            "gemv must not materialize temporaries: {:?}",
            kernel.arrays
        );
    }

    /// Barrier operands materialize: C = α(A0+A1)ᵀB + βC stages A0+A1.
    #[test]
    fn addt_gemm_materializes_the_sum() {
        let kernel = compile_blac(
            &paper::addt_gemm(8, 4, 4),
            "k",
            &CodegenOptions::full(VectorIsa::Ssse3),
        );
        let locals = kernel
            .arrays
            .iter()
            .filter(|a| a.kind == lgen_cir::ArrayKind::Local)
            .count();
        assert_eq!(locals, 1);
    }

    /// Transposed operands are read through vertical generic loads, not
    /// materialized (C = Aᵀ has no temporaries).
    #[test]
    fn transpose_reads_columns_directly() {
        let kernel = compile_blac(
            &paper::transpose(8, 8),
            "t",
            &CodegenOptions::new(VectorIsa::Ssse3),
        );
        assert!(kernel
            .arrays
            .iter()
            .all(|a| a.kind != lgen_cir::ArrayKind::Local));
    }

    #[test]
    fn misaligned_inputs_still_correct() {
        let blac = paper::gemv(6, 10);
        let opts = CodegenOptions::full(VectorIsa::Ssse3);
        let kernel = compile_blac(&blac, "k", &opts);
        let values: Vec<MatrixValue> = blac
            .operands
            .iter()
            .enumerate()
            .map(|(i, op)| test_data(op.dims, i as u64 + 9))
            .collect();
        let expected = eval_reference(&blac, &values);
        let mut bufs: Vec<Vec<f32>> = values.iter().map(|v| v.data.clone()).collect();
        // Offset every parameter array by a different sub-vector amount.
        let layout = MemLayout::with_float_offsets(&kernel, &[1, 0, 2, 3, 1]);
        {
            let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            run_kernel(&kernel, &mut refs, &layout, opts.isa, &mut NullSink).unwrap();
        }
        let got = MatrixValue::new(blac.dims(blac.output), bufs[blac.output.0].clone());
        assert!(max_abs_diff(&got, &expected) < 1e-3);
    }
}
