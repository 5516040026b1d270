//! The C-IR body: arena-allocated instructions.
//!
//! A kernel version holds its body as one [`Arena`] plus a root
//! [`BlockId`] ([`crate::ir::KernelVersion`]). Codegen emits into it
//! through [`crate::KernelBuilder`], every optimization rewrites it in
//! place, and the interpreter, verifier, unparser, codec and static
//! analyses read it where it stands — there is no second form to convert
//! to:
//!
//! * instructions are [`AInst`] — a `Copy` enum addressed by dense
//!   [`InstId`]s; loop bodies are [`BlockId`]s into a table of
//!   `Vec<InstId>` index arrays, so passes are linear sweeps that splice
//!   id lists instead of rebuilding trees;
//! * loop-variable names are interned [`Sym`]s in a per-arena
//!   [`SymTable`];
//! * affine address expressions live in a shared side-table
//!   ([`ExprPool`]) of **interned**, deduplicated [`AffineExpr`] forms
//!   with small-vector inline term storage (`TermVec`) — expression
//!   equality (the scalar-replacement footprint test) becomes an
//!   [`ExprId`] comparison;
//! * memory maps are interned in a [`MapPool`] the same way.
//!
//! Interning is sound because [`AffineExpr`] is normalized on
//! construction (terms sorted by variable, coefficients nonzero — see
//! `lgen-absint`): structurally equal expressions have equal
//! representations, so one pooled form stands for all of them. Pooled
//! forms are shared by every instruction that uses them, so a rewrite
//! interns a new form ([`Arena::offset_access`]) and never edits one.
//!
//! Passes unlink instructions from blocks but never compact the tables,
//! so an arena may hold unreachable instructions. Everything that reads a
//! body — [`Arena::visit`], kernel equality and static size,
//! [`fingerprint`](Arena::fingerprint) — walks the program reachable from
//! the root.
//!
//! The code-level optimizations are sweeps over this form, each with
//! *explicit* change tracking — no clone-and-compare: loop unrolling
//! ([`unroll_block`], and [`unroll_statements`] for a per-statement
//! genome), scalar replacement ([`scalar_replacement_block`]), copy
//! propagation ([`copy_prop_block`]), dead-code elimination
//! ([`dce_block`]) and alignment detection ([`align_block`], which also
//! renders every version of [`crate::passes::version_for_alignment`]).
//! The pass manager ([`crate::PassPipeline`]) schedules them by name.
//!
//! [`fingerprint`](Arena::fingerprint) hashes the reachable program
//! content-addressed (interned ids are resolved through the pools), which
//! is what the cross-candidate memoization in `lgen-core` keys on.

use crate::ir::{ArrayDecl, ArrayId, ArrayKind, OverheadKind, VArith, VMove, VReg};
use crate::map::MemMap;
use crate::passes::align::ALIGN_CLASSES;
use crate::passes::{UnrollDecision, UnrollPolicy};
use lgen_absint::{
    eval_affine, loop_index_value, AbstractDomain, AffineExpr, IntervalCongruence, LoopSpec, VarId,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Interned loop-variable name (index into the arena's [`SymTable`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Sym(pub u32);

/// Interned affine expression (index into the arena's [`ExprPool`]).
///
/// Because the pool deduplicates, `ExprId` equality *is* structural
/// expression equality.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct ExprId(pub u32);

/// Interned memory map (index into the arena's [`MapPool`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MapId(pub u32);

/// Dense instruction index into [`Arena::insts`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct InstId(pub u32);

/// Index of a straight-line block (a `Vec<InstId>`) in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct BlockId(pub u32);

/// Number of affine terms stored inline before spilling to the heap.
/// Addresses have at most one term per enclosing loop variable; LGen
/// nests are 2–3 deep, so 4 inline slots cover everything in practice.
const INLINE_TERMS: usize = 4;

/// Small-vector term storage: up to `INLINE_TERMS` `(coeff, var)`
/// pairs inline, heap spill beyond that.
#[derive(Clone, Debug)]
pub(crate) struct TermVec {
    len: u32,
    inline: [(i64, VarId); INLINE_TERMS],
    spill: Vec<(i64, VarId)>,
}

impl TermVec {
    fn from_slice(terms: &[(i64, VarId)]) -> Self {
        Self::concat(terms, &[])
    }

    /// `head` followed by `tail`, inline when they fit (no allocation).
    fn concat(head: &[(i64, VarId)], tail: &[(i64, VarId)]) -> Self {
        let len = head.len() + tail.len();
        if len <= INLINE_TERMS {
            let mut inline = [(0i64, 0usize); INLINE_TERMS];
            inline[..head.len()].copy_from_slice(head);
            inline[head.len()..len].copy_from_slice(tail);
            TermVec {
                len: len as u32,
                inline,
                spill: Vec::new(),
            }
        } else {
            TermVec {
                len: len as u32,
                inline: [(0, 0); INLINE_TERMS],
                spill: [head, tail].concat(),
            }
        }
    }

    /// The terms as a slice, sorted by variable id.
    pub fn as_slice(&self) -> &[(i64, VarId)] {
        if self.len as usize <= INLINE_TERMS {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

/// One pooled affine expression: normalized terms plus constant.
#[derive(Clone, Debug)]
struct ExprData {
    constant: i64,
    terms: TermVec,
}

/// Ends a collision chain in [`ExprPool`] (and a def/store chain in
/// [`dce_block`]'s tables).
const NO_ID: u32 = u32::MAX;

/// Hasher for keys that already are 64-bit content hashes: passes the
/// value through instead of hashing it a second time. FNV mixes upward,
/// so the high half is folded into the low bits the table indexes by.
/// Keys hash expressions the compiler built, and a collision costs a
/// longer chain walk, never a wrong id.
#[derive(Clone, Copy, Debug, Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | b as u64;
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v ^ (v >> 32);
    }
}

/// The shared affine-expression side-table: deduplicated, append-only.
#[derive(Clone, Debug, Default)]
pub struct ExprPool {
    exprs: Vec<ExprData>,
    /// Per pooled id, the previously pooled id with the same content hash
    /// ([`NO_ID`] ends the chain).
    chain: Vec<u32>,
    /// content hash → most recently pooled id with that hash.
    heads: HashMap<u64, u32, BuildHasherDefault<PassThroughHasher>>,
}

fn hash_expr(constant: i64, terms: &[(i64, VarId)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(constant as u64);
    for &(c, v) in terms {
        mix(c as u64);
        mix(v as u64);
    }
    h
}

impl ExprPool {
    /// Interns the normalized form `(constant, terms)`; returns the
    /// canonical id (existing or freshly pooled).
    fn intern(&mut self, constant: i64, terms: &[(i64, VarId)]) -> ExprId {
        debug_assert!(
            terms.iter().all(|t| t.0 != 0) && terms.windows(2).all(|w| w[0].1 < w[1].1),
            "expressions must be normalized before interning: {terms:?}"
        );
        let head = self
            .heads
            .entry(hash_expr(constant, terms))
            .or_insert(NO_ID);
        let mut cur = *head;
        while cur != NO_ID {
            let e = &self.exprs[cur as usize];
            if e.constant == constant && e.terms.as_slice() == terms {
                return ExprId(cur);
            }
            cur = self.chain[cur as usize];
        }
        let id = self.exprs.len() as u32;
        self.chain.push(*head);
        *head = id;
        self.exprs.push(ExprData {
            constant,
            terms: TermVec::from_slice(terms),
        });
        ExprId(id)
    }

    /// The constant term of `id`.
    pub fn constant(&self, id: ExprId) -> i64 {
        self.exprs[id.0 as usize].constant
    }

    /// The `(coeff, var)` terms of `id`, sorted by variable.
    pub fn terms(&self, id: ExprId) -> &[(i64, VarId)] {
        self.exprs[id.0 as usize].terms.as_slice()
    }

    /// Number of distinct pooled expressions.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }
}

/// Interned memory maps (the map set of a kernel is tiny: a handful of
/// horizontal/vertical/splat shapes).
#[derive(Clone, Debug, Default)]
pub struct MapPool {
    maps: Vec<MemMap>,
    intern: HashMap<MemMap, MapId>,
}

impl MapPool {
    fn intern(&mut self, map: &MemMap) -> MapId {
        if let Some(&id) = self.intern.get(map) {
            return id;
        }
        let id = MapId(self.maps.len() as u32);
        self.maps.push(map.clone());
        self.intern.insert(map.clone(), id);
        id
    }

    /// Resolves an interned map.
    pub fn get(&self, id: MapId) -> &MemMap {
        &self.maps[id.0 as usize]
    }
}

/// Interned strings (loop-variable names).
#[derive(Clone, Debug, Default)]
pub struct SymTable {
    names: Vec<String>,
    intern: HashMap<String, Sym>,
}

impl SymTable {
    fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.intern.get(name) {
            return s;
        }
        let s = Sym(self.names.len() as u32);
        self.names.push(name.to_string());
        self.intern.insert(name.to_string(), s);
        s
    }

    /// Resolves an interned name.
    pub fn get(&self, s: Sym) -> &str {
        &self.names[s.0 as usize]
    }
}

/// A C-IR instruction: `Copy`, with every heap-bearing operand (address,
/// memory map, loop name) an interned id into its [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AInst {
    /// Generic load (§3.1): gathers the elements described by `map`,
    /// relative to `base + addr` (both in floats), into `dst`; unmapped
    /// lanes become zero.
    GLoad {
        /// Destination register.
        dst: VReg,
        /// Source array.
        arr: ArrayId,
        /// Interned affine address in floats, over enclosing loop
        /// variables.
        addr: ExprId,
        /// Interned offset→lane map.
        map: MapId,
        /// Set by alignment detection (§3.2): the access is provably
        /// 16-byte aligned, so an aligned instruction may be used.
        aligned: bool,
    },
    /// Generic store: scatters lanes of `src` per `map`.
    GStore {
        /// Source register.
        src: VReg,
        /// Destination array.
        arr: ArrayId,
        /// Interned affine address in floats.
        addr: ExprId,
        /// Interned offset→lane map.
        map: MapId,
        /// Set by alignment detection.
        aligned: bool,
    },
    /// `dst = op(a, b)` (or `dst op= …` for accumulating ops).
    Arith {
        /// Operation.
        op: VArith,
        /// Destination (also read when `VArith::reads_dst`).
        dst: VReg,
        /// First source.
        a: VReg,
        /// Second source.
        b: VReg,
    },
    /// Register move / lane manipulation.
    Move {
        /// Operation.
        op: VMove,
        /// Destination.
        dst: VReg,
        /// Primary source (ignored by `Zero`).
        a: VReg,
        /// Secondary source (used by `Shuf`, `SetLane`).
        b: VReg,
    },
    /// Bookkeeping overhead charged to the schedule without touching data:
    /// library-call dispatch, per-access address arithmetic of runtime-size
    /// ("gen") code, packing-loop control, … Used by the competitor models
    /// in `lgen-baselines`.
    Overhead {
        /// What kind of overhead.
        kind: OverheadKind,
        /// How many overhead instructions to charge.
        count: u16,
    },
    /// A counted loop; the variable is usable in nested affine addresses.
    Loop {
        /// Loop variable id (dense, kernel-wide).
        var: VarId,
        /// Interned variable name, for unparsing.
        name: Sym,
        /// Start value.
        start: i64,
        /// Exclusive bound.
        end: i64,
        /// Step (positive).
        step: i64,
        /// Body block.
        body: BlockId,
    },
}

/// A kernel body's storage: flat instruction and block tables plus the
/// interning pools. [`crate::KernelBuilder`] fills it, the passes mutate
/// it in place, and a [`crate::ir::KernelVersion`] names the root block.
#[derive(Clone, Debug, Default)]
pub struct Arena {
    /// All instructions, unlinked ones included (passes splice id lists;
    /// they never compact this table).
    pub insts: Vec<AInst>,
    /// Straight-line blocks as index arrays. Block ids are stable;
    /// the id vectors are what passes rewrite.
    pub blocks: Vec<Vec<InstId>>,
    /// Shared affine-expression side-table.
    pub exprs: ExprPool,
    /// Interned memory maps.
    pub maps: MapPool,
    /// Interned loop-variable names.
    pub syms: SymTable,
}

impl Arena {
    /// The instruction ids of a block, in program order.
    pub fn block(&self, b: BlockId) -> &[InstId] {
        &self.blocks[b.0 as usize]
    }

    /// Resolves one instruction id.
    pub fn inst(&self, id: InstId) -> &AInst {
        &self.insts[id.0 as usize]
    }

    /// Appends an instruction (linked into no block yet).
    pub(crate) fn push(&mut self, inst: AInst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        id
    }

    /// Appends a block of already pushed instructions.
    pub(crate) fn push_block(&mut self, ids: Vec<InstId>) -> BlockId {
        let b = BlockId(self.blocks.len() as u32);
        self.blocks.push(ids);
        b
    }

    /// Interns an [`AffineExpr`] (which is normalized by construction).
    pub(crate) fn intern_expr(&mut self, e: &AffineExpr) -> ExprId {
        self.exprs.intern(e.constant, &e.terms)
    }

    /// Interns a memory map.
    pub(crate) fn intern_map(&mut self, map: &MemMap) -> MapId {
        self.maps.intern(map)
    }

    /// Interns a loop-variable name.
    pub(crate) fn intern_sym(&mut self, name: &str) -> Sym {
        self.syms.intern(name)
    }

    /// Calls `f` on every instruction reachable from `block`, pre-order
    /// (a loop before its body).
    pub fn visit(&self, block: BlockId, f: &mut impl FnMut(InstId, &AInst)) {
        for &id in self.block(block) {
            let inst = self.inst(id);
            f(id, inst);
            if let AInst::Loop { body, .. } = *inst {
                self.visit(body, f);
            }
        }
    }

    /// Number of instructions reachable from `block` (a loop counts once,
    /// plus its body).
    pub(crate) fn count(&self, block: BlockId) -> usize {
        let mut n = 0;
        self.visit(block, &mut |_, _| n += 1);
        n
    }

    /// Evaluates a pooled address in the Interval×Congruence domain, with
    /// loop variables bound by `env` (unbound ones are ⊤).
    pub(crate) fn eval_expr(
        &self,
        e: ExprId,
        env: &HashMap<VarId, IntervalCongruence>,
    ) -> IntervalCongruence {
        eval_affine(self.exprs.constant(e), self.exprs.terms(e), |var| {
            env.get(&var)
                .copied()
                .unwrap_or_else(IntervalCongruence::top)
        })
    }

    /// Whether the program reachable from `block` equals the one reachable
    /// from `other`'s `other_block`: interned operands are compared by
    /// content, so neither unreachable instructions nor interning order
    /// matter.
    pub(crate) fn same_program(&self, block: BlockId, other: &Arena, other_block: BlockId) -> bool {
        let (xs, ys) = (self.block(block), other.block(other_block));
        xs.len() == ys.len()
            && xs
                .iter()
                .zip(ys)
                .all(|(&x, &y)| self.same_inst(*self.inst(x), other, *other.inst(y)))
    }

    fn same_inst(&self, x: AInst, other: &Arena, y: AInst) -> bool {
        let same_access = |(e, m): (ExprId, MapId), (f, n): (ExprId, MapId)| {
            self.exprs.constant(e) == other.exprs.constant(f)
                && self.exprs.terms(e) == other.exprs.terms(f)
                && self.maps.get(m) == other.maps.get(n)
        };
        match (x, y) {
            (
                AInst::GLoad {
                    dst,
                    arr,
                    addr,
                    map,
                    aligned,
                },
                AInst::GLoad {
                    dst: dst2,
                    arr: arr2,
                    addr: addr2,
                    map: map2,
                    aligned: aligned2,
                },
            )
            | (
                AInst::GStore {
                    src: dst,
                    arr,
                    addr,
                    map,
                    aligned,
                },
                AInst::GStore {
                    src: dst2,
                    arr: arr2,
                    addr: addr2,
                    map: map2,
                    aligned: aligned2,
                },
            ) => {
                (dst, arr, aligned) == (dst2, arr2, aligned2)
                    && same_access((addr, map), (addr2, map2))
            }
            (
                AInst::Loop {
                    var,
                    name,
                    start,
                    end,
                    step,
                    body,
                },
                AInst::Loop {
                    var: var2,
                    name: name2,
                    start: start2,
                    end: end2,
                    step: step2,
                    body: body2,
                },
            ) => {
                (var, start, end, step) == (var2, start2, end2, step2)
                    && self.syms.get(name) == other.syms.get(name2)
                    && self.same_program(body, other, body2)
            }
            // No interned operands: field equality is content equality.
            (x, y) => x == y,
        }
    }

    /// Substitutes `var := value` in a pooled expression, returning the
    /// (interned) result.
    fn subst_expr(&mut self, e: ExprId, var: VarId, value: i64) -> ExprId {
        let terms = self.exprs.terms(e);
        // Normalized terms hold each variable at most once.
        let Some(pos) = terms.iter().position(|t| t.1 == var) else {
            return e;
        };
        let constant = self.exprs.constant(e) + terms[pos].0 * value;
        let rest = TermVec::concat(&terms[..pos], &terms[pos + 1..]);
        self.exprs.intern(constant, rest.as_slice())
    }

    /// Adds `delta` to a pooled expression's constant, returning the
    /// interned result; the pooled form `e` itself is left as it is.
    fn offset_expr(&mut self, e: ExprId, delta: i64) -> ExprId {
        if delta == 0 {
            return e;
        }
        let data = &self.exprs.exprs[e.0 as usize];
        let (constant, terms) = (data.constant + delta, data.terms.clone());
        self.exprs.intern(constant, terms.as_slice())
    }

    /// Moves the generic load or store `id` by `delta` floats. The new
    /// address is interned; the pooled one, which other instructions may
    /// share, is left as it is. Other instructions are unchanged.
    pub fn offset_access(&mut self, id: InstId, delta: i64) {
        if let AInst::GLoad { addr, .. } | AInst::GStore { addr, .. } = self.insts[id.0 as usize] {
            let moved = self.offset_expr(addr, delta);
            if let AInst::GLoad { addr, .. } | AInst::GStore { addr, .. } =
                &mut self.insts[id.0 as usize]
            {
                *addr = moved;
            }
        }
    }

    /// A stable content fingerprint of the program reachable from
    /// `block`: FNV-1a over a canonical pre-order serialization with all
    /// interned ids resolved through their pools, so two arenas holding
    /// the same program fingerprint identically regardless of interning
    /// history. Cross-candidate memoization keys on this.
    pub fn fingerprint(&self, block: BlockId) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        self.fp_block(block, &mut h);
        h
    }

    fn fp_block(&self, block: BlockId, h: &mut u64) {
        fp_mix(h, self.blocks[block.0 as usize].len() as u64);
        for &id in &self.blocks[block.0 as usize] {
            self.fp_inst(id, h);
        }
    }

    fn fp_inst(&self, id: InstId, h: &mut u64) {
        match self.insts[id.0 as usize] {
            AInst::GLoad {
                dst,
                arr,
                addr,
                map,
                aligned,
            } => {
                fp_mix(h, 1);
                fp_mix(h, dst as u64);
                fp_mix(h, arr.0 as u64);
                self.fp_expr(addr, h);
                self.fp_map(map, h);
                fp_mix(h, aligned as u64);
            }
            AInst::GStore {
                src,
                arr,
                addr,
                map,
                aligned,
            } => {
                fp_mix(h, 2);
                fp_mix(h, src as u64);
                fp_mix(h, arr.0 as u64);
                self.fp_expr(addr, h);
                self.fp_map(map, h);
                fp_mix(h, aligned as u64);
            }
            AInst::Arith { op, dst, a, b } => {
                fp_mix(h, 3);
                fp_mix(h, fp_hash_debug(&op));
                fp_mix(h, dst as u64);
                fp_mix(h, a as u64);
                fp_mix(h, b as u64);
            }
            AInst::Move { op, dst, a, b } => {
                fp_mix(h, 4);
                fp_mix(h, fp_hash_debug(&op));
                fp_mix(h, dst as u64);
                fp_mix(h, a as u64);
                fp_mix(h, b as u64);
            }
            AInst::Overhead { kind, count } => {
                fp_mix(h, 5);
                fp_mix(h, fp_hash_debug(&kind));
                fp_mix(h, count as u64);
            }
            AInst::Loop {
                var,
                name,
                start,
                end,
                step,
                body,
            } => {
                fp_mix(h, 6);
                fp_mix(h, var as u64);
                for b in self.syms.get(name).bytes() {
                    fp_mix(h, b as u64);
                }
                fp_mix(h, start as u64);
                fp_mix(h, end as u64);
                fp_mix(h, step as u64);
                self.fp_block(body, h);
            }
        }
    }

    fn fp_expr(&self, e: ExprId, h: &mut u64) {
        fp_mix(h, self.exprs.constant(e) as u64);
        let terms = self.exprs.terms(e);
        fp_mix(h, terms.len() as u64);
        for &(c, v) in terms {
            fp_mix(h, c as u64);
            fp_mix(h, v as u64);
        }
    }

    fn fp_map(&self, m: MapId, h: &mut u64) {
        let map = self.maps.get(m);
        fp_mix(h, map.is_broadcast() as u64);
        fp_mix(h, map.entries().len() as u64);
        for &(off, lane) in map.entries() {
            fp_mix(h, off as u64);
            fp_mix(h, lane as u64);
        }
    }
}

#[inline]
fn fp_mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Hashes a `Copy` enum through its `Debug` form — stable within one
/// build, which is all a per-process memo key needs.
fn fp_hash_debug<T: std::fmt::Debug>(v: &T) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{v:?}").bytes() {
        fp_mix(&mut h, b as u64);
    }
    h
}

// ---------------------------------------------------------------------------
// The optimization passes. Each reports whether it changed the IR; change
// is tracked explicitly instead of by clone-and-compare.
// ---------------------------------------------------------------------------

/// Number of iterations of a counted loop `for (v = start; v < end;
/// v += step)`. Every C-IR loop is fixed-size, so trip counts are a
/// *static* property — the basis of `lgen-analysis`'s loop-nest and
/// cost extraction as well as of the unroll decisions.
pub fn trip_count(start: i64, end: i64, step: i64) -> usize {
    if end <= start {
        0
    } else {
        ((end - start + step - 1) / step) as usize
    }
}

/// Loop unrolling: applies `policy` to every loop in `block`, innermost
/// first (§2.1.2). Full unrolling of small trip counts exposes
/// straight-line codelet chains to scalar replacement and constant
/// addresses to alignment detection; factor unrolling trades
/// instruction-cache pressure for instruction-level parallelism. Returns
/// whether the block changed.
pub fn unroll_block(a: &mut Arena, block: BlockId, policy: UnrollPolicy) -> bool {
    let ids = std::mem::take(&mut a.blocks[block.0 as usize]);
    let mut out = Vec::with_capacity(ids.len());
    let mut changed = false;
    for id in ids {
        unroll_inst(a, id, policy, &mut out, &mut changed);
    }
    a.blocks[block.0 as usize] = out;
    changed
}

/// The per-statement unroll genome: unrolls the `i`-th top-level id range
/// of `root` under `genome[i]` (`ranges` are the fused statements'
/// instruction ranges, which partition the lowered body in order;
/// instructions past the last range are kept as written). Returns whether
/// the body changed.
///
/// # Panics
///
/// Panics unless there is one policy per range.
pub fn unroll_statements(
    a: &mut Arena,
    root: BlockId,
    ranges: &[Range<usize>],
    genome: &[UnrollPolicy],
) -> bool {
    assert_eq!(
        genome.len(),
        ranges.len(),
        "one unroll policy per fused statement"
    );
    let mut ids = std::mem::take(&mut a.blocks[root.0 as usize]).into_iter();
    let mut out = Vec::with_capacity(ids.len());
    let mut changed = false;
    for (range, &policy) in ranges.iter().zip(genome) {
        for id in ids.by_ref().take(range.len()) {
            unroll_inst(a, id, policy, &mut out, &mut changed);
        }
    }
    out.extend(ids);
    a.blocks[root.0 as usize] = out;
    changed
}

fn unroll_inst(
    a: &mut Arena,
    id: InstId,
    policy: UnrollPolicy,
    out: &mut Vec<InstId>,
    changed: &mut bool,
) {
    let AInst::Loop {
        var,
        start,
        end,
        step,
        body,
        ..
    } = a.insts[id.0 as usize]
    else {
        out.push(id);
        return;
    };
    *changed |= unroll_block(a, body, policy);
    match policy.decide(trip_count(start, end, step)) {
        UnrollDecision::Leave => out.push(id),
        UnrollDecision::Full => {
            let mut k = start;
            while k < end {
                subst_block_into(a, body, var, k, out);
                k += step;
            }
            *changed = true;
        }
        UnrollDecision::Widen(factor) => {
            // Repeat the body `factor` times with offsets, widen the step.
            let mut widened = Vec::new();
            for u in 0..factor {
                shift_block_into(a, body, var, u as i64 * step, &mut widened);
            }
            let wb = a.push_block(widened);
            if let AInst::Loop { step, body, .. } = &mut a.insts[id.0 as usize] {
                *step *= factor as i64;
                *body = wb;
            }
            out.push(id);
            *changed = true;
        }
    }
}

/// Deep-copies `block` with `var := value` substituted, appending the
/// copies to `out` (fresh instructions, so later in-place passes cannot
/// alias unrolled copies).
fn subst_block_into(a: &mut Arena, block: BlockId, var: VarId, value: i64, out: &mut Vec<InstId>) {
    // Indexed, not iterated: the loop pushes new blocks, never edits `block`.
    for i in 0..a.blocks[block.0 as usize].len() {
        let id = a.blocks[block.0 as usize][i];
        let inst = match a.insts[id.0 as usize] {
            AInst::GLoad {
                dst,
                arr,
                addr,
                map,
                aligned,
            } => AInst::GLoad {
                dst,
                arr,
                addr: a.subst_expr(addr, var, value),
                map,
                aligned,
            },
            AInst::GStore {
                src,
                arr,
                addr,
                map,
                aligned,
            } => AInst::GStore {
                src,
                arr,
                addr: a.subst_expr(addr, var, value),
                map,
                aligned,
            },
            AInst::Loop {
                var: v,
                name,
                start,
                end,
                step,
                body,
            } => {
                let mut inner = Vec::with_capacity(a.blocks[body.0 as usize].len());
                subst_block_into(a, body, var, value, &mut inner);
                let nb = a.push_block(inner);
                AInst::Loop {
                    var: v,
                    name,
                    start,
                    end,
                    step,
                    body: nb,
                }
            }
            other => other,
        };
        out.push(a.push(inst));
    }
}

/// Deep-copies `block` with `var` shifted by `delta` (the body copies of
/// factor unrolling).
fn shift_block_into(a: &mut Arena, block: BlockId, var: VarId, delta: i64, out: &mut Vec<InstId>) {
    // Indexed, not iterated: the loop pushes new blocks, never edits `block`.
    for i in 0..a.blocks[block.0 as usize].len() {
        let id = a.blocks[block.0 as usize][i];
        let inst = match a.insts[id.0 as usize] {
            AInst::GLoad {
                dst,
                arr,
                addr,
                map,
                aligned,
            } => {
                let coeff: i64 = a
                    .exprs
                    .terms(addr)
                    .iter()
                    .filter(|t| t.1 == var)
                    .map(|t| t.0)
                    .sum();
                AInst::GLoad {
                    dst,
                    arr,
                    addr: a.offset_expr(addr, coeff * delta),
                    map,
                    aligned,
                }
            }
            AInst::GStore {
                src,
                arr,
                addr,
                map,
                aligned,
            } => {
                let coeff: i64 = a
                    .exprs
                    .terms(addr)
                    .iter()
                    .filter(|t| t.1 == var)
                    .map(|t| t.0)
                    .sum();
                AInst::GStore {
                    src,
                    arr,
                    addr: a.offset_expr(addr, coeff * delta),
                    map,
                    aligned,
                }
            }
            AInst::Loop {
                var: v,
                name,
                start,
                end,
                step,
                body,
            } => {
                let mut inner = Vec::with_capacity(a.blocks[body.0 as usize].len());
                shift_block_into(a, body, var, delta, &mut inner);
                let nb = a.push_block(inner);
                AInst::Loop {
                    var: v,
                    name,
                    start,
                    end,
                    step,
                    body: nb,
                }
            }
            other => other,
        };
        out.push(a.push(inst));
    }
}

/// Register copy propagation. Scalar replacement leaves `Mov dst ← src`
/// instructions behind; this rewrites later uses of `dst` to `src` so
/// that dead-code elimination can drop the moves (and, transitively, the
/// stores that fed them). Copies propagate within straight-line regions:
/// loops are barriers, so registers defined before a loop but copied
/// inside it keep their moves. In-place; returns whether any operand
/// changed.
pub fn copy_prop_block(a: &mut Arena, block: BlockId) -> bool {
    let mut changed = false;
    prop_block(a, block, &mut changed);
    changed
}

fn resolve(copies: &HashMap<VReg, VReg>, mut r: VReg) -> VReg {
    // Paths are short; guard against accidental cycles anyway.
    for _ in 0..copies.len() + 1 {
        match copies.get(&r) {
            Some(&next) => r = next,
            None => break,
        }
    }
    r
}

/// Removes any mapping that flows *through* `dst` (it is being
/// redefined).
fn kill(copies: &mut HashMap<VReg, VReg>, dst: VReg) {
    copies.remove(&dst);
    copies.retain(|_, v| *v != dst);
}

fn prop_block(arena: &mut Arena, block: BlockId, changed: &mut bool) {
    let mut copies: HashMap<VReg, VReg> = HashMap::new();
    let ids = arena.blocks[block.0 as usize].clone();
    for id in ids {
        match arena.insts[id.0 as usize] {
            AInst::Move {
                op: VMove::Mov,
                dst,
                a,
                b,
            } => {
                let src = resolve(&copies, a);
                kill(&mut copies, dst);
                if src != dst {
                    copies.insert(dst, src);
                }
                // Keep the move; DCE removes it if no un-rewritten use
                // remains.
                if src != a || b != 0 {
                    arena.insts[id.0 as usize] = AInst::Move {
                        op: VMove::Mov,
                        dst,
                        a: src,
                        b: 0,
                    };
                    *changed = true;
                }
            }
            AInst::Move { op, dst, a, b } => {
                let (ra, rb) = (resolve(&copies, a), resolve(&copies, b));
                kill(&mut copies, dst);
                if ra != a || rb != b {
                    arena.insts[id.0 as usize] = AInst::Move {
                        op,
                        dst,
                        a: ra,
                        b: rb,
                    };
                    *changed = true;
                }
            }
            AInst::Arith { op, dst, a, b } => {
                let (ra, rb) = (resolve(&copies, a), resolve(&copies, b));
                // Accumulating ops read dst: the read must see the
                // resolved source, but dst is then redefined in place, so
                // accumulation through a copy is left un-propagated to
                // stay correct.
                kill(&mut copies, dst);
                if ra != a || rb != b {
                    arena.insts[id.0 as usize] = AInst::Arith {
                        op,
                        dst,
                        a: ra,
                        b: rb,
                    };
                    *changed = true;
                }
            }
            AInst::GLoad { dst, .. } => {
                kill(&mut copies, dst);
            }
            AInst::GStore {
                src,
                arr,
                addr,
                map,
                aligned,
            } => {
                let rs = resolve(&copies, src);
                if rs != src {
                    arena.insts[id.0 as usize] = AInst::GStore {
                        src: rs,
                        arr,
                        addr,
                        map,
                        aligned,
                    };
                    *changed = true;
                }
            }
            AInst::Overhead { .. } => {}
            AInst::Loop { body, .. } => {
                // Copies made before the loop hold on entry, but iterating
                // may redefine sources; be conservative.
                copies.clear();
                prop_block(arena, body, changed);
            }
        }
    }
}

/// Dead-code elimination: after scalar replacement and copy propagation,
/// the stores into local chain arrays (and the moves that replaced the
/// loads) are dead; removing them completes the Fig. 2.3 → Fig. 2.4
/// transformation. Returns whether any instruction was removed.
///
/// Liveness roots are stores to parameter arrays (and `Overhead`). Stores
/// to local arrays are live only if the array is read by a live load;
/// value-producing instructions only if their destination register is
/// read by a live instruction. The analysis is array- and
/// register-global, hence conservative across loop iterations, and loops
/// left empty are dropped.
///
/// The least fixpoint is computed in one worklist pass. Every reachable
/// instruction is linked once into a chain: defs
/// of a register into that register's chain, stores to a local array
/// into that array's chain. Roots (stores to non-local arrays, and
/// `Overhead`) start the worklist. A live instruction drains the chain of
/// every register it reads (`reads_dst` included), and a live `GLoad` the
/// store chain of its array. A drained chain is left empty, so each
/// chain is walked once and each instruction enters the worklist at most
/// once.
pub fn dce_block(a: &mut Arena, root: BlockId, arrays: &[ArrayDecl]) -> bool {
    let (reachable, regs) = dce_extent(a, root);
    let mut t = DceTables {
        live: vec![false; a.insts.len()],
        next: vec![NO_ID; a.insts.len()],
        defs: vec![NO_ID; regs],
        stores: vec![NO_ID; arrays.len()],
        work: Vec::with_capacity(reachable),
    };
    dce_link(a, root, arrays, &mut t);
    while let Some(id) = t.work.pop() {
        match a.insts[id as usize] {
            AInst::GLoad { arr, .. } => t.drain_stores(arr.0),
            AInst::GStore { src, .. } => t.use_reg(src),
            AInst::Arith { op, dst, a, b } => {
                t.use_reg(a);
                t.use_reg(b);
                if op.reads_dst() {
                    t.use_reg(dst);
                }
            }
            AInst::Move { op, a, b, .. } => match op {
                VMove::Zero => {}
                VMove::Mov | VMove::Splat(_) | VMove::GetLane(_) => t.use_reg(a),
                VMove::Shuf(_) | VMove::SetLane(_) => {
                    t.use_reg(a);
                    t.use_reg(b);
                }
            },
            AInst::Overhead { .. } | AInst::Loop { .. } => {}
        }
    }
    dce_filter(a, root, &t.live)
}

/// [`dce_block`]'s dense tables. Chains are linked through `next`,
/// indexed by [`InstId`]; an instruction defines a register or stores to
/// an array, never both, so it sits on at most one chain.
struct DceTables {
    live: Vec<bool>,
    next: Vec<u32>,
    /// Register → head of its def chain.
    defs: Vec<u32>,
    /// Local array → head of its store chain.
    stores: Vec<u32>,
    /// Live instructions whose reads are not yet processed.
    work: Vec<u32>,
}

impl DceTables {
    fn make_live(&mut self, id: u32) {
        self.live[id as usize] = true;
        self.work.push(id);
    }

    /// Makes the chain starting at `head` live.
    fn drain(&mut self, mut head: u32) {
        while head != NO_ID {
            self.make_live(head);
            head = self.next[head as usize];
        }
    }

    /// A live instruction reads `r`: every def of `r` is live.
    fn use_reg(&mut self, r: VReg) {
        if let Some(head) = self.defs.get_mut(r as usize) {
            let head = std::mem::replace(head, NO_ID);
            self.drain(head);
        }
    }

    /// A live load reads `arr`: every store to `arr` is live.
    fn drain_stores(&mut self, arr: usize) {
        let head = std::mem::replace(&mut self.stores[arr], NO_ID);
        self.drain(head);
    }
}

/// The number of reachable non-loop instructions, and one past the
/// highest register they define.
fn dce_extent(a: &Arena, block: BlockId) -> (usize, usize) {
    let (mut count, mut regs) = (0, 0);
    for &id in &a.blocks[block.0 as usize] {
        let inst = &a.insts[id.0 as usize];
        if let AInst::Loop { body, .. } = *inst {
            let (c, r) = dce_extent(a, body);
            count += c;
            regs = regs.max(r);
        } else {
            count += 1;
            if let Some(d) = defined_reg(inst) {
                regs = regs.max(d as usize + 1);
            }
        }
    }
    (count, regs)
}

/// Links every reachable instruction into its def or store chain and
/// marks the roots live.
fn dce_link(a: &Arena, block: BlockId, arrays: &[ArrayDecl], t: &mut DceTables) {
    for &id in &a.blocks[block.0 as usize] {
        let head = match a.insts[id.0 as usize] {
            AInst::Loop { body, .. } => {
                dce_link(a, body, arrays, t);
                continue;
            }
            AInst::GStore { arr, .. } if arrays[arr.0].kind == ArrayKind::Local => {
                &mut t.stores[arr.0]
            }
            AInst::GStore { .. } | AInst::Overhead { .. } => {
                t.make_live(id.0);
                continue;
            }
            AInst::GLoad { dst, .. } | AInst::Arith { dst, .. } | AInst::Move { dst, .. } => {
                &mut t.defs[dst as usize]
            }
        };
        t.next[id.0 as usize] = std::mem::replace(head, id.0);
    }
}

/// Drops dead instructions and emptied loops, compacting each block in
/// place.
fn dce_filter(a: &mut Arena, block: BlockId, live: &[bool]) -> bool {
    let mut ids = std::mem::take(&mut a.blocks[block.0 as usize]);
    let before = ids.len();
    let mut changed = false;
    ids.retain(|&id| match a.insts[id.0 as usize] {
        AInst::Loop { body, .. } => {
            changed |= dce_filter(a, body, live);
            !a.blocks[body.0 as usize].is_empty()
        }
        _ => live[id.0 as usize],
    });
    changed |= ids.len() != before;
    a.blocks[block.0 as usize] = ids;
    changed
}

/// Scalar-replacement footprint: with interned operands the §3.1 "same
/// array, same address, same map" test is a three-id comparison.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Fp {
    arr: usize,
    addr: ExprId,
    map: MapId,
}

/// Ranges touched by two footprints on the same array might overlap even
/// if the footprints differ; this coarse check errs on the safe side.
fn may_overlap(a: &Arena, x: &Fp, y: &Fp) -> bool {
    if x.arr != y.arr {
        return false;
    }
    if a.exprs.terms(x.addr) != a.exprs.terms(y.addr) {
        // Different index expressions on the same array: assume aliasing.
        return true;
    }
    let x_lo = a.exprs.constant(x.addr);
    let x_hi = x_lo + a.maps.get(x.map).max_offset();
    let y_lo = a.exprs.constant(y.addr);
    let y_hi = y_lo + a.maps.get(y.map).max_offset();
    x_lo <= y_hi && y_lo <= x_hi
}

/// The register an instruction (re)defines, if any.
fn defined_reg(inst: &AInst) -> Option<VReg> {
    match inst {
        AInst::GLoad { dst, .. } | AInst::Arith { dst, .. } | AInst::Move { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Scalar replacement (§2.1.4, §3.1). LGen's codelets follow a
/// load-compute-store discipline, chained through kernel-local temporary
/// arrays (Fig. 2.3). A store to a local array followed by a load with
/// the *same memory footprint* — same array, same affine address, same
/// memory map — becomes a register move (Fig. 2.4). Because footprints
/// are compared on the generic load/store level, a store and a load that
/// would be *implemented* by different instruction sequences still
/// forward (Fig. 3.4).
///
/// Only local arrays participate: parameters may alias each other, so
/// forwarding through them would be unsound in general. Returns whether
/// any load was forwarded.
pub fn scalar_replacement_block(a: &mut Arena, block: BlockId, arrays: &[ArrayDecl]) -> bool {
    let mut changed = false;
    scalrep_block(a, block, arrays, &mut changed);
    changed
}

fn scalrep_block(a: &mut Arena, block: BlockId, arrays: &[ArrayDecl], changed: &mut bool) {
    // Footprint → register holding the stored value.
    let mut avail: HashMap<Fp, VReg> = HashMap::new();
    let ids = a.blocks[block.0 as usize].clone();
    for id in ids {
        let inst = a.insts[id.0 as usize];
        // A redefined register invalidates forwardings that captured its
        // old value (unrolled bodies reuse the same virtual registers).
        if let Some(d) = defined_reg(&inst) {
            avail.retain(|_, v| *v != d);
        }
        match inst {
            AInst::GStore {
                src,
                arr,
                addr,
                map,
                ..
            } if arrays[arr.0].kind == ArrayKind::Local => {
                let fp = Fp {
                    arr: arr.0,
                    addr,
                    map,
                };
                // A store may invalidate overlapping prior stores.
                let keep: Vec<(Fp, VReg)> = avail
                    .drain()
                    .filter(|(k, _)| !may_overlap(a, k, &fp) || *k == fp)
                    .collect();
                avail.extend(keep);
                avail.insert(fp, src);
            }
            AInst::GLoad {
                dst,
                arr,
                addr,
                map,
                ..
            } if arrays[arr.0].kind == ArrayKind::Local => {
                let fp = Fp {
                    arr: arr.0,
                    addr,
                    map,
                };
                if let Some(&src) = avail.get(&fp) {
                    // Matched footprint: forward through a register move.
                    a.insts[id.0 as usize] = AInst::Move {
                        op: VMove::Mov,
                        dst,
                        a: src,
                        b: 0,
                    };
                    *changed = true;
                }
            }
            AInst::Loop { body, .. } => {
                // Conservative: a loop body may overwrite any local
                // array, so forwardings do not survive across the loop
                // boundary, and the body starts with an empty
                // availability set.
                avail.clear();
                scalrep_block(a, body, arrays, changed);
            }
            _ => {}
        }
    }
}

/// Alignment detection (§3.2): runs the abstract interpretation of
/// `lgen-absint` (reduced product of Interval and Congruence) over the
/// loop nest of `block` and marks every 16-byte access whose address is
/// provably a multiple of ν floats — and unmarks every other access.
/// Lowering then uses aligned instructions for the marked ones.
///
/// `base_offsets[a]` is the assumed base offset of array `a` in floats
/// modulo [`ALIGN_CLASSES`]; `None` means the array is never assumed
/// aligned, so none of its accesses is marked. The `align` pass assumes
/// `Some(0)` for every array (locals are always aligned by the layout).
/// Returns whether any mark changed.
pub fn align_block(a: &mut Arena, block: BlockId, base_offsets: &[Option<usize>]) -> bool {
    let mut env: HashMap<VarId, IntervalCongruence> = HashMap::new();
    let mut changed = false;
    align_walk(a, block, &mut env, base_offsets, &mut changed);
    changed
}

fn align_walk(
    a: &mut Arena,
    block: BlockId,
    env: &mut HashMap<VarId, IntervalCongruence>,
    base_offsets: &[Option<usize>],
    changed: &mut bool,
) {
    // Indexed, not iterated: marks are rewritten in place, blocks never.
    for i in 0..a.blocks[block.0 as usize].len() {
        let id = a.blocks[block.0 as usize][i];
        match a.insts[id.0 as usize] {
            AInst::GLoad {
                arr,
                addr,
                map,
                aligned,
                ..
            }
            | AInst::GStore {
                arr,
                addr,
                map,
                aligned,
                ..
            } => {
                // Only full-width contiguous accesses have aligned
                // instruction variants.
                let full_width = a.maps.get(map).contiguous_bytes() == Some(16);
                let mark = match base_offsets[arr.0] {
                    Some(base) if full_width => a
                        .eval_expr(addr, env)
                        .add(&IntervalCongruence::constant(base as i64))
                        .divisible_by(ALIGN_CLASSES as i64),
                    _ => false,
                };
                if mark != aligned {
                    match &mut a.insts[id.0 as usize] {
                        AInst::GLoad { aligned, .. } | AInst::GStore { aligned, .. } => {
                            *aligned = mark;
                        }
                        _ => unreachable!(),
                    }
                    *changed = true;
                }
            }
            AInst::Loop {
                var,
                name,
                start,
                end,
                step,
                body,
            } => {
                let spec = LoopSpec::new(a.syms.get(name), start, end, step);
                let value = loop_index_value(&spec);
                let saved = env.insert(var, value);
                align_walk(a, body, env, base_offsets, changed);
                match saved {
                    Some(s) => {
                        env.insert(var, s);
                    }
                    None => {
                        env.remove(&var);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Exact-body construction for unit tests that need specific register
/// numbers or shapes the builder does not emit.
#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// Pushes `insts` as a new block.
    pub(crate) fn push_insts(a: &mut Arena, insts: &[AInst]) -> BlockId {
        let ids = insts.iter().map(|&i| a.push(i)).collect();
        a.push_block(ids)
    }

    /// The instructions of `block`, in order.
    pub(crate) fn insts_in(a: &Arena, block: BlockId) -> Vec<AInst> {
        a.block(block).iter().map(|&id| *a.inst(id)).collect()
    }

    /// Runs the pass schedule `spec` on `k` (no unrolling) and returns
    /// the top-level instructions of its body.
    pub(crate) fn run_passes(k: &mut crate::ir::Kernel, spec: &str) -> Vec<AInst> {
        let ctx = crate::passes::PassCtx::new(UnrollPolicy::None);
        let pipeline = crate::passes::PassPipeline::parse(spec).expect("valid spec");
        pipeline.run(k, &ctx).expect("verification is off");
        insts_in(&k.body().arena, k.body().root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::{Kernel, VWidth};

    fn gemv_like() -> Kernel {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 16);
        let y = b.output("y", 16);
        let t = b.local("t0", 4);
        b.for_loop("i", 0, 16, 4, |b, i| {
            let v = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            b.store(v, t, AffineExpr::constant(0), MemMap::horizontal(4));
            let w = b.load(t, AffineExpr::constant(0), MemMap::horizontal(4));
            b.store(w, y, AffineExpr::var(i), MemMap::horizontal(4));
        });
        b.finish(0)
    }

    #[test]
    fn interning_dedups_expressions_and_maps() {
        let k = gemv_like();
        let arena = &k.body().arena;
        // Addresses: var(i) (used twice) and constant(0) (used twice).
        assert_eq!(arena.exprs.len(), 2);
        assert_eq!(arena.maps.maps.len(), 1);
        assert_eq!(arena.count(k.body().root), 5);
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let (k1, k2) = (gemv_like(), gemv_like());
        let (v1, v2) = (k1.body(), k2.body());
        assert_eq!(v1.arena.fingerprint(v1.root), v2.arena.fingerprint(v2.root));
        // Unreachable instructions do not count.
        let mut dead = v1.clone();
        dead.arena.push(AInst::Overhead {
            kind: OverheadKind::Call,
            count: 1,
        });
        assert_eq!(
            dead.arena.fingerprint(dead.root),
            v1.arena.fingerprint(v1.root)
        );
        assert!(dead == *v1);
        // A semantically different body fingerprints differently.
        let mut other = v1.clone();
        let AInst::Loop { body, .. } = *other.arena.inst(other.insts()[0]) else {
            panic!("expected the loop");
        };
        other.arena.blocks[body.0 as usize].pop();
        assert_ne!(
            other.arena.fingerprint(other.root),
            v1.arena.fingerprint(v1.root)
        );
        assert!(other != *v1);
    }

    /// The standard schedule on this body, for every unroll policy: the
    /// `t0` round trip is forwarded and deleted, leaving one aligned load
    /// of `x` and one aligned store to `y` per iteration.
    #[test]
    fn standard_schedule_forwards_the_local_round_trip() {
        use crate::passes::align::count_aligned;
        // (policy, top-level instructions, loads, stores, loop step)
        let expected = [
            (UnrollPolicy::None, 1, 1, 1, Some(4)),
            (UnrollPolicy::Full { max_trip: 8 }, 8, 4, 4, None),
            (UnrollPolicy::Factor { factor: 2 }, 1, 2, 2, Some(8)),
        ];
        for (policy, top, loads, stores, step) in expected {
            let mut k = gemv_like();
            let arrays = k.arrays.clone();
            let v = k.body_mut();
            let (arena, root) = (&mut v.arena, v.root);
            unroll_block(arena, root, policy);
            scalar_replacement_block(arena, root, &arrays);
            copy_prop_block(arena, root);
            dce_block(arena, root, &arrays);
            align_block(arena, root, &vec![Some(0); arrays.len()]);

            let (mut counts, mut loop_step) = ((0, 0, 0), None);
            arena.visit(root, &mut |_, inst| match *inst {
                AInst::GLoad { .. } => counts.0 += 1,
                AInst::GStore { .. } => counts.1 += 1,
                AInst::Loop { step, .. } => loop_step = Some(step),
                _ => counts.2 += 1,
            });
            assert_eq!(arena.block(root).len(), top, "policy {policy:?}");
            assert_eq!(counts, (loads, stores, 0), "policy {policy:?}");
            assert_eq!(loop_step, step, "policy {policy:?}");
            assert_eq!(count_aligned(k.body()), (loads + stores, loads + stores));
        }
    }

    /// Every way liveness flows through a body: register → local store →
    /// load inside a loop → parameter store, a register defined twice, an
    /// `Fma` accumulator, a live chain of 50 `Mov`s and a dead one, and a
    /// local array that is stored but never read.
    fn liveness_kernel() -> Kernel {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 16);
        let y = b.output("y", 16);
        let t = b.local("t0", 4);
        let unread = b.local("u0", 4);
        let h = MemMap::horizontal(4);

        let v = b.load(x, AffineExpr::constant(0), h.clone());
        b.store(v, t, AffineExpr::constant(0), h.clone());
        // `twice` is defined by the load and again by the add.
        let twice = b.load(x, AffineExpr::constant(4), h.clone());
        b.arith_into(VArith::Add(VWidth::Q), twice, twice, v);
        let acc = b.zero();
        b.for_loop("i", 0, 16, 4, |b, i| {
            let w = b.load(t, AffineExpr::constant(0), h.clone());
            let xi = b.load(x, AffineExpr::var(i), h.clone());
            b.arith_acc(VArith::Fma(VWidth::Q), acc, w, xi);
            let sum = b.arith(VArith::Add(VWidth::Q), acc, twice);
            b.store(sum, y, AffineExpr::var(i), h.clone());
        });
        let mut live = b.load(x, AffineExpr::constant(8), h.clone());
        let mut dead = b.load(x, AffineExpr::constant(12), h.clone());
        for _ in 0..50 {
            live = b.mov_op(VMove::Mov, live, 0);
            dead = b.mov_op(VMove::Mov, dead, 0);
        }
        b.store(live, y, AffineExpr::constant(0), h.clone());
        b.store(dead, unread, AffineExpr::constant(0), h);
        b.finish(0)
    }

    /// The least fixpoint in one worklist pass: the dead chain goes,
    /// every other flow stays live (the loop with its whole body), and a
    /// second run finds nothing left to remove.
    #[test]
    fn dce_block_reaches_the_least_fixpoint() {
        let mut k = liveness_kernel();
        let arrays = k.arrays.clone();
        let v = k.body_mut();
        let body = v.insts().to_vec();
        let reachable = v.arena.count(v.root);
        assert!(dce_block(&mut v.arena, v.root, &arrays));
        // The dead chain (its load at 7, the 50 moves interleaved with the
        // live ones, the unread store at the end) goes; everything else
        // stays, in order.
        let dead: Vec<usize> = std::iter::once(7)
            .chain((0..50).map(|i| 9 + 2 * i))
            .chain([body.len() - 1])
            .collect();
        let kept: Vec<InstId> = (0..body.len())
            .filter(|i| !dead.contains(i))
            .map(|i| body[i])
            .collect();
        assert_eq!(v.insts(), kept);
        assert_eq!(v.arena.count(v.root), reachable - 52);
        assert!(!dce_block(&mut v.arena, v.root, &arrays));
        assert_eq!(v.insts(), kept);
    }

    #[test]
    fn dce_block_drops_loops_left_empty() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 16);
        let y = b.output("y", 16);
        let t = b.local("t0", 4);
        b.for_loop("i", 0, 16, 4, |b, i| {
            let v = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            b.store(v, t, AffineExpr::constant(0), MemMap::horizontal(4));
        });
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let mut k = b.finish(0);
        let arrays = k.arrays.clone();
        let v = k.body_mut();
        let body = v.insts().to_vec();

        assert!(dce_block(&mut v.arena, v.root, &arrays));
        assert_eq!(v.insts(), &body[1..], "the loop storing only to t0 is gone");
    }
    /// Both stores of `gemv_like` share the pooled address `i`; moving
    /// the first interns a new one and leaves the second where it was.
    #[test]
    fn offset_access_never_edits_a_pooled_address() {
        let k = gemv_like();
        let mut v = k.body().clone();
        let AInst::Loop { body, .. } = *v.arena.inst(v.insts()[0]) else {
            panic!("expected the loop");
        };
        let [load_x, _, _, store_y] = v.arena.block(body)[..] else {
            panic!("expected four accesses");
        };
        let addr_of = |a: &Arena, id| match *a.inst(id) {
            AInst::GLoad { addr, .. } | AInst::GStore { addr, .. } => addr,
            _ => unreachable!(),
        };
        let shared = addr_of(&v.arena, load_x);
        assert_eq!(addr_of(&v.arena, store_y), shared);
        v.arena.offset_access(load_x, 1000);
        let moved = addr_of(&v.arena, load_x);
        assert_ne!(moved, shared);
        assert_eq!(v.arena.exprs.constant(moved), 1000);
        assert_eq!(v.arena.exprs.terms(moved), v.arena.exprs.terms(shared));
        assert_eq!(addr_of(&v.arena, store_y), shared);
        assert_eq!(v.arena.exprs.constant(shared), 0);
    }

    #[test]
    fn expr_pool_interns_each_form_once() {
        let mut pool = ExprPool::default();
        let forms: Vec<(i64, Vec<(i64, VarId)>)> = (0..64)
            .flat_map(|c| {
                [
                    (c, vec![]),
                    (c, vec![(1, 0)]),
                    (c, vec![(4, 0), (1, 1)]),
                    (c, vec![(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]),
                ]
            })
            .collect();
        let ids: Vec<ExprId> = forms.iter().map(|(c, t)| pool.intern(*c, t)).collect();
        assert_eq!(pool.len(), forms.len());
        let distinct: std::collections::HashSet<ExprId> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), forms.len(), "distinct forms share an id");
        for ((c, t), &id) in forms.iter().zip(&ids) {
            assert_eq!(pool.intern(*c, t), id);
            assert_eq!((pool.constant(id), pool.terms(id)), (*c, &t[..]));
        }
        assert_eq!(pool.len(), forms.len(), "re-interning grew the pool");
    }

    #[test]
    fn expr_pool_walks_hash_collision_chains() {
        let mut pool = ExprPool::default();
        let a = pool.intern(3, &[(1, 0)]);
        // Pretend `b` collides with `a`: point its hash at `a`'s id.
        let b_terms = [(2, 1)];
        pool.heads.insert(hash_expr(7, &b_terms), a.0);
        let b = pool.intern(7, &b_terms);
        assert_ne!(a, b);
        assert_eq!(pool.chain[b.0 as usize], a.0, "b links back to a");
        assert_eq!(pool.intern(7, &b_terms), b);
        assert_eq!(pool.intern(3, &[(1, 0)]), a);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn change_tracking_reaches_fixpoint() {
        let mut k = gemv_like();
        let arrays = k.arrays.clone();
        let v = k.body_mut();
        let (arena, root) = (&mut v.arena, v.root);
        assert!(unroll_block(
            arena,
            root,
            UnrollPolicy::Full { max_trip: 8 }
        ));
        assert!(scalar_replacement_block(arena, root, &arrays));
        assert!(copy_prop_block(arena, root));
        assert!(dce_block(arena, root, &arrays));
        // Second runs find nothing to do.
        assert!(!scalar_replacement_block(arena, root, &arrays));
        assert!(!copy_prop_block(arena, root));
        assert!(!dce_block(arena, root, &arrays));
        let aligned = vec![Some(0); arrays.len()];
        assert!(align_block(arena, root, &aligned));
        assert!(!align_block(arena, root, &aligned));
    }
}
