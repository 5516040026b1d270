//! Arena-allocated C-IR: the data-oriented twin of [`crate::ir`].
//!
//! The boxed tree of [`Inst`] is ideal for construction and for external
//! consumers, but the optimization pipeline used to pay for it on every
//! candidate of a tuning sweep: every pass cloned whole bodies of
//! `String`- and `Vec`-bearing nodes just to detect change. This module
//! keeps one [`Arena`] per pipeline run instead:
//!
//! * instructions are [`AInst`] — a `Copy` enum addressed by dense
//!   [`InstId`]s; loop bodies are [`BlockId`]s into a table of
//!   `Vec<InstId>` index arrays, so passes are linear sweeps that splice
//!   id lists instead of rebuilding trees;
//! * loop-variable names are interned [`Sym`]s in a per-arena
//!   [`SymTable`];
//! * affine address expressions live in a shared side-table
//!   ([`ExprPool`]) of **interned**, deduplicated [`AffineExpr`] forms
//!   with small-vector inline term storage ([`TermVec`]) — expression
//!   equality (the scalar-replacement footprint test) becomes an
//!   [`ExprId`] comparison;
//! * memory maps are interned in a [`MapPool`] the same way.
//!
//! Interning is sound because [`AffineExpr`] is normalized on
//! construction (terms sorted by variable, coefficients nonzero — see
//! `lgen-absint`): structurally equal expressions have equal
//! representations, so one pooled form stands for all of them.
//!
//! The five optimization passes are reimplemented here as arena sweeps
//! ([`unroll_block`], [`scalar_replacement_block`], [`copy_prop_block`],
//! [`dce_block`], [`align_block`]) with *explicit* change tracking —
//! no clone-and-compare. Their semantics mirror the tree implementations
//! in [`crate::passes`] instruction for instruction; the differential
//! suite (`tests/arena_equivalence.rs`) pins the two to byte-identical C
//! output across random BLACs and pass schedules.
//!
//! [`fingerprint`](Arena::fingerprint) hashes the reachable program
//! content-addressed (interned ids are resolved through the pools), which
//! is what the cross-candidate memoization in `lgen-core` keys on.

use crate::ir::{ArrayDecl, ArrayId, ArrayKind, Inst, OverheadKind, VArith, VMove, VReg};
use crate::map::MemMap;
use crate::passes::{UnrollDecision, UnrollPolicy};
use lgen_absint::{
    loop_index_value, AbstractDomain, AffineExpr, IntervalCongruence, LoopSpec, VarId,
};
use std::collections::{HashMap, HashSet};

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
pub struct TermVec {
    len: u32,
    inline: [(i64, VarId); INLINE_TERMS],
    spill: Vec<(i64, VarId)>,
}

impl TermVec {
    fn from_slice(terms: &[(i64, VarId)]) -> Self {
        if terms.len() <= INLINE_TERMS {
            let mut inline = [(0i64, 0usize); INLINE_TERMS];
            inline[..terms.len()].copy_from_slice(terms);
            TermVec {
                len: terms.len() as u32,
                inline,
                spill: Vec::new(),
            }
        } else {
            TermVec {
                len: terms.len() as u32,
                inline: [(0, 0); INLINE_TERMS],
                spill: terms.to_vec(),
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

/// The shared affine-expression side-table: deduplicated, append-only.
#[derive(Clone, Debug, Default)]
pub struct ExprPool {
    exprs: Vec<ExprData>,
    /// content hash → candidate ids (collision chain).
    intern: HashMap<u64, Vec<ExprId>>,
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
        let h = hash_expr(constant, terms);
        let chain = self.intern.entry(h).or_default();
        for &id in chain.iter() {
            let e = &self.exprs[id.0 as usize];
            if e.constant == constant && e.terms.as_slice() == terms {
                return id;
            }
        }
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(ExprData {
            constant,
            terms: TermVec::from_slice(terms),
        });
        self.intern
            .get_mut(&h)
            .expect("chain just created")
            .push(id);
        id
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

    fn to_affine(&self, id: ExprId) -> AffineExpr {
        AffineExpr {
            terms: self.terms(id).to_vec(),
            constant: self.constant(id),
        }
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

/// A C-IR instruction in arena form: `Copy`, with every heap-bearing
/// operand replaced by an interned id. Mirrors [`Inst`] one-to-one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AInst {
    /// Generic load (see [`Inst::GLoad`]).
    GLoad {
        /// Destination register.
        dst: VReg,
        /// Source array.
        arr: ArrayId,
        /// Interned affine address.
        addr: ExprId,
        /// Interned offset→lane map.
        map: MapId,
        /// Proven 16-byte aligned.
        aligned: bool,
    },
    /// Generic store (see [`Inst::GStore`]).
    GStore {
        /// Source register.
        src: VReg,
        /// Destination array.
        arr: ArrayId,
        /// Interned affine address.
        addr: ExprId,
        /// Interned offset→lane map.
        map: MapId,
        /// Proven 16-byte aligned.
        aligned: bool,
    },
    /// Arithmetic (see [`Inst::Arith`]).
    Arith {
        /// Operation.
        op: VArith,
        /// Destination register.
        dst: VReg,
        /// First source.
        a: VReg,
        /// Second source.
        b: VReg,
    },
    /// Register move (see [`Inst::Move`]).
    Move {
        /// Operation.
        op: VMove,
        /// Destination register.
        dst: VReg,
        /// Primary source.
        a: VReg,
        /// Secondary source.
        b: VReg,
    },
    /// Schedule-only overhead (see [`Inst::Overhead`]).
    Overhead {
        /// Kind.
        kind: OverheadKind,
        /// Count.
        count: u16,
    },
    /// A counted loop over an arena block (see [`Inst::Loop`]).
    Loop {
        /// Loop variable id.
        var: VarId,
        /// Interned variable name.
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

/// A kernel body in arena form: flat instruction and block tables plus
/// the interning pools. Built from a tree body once per pipeline run
/// ([`Arena::from_body`]), mutated in place by the arena passes, and
/// converted back once ([`Arena::to_body`]).
#[derive(Clone, Debug, Default)]
pub struct Arena {
    /// All instructions, dead ones included (passes splice id lists;
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
    /// Builds an arena from a tree body; returns the arena and the root
    /// block.
    pub fn from_body(body: &[Inst]) -> (Arena, BlockId) {
        let mut arena = Arena::default();
        let root = arena.import_block(body);
        (arena, root)
    }

    /// The instruction ids of a block, in program order. Read-only view
    /// for analyses (`lgen-analysis`) walking the arena without mutating
    /// it.
    pub fn block(&self, b: BlockId) -> &[InstId] {
        &self.blocks[b.0 as usize]
    }

    /// Resolves one instruction id.
    pub fn inst(&self, id: InstId) -> &AInst {
        &self.insts[id.0 as usize]
    }

    fn import_block(&mut self, body: &[Inst]) -> BlockId {
        let ids: Vec<InstId> = body.iter().map(|i| self.import_inst(i)).collect();
        let b = BlockId(self.blocks.len() as u32);
        self.blocks.push(ids);
        b
    }

    fn import_inst(&mut self, inst: &Inst) -> InstId {
        let a = match inst {
            Inst::GLoad {
                dst,
                arr,
                addr,
                map,
                aligned,
            } => AInst::GLoad {
                dst: *dst,
                arr: *arr,
                addr: self.intern_expr(addr),
                map: self.maps.intern(map),
                aligned: *aligned,
            },
            Inst::GStore {
                src,
                arr,
                addr,
                map,
                aligned,
            } => AInst::GStore {
                src: *src,
                arr: *arr,
                addr: self.intern_expr(addr),
                map: self.maps.intern(map),
                aligned: *aligned,
            },
            Inst::Arith { op, dst, a, b } => AInst::Arith {
                op: *op,
                dst: *dst,
                a: *a,
                b: *b,
            },
            Inst::Move { op, dst, a, b } => AInst::Move {
                op: *op,
                dst: *dst,
                a: *a,
                b: *b,
            },
            Inst::Overhead { kind, count } => AInst::Overhead {
                kind: *kind,
                count: *count,
            },
            Inst::Loop {
                var,
                name,
                start,
                end,
                step,
                body,
            } => {
                let block = self.import_block(body);
                AInst::Loop {
                    var: *var,
                    name: self.syms.intern(name),
                    start: *start,
                    end: *end,
                    step: *step,
                    body: block,
                }
            }
        };
        self.push(a)
    }

    fn push(&mut self, inst: AInst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        id
    }

    /// Interns an [`AffineExpr`] (which is normalized by construction).
    pub fn intern_expr(&mut self, e: &AffineExpr) -> ExprId {
        self.exprs.intern(e.constant, &e.terms)
    }

    /// Converts a block back into a tree body.
    pub fn to_body(&self, block: BlockId) -> Vec<Inst> {
        self.blocks[block.0 as usize]
            .iter()
            .map(|&id| self.export_inst(id))
            .collect()
    }

    fn export_inst(&self, id: InstId) -> Inst {
        match self.insts[id.0 as usize] {
            AInst::GLoad {
                dst,
                arr,
                addr,
                map,
                aligned,
            } => Inst::GLoad {
                dst,
                arr,
                addr: self.exprs.to_affine(addr),
                map: self.maps.get(map).clone(),
                aligned,
            },
            AInst::GStore {
                src,
                arr,
                addr,
                map,
                aligned,
            } => Inst::GStore {
                src,
                arr,
                addr: self.exprs.to_affine(addr),
                map: self.maps.get(map).clone(),
                aligned,
            },
            AInst::Arith { op, dst, a, b } => Inst::Arith { op, dst, a, b },
            AInst::Move { op, dst, a, b } => Inst::Move { op, dst, a, b },
            AInst::Overhead { kind, count } => Inst::Overhead { kind, count },
            AInst::Loop {
                var,
                name,
                start,
                end,
                step,
                body,
            } => Inst::Loop {
                var,
                name: self.syms.get(name).to_string(),
                start,
                end,
                step,
                body: self.to_body(body),
            },
        }
    }

    /// Substitutes `var := value` in a pooled expression, returning the
    /// (interned) result.
    fn subst_expr(&mut self, e: ExprId, var: VarId, value: i64) -> ExprId {
        let terms = self.exprs.terms(e);
        if !terms.iter().any(|t| t.1 == var) {
            return e;
        }
        let mut out: Vec<(i64, VarId)> = Vec::with_capacity(terms.len());
        let mut constant = self.exprs.constant(e);
        for &(c, v) in terms {
            if v == var {
                constant += c * value;
            } else {
                out.push((c, v));
            }
        }
        self.exprs.intern(constant, &out)
    }

    /// Adds `delta` to a pooled expression's constant.
    fn offset_expr(&mut self, e: ExprId, delta: i64) -> ExprId {
        if delta == 0 {
            return e;
        }
        let terms = self.exprs.terms(e).to_vec();
        let constant = self.exprs.constant(e) + delta;
        self.exprs.intern(constant, &terms)
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
// Arena passes. Each mirrors its tree twin in `crate::passes` exactly;
// change is tracked explicitly instead of by clone-and-compare.
// ---------------------------------------------------------------------------

/// Number of iterations of a counted loop `for (v = start; v < end;
/// v += step)`. Every C-IR loop is fixed-size, so trip counts are a
/// *static* property — the basis of `lgen-analysis`'s loop-nest and
/// cost extraction as well as of both unroll passes (tree and arena).
pub fn trip_count(start: i64, end: i64, step: i64) -> usize {
    if end <= start {
        0
    } else {
        ((end - start + step - 1) / step) as usize
    }
}

/// Loop unrolling under `policy`, bottom-up (twin of
/// [`crate::passes::unroll`](fn@crate::passes::unroll)). Returns whether the block changed.
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
            let wb = BlockId(a.blocks.len() as u32);
            a.blocks.push(widened);
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
/// copies to `out` (twin of [`crate::passes::subst_block`] — fresh
/// instructions, so later in-place passes cannot alias unrolled copies).
fn subst_block_into(a: &mut Arena, block: BlockId, var: VarId, value: i64, out: &mut Vec<InstId>) {
    let ids = a.blocks[block.0 as usize].clone();
    for id in ids {
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
                let nb = BlockId(a.blocks.len() as u32);
                a.blocks.push(inner);
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

/// Deep-copies `block` with `var` shifted by `delta` (twin of the tree
/// `shift_var` used by factor unrolling).
fn shift_block_into(a: &mut Arena, block: BlockId, var: VarId, delta: i64, out: &mut Vec<InstId>) {
    let ids = a.blocks[block.0 as usize].clone();
    for id in ids {
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
                let nb = BlockId(a.blocks.len() as u32);
                a.blocks.push(inner);
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

/// Copy propagation within straight-line regions, loops as barriers
/// (twin of [`crate::passes::copy_prop`](fn@crate::passes::copy_prop)). In-place; returns whether any
/// operand changed.
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

/// Dead-code elimination (twin of [`crate::passes::dce`](fn@crate::passes::dce)): fixpoint over
/// a flat liveness bitmap indexed by [`InstId`]. Returns whether any
/// instruction was removed.
pub fn dce_block(a: &mut Arena, root: BlockId, arrays: &[ArrayDecl]) -> bool {
    let mut live = vec![false; a.insts.len()];
    loop {
        let mut used: HashSet<VReg> = HashSet::new();
        let mut read: HashSet<usize> = HashSet::new();
        dce_collect_uses(a, root, &live, &mut used, &mut read);
        let mut grew = false;
        dce_mark(a, root, &mut live, arrays, &used, &read, &mut grew);
        if !grew {
            break;
        }
    }
    dce_filter(a, root, &live)
}

/// Gathers registers and arrays used by currently-live instructions.
fn dce_collect_uses(
    a: &Arena,
    block: BlockId,
    live: &[bool],
    used: &mut HashSet<VReg>,
    read: &mut HashSet<usize>,
) {
    for &id in &a.blocks[block.0 as usize] {
        match a.insts[id.0 as usize] {
            AInst::Loop { body, .. } => dce_collect_uses(a, body, live, used, read),
            inst if live[id.0 as usize] => match inst {
                AInst::GLoad { arr, .. } => {
                    read.insert(arr.0);
                }
                AInst::GStore { src, .. } => {
                    used.insert(src);
                }
                AInst::Arith { op, dst, a, b } => {
                    used.insert(a);
                    used.insert(b);
                    if op.reads_dst() {
                        used.insert(dst);
                    }
                }
                AInst::Move { op, a, b, .. } => match op {
                    VMove::Zero => {}
                    VMove::Mov | VMove::Splat(_) | VMove::GetLane(_) => {
                        used.insert(a);
                    }
                    VMove::Shuf(_) | VMove::SetLane(_) => {
                        used.insert(a);
                        used.insert(b);
                    }
                },
                AInst::Overhead { .. } => {}
                AInst::Loop { .. } => unreachable!(),
            },
            _ => {}
        }
    }
}

fn dce_mark(
    a: &Arena,
    block: BlockId,
    live: &mut [bool],
    arrays: &[ArrayDecl],
    used: &HashSet<VReg>,
    read: &HashSet<usize>,
    grew: &mut bool,
) {
    for &id in &a.blocks[block.0 as usize] {
        let newly = match a.insts[id.0 as usize] {
            AInst::GStore { arr, .. } => {
                arrays[arr.0].kind != ArrayKind::Local || read.contains(&arr.0)
            }
            AInst::Overhead { .. } => true,
            AInst::GLoad { dst, .. } | AInst::Arith { dst, .. } | AInst::Move { dst, .. } => {
                used.contains(&dst)
            }
            AInst::Loop { body, .. } => {
                dce_mark(a, body, live, arrays, used, read, grew);
                // The loop node itself is kept iff its body has live
                // code; decided at filter time, no mark needed.
                false
            }
        };
        if newly && !live[id.0 as usize] {
            live[id.0 as usize] = true;
            *grew = true;
        }
    }
}

fn dce_filter(a: &mut Arena, block: BlockId, live: &[bool]) -> bool {
    let ids = std::mem::take(&mut a.blocks[block.0 as usize]);
    let mut out = Vec::with_capacity(ids.len());
    let mut changed = false;
    for id in ids {
        match a.insts[id.0 as usize] {
            AInst::Loop { body, .. } => {
                changed |= dce_filter(a, body, live);
                if a.blocks[body.0 as usize].is_empty() {
                    changed = true;
                } else {
                    out.push(id);
                }
            }
            _ if live[id.0 as usize] => out.push(id),
            _ => changed = true,
        }
    }
    a.blocks[block.0 as usize] = out;
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
/// if the footprints differ; this coarse check errs on the safe side
/// (twin of the tree `may_overlap`).
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

/// Scalar replacement over generic load/store footprints (twin of
/// [`crate::passes::scalar_replacement`](fn@crate::passes::scalar_replacement)). Returns whether any load was
/// forwarded.
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

/// Alignment detection under the all-aligned assumption (twin of
/// [`crate::passes::detect_alignment`] with zero base offsets, the shape
/// the `align` pass runs). Returns whether any mark changed.
pub fn align_block(a: &mut Arena, block: BlockId, base_offsets: &[usize]) -> bool {
    let mut env: HashMap<VarId, IntervalCongruence> = HashMap::new();
    let mut changed = false;
    align_walk(a, block, &mut env, base_offsets, &mut changed);
    changed
}

fn align_walk(
    a: &mut Arena,
    block: BlockId,
    env: &mut HashMap<VarId, IntervalCongruence>,
    base_offsets: &[usize],
    changed: &mut bool,
) {
    let ids = a.blocks[block.0 as usize].clone();
    for id in ids {
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
                let mark = if a.maps.get(map).contiguous_bytes() != Some(16) {
                    // Only full-width contiguous accesses have aligned
                    // instruction variants.
                    false
                } else {
                    let base = base_offsets[arr.0] as i64;
                    let mut v = IntervalCongruence::constant(a.exprs.constant(addr));
                    for &(coeff, var) in a.exprs.terms(addr) {
                        let val = env
                            .get(&var)
                            .copied()
                            .unwrap_or_else(IntervalCongruence::top);
                        v = v.add(&IntervalCongruence::constant(coeff).mul(&val));
                    }
                    v = v.add(&IntervalCongruence::constant(base));
                    v.divisible_by(crate::passes::align::ALIGN_CLASSES as i64)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::passes;

    fn gemv_like_body() -> (Vec<Inst>, Vec<ArrayDecl>) {
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
        let k = b.finish(0);
        (k.versions[0].body.clone(), k.arrays)
    }

    #[test]
    fn round_trip_is_identity() {
        let (body, _) = gemv_like_body();
        let (arena, root) = Arena::from_body(&body);
        assert_eq!(arena.to_body(root), body);
    }

    #[test]
    fn interning_dedups_expressions_and_maps() {
        let (body, _) = gemv_like_body();
        let (arena, _) = Arena::from_body(&body);
        // Addresses: var(i) (used twice) and constant(0) (used twice).
        assert_eq!(arena.exprs.len(), 2);
        assert_eq!(arena.maps.maps.len(), 1);
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let (body, _) = gemv_like_body();
        let (a1, r1) = Arena::from_body(&body);
        let (a2, r2) = Arena::from_body(&body);
        assert_eq!(a1.fingerprint(r1), a2.fingerprint(r2));
        // A semantically different body fingerprints differently.
        let mut other = body.clone();
        other.pop();
        let (a3, r3) = Arena::from_body(&other);
        assert_ne!(a1.fingerprint(r1), a3.fingerprint(r3));
    }

    /// Each arena pass agrees with its tree twin on this body, for every
    /// unroll policy (deeper coverage lives in
    /// `tests/arena_equivalence.rs`).
    #[test]
    fn arena_passes_match_tree_passes() {
        for policy in [
            UnrollPolicy::None,
            UnrollPolicy::Full { max_trip: 8 },
            UnrollPolicy::Factor { factor: 2 },
        ] {
            let (body, arrays) = gemv_like_body();

            let mut tree = passes::unroll(body.clone(), policy);
            tree = passes::scalar_replacement(tree, &arrays);
            tree = passes::copy_prop(tree);
            tree = passes::dce(tree, &arrays);
            passes::detect_alignment(&mut tree, &vec![0; arrays.len()]);

            let (mut arena, root) = Arena::from_body(&body);
            unroll_block(&mut arena, root, policy);
            scalar_replacement_block(&mut arena, root, &arrays);
            copy_prop_block(&mut arena, root);
            dce_block(&mut arena, root, &arrays);
            align_block(&mut arena, root, &vec![0; arrays.len()]);

            assert_eq!(arena.to_body(root), tree, "policy {policy:?}");
        }
    }

    #[test]
    fn change_tracking_reaches_fixpoint() {
        let (body, arrays) = gemv_like_body();
        let (mut arena, root) = Arena::from_body(&body);
        assert!(unroll_block(
            &mut arena,
            root,
            UnrollPolicy::Full { max_trip: 8 }
        ));
        assert!(scalar_replacement_block(&mut arena, root, &arrays));
        assert!(copy_prop_block(&mut arena, root));
        assert!(dce_block(&mut arena, root, &arrays));
        // Second runs find nothing to do.
        assert!(!scalar_replacement_block(&mut arena, root, &arrays));
        assert!(!copy_prop_block(&mut arena, root));
        assert!(!dce_block(&mut arena, root, &arrays));
        let first = align_block(&mut arena, root, &vec![0; arrays.len()]);
        assert!(first);
        assert!(!align_block(&mut arena, root, &vec![0; arrays.len()]));
    }
}
