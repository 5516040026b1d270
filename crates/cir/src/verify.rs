//! Static verification of C-IR kernels by abstract interpretation.
//!
//! The optimization passes rewrite the instruction stream with no
//! machine-checked invariants; this module closes that gap with a verifier
//! that every pass output can be run through ([`verify_kernel`]). It checks,
//! per kernel version:
//!
//! 1. **def-before-use** — a must-defined dataflow over registers (with
//!    per-lane masks) through the loop structure, including back-edges:
//!    register definitions inside a loop body persist after the loop iff
//!    the loop executes at least once, and the body is verified against its
//!    weakest (first-iteration) entry state;
//! 2. **out-of-bounds detection** — every load/store/gather/scatter address
//!    is evaluated in `lgen-absint`'s reduced Interval×Congruence product
//!    against the array's static size plus the interpreter's
//!    `ARRAY_PAD` contract (NEON-style "load ν, keep fewer" accesses
//!    legitimately read into the padding);
//! 3. **vector-width/lane consistency** — lane indices of
//!    `Splat`/`Shuf`/`SetLane`/`GetLane`/`MulLane`/`FmaLane` are in range
//!    and every operation reads only lanes its operands defined;
//! 4. **scalar-replacement soundness** — a surviving load from a local
//!    array must overlap a store that may have written it (if DCE or scalar
//!    replacement forwarded every defining store away but left the load
//!    behind, the abstract footprints cannot intersect and the load is
//!    reported).
//!
//! All reports are [`Diagnostic`]s carrying the version, the flat pre-order
//! instruction index, and the abstract value that triggered them. The
//! verifier is deliberately conservative in the no-false-positive
//! direction: anything the pipeline legitimately emits verifies clean, and
//! a nonempty report always indicates a genuine invariant violation.

use crate::arena::{AInst, Arena, BlockId, ExprId};
use crate::diag::{render, render_value, Check, Diagnostic};
use crate::interp::ARRAY_PAD;
use crate::ir::{ArrayId, ArrayKind, Kernel, VArith, VMove, VReg};
use crate::map::MemMap;
use lgen_absint::interval::Bound;
use lgen_absint::{
    loop_index_value, AbstractDomain, Interval, IntervalCongruence, LoopSpec, VarId,
};
use std::collections::HashMap;
use std::fmt;

/// How much verification the pass manager runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum VerifyLevel {
    /// No verification (the default).
    #[default]
    Off,
    /// Verify at pipeline boundaries only: the codegen output entering the
    /// passes, and the final kernel leaving them.
    Boundaries,
    /// Verify between every individual pass, so a failure pinpoints the
    /// exact transformation that broke an invariant (`--verify=paranoid`).
    EveryPass,
}

impl VerifyLevel {
    /// Whether any verification runs at all.
    pub fn is_enabled(self) -> bool {
        self != VerifyLevel::Off
    }

    /// Reads the `LGEN_VERIFY` environment variable: unset/`0`/`off` →
    /// [`Off`](Self::Off), `paranoid`/`every-pass` →
    /// [`EveryPass`](Self::EveryPass), anything else (`1`, `on`,
    /// `boundaries`, …) → [`Boundaries`](Self::Boundaries). This is how CI
    /// runs the examples under full verification without changing their
    /// code.
    pub fn from_env() -> Self {
        match std::env::var("LGEN_VERIFY").as_deref() {
            Err(_) | Ok("") | Ok("0") | Ok("off") => VerifyLevel::Off,
            Ok("paranoid") | Ok("every-pass") => VerifyLevel::EveryPass,
            Ok(_) => VerifyLevel::Boundaries,
        }
    }
}

/// A verification failure, pinpointing the pass after which the kernel
/// first failed.
#[derive(Clone, Debug)]
pub struct VerifyFailure {
    /// Name of the stage whose output failed ("codegen" is the pipeline
    /// input).
    pub pass: &'static str,
    /// The reports, in instruction order.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel verification failed after `{}` ({} diagnostic(s)):\n{}",
            self.pass,
            self.diagnostics.len(),
            render(&self.diagnostics)
        )
    }
}

impl std::error::Error for VerifyFailure {}

/// Runs [`verify_kernel`] if `level` asks for a check at this point;
/// `boundary` marks pipeline entry/exit stages (checked at
/// [`VerifyLevel::Boundaries`] and up; interior stages only at
/// [`VerifyLevel::EveryPass`]).
pub fn verify_stage(
    pass: &'static str,
    kernel: &Kernel,
    level: VerifyLevel,
    boundary: bool,
) -> Result<(), VerifyFailure> {
    let run = match level {
        VerifyLevel::Off => false,
        VerifyLevel::Boundaries => boundary,
        VerifyLevel::EveryPass => true,
    };
    if !run {
        return Ok(());
    }
    let diagnostics = verify_kernel(kernel);
    if diagnostics.is_empty() {
        Ok(())
    } else {
        Err(VerifyFailure { pass, diagnostics })
    }
}

/// Statically verifies every version of `kernel`, returning all reports
/// (empty = clean).
pub fn verify_kernel(kernel: &Kernel) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if kernel.versions.is_empty() {
        diags.push(Diagnostic {
            check: Check::Structure,
            version: 0,
            inst: 0,
            opcode: "Kernel".into(),
            detail: "kernel has no versions".into(),
            array: None,
            reg: None,
            value: None,
        });
        return diags;
    }
    if kernel.versions.len() > 1 {
        let last = kernel.versions.last().expect("nonempty");
        if last.required_offsets.is_some() {
            diags.push(Diagnostic {
                check: Check::Structure,
                version: kernel.versions.len() - 1,
                inst: 0,
                opcode: "Kernel".into(),
                detail: "last version is not the unconditional fallback".into(),
                array: None,
                reg: None,
                value: None,
            });
        }
    }
    for (vi, version) in kernel.versions.iter().enumerate() {
        let mut v = Verifier {
            kernel,
            arena: &version.arena,
            version: vi,
            idx: 0,
            env: HashMap::new(),
            regs: HashMap::new(),
            writes: HashMap::new(),
            diags: Vec::new(),
        };
        v.block(version.root);
        diags.append(&mut v.diags);
    }
    diags
}

/// All four lanes of a ν = 4 register.
const ALL_LANES: u8 = 0b1111;

/// Mask of the low `n` lanes.
fn low_lanes(n: usize) -> u8 {
    (1u8 << n) - 1
}

/// Mask of the lanes a memory map touches.
fn map_lanes(map: &MemMap) -> u8 {
    map.entries().iter().fold(0, |m, &(_, l)| m | (1 << l))
}

/// Renders a lane mask as a comma-separated lane list (`0,2`).
fn lane_list(mask: u8) -> String {
    let lanes: Vec<String> = (0..4)
        .filter(|l| mask & (1 << l) != 0)
        .map(|l| l.to_string())
        .collect();
    lanes.join(",")
}

/// Whether an abstract index provably stays inside `[0, limit)`.
fn in_bounds(v: &IntervalCongruence, limit: i64) -> bool {
    match v.interval() {
        Interval::Bottom => true,
        iv => {
            matches!(iv.lo(), Some(Bound::Finite(lo)) if lo >= 0)
                && matches!(iv.hi(), Some(Bound::Finite(hi)) if hi < limit)
        }
    }
}

/// Per-version verifier state.
struct Verifier<'k> {
    kernel: &'k Kernel,
    /// The version's body.
    arena: &'k Arena,
    version: usize,
    /// Flat pre-order index of the next instruction.
    idx: usize,
    /// Loop variable → abstract value at the current program point.
    env: HashMap<VarId, IntervalCongruence>,
    /// Register → mask of must-defined lanes.
    regs: HashMap<VReg, u8>,
    /// Local array → abstract indices of all stores seen so far
    /// (may-written footprints).
    writes: HashMap<usize, Vec<IntervalCongruence>>,
    diags: Vec<Diagnostic>,
}

impl Verifier<'_> {
    #[allow(clippy::too_many_arguments)]
    fn report(
        &mut self,
        here: usize,
        check: Check,
        opcode: &str,
        detail: String,
        array: Option<ArrayId>,
        reg: Option<VReg>,
        value: Option<IntervalCongruence>,
    ) {
        self.diags.push(Diagnostic {
            check,
            version: self.version,
            inst: here,
            opcode: opcode.to_string(),
            detail,
            array,
            reg,
            value,
        });
    }

    /// Checks a register read of the lanes in `need`. Reads of entirely
    /// undefined registers are [`Check::UseBeforeDef`]; reads of defined
    /// registers with missing lanes are [`Check::LaneConsistency`]. Either
    /// way the register is marked defined afterwards to suppress cascading
    /// reports.
    fn use_reg(&mut self, here: usize, opcode: &str, role: &str, r: VReg, need: u8) {
        match self.regs.get(&r).copied() {
            None => {
                self.report(
                    here,
                    Check::UseBeforeDef,
                    opcode,
                    format!("register r{r} ({role}) read before definition"),
                    None,
                    Some(r),
                    None,
                );
                self.regs.insert(r, ALL_LANES);
            }
            Some(m) if m & need != need => {
                self.report(
                    here,
                    Check::LaneConsistency,
                    opcode,
                    format!(
                        "lane(s) {} of r{r} ({role}) read but never defined",
                        lane_list(need & !m)
                    ),
                    None,
                    Some(r),
                    None,
                );
                self.regs.insert(r, m | need);
            }
            Some(_) => {}
        }
    }

    /// The defined-lane mask of `r`, reporting a use-before-def if the
    /// register is entirely undefined (for mask-propagating ops like
    /// `Mov`).
    fn use_reg_any(&mut self, here: usize, opcode: &str, role: &str, r: VReg) -> u8 {
        if let Some(m) = self.regs.get(&r).copied() {
            m
        } else {
            self.use_reg(here, opcode, role, r, ALL_LANES);
            ALL_LANES
        }
    }

    fn def_reg(&mut self, r: VReg, mask: u8) {
        self.regs.insert(r, mask);
    }

    /// Reports `lane >= limit` lane indices ([`Check::LaneConsistency`]).
    fn check_lane(&mut self, here: usize, opcode: &str, lane: u8, limit: u8) -> bool {
        if lane >= limit {
            self.report(
                here,
                Check::LaneConsistency,
                opcode,
                format!("lane index {lane} out of range (< {limit})"),
                None,
                None,
                None,
            );
            false
        } else {
            true
        }
    }

    /// Evaluates an address in the current loop environment; unbound
    /// variables are reported once and treated as ⊤.
    fn eval_addr(
        &mut self,
        here: usize,
        opcode: &str,
        arr: ArrayId,
        addr: ExprId,
    ) -> IntervalCongruence {
        for &(_, v) in self.arena.exprs.terms(addr) {
            if !self.env.contains_key(&v) {
                self.report(
                    here,
                    Check::Structure,
                    opcode,
                    format!("address references loop variable i{v} outside its loop"),
                    Some(arr),
                    None,
                    None,
                );
            }
        }
        self.arena.eval_expr(addr, &self.env)
    }

    /// Bounds-checks one access and returns the abstract index of every map
    /// entry. The in-bounds region is `[0, len + ARRAY_PAD)` — exactly the
    /// interpreter's contract (partial vector accesses legitimately read
    /// the safety padding). At most one diagnostic per access.
    fn check_access(
        &mut self,
        here: usize,
        opcode: &str,
        verb: &str,
        arr: ArrayId,
        addr: ExprId,
        map: &MemMap,
    ) -> Vec<IntervalCongruence> {
        let base = self.eval_addr(here, opcode, arr, addr);
        let decl = &self.kernel.arrays[arr.0];
        let limit = (decl.len + ARRAY_PAD) as i64;
        let name = decl.name.clone();
        let len = decl.len;
        let mut vals = Vec::with_capacity(map.entries().len());
        let mut worst: Option<IntervalCongruence> = None;
        // The interpreter bounds-checks the bare base address too.
        if !in_bounds(&base, limit) {
            worst = Some(base);
        }
        for &(off, _) in map.entries() {
            let v = base.add(&IntervalCongruence::constant(off));
            if worst.is_none() && !in_bounds(&v, limit) {
                worst = Some(v);
            }
            vals.push(v);
        }
        if let Some(v) = worst {
            self.report(
                here,
                Check::OutOfBounds,
                opcode,
                format!(
                    "{verb} `{name}` index {} may leave [0, {limit}) (len {len} + pad {ARRAY_PAD})",
                    render_value(&v)
                ),
                Some(arr),
                None,
                Some(v),
            );
        }
        vals
    }

    /// Records the footprint of a store to a local array.
    fn record_local_write(&mut self, arr: ArrayId, vals: &[IntervalCongruence]) {
        if self.kernel.arrays[arr.0].kind == ArrayKind::Local {
            self.writes
                .entry(arr.0)
                .or_default()
                .extend_from_slice(vals);
        }
    }

    /// Check 4: a load from a local array must overlap some store that may
    /// have written it (meet ≠ ⊥ against at least one recorded footprint).
    fn check_local_read(&mut self, here: usize, arr: ArrayId, vals: &[IntervalCongruence]) {
        if self.kernel.arrays[arr.0].kind != ArrayKind::Local {
            return;
        }
        let offending = vals
            .iter()
            .find(|v| {
                !v.is_bottom()
                    && !self
                        .writes
                        .get(&arr.0)
                        .is_some_and(|ws| ws.iter().any(|w| !w.meet(v).is_bottom()))
            })
            .cloned();
        if let Some(v) = offending {
            let name = self.kernel.arrays[arr.0].name.clone();
            self.report(
                here,
                Check::LocalDataflow,
                "GLoad",
                format!(
                    "load from local `{name}` index {} overlaps no store (defining store forwarded away?)",
                    render_value(&v)
                ),
                Some(arr),
                None,
                Some(v),
            );
        }
    }

    /// Recursively records local-store footprints of a loop body *before*
    /// verifying it, so that on loops with ≥ 2 iterations a load may
    /// legitimately read what a later store in the same body wrote on the
    /// previous iteration (back-edge may-writes).
    fn prescan_writes(&mut self, block: BlockId) {
        let arena = self.arena;
        for &id in arena.block(block) {
            match arena.inst(id) {
                AInst::GStore { arr, addr, map, .. }
                    if self.kernel.arrays[arr.0].kind == ArrayKind::Local =>
                {
                    let base = arena.eval_expr(*addr, &self.env);
                    let vals: Vec<_> = arena
                        .maps
                        .get(*map)
                        .entries()
                        .iter()
                        .map(|&(off, _)| base.add(&IntervalCongruence::constant(off)))
                        .collect();
                    self.writes.entry(arr.0).or_default().extend(vals);
                }
                AInst::Loop {
                    var,
                    name,
                    start,
                    end,
                    step,
                    body,
                } if *step > 0 => {
                    let spec = LoopSpec::new(arena.syms.get(*name), *start, *end, *step);
                    if spec.trip_count() >= 1 {
                        let saved = self.env.insert(*var, loop_index_value(&spec));
                        self.prescan_writes(*body);
                        match saved {
                            Some(s) => self.env.insert(*var, s),
                            None => self.env.remove(var),
                        };
                    }
                }
                _ => {}
            }
        }
    }

    fn block(&mut self, block: BlockId) {
        let arena = self.arena;
        for &id in arena.block(block) {
            let here = self.idx;
            self.idx += 1;
            match arena.inst(id) {
                AInst::GLoad {
                    dst,
                    arr,
                    addr,
                    map,
                    ..
                } => {
                    let map = arena.maps.get(*map);
                    let vals = self.check_access(here, "GLoad", "load from", *arr, *addr, map);
                    self.check_local_read(here, *arr, &vals);
                    // Unmapped lanes are zero-filled: the whole register is
                    // defined.
                    self.def_reg(*dst, ALL_LANES);
                }
                AInst::GStore {
                    src,
                    arr,
                    addr,
                    map,
                    ..
                } => {
                    let map = arena.maps.get(*map);
                    self.use_reg(here, "GStore", "src", *src, map_lanes(map));
                    let vals = self.check_access(here, "GStore", "store to", *arr, *addr, map);
                    self.record_local_write(*arr, &vals);
                }
                AInst::Arith { op, dst, a, b } => {
                    let opcode = format!("{op:?}");
                    match *op {
                        VArith::Add(w) | VArith::Mul(w) => {
                            let need = low_lanes(w.lanes());
                            self.use_reg(here, &opcode, "a", *a, need);
                            self.use_reg(here, &opcode, "b", *b, need);
                            // Upper lanes are zeroed: fully defined.
                            self.def_reg(*dst, ALL_LANES);
                        }
                        VArith::Hadd => {
                            self.use_reg(here, &opcode, "a", *a, ALL_LANES);
                            self.use_reg(here, &opcode, "b", *b, ALL_LANES);
                            self.def_reg(*dst, ALL_LANES);
                        }
                        VArith::Pairwise => {
                            self.use_reg(here, &opcode, "a", *a, 0b0011);
                            self.use_reg(here, &opcode, "b", *b, 0b0011);
                            self.def_reg(*dst, ALL_LANES);
                        }
                        VArith::Fma(w) => {
                            let need = low_lanes(w.lanes());
                            self.use_reg(here, &opcode, "a", *a, need);
                            self.use_reg(here, &opcode, "b", *b, need);
                            // Accumulating: dst is read and only its low
                            // lanes are rewritten.
                            self.use_reg(here, &opcode, "acc", *dst, need);
                            let old = self.regs.get(dst).copied().unwrap_or(0);
                            self.def_reg(*dst, old | need);
                        }
                        VArith::MulLane(w, lane) => {
                            self.check_lane(here, &opcode, lane, 4);
                            self.use_reg(here, &opcode, "a", *a, low_lanes(w.lanes()));
                            self.use_reg(here, &opcode, "b", *b, 1 << lane.min(3));
                            self.def_reg(*dst, ALL_LANES);
                        }
                        VArith::FmaLane(w, lane) => {
                            let need = low_lanes(w.lanes());
                            self.check_lane(here, &opcode, lane, 4);
                            self.use_reg(here, &opcode, "a", *a, need);
                            self.use_reg(here, &opcode, "b", *b, 1 << lane.min(3));
                            self.use_reg(here, &opcode, "acc", *dst, need);
                            let old = self.regs.get(dst).copied().unwrap_or(0);
                            self.def_reg(*dst, old | need);
                        }
                    }
                }
                AInst::Move { op, dst, a, b } => {
                    let opcode = format!("{op:?}");
                    match *op {
                        VMove::Mov => {
                            // `dst = a`: the defined-lane mask propagates.
                            let m = self.use_reg_any(here, &opcode, "a", *a);
                            self.def_reg(*dst, m);
                        }
                        VMove::Zero => self.def_reg(*dst, ALL_LANES),
                        VMove::Splat(lane) => {
                            self.check_lane(here, &opcode, lane, 4);
                            self.use_reg(here, &opcode, "a", *a, 1 << lane.min(3));
                            self.def_reg(*dst, ALL_LANES);
                        }
                        VMove::Shuf(sel) => {
                            let (mut need_a, mut need_b) = (0u8, 0u8);
                            for &s in &sel {
                                if !self.check_lane(here, &opcode, s, 8) {
                                    continue;
                                }
                                if s < 4 {
                                    need_a |= 1 << s;
                                } else {
                                    need_b |= 1 << (s - 4);
                                }
                            }
                            if need_a != 0 {
                                self.use_reg(here, &opcode, "a", *a, need_a);
                            }
                            if need_b != 0 {
                                self.use_reg(here, &opcode, "b", *b, need_b);
                            }
                            self.def_reg(*dst, ALL_LANES);
                        }
                        VMove::SetLane(lane) => {
                            self.check_lane(here, &opcode, lane, 4);
                            // `dst = a` with `dst[lane] = b[0]`.
                            let m = self.use_reg_any(here, &opcode, "a", *a);
                            self.use_reg(here, &opcode, "b", *b, 0b0001);
                            self.def_reg(*dst, m | (1 << lane.min(3)));
                        }
                        VMove::GetLane(lane) => {
                            self.check_lane(here, &opcode, lane, 4);
                            self.use_reg(here, &opcode, "a", *a, 1 << lane.min(3));
                            self.def_reg(*dst, ALL_LANES);
                        }
                    }
                }
                AInst::Overhead { .. } => {}
                AInst::Loop {
                    var,
                    name,
                    start,
                    end,
                    step,
                    body,
                } => {
                    let name = arena.syms.get(*name);
                    if *step <= 0 {
                        self.report(
                            here,
                            Check::Structure,
                            "Loop",
                            format!("loop `{name}` step {step} is not positive"),
                            None,
                            None,
                            None,
                        );
                        self.idx += arena.count(*body);
                        continue;
                    }
                    let spec = LoopSpec::new(name, *start, *end, *step);
                    let trip = spec.trip_count();
                    if trip == 0 {
                        // The body never executes: skip it, keeping flat
                        // indices consistent. Its definitions do not reach
                        // past the loop.
                        self.idx += arena.count(*body);
                        continue;
                    }
                    let saved = self.env.insert(*var, loop_index_value(&spec));
                    if trip >= 2 {
                        // Stores later in the body may reach earlier loads
                        // via the back-edge.
                        self.prescan_writes(*body);
                    }
                    // The body is verified once against its weakest entry
                    // state (the first iteration: only pre-loop register
                    // definitions have happened). Definitions made in the
                    // body persist after the loop — it runs at least once.
                    self.block(*body);
                    match saved {
                        Some(s) => self.env.insert(*var, s),
                        None => self.env.remove(var),
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::VWidth;
    use lgen_absint::AffineExpr;

    fn assert_clean(kernel: &Kernel) {
        let diags = verify_kernel(kernel);
        assert!(diags.is_empty(), "expected clean:\n{}", render(&diags));
    }

    fn assert_flags(kernel: &Kernel, check: Check) -> Vec<Diagnostic> {
        let diags = verify_kernel(kernel);
        assert!(
            diags.iter().any(|d| d.check == check),
            "expected a {check:?} report, got:\n{}",
            render(&diags)
        );
        diags
    }

    /// A well-formed strided copy loop verifies clean, including the
    /// padding-reading partial access at the tail.
    #[test]
    fn clean_strided_loop() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 16);
        let y = b.output("y", 16);
        b.for_loop("i", 0, 16, 4, |b, i| {
            let v = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            b.store(v, y, AffineExpr::var(i), MemMap::horizontal(4));
        });
        assert_clean(&b.finish(0));
    }

    /// A three-float tail load at base 14 of a len-16 array reads indices
    /// 14..17 — inside the pad, clean. At base 21 it is out of bounds.
    #[test]
    fn pad_reads_are_clean_but_real_oob_is_flagged() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 16);
        let y = b.output("y", 16);
        let v = b.load(x, AffineExpr::constant(14), MemMap::horizontal(3));
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(3));
        assert_clean(&b.finish(0));

        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 16);
        let y = b.output("y", 16);
        let v = b.load(x, AffineExpr::constant(21), MemMap::horizontal(3));
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(3));
        let diags = assert_flags(&b.finish(0), Check::OutOfBounds);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].inst, 0);
        assert_eq!(diags[0].array, Some(ArrayId(0)));
    }

    /// OOB through a loop: `for i in (0..24).step 4: load x[i..i+4]` over a
    /// len-16 array walks past even the pad.
    #[test]
    fn loop_carried_oob() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 16);
        let y = b.output("y", 32);
        b.for_loop("i", 0, 24, 4, |b, i| {
            let v = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            b.store(v, y, AffineExpr::var(i), MemMap::horizontal(4));
        });
        let diags = assert_flags(&b.finish(0), Check::OutOfBounds);
        // The diagnostic carries the triggering abstract value.
        let d = diags
            .iter()
            .find(|d| d.check == Check::OutOfBounds)
            .unwrap();
        assert!(d.value.is_some());
        assert_eq!(d.array, Some(ArrayId(0)));
    }

    #[test]
    fn use_before_def_register() {
        let mut b = KernelBuilder::new("t");
        let y = b.output("y", 4);
        b.store(7, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let diags = assert_flags(&b.finish(0), Check::UseBeforeDef);
        assert_eq!(diags[0].reg, Some(7));
    }

    /// Uses inside a loop body are checked against the first-iteration
    /// state: a register defined only later in the body is flagged.
    #[test]
    fn use_before_def_across_backedge() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let y = b.output("y", 8);
        b.begin_loop("i", 0, 8, 4);
        // Stores r0, which the load after it defines.
        b.store(0, y, AffineExpr::var(0), MemMap::horizontal(4));
        let r = b.load(x, AffineExpr::var(0), MemMap::horizontal(4));
        assert_eq!(r, 0);
        b.end_loop();
        assert_flags(&b.finish(0), Check::UseBeforeDef);
    }

    /// Definitions inside a taken loop persist after it; inside a zero-trip
    /// loop they do not.
    #[test]
    fn loop_definitions_persist_iff_taken() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let y = b.output("y", 8);
        b.begin_loop("i", 0, 8, 4);
        let r = b.load(x, AffineExpr::var(0), MemMap::horizontal(4));
        b.end_loop();
        b.store(r, y, AffineExpr::constant(0), MemMap::horizontal(4));
        assert_clean(&b.finish(0));

        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let y = b.output("y", 8);
        b.begin_loop("i", 0, 0, 4); // zero-trip
        let r = b.load(x, AffineExpr::var(0), MemMap::horizontal(4));
        b.end_loop();
        b.store(r, y, AffineExpr::constant(0), MemMap::horizontal(4));
        assert_flags(&b.finish(0), Check::UseBeforeDef);
    }

    /// Lane consistency: Shuf selectors must be < 8, lane indices < 4.
    #[test]
    fn lane_indices_out_of_range() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 4);
        let y = b.output("y", 4);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        let w = b.mov_op(VMove::Shuf([0, 9, 1, 2]), v, v);
        b.store(w, y, AffineExpr::constant(0), MemMap::horizontal(4));
        assert_flags(&b.finish(0), Check::LaneConsistency);

        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 4);
        let y = b.output("y", 4);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        let w = b.mov_op(VMove::Splat(5), v, 0);
        b.store(w, y, AffineExpr::constant(0), MemMap::horizontal(4));
        assert_flags(&b.finish(0), Check::LaneConsistency);
    }

    /// FMA accumulators must be initialized before accumulation.
    #[test]
    fn fma_into_undefined_accumulator() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 4);
        let y = b.output("y", 4);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        let acc = b.fresh_reg();
        b.arith_acc(VArith::Fma(VWidth::Q), acc, v, v);
        b.store(acc, y, AffineExpr::constant(0), MemMap::horizontal(4));
        assert_flags(&b.finish(0), Check::UseBeforeDef);
    }

    /// Scalar-replacement soundness: a load from a local with no store at
    /// all (or only disjoint stores) is flagged; a matching store is clean.
    #[test]
    fn local_load_without_store() {
        let mut b = KernelBuilder::new("t");
        let t = b.local("t", 8);
        let y = b.output("y", 8);
        let v = b.load(t, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(4));
        assert_flags(&b.finish(0), Check::LocalDataflow);

        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let t = b.local("t", 8);
        let y = b.output("y", 8);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(v, t, AffineExpr::constant(0), MemMap::horizontal(4));
        let w = b.load(t, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(w, y, AffineExpr::constant(0), MemMap::horizontal(4));
        assert_clean(&b.finish(0));

        // Disjoint store: writes t[4..8], load reads t[0..4].
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let t = b.local("t", 8);
        let y = b.output("y", 8);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(v, t, AffineExpr::constant(4), MemMap::horizontal(4));
        let w = b.load(t, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(w, y, AffineExpr::constant(0), MemMap::horizontal(4));
        assert_flags(&b.finish(0), Check::LocalDataflow);
    }

    /// Back-edge stores: inside a multi-trip loop a load may read what a
    /// *later* store in the body wrote on the previous iteration.
    #[test]
    fn backedge_store_reaches_earlier_load() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let t = b.local("t", 8);
        let y = b.output("y", 8);
        // Initialize t before the loop so iteration 1 is covered too.
        let init = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(init, t, AffineExpr::constant(0), MemMap::horizontal(4));
        b.for_loop("i", 0, 8, 4, |b, i| {
            let v = b.load(t, AffineExpr::constant(0), MemMap::horizontal(4));
            b.store(v, y, AffineExpr::var(i), MemMap::horizontal(4));
            let nv = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            b.store(nv, t, AffineExpr::constant(0), MemMap::horizontal(4));
        });
        assert_clean(&b.finish(0));
    }

    /// An address using a loop variable outside its loop is structural
    /// breakage.
    #[test]
    fn unbound_loop_variable() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let y = b.output("y", 8);
        let v = b.load(x, AffineExpr::var(3), MemMap::horizontal(4));
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(4));
        assert_flags(&b.finish(0), Check::Structure);
    }

    #[test]
    fn verify_stage_levels() {
        let mut b = KernelBuilder::new("t");
        let y = b.output("y", 4);
        b.store(9, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let bad = b.finish(0);
        assert!(verify_stage("p", &bad, VerifyLevel::Off, true).is_ok());
        assert!(verify_stage("p", &bad, VerifyLevel::Boundaries, false).is_ok());
        assert!(verify_stage("p", &bad, VerifyLevel::Boundaries, true).is_err());
        let err = verify_stage("p", &bad, VerifyLevel::EveryPass, false).unwrap_err();
        assert_eq!(err.pass, "p");
        assert!(err.to_string().contains("use-before-def"));
    }

    #[test]
    fn verify_level_from_env_parsing() {
        // Uses the documented mapping without mutating the process env.
        assert!(!VerifyLevel::Off.is_enabled());
        assert!(VerifyLevel::Boundaries.is_enabled());
        assert!(VerifyLevel::EveryPass.is_enabled());
    }
}
