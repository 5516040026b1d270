//! Reference interpreter for C-IR kernels.
//!
//! Executes a kernel numerically (for correctness validation against naive
//! references, §5.1.4) while emitting the dynamic machine-instruction trace
//! through a [`TraceSink`] (for cycle measurement by `lgen-machine`). The
//! lowering of each C-IR instruction to machine opcodes is shared with the C
//! unparser, so the measured instruction stream is the printed one.
//!
//! Register ids in the trace are compact: the kernel's registers keep
//! their ids `0..nreg`, the temporaries of lowered sequences take
//! `nreg..nreg + MAX_LOWERED_OPS`, and the counter of loop variable `v`
//! is `nreg + MAX_LOWERED_OPS + v`. Every lowered sequence writes a
//! temporary before it reads it, so all sequences share the temporary
//! ids: a read always sees its own sequence's write.

use crate::arena::{AInst, Arena, BlockId, ExprId};
use crate::ir::{ArrayKind, Kernel, KernelVersion, VArith, VMove};
use crate::lower::{self, LoweredOp, Slot, MAX_LOWERED_OPS};
use crate::map::MemMap;
use lgen_isa::{MOp, MachInst, MemRef, Srcs, TraceSink, VectorIsa, MAX_SRCS};

/// Safety padding (floats) after each array, so that NEON's "load 4, keep 3"
/// trick (Fig. 3.4) never reads out of the buffer.
pub(crate) const ARRAY_PAD: usize = 4;

/// Placement of the kernel's arrays in a flat byte-addressed memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemLayout {
    /// Byte base address of each array (declaration order).
    pub bases: Vec<usize>,
    total_floats: usize,
}

impl MemLayout {
    /// Lays out every array at a 64-byte boundary (the paper's default:
    /// "unless otherwise stated, all the arrays … were 16-byte aligned").
    pub fn aligned(kernel: &Kernel) -> Self {
        Self::with_float_offsets(kernel, &vec![0; kernel.param_ids().len()])
    }

    /// Lays out parameter array `i` at a 64-byte boundary plus
    /// `offsets[i]` floats — the misalignment protocol of Fig. 5.9
    /// ("allocated at an aligned memory address plus an offset").
    /// Locals are always aligned.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` does not have one entry per parameter array.
    pub fn with_float_offsets(kernel: &Kernel, offsets: &[usize]) -> Self {
        let nparams = kernel.arrays.iter().filter(|a| a.kind.is_param()).count();
        assert_eq!(
            offsets.len(),
            nparams,
            "need one offset per parameter array"
        );
        let mut bases = Vec::with_capacity(kernel.arrays.len());
        let mut cursor = 0usize; // floats
        let mut param_idx = 0usize;
        for decl in &kernel.arrays {
            // Round up to a 64-byte (16-float) boundary.
            cursor = cursor.div_ceil(16) * 16;
            let off = if decl.kind.is_param() {
                let o = offsets[param_idx];
                param_idx += 1;
                o
            } else {
                0
            };
            bases.push((cursor + off) * 4);
            cursor += off + decl.len + ARRAY_PAD;
        }
        MemLayout {
            bases,
            total_floats: cursor,
        }
    }

    /// Bytes the layout spans from address 0: every array with its
    /// padding. No access of a run over this layout reaches past it: the
    /// interpreter checks every machine access, whole, against its array
    /// and padding.
    pub fn bytes(&self) -> usize {
        self.total_floats * 4
    }

    /// Base offset of array `i` in floats modulo `nu`.
    pub fn float_offset_mod(&self, arr: usize, nu: usize) -> usize {
        (self.bases[arr] / 4) % nu
    }
}

/// Errors produced by kernel execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Wrong number of argument slices.
    ArgCount {
        /// Expected parameter count.
        expected: usize,
        /// Provided argument count.
        got: usize,
    },
    /// An argument slice has the wrong length.
    ArgLen {
        /// Array name.
        name: String,
        /// Declared length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// An access fell outside its array (plus padding).
    OutOfBounds {
        /// Array name.
        name: String,
        /// Offending float index relative to the array base.
        index: i64,
    },
    /// An instruction marked `aligned` by the analysis reached an unaligned
    /// address at runtime — a soundness violation (must never happen;
    /// checked to validate Theorem 3.1 dynamically).
    AlignmentViolation {
        /// Array name.
        name: String,
        /// The unaligned byte address.
        byte_addr: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ArgCount { expected, got } => {
                write!(f, "expected {expected} arguments, got {got}")
            }
            ExecError::ArgLen {
                name,
                expected,
                got,
            } => {
                write!(f, "argument {name}: expected {expected} floats, got {got}")
            }
            ExecError::OutOfBounds { name, index } => {
                write!(f, "out-of-bounds access to {name} at float index {index}")
            }
            ExecError::AlignmentViolation { name, byte_addr } => {
                write!(
                    f,
                    "aligned instruction reached unaligned address {byte_addr} in {name}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

struct Exec<'a, 'b> {
    kernel: &'a Kernel,
    /// The dispatched version's body.
    arena: &'a Arena,
    layout: &'a MemLayout,
    isa: VectorIsa,
    sink: &'b mut dyn TraceSink,
    mem: Vec<f32>,
    regs: Vec<[f32; 4]>,
    /// Loop-variable values, indexed by variable (`None` = unbound).
    env: Vec<Option<i64>>,
}

/// Runs `kernel` on `args` (one mutable slice per parameter array, in
/// declaration order), placing arrays per `layout`, lowering to `isa`, and
/// streaming the dynamic instruction trace into `sink`.
///
/// # Errors
///
/// Returns [`ExecError`] on arity/length mismatches, out-of-bounds accesses
/// or dynamic alignment violations (see the variants).
///
/// # Example
///
/// ```
/// use lgen_cir::{KernelBuilder, MemMap, MemLayout, run_kernel, VArith, VWidth};
/// use lgen_absint::AffineExpr;
/// use lgen_isa::{VectorIsa, inst::NullSink};
///
/// let mut b = KernelBuilder::new("double4");
/// let x = b.input("x", 4);
/// let y = b.output("y", 4);
/// let vx = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
/// let s = b.arith(VArith::Add(VWidth::Q), vx, vx);
/// b.store(s, y, AffineExpr::constant(0), MemMap::horizontal(4));
/// let k = b.finish(4);
///
/// let mut xv = vec![1.0, 2.0, 3.0, 4.0];
/// let mut yv = vec![0.0; 4];
/// let layout = MemLayout::aligned(&k);
/// run_kernel(&k, &mut [&mut xv, &mut yv], &layout, VectorIsa::Ssse3, &mut NullSink)?;
/// assert_eq!(yv, vec![2.0, 4.0, 6.0, 8.0]);
/// # Ok::<(), lgen_cir::ExecError>(())
/// ```
pub fn run_kernel(
    kernel: &Kernel,
    args: &mut [&mut [f32]],
    layout: &MemLayout,
    isa: VectorIsa,
    sink: &mut dyn TraceSink,
) -> Result<(), ExecError> {
    let params: Vec<usize> = kernel
        .arrays
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind.is_param())
        .map(|(i, _)| i)
        .collect();
    if args.len() != params.len() {
        return Err(ExecError::ArgCount {
            expected: params.len(),
            got: args.len(),
        });
    }
    for (slot, &arr) in args.iter().zip(&params) {
        let decl = &kernel.arrays[arr];
        if slot.len() != decl.len {
            return Err(ExecError::ArgLen {
                name: decl.name.clone(),
                expected: decl.len,
                got: slot.len(),
            });
        }
    }

    let body = &kernel.versions[select_version(kernel, layout, &params, sink)];
    let mut exec = Exec {
        kernel,
        arena: &body.arena,
        layout,
        isa,
        sink,
        mem: vec![0.0; layout.total_floats],
        regs: vec![[0.0; 4]; kernel.nreg as usize],
        env: Vec::new(),
    };

    // Copy inputs into the flat memory.
    for (slot, &arr) in args.iter().zip(&params) {
        if matches!(kernel.arrays[arr].kind, ArrayKind::Input | ArrayKind::InOut) {
            let base = layout.bases[arr] / 4;
            exec.mem[base..base + slot.len()].copy_from_slice(slot);
        }
    }

    exec.block(body.root)?;

    // Copy outputs back.
    for (slot, &arr) in args.iter_mut().zip(&params) {
        if matches!(
            kernel.arrays[arr].kind,
            ArrayKind::Output | ArrayKind::InOut
        ) {
            let base = layout.bases[arr] / 4;
            slot.copy_from_slice(&exec.mem[base..base + slot.len()]);
        }
    }
    Ok(())
}

/// Picks the first matching alignment version, charging the runtime checks
/// of the dispatch chain (Listing 3.3) as overhead instructions.
fn select_version(
    kernel: &Kernel,
    layout: &MemLayout,
    params: &[usize],
    sink: &mut dyn TraceSink,
) -> usize {
    let matches = |v: &KernelVersion| -> bool {
        match &v.required_offsets {
            None => true,
            Some(reqs) => reqs.iter().zip(params).all(|(req, &arr)| match req {
                None => true,
                Some(r) => layout.float_offset_mod(arr, 4) == *r,
            }),
        }
    };
    for (i, v) in kernel.versions.iter().enumerate() {
        // Each tried version evaluates its alignment predicates.
        if let Some(reqs) = &v.required_offsets {
            for req in reqs.iter().flatten() {
                let _ = req;
                sink.emit(&MachInst::reg(MOp::IAddr, None, &[]));
            }
            sink.emit(&MachInst::reg(MOp::Branch, None, &[]));
        }
        if matches(v) {
            return i;
        }
    }
    kernel.versions.len() - 1
}

impl Exec<'_, '_> {
    fn block(&mut self, block: BlockId) -> Result<(), ExecError> {
        let arena = self.arena;
        for &id in arena.block(block) {
            self.inst(arena.inst(id))?;
        }
        Ok(())
    }

    fn addr_value(&self, e: ExprId) -> i64 {
        let var = |v: usize| {
            self.env
                .get(v)
                .copied()
                .flatten()
                .unwrap_or_else(|| panic!("unbound loop variable {v}"))
        };
        let exprs = &self.arena.exprs;
        exprs.terms(e).iter().map(|&(c, v)| c * var(v)).sum::<i64>() + exprs.constant(e)
    }

    fn bind(&mut self, var: usize, value: i64) {
        if var >= self.env.len() {
            self.env.resize(var + 1, None);
        }
        self.env[var] = Some(value);
    }

    fn reg(&mut self, r: u32) -> [f32; 4] {
        let idx = r as usize;
        if idx >= self.regs.len() {
            self.regs.resize(idx + 1, [0.0; 4]);
        }
        self.regs[idx]
    }

    fn set_reg(&mut self, r: u32, v: [f32; 4]) {
        let idx = r as usize;
        if idx >= self.regs.len() {
            self.regs.resize(idx + 1, [0.0; 4]);
        }
        self.regs[idx] = v;
    }

    /// Checks bounds and returns the absolute float index of `arr[fidx]`.
    fn check(&self, arr: crate::ir::ArrayId, fidx: i64) -> Result<usize, ExecError> {
        let decl = &self.kernel.arrays[arr.0];
        if fidx < 0 || fidx as usize >= decl.len + ARRAY_PAD {
            return Err(ExecError::OutOfBounds {
                name: decl.name.clone(),
                index: fidx,
            });
        }
        Ok(self.layout.bases[arr.0] / 4 + fidx as usize)
    }

    /// Emits the lowered machine ops of a load or store of `arr` at float
    /// index `base` (absolute float index `abs`), after checking that
    /// every machine access, whole, stays within the array and its
    /// padding: NEON's "load 4, keep 3" reads a float its map does not
    /// name.
    fn emit_access(
        &mut self,
        seq: &[LoweredOp],
        arr: crate::ir::ArrayId,
        base: i64,
        abs: usize,
    ) -> Result<(), ExecError> {
        for l in seq {
            if let Some(off) = l.mem_off {
                self.check(arr, base + off + (l.op.access_bytes() as i64 - 1) / 4)?;
            }
        }
        self.emit_lowered(seq, Some(abs));
        Ok(())
    }

    /// Emits the lowered machine ops for a C-IR instruction whose base
    /// address (in floats, absolute) is `abs_base`.
    fn emit_lowered(&mut self, seq: &[LoweredOp], abs_base: Option<usize>) {
        let tmp_base = self.kernel.nreg;
        let slot_id = |s: &Slot| match *s {
            Slot::Reg(r) => r,
            Slot::Tmp(t) => tmp_base + t,
        };
        for l in seq {
            let mut srcs = [0; MAX_SRCS];
            for (id, s) in srcs.iter_mut().zip(l.srcs()) {
                *id = slot_id(s);
            }
            let mem = l.mem_off.map(|off| {
                let base = abs_base.expect("memory op without address") as i64;
                MemRef {
                    addr: ((base + off) * 4) as usize,
                    bytes: l.op.access_bytes(),
                }
            });
            self.sink.emit(&MachInst {
                op: l.op,
                dst: l.dst.as_ref().map(slot_id),
                srcs: Srcs::new(&srcs[..l.srcs().len()]),
                mem,
            });
        }
    }

    fn inst(&mut self, inst: &AInst) -> Result<(), ExecError> {
        match inst {
            AInst::GLoad {
                dst,
                arr,
                addr,
                map,
                aligned,
            } => {
                let map = self.arena.maps.get(*map);
                let base = self.addr_value(*addr);
                let abs = self.check(*arr, base + map.max_offset())? - map.max_offset() as usize;
                self.check(*arr, base)?;
                self.validate_alignment(*arr, abs, map, *aligned)?;
                let mut v = [0.0f32; 4];
                for &(off, lane) in map.entries() {
                    let idx = self.check(*arr, base + off)?;
                    v[lane as usize] = self.mem[idx];
                }
                self.set_reg(*dst, v);
                let seq = lower::lower_load(self.isa, *dst, map, *aligned);
                self.emit_access(&seq, *arr, base, abs)?;
            }
            AInst::GStore {
                src,
                arr,
                addr,
                map,
                aligned,
            } => {
                let map = self.arena.maps.get(*map);
                let base = self.addr_value(*addr);
                let abs = self.check(*arr, base)?;
                self.validate_alignment(*arr, abs, map, *aligned)?;
                let v = self.reg(*src);
                for &(off, lane) in map.entries() {
                    let idx = self.check(*arr, base + off)?;
                    self.mem[idx] = v[lane as usize];
                }
                let seq = lower::lower_store(self.isa, *src, map, *aligned);
                self.emit_access(&seq, *arr, base, abs)?;
            }
            AInst::Arith { op, dst, a, b } => {
                let va = self.reg(*a);
                let vb = self.reg(*b);
                let mut vd = self.reg(*dst);
                eval_arith(*op, &mut vd, va, vb);
                self.set_reg(*dst, vd);
                let seq = lower::lower_arith(self.isa, *op, *dst, *a, *b);
                self.emit_lowered(&seq, None);
            }
            AInst::Move { op, dst, a, b } => {
                let va = self.reg(*a);
                let vb = self.reg(*b);
                let vd = eval_move(*op, va, vb);
                self.set_reg(*dst, vd);
                let seq = lower::lower_move(self.isa, *op, *dst, *a, *b);
                self.emit_lowered(&seq, None);
            }
            AInst::Overhead { kind, count } => {
                let op = match kind {
                    crate::ir::OverheadKind::Addr => MOp::IAddr,
                    crate::ir::OverheadKind::Branch => MOp::Branch,
                    crate::ir::OverheadKind::Call => MOp::CallOverhead,
                };
                for _ in 0..*count {
                    self.sink.emit(&MachInst::reg(op, None, &[]));
                }
            }
            AInst::Loop {
                var,
                start,
                end,
                step,
                body,
                ..
            } => {
                let counter = self.kernel.nreg + (MAX_LOWERED_OPS + *var) as u32;
                let mut k = *start;
                while k < *end {
                    self.bind(*var, k);
                    self.block(*body)?;
                    // Loop bookkeeping: increment + compare-and-branch.
                    self.sink
                        .emit(&MachInst::reg(MOp::IAddr, Some(counter), &[counter]));
                    self.sink
                        .emit(&MachInst::reg(MOp::Branch, None, &[counter]));
                    k += *step;
                }
            }
        }
        Ok(())
    }

    /// Validates the alignment-detection verdict dynamically (Theorem 3.1:
    /// an access marked aligned must never reach an unaligned address).
    fn validate_alignment(
        &self,
        arr: crate::ir::ArrayId,
        abs_float: usize,
        map: &MemMap,
        aligned: bool,
    ) -> Result<(), ExecError> {
        if aligned && map.contiguous_bytes() == Some(16) && !(abs_float * 4).is_multiple_of(16) {
            return Err(ExecError::AlignmentViolation {
                name: self.kernel.arrays[arr.0].name.clone(),
                byte_addr: abs_float * 4,
            });
        }
        Ok(())
    }
}

fn eval_arith(op: VArith, d: &mut [f32; 4], a: [f32; 4], b: [f32; 4]) {
    use VArith::*;
    match op {
        Add(w) => {
            let mut r = [0.0; 4];
            r[..w.lanes()]
                .iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = a[i] + b[i]);
            *d = r;
        }
        Mul(w) => {
            let mut r = [0.0; 4];
            r[..w.lanes()]
                .iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = a[i] * b[i]);
            *d = r;
        }
        Hadd => *d = [a[0] + a[1], a[2] + a[3], b[0] + b[1], b[2] + b[3]],
        Fma(w) => {
            for i in 0..w.lanes() {
                d[i] += a[i] * b[i];
            }
        }
        MulLane(w, l) => {
            let s = b[l as usize];
            let mut r = [0.0; 4];
            r[..w.lanes()]
                .iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = a[i] * s);
            *d = r;
        }
        FmaLane(w, l) => {
            let s = b[l as usize];
            for i in 0..w.lanes() {
                d[i] += a[i] * s;
            }
        }
        Pairwise => *d = [a[0] + a[1], b[0] + b[1], 0.0, 0.0],
    }
}

fn eval_move(op: VMove, a: [f32; 4], b: [f32; 4]) -> [f32; 4] {
    use VMove::*;
    match op {
        Mov => a,
        Zero => [0.0; 4],
        Splat(l) => [a[l as usize]; 4],
        Shuf(sel) => {
            let mut r = [0.0; 4];
            for (i, &s) in sel.iter().enumerate() {
                r[i] = if s < 4 {
                    a[s as usize]
                } else {
                    b[(s - 4) as usize]
                };
            }
            r
        }
        SetLane(l) => {
            let mut r = a;
            r[l as usize] = b[0];
            r
        }
        GetLane(l) => [a[l as usize], 0.0, 0.0, 0.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::VWidth;
    use lgen_absint::AffineExpr;
    use lgen_isa::inst::{CountingSink, NullSink, RecordingSink};

    fn vadd_kernel(n: usize) -> Kernel {
        let mut b = KernelBuilder::new("vadd");
        let x = b.input("x", n);
        let y = b.input("y", n);
        let z = b.output("z", n);
        b.for_loop("i", 0, n as i64, 4, |b, i| {
            let vx = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            let vy = b.load(y, AffineExpr::var(i), MemMap::horizontal(4));
            let s = b.arith(VArith::Add(VWidth::Q), vx, vy);
            b.store(s, z, AffineExpr::var(i), MemMap::horizontal(4));
        });
        b.finish(n as u64)
    }

    #[test]
    fn vector_add_is_correct() {
        let k = vadd_kernel(16);
        let mut x: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut y: Vec<f32> = (0..16).map(|i| (2 * i) as f32).collect();
        let mut z = vec![0.0f32; 16];
        let layout = MemLayout::aligned(&k);
        run_kernel(
            &k,
            &mut [&mut x, &mut y, &mut z],
            &layout,
            VectorIsa::Ssse3,
            &mut NullSink,
        )
        .unwrap();
        for (i, v) in z.iter().enumerate() {
            assert_eq!(*v, (3 * i) as f32);
        }
    }

    #[test]
    fn trace_contains_expected_ops() {
        let k = vadd_kernel(8);
        let mut x = vec![0.0f32; 8];
        let mut y = vec![0.0f32; 8];
        let mut z = vec![0.0f32; 8];
        let layout = MemLayout::aligned(&k);
        let mut sink = CountingSink::new();
        run_kernel(
            &k,
            &mut [&mut x, &mut y, &mut z],
            &layout,
            VectorIsa::Ssse3,
            &mut sink,
        )
        .unwrap();
        // 2 iterations × (2 loads + 1 add + 1 store + loop overhead).
        assert_eq!(sink.count(MOp::MmLoadUPs), 4);
        assert_eq!(sink.count(MOp::MmAddPs), 2);
        assert_eq!(sink.count(MOp::MmStoreUPs), 2);
        assert_eq!(sink.count(MOp::Branch), 2);
    }

    #[test]
    fn neon_lowering_of_same_kernel() {
        let k = vadd_kernel(8);
        let mut x = vec![0.0f32; 8];
        let mut y = vec![0.0f32; 8];
        let mut z = vec![0.0f32; 8];
        let layout = MemLayout::aligned(&k);
        let mut sink = CountingSink::new();
        run_kernel(
            &k,
            &mut [&mut x, &mut y, &mut z],
            &layout,
            VectorIsa::Neon,
            &mut sink,
        )
        .unwrap();
        assert_eq!(sink.count(MOp::VldQ), 4);
        assert_eq!(sink.count(MOp::VaddQ), 2);
        assert_eq!(sink.count(MOp::VstQ), 2);
    }

    #[test]
    fn misaligned_layout_shifts_addresses() {
        let k = vadd_kernel(4);
        let layout = MemLayout::with_float_offsets(&k, &[1, 0, 0]);
        assert_eq!(layout.float_offset_mod(0, 4), 1);
        assert_eq!(layout.float_offset_mod(1, 4), 0);
        let mut x = vec![1.0f32; 4];
        let mut y = vec![2.0f32; 4];
        let mut z = vec![0.0f32; 4];
        let mut sink = RecordingSink::default();
        run_kernel(
            &k,
            &mut [&mut x, &mut y, &mut z],
            &layout,
            VectorIsa::Ssse3,
            &mut sink,
        )
        .unwrap();
        assert_eq!(z, vec![3.0; 4]);
        // The load of x must be at a non-16B-aligned address.
        let first_load = sink.insts.iter().find(|i| i.op == MOp::MmLoadUPs).unwrap();
        assert_ne!(first_load.mem.unwrap().addr % 16, 0);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut b = KernelBuilder::new("oob");
        let x = b.input("x", 4);
        let y = b.output("y", 4);
        let v = b.load(x, AffineExpr::constant(8), MemMap::horizontal(4));
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let k = b.finish(0);
        let layout = MemLayout::aligned(&k);
        let mut x = vec![0.0f32; 4];
        let mut y = vec![0.0f32; 4];
        let err = run_kernel(
            &k,
            &mut [&mut x, &mut y],
            &layout,
            VectorIsa::Ssse3,
            &mut NullSink,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { .. }));
    }

    #[test]
    fn alignment_violation_is_caught() {
        // Force an (incorrect) aligned flag onto an unaligned access.
        let mut b = KernelBuilder::new("bad");
        let x = b.input("x", 8);
        let y = b.output("y", 4);
        let v = b.load_aligned(x, AffineExpr::constant(1), MemMap::horizontal(4));
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let k = b.finish(0);
        let layout = MemLayout::aligned(&k);
        let mut x = vec![0.0f32; 8];
        let mut y = vec![0.0f32; 4];
        let err = run_kernel(
            &k,
            &mut [&mut x, &mut y],
            &layout,
            VectorIsa::Ssse3,
            &mut NullSink,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::AlignmentViolation { .. }));
    }

    #[test]
    fn leftover_maps_pack_with_zeros() {
        // Load 3 elements, add to itself, store 3: lane 3 must not leak.
        let mut b = KernelBuilder::new("left");
        let x = b.input("x", 3);
        let y = b.output("y", 3);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(3));
        let s = b.arith(VArith::Add(VWidth::Q), v, v);
        b.store(s, y, AffineExpr::constant(0), MemMap::horizontal(3));
        let k = b.finish(3);
        let layout = MemLayout::aligned(&k);
        let mut x = vec![1.0f32, 2.0, 3.0];
        let mut y = vec![9.0f32; 3];
        run_kernel(
            &k,
            &mut [&mut x, &mut y],
            &layout,
            VectorIsa::Neon,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(y, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn vertical_map_reads_columns() {
        // x is a 3x4 row-major matrix; load column 1 (stride 4).
        let mut b = KernelBuilder::new("col");
        let x = b.input("x", 12);
        let y = b.output("y", 3);
        let v = b.load(x, AffineExpr::constant(1), MemMap::vertical(3, 4));
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(3));
        let k = b.finish(0);
        let layout = MemLayout::aligned(&k);
        let mut x: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut y = vec![0.0f32; 3];
        run_kernel(
            &k,
            &mut [&mut x, &mut y],
            &layout,
            VectorIsa::Ssse3,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(y, vec![1.0, 5.0, 9.0]);
    }

    #[test]
    fn scalar_isa_runs_scalar_kernels() {
        let mut b = KernelBuilder::new("s");
        let x = b.input("x", 2);
        let y = b.output("y", 1);
        let a = b.load(x, AffineExpr::constant(0), MemMap::scalar());
        let c = b.load(x, AffineExpr::constant(1), MemMap::scalar());
        let s = b.arith(VArith::Mul(VWidth::S), a, c);
        b.store(s, y, AffineExpr::constant(0), MemMap::scalar());
        let k = b.finish(1);
        let layout = MemLayout::aligned(&k);
        let mut x = vec![3.0f32, 5.0];
        let mut y = vec![0.0f32];
        let mut sink = CountingSink::new();
        run_kernel(
            &k,
            &mut [&mut x, &mut y],
            &layout,
            VectorIsa::Scalar,
            &mut sink,
        )
        .unwrap();
        assert_eq!(y[0], 15.0);
        assert_eq!(sink.count(MOp::FLoad), 2);
        assert_eq!(sink.count(MOp::FMul), 1);
        assert_eq!(sink.count(MOp::FStore), 1);
    }
}
