//! A fluent builder for C-IR kernels.
//!
//! Used by the Σ-LL lowering (`lgen-sigma`), the baselines, the codec and
//! tests: it emits straight into the kernel's [`Arena`], interning
//! addresses, maps and loop names as it goes.

use crate::arena::{AInst, Arena, InstId, Sym};
use crate::ir::{ArrayDecl, ArrayId, ArrayKind, Kernel, KernelVersion, VArith, VMove, VReg};
use crate::map::MemMap;
use lgen_absint::{AffineExpr, VarId};

/// Incremental kernel construction.
///
/// # Example
///
/// Build `y[0..4] = x[0..4]` as a loop of scalar copies:
///
/// ```
/// use lgen_cir::{KernelBuilder, MemMap};
/// use lgen_absint::AffineExpr;
///
/// let mut b = KernelBuilder::new("copy4");
/// let x = b.input("x", 4);
/// let y = b.output("y", 4);
/// let i = b.begin_loop("i", 0, 4, 1);
/// let r = b.load(x, AffineExpr::var(i), MemMap::scalar());
/// b.store(r, y, AffineExpr::var(i), MemMap::scalar());
/// b.end_loop();
/// let kernel = b.finish(0);
/// assert_eq!(kernel.static_size(), 3);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    arrays: Vec<ArrayDecl>,
    /// The body under construction.
    arena: Arena,
    /// Stack of open instruction sequences; `frames[0]` is the kernel body,
    /// deeper frames are open loops.
    frames: Vec<Vec<InstId>>,
    /// Open loop headers matching `frames[1..]`.
    open_loops: Vec<(VarId, Sym, i64, i64, i64)>,
    nreg: u32,
    nvars: usize,
}

impl KernelBuilder {
    /// Starts a new kernel with the given C function name.
    pub fn new(name: &str) -> Self {
        KernelBuilder {
            name: name.to_string(),
            arrays: Vec::new(),
            arena: Arena::default(),
            frames: vec![Vec::new()],
            open_loops: Vec::new(),
            nreg: 0,
            nvars: 0,
        }
    }

    fn decl(&mut self, name: &str, len: usize, kind: ArrayKind) -> ArrayId {
        assert!(len > 0, "array {name} must have positive length");
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            len,
            kind,
        });
        ArrayId(self.arrays.len() - 1)
    }

    /// Declares a read-only parameter of `len` floats.
    pub fn input(&mut self, name: &str, len: usize) -> ArrayId {
        self.decl(name, len, ArrayKind::Input)
    }

    /// Declares a write-only parameter.
    pub fn output(&mut self, name: &str, len: usize) -> ArrayId {
        self.decl(name, len, ArrayKind::Output)
    }

    /// Declares a read-write parameter.
    pub fn inout(&mut self, name: &str, len: usize) -> ArrayId {
        self.decl(name, len, ArrayKind::InOut)
    }

    /// Declares a kernel-local temporary array.
    pub fn local(&mut self, name: &str, len: usize) -> ArrayId {
        self.decl(name, len, ArrayKind::Local)
    }

    /// Number of instructions emitted so far at the top level of the
    /// kernel body (loops count as one instruction). Callers composing a
    /// kernel from several driver passes — e.g. the program lowering in
    /// `lgen-sigma` — use this to delimit per-statement instruction
    /// ranges.
    ///
    /// # Panics
    ///
    /// Panics if a loop is still open.
    pub fn top_level_len(&self) -> usize {
        assert!(
            self.open_loops.is_empty(),
            "top_level_len with an open loop"
        );
        self.frames[0].len()
    }

    /// Allocates a fresh virtual register.
    pub fn fresh_reg(&mut self) -> VReg {
        self.nreg += 1;
        self.nreg - 1
    }

    /// Appends an instruction to the innermost open frame.
    fn emit(&mut self, inst: AInst) {
        let id = self.arena.push(inst);
        self.frames
            .last_mut()
            .expect("builder has a frame")
            .push(id);
    }

    fn load_as(&mut self, arr: ArrayId, addr: AffineExpr, map: MemMap, aligned: bool) -> VReg {
        let dst = self.fresh_reg();
        let (addr, map) = (self.arena.intern_expr(&addr), self.arena.intern_map(&map));
        self.emit(AInst::GLoad {
            dst,
            arr,
            addr,
            map,
            aligned,
        });
        dst
    }

    fn store_as(&mut self, src: VReg, arr: ArrayId, addr: AffineExpr, map: MemMap, aligned: bool) {
        let (addr, map) = (self.arena.intern_expr(&addr), self.arena.intern_map(&map));
        self.emit(AInst::GStore {
            src,
            arr,
            addr,
            map,
            aligned,
        });
    }

    /// Emits a generic load and returns the destination register.
    pub fn load(&mut self, arr: ArrayId, addr: AffineExpr, map: MemMap) -> VReg {
        self.load_as(arr, addr, map, false)
    }

    /// Emits a generic load already marked aligned — for code whose
    /// layout guarantees the alignment (the hand-written competitor
    /// models), not for LGen's own codegen, which leaves marking to
    /// alignment detection.
    pub fn load_aligned(&mut self, arr: ArrayId, addr: AffineExpr, map: MemMap) -> VReg {
        self.load_as(arr, addr, map, true)
    }

    /// Emits a generic store.
    pub fn store(&mut self, src: VReg, arr: ArrayId, addr: AffineExpr, map: MemMap) {
        self.store_as(src, arr, addr, map, false);
    }

    /// Emits a generic store already marked aligned (see
    /// [`load_aligned`](Self::load_aligned)).
    pub fn store_aligned(&mut self, src: VReg, arr: ArrayId, addr: AffineExpr, map: MemMap) {
        self.store_as(src, arr, addr, map, true);
    }

    /// Emits `op(a, b)` into a fresh register.
    pub fn arith(&mut self, op: VArith, a: VReg, b: VReg) -> VReg {
        assert!(!op.reads_dst(), "use arith_acc for accumulating ops");
        let dst = self.fresh_reg();
        self.emit(AInst::Arith { op, dst, a, b });
        dst
    }

    /// Emits an accumulating op (`dst += a*b` style) into `dst`.
    pub fn arith_acc(&mut self, op: VArith, dst: VReg, a: VReg, b: VReg) {
        assert!(op.reads_dst(), "use arith for non-accumulating ops");
        self.emit(AInst::Arith { op, dst, a, b });
    }

    /// Emits `dst = op(a, b)` into an existing register, e.g. the
    /// in-place accumulate `acc = acc + v` that keeps a register stable
    /// across loop iterations.
    pub fn arith_into(&mut self, op: VArith, dst: VReg, a: VReg, b: VReg) {
        self.emit(AInst::Arith { op, dst, a, b });
    }

    /// Emits a register move/lane op into a fresh register.
    pub fn mov_op(&mut self, op: VMove, a: VReg, b: VReg) -> VReg {
        let dst = self.fresh_reg();
        self.emit(AInst::Move { op, dst, a, b });
        dst
    }

    /// Emits `dst = 0`.
    pub fn zero(&mut self) -> VReg {
        self.mov_op(VMove::Zero, 0, 0)
    }

    /// Charges schedule-only overhead (see [`AInst::Overhead`]).
    pub fn overhead(&mut self, kind: crate::ir::OverheadKind, count: u16) {
        self.emit(AInst::Overhead { kind, count });
    }

    /// Opens a counted loop; returns its variable id.
    pub fn begin_loop(&mut self, name: &str, start: i64, end: i64, step: i64) -> VarId {
        assert!(step > 0, "loop step must be positive");
        let var = self.nvars;
        self.nvars += 1;
        let name = self.arena.intern_sym(name);
        self.open_loops.push((var, name, start, end, step));
        self.frames.push(Vec::new());
        var
    }

    /// Closes the innermost open loop.
    ///
    /// # Panics
    ///
    /// Panics if no loop is open.
    pub fn end_loop(&mut self) {
        let body = self.frames.pop().expect("no open loop body");
        let body = self.arena.push_block(body);
        let (var, name, start, end, step) = self.open_loops.pop().expect("no open loop");
        self.emit(AInst::Loop {
            var,
            name,
            start,
            end,
            step,
            body,
        });
    }

    /// Runs `f` inside a new loop scope (convenience wrapper around
    /// [`begin_loop`](Self::begin_loop)/[`end_loop`](Self::end_loop)).
    pub fn for_loop(
        &mut self,
        name: &str,
        start: i64,
        end: i64,
        step: i64,
        f: impl FnOnce(&mut Self, VarId),
    ) {
        let var = self.begin_loop(name, start, end, step);
        f(self, var);
        self.end_loop();
    }

    /// Finalizes the kernel with the given useful-flop count.
    ///
    /// # Panics
    ///
    /// Panics if loops are still open.
    pub fn finish(mut self, flops: u64) -> Kernel {
        assert!(
            self.open_loops.is_empty(),
            "unclosed loops: {}",
            self.open_loops.len()
        );
        let body = self.frames.pop().expect("body frame");
        let root = self.arena.push_block(body);
        Kernel {
            name: self.name,
            arrays: self.arrays,
            versions: vec![KernelVersion {
                required_offsets: None,
                arena: self.arena,
                root,
            }],
            nreg: self.nreg,
            nvars: self.nvars,
            flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::VWidth;

    #[test]
    fn builds_structured_kernels() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let y = b.output("y", 8);
        b.for_loop("i", 0, 8, 4, |b, i| {
            let vx = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            let s = b.arith(VArith::Add(VWidth::Q), vx, vx);
            b.store(s, y, AffineExpr::var(i), MemMap::horizontal(4));
        });
        let k = b.finish(8);
        assert_eq!(k.nvars, 1);
        assert_eq!(k.static_size(), 4);
        assert_eq!(k.flops, 8);
        assert_eq!(k.arrays.len(), 2);
    }

    #[test]
    #[should_panic(expected = "unclosed loops")]
    fn unclosed_loop_panics() {
        let mut b = KernelBuilder::new("t");
        b.begin_loop("i", 0, 4, 1);
        let _ = b.finish(0);
    }

    #[test]
    #[should_panic(expected = "accumulating")]
    fn arith_rejects_fma() {
        let mut b = KernelBuilder::new("t");
        let r = b.zero();
        b.arith(VArith::Fma(VWidth::Q), r, r);
    }
}
