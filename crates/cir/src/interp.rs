//! Reference interpreter for C-IR kernels.
//!
//! Executes a kernel numerically (for correctness validation against naive
//! references, §5.1.4) while emitting the dynamic machine-instruction trace
//! through a [`TraceSink`] (for cycle measurement by `lgen-machine`). The
//! lowering of each C-IR instruction to machine opcodes is shared with the C
//! unparser, so the measured instruction stream is the printed one.
//!
//! Each instruction of the dispatched version is lowered once per run.
//! An instruction outside every loop runs once: it is lowered, checked,
//! executed and emitted in place. A top-level loop is first decoded with
//! its whole nest into a tape: per instruction, its machine ops with the
//! trace register ids resolved and each memory op's float offset, plus
//! the float range its bounds checks reach. Every iteration replays the
//! tape: one range check per access over that reach (the per-float checks
//! run only when it fails, so they name the same error), the values in
//! C-IR semantics, and the ops with their addresses filled in. The tape
//! grows with the static instructions of one loop nest, never with the
//! dynamic ones, and its buffers serve every nest of the run.
//!
//! Register ids in the trace are compact: the kernel's registers keep
//! their ids `0..nreg`, the temporaries of lowered sequences take
//! `nreg..nreg + MAX_LOWERED_OPS`, and the counter of loop variable `v`
//! is `nreg + MAX_LOWERED_OPS + v`. Every lowered sequence writes a
//! temporary before it reads it, so all sequences share the temporary
//! ids: a read always sees its own sequence's write.

use crate::arena::{AInst, Arena, BlockId, ExprId};
use crate::ir::{ArrayId, ArrayKind, Kernel, OverheadKind, VArith, VMove, VReg};
use crate::lower::{self, LoweredOp, LoweredSeq, Slot, MAX_LOWERED_OPS};
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
    /// The loop nest being run, decoded in pre-order: each loop's step
    /// comes before its body's.
    steps: Vec<Step<'a>>,
    /// The machine ops of `steps`, trace-ready.
    ops: Vec<TapeOp>,
}

/// One lowered machine op with its trace register ids resolved. A memory
/// op's address is `4 * (abs + off)` for the access's absolute float
/// index `abs`, filled in on each execution.
#[derive(Clone, Copy, Debug)]
struct TapeOp {
    inst: MachInst,
    off: i64,
}

impl TapeOp {
    /// The op of an access at absolute float index `abs`.
    fn at(&self, abs: usize) -> MachInst {
        let mut inst = self.inst;
        if let Some(m) = &mut inst.mem {
            m.addr = ((abs as i64 + self.off) * 4) as usize;
        }
        inst
    }
}

/// Where a step's machine ops lie in [`Exec::ops`].
#[derive(Clone, Copy, Debug)]
struct Ops {
    start: u32,
    end: u32,
}

/// A decoded load or store.
#[derive(Clone, Copy, Debug)]
struct Access<'a> {
    /// A load into `reg`, or a store of it.
    load: bool,
    reg: VReg,
    arr: ArrayId,
    addr: ExprId,
    map: &'a MemMap,
    /// Whether the access is subject to the dynamic alignment check (see
    /// [`Exec::validate_alignment`]).
    check_alignment: bool,
    /// The float range the per-float checks ([`Exec::checks`]) name (see
    /// [`reach`]): one range check over it passes exactly when all of
    /// them do.
    reach: (i64, i64),
    ops: Ops,
}

/// One C-IR instruction of a loop nest, decoded once per run and
/// executed as often as its loops run it.
#[derive(Clone, Copy, Debug)]
enum Step<'a> {
    Access(Access<'a>),
    Arith {
        op: VArith,
        dst: VReg,
        a: VReg,
        b: VReg,
        ops: Ops,
    },
    Move {
        op: VMove,
        dst: VReg,
        a: VReg,
        b: VReg,
        ops: Ops,
    },
    /// `count` copies of its one op.
    Overhead {
        count: u16,
        ops: Ops,
    },
    /// A loop whose body is the steps after it up to `body_end`; its ops
    /// are the counter increment and the branch closing each iteration.
    Loop {
        var: usize,
        start: i64,
        end: i64,
        step: i64,
        body_end: usize,
        ops: Ops,
    },
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

    let offset_mod = |j: usize| layout.float_offset_mod(params[j], 4);
    let version = dispatch_version(kernel, offset_mod, |op| {
        sink.emit(&MachInst::reg(op, None, &[]));
    });
    let body = &kernel.versions[version];
    let mut exec = Exec {
        kernel,
        arena: &body.arena,
        layout,
        isa,
        sink,
        mem: vec![0.0; layout.total_floats],
        regs: vec![[0.0; 4]; kernel.nreg as usize],
        env: Vec::new(),
        steps: Vec::new(),
        ops: Vec::new(),
    };

    // Copy inputs into the flat memory.
    for (slot, &arr) in args.iter().zip(&params) {
        if matches!(kernel.arrays[arr].kind, ArrayKind::Input | ArrayKind::InOut) {
            let base = layout.bases[arr] / 4;
            exec.mem[base..base + slot.len()].copy_from_slice(slot);
        }
    }

    exec.run(body.root)?;

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

/// The alignment version of `kernel` that runs when parameter `j`'s base
/// sits `offset_mod(j)` floats past a ν-float boundary: the first version
/// whose requirements hold, or the unconditional fallback. Each tried
/// version's runtime checks (the dispatch chain of Listing 3.3) go to
/// `charge`: one `IAddr` per predicate, then one `Branch`. The
/// interpreter dispatches through this function, and so does the static
/// cost model (`lgen-analysis`, every offset 0).
pub fn dispatch_version(
    kernel: &Kernel,
    offset_mod: impl Fn(usize) -> usize,
    mut charge: impl FnMut(MOp),
) -> usize {
    for (i, v) in kernel.versions.iter().enumerate() {
        let Some(reqs) = &v.required_offsets else {
            return i;
        };
        reqs.iter().flatten().for_each(|_| charge(MOp::IAddr));
        charge(MOp::Branch);
        let holds = |(j, req): (usize, &Option<usize>)| req.is_none_or(|r| offset_mod(j) == r);
        if reqs.iter().enumerate().all(holds) {
            return i;
        }
    }
    kernel.versions.len() - 1
}

/// The machine op a schedule-only overhead instruction issues as, in the
/// trace and in the static cost model alike.
pub fn overhead_mop(kind: OverheadKind) -> MOp {
    match kind {
        OverheadKind::Addr => MOp::IAddr,
        OverheadKind::Branch => MOp::Branch,
        OverheadKind::Call => MOp::CallOverhead,
    }
}

impl<'a> Exec<'a, '_> {
    /// Runs each instruction of the top-level block, which runs once:
    /// anything but a loop is lowered and run in place. A loop is decoded
    /// with its whole nest into the tape, and its iterations replay the
    /// tape; the next loop's nest replaces it.
    fn run(&mut self, root: BlockId) -> Result<(), ExecError> {
        let arena = self.arena;
        for &id in arena.block(root) {
            self.run_once(arena.inst(id))?;
        }
        Ok(())
    }

    fn run_once(&mut self, inst: &AInst) -> Result<(), ExecError> {
        let isa = self.isa;
        match *inst {
            AInst::GLoad {
                dst: reg,
                arr,
                addr,
                map,
                aligned,
            }
            | AInst::GStore {
                src: reg,
                arr,
                addr,
                map,
                aligned,
            } => {
                let load = matches!(inst, AInst::GLoad { .. });
                let map = self.arena.maps.get(map);
                let seq = lower_access(isa, load, reg, map, aligned);
                let base = self.addr_value(addr);
                let check_alignment = check_alignment(map, aligned);
                let abs = self.checks(load, arr, base, map, check_alignment, mem_ops(&seq))?;
                self.move_lanes(load, reg, map, abs);
                self.emit_lowered(&seq, abs);
            }
            AInst::Arith { op, dst, a, b } => {
                self.arith(op, dst, a, b);
                self.emit_lowered(&lower::lower_arith(isa, op, dst, a, b), 0);
            }
            AInst::Move { op, dst, a, b } => {
                self.mov(op, dst, a, b);
                self.emit_lowered(&lower::lower_move(isa, op, dst, a, b), 0);
            }
            AInst::Overhead { kind, count } => {
                let inst = MachInst::reg(overhead_mop(kind), None, &[]);
                for _ in 0..count {
                    self.sink.emit(&inst);
                }
            }
            AInst::Loop { .. } => {
                self.steps.clear();
                self.ops.clear();
                self.decode(inst);
                self.exec(0, self.steps.len())?;
            }
        }
        Ok(())
    }

    /// Appends `ops` to the tape.
    fn push(&mut self, ops: impl IntoIterator<Item = TapeOp>) -> Ops {
        let start = self.ops.len() as u32;
        self.ops.extend(ops);
        Ops {
            start,
            end: self.ops.len() as u32,
        }
    }

    /// Appends a lowered sequence to the tape.
    fn push_lowered(&mut self, seq: &[LoweredOp]) -> Ops {
        let nreg = self.kernel.nreg;
        self.push(seq.iter().map(|l| tape_op(nreg, l)))
    }

    /// Appends the steps of `inst`, and of its body for a loop.
    fn decode(&mut self, inst: &AInst) {
        let isa = self.isa;
        let step = match *inst {
            AInst::GLoad {
                dst: reg,
                arr,
                addr,
                map,
                aligned,
            }
            | AInst::GStore {
                src: reg,
                arr,
                addr,
                map,
                aligned,
            } => {
                let load = matches!(inst, AInst::GLoad { .. });
                let map = self.arena.maps.get(map);
                let seq = lower_access(isa, load, reg, map, aligned);
                Step::Access(Access {
                    load,
                    reg,
                    arr,
                    addr,
                    map,
                    check_alignment: check_alignment(map, aligned),
                    reach: reach(map, &seq),
                    ops: self.push_lowered(&seq),
                })
            }
            AInst::Arith { op, dst, a, b } => Step::Arith {
                op,
                dst,
                a,
                b,
                ops: self.push_lowered(&lower::lower_arith(isa, op, dst, a, b)),
            },
            AInst::Move { op, dst, a, b } => Step::Move {
                op,
                dst,
                a,
                b,
                ops: self.push_lowered(&lower::lower_move(isa, op, dst, a, b)),
            },
            AInst::Overhead { kind, count } => {
                let inst = MachInst::reg(overhead_mop(kind), None, &[]);
                let ops = self.push([TapeOp { inst, off: 0 }]);
                Step::Overhead { count, ops }
            }
            AInst::Loop {
                var,
                start,
                end,
                step,
                body,
                ..
            } => {
                // Loop bookkeeping: increment + compare-and-branch.
                let counter = self.kernel.nreg + (MAX_LOWERED_OPS + var) as u32;
                let ops = self.push(
                    [
                        MachInst::reg(MOp::IAddr, Some(counter), &[counter]),
                        MachInst::reg(MOp::Branch, None, &[counter]),
                    ]
                    .map(|inst| TapeOp { inst, off: 0 }),
                );
                let at = self.steps.len();
                self.steps.push(Step::Loop {
                    var,
                    start,
                    end,
                    step,
                    body_end: at,
                    ops,
                });
                let arena = self.arena;
                for &id in arena.block(body) {
                    self.decode(arena.inst(id));
                }
                let done = self.steps.len();
                if let Step::Loop { body_end, .. } = &mut self.steps[at] {
                    *body_end = done;
                }
                return;
            }
        };
        self.steps.push(step);
    }

    /// Executes the steps `from..to` of the tape.
    fn exec(&mut self, from: usize, to: usize) -> Result<(), ExecError> {
        let mut i = from;
        while i < to {
            let step = self.steps[i];
            i += 1;
            match step {
                Step::Access(access) => {
                    let abs = self.locate(&access)?;
                    self.move_lanes(access.load, access.reg, access.map, abs);
                    self.emit(access.ops, abs);
                }
                Step::Arith { op, dst, a, b, ops } => {
                    self.arith(op, dst, a, b);
                    self.emit(ops, 0);
                }
                Step::Move { op, dst, a, b, ops } => {
                    self.mov(op, dst, a, b);
                    self.emit(ops, 0);
                }
                Step::Overhead { count, ops } => {
                    for _ in 0..count {
                        self.emit(ops, 0);
                    }
                }
                Step::Loop {
                    var,
                    start,
                    end,
                    step,
                    body_end,
                    ops,
                } => {
                    let mut k = start;
                    while k < end {
                        self.bind(var, k);
                        self.exec(i, body_end)?;
                        self.emit(ops, 0);
                        k += step;
                    }
                    i = body_end;
                }
            }
        }
        Ok(())
    }

    /// Streams tape ops into the sink, placing memory ops at absolute
    /// float index `abs`.
    fn emit(&mut self, ops: Ops, abs: usize) {
        for t in &self.ops[ops.start as usize..ops.end as usize] {
            self.sink.emit(&t.at(abs));
        }
    }

    /// Streams a lowered sequence into the sink, as [`emit`](Self::emit)
    /// would from the tape.
    fn emit_lowered(&mut self, seq: &[LoweredOp], abs: usize) {
        for l in seq {
            self.sink.emit(&tape_op(self.kernel.nreg, l).at(abs));
        }
    }

    /// `dst = op(a, b)`, in C-IR semantics.
    fn arith(&mut self, op: VArith, dst: VReg, a: VReg, b: VReg) {
        let va = self.reg(a);
        let vb = self.reg(b);
        let mut vd = self.reg(dst);
        eval_arith(op, &mut vd, va, vb);
        self.set_reg(dst, vd);
    }

    /// `dst = op(a, b)` for a register move, in C-IR semantics.
    fn mov(&mut self, op: VMove, dst: VReg, a: VReg, b: VReg) {
        let va = self.reg(a);
        let vb = self.reg(b);
        self.set_reg(dst, eval_move(op, va, vb));
    }

    /// A load gathers the lanes of `map` at absolute float index `abs`
    /// into `reg` (unmapped lanes are zero); a store scatters `reg`'s
    /// lanes there.
    fn move_lanes(&mut self, load: bool, reg: VReg, map: &MemMap, abs: usize) {
        let at = |off: i64| (abs as i64 + off) as usize;
        if load {
            let mut v = [0.0f32; 4];
            for &(off, lane) in map.entries() {
                v[lane as usize] = self.mem[at(off)];
            }
            self.set_reg(reg, v);
        } else {
            let v = self.reg(reg);
            for &(off, lane) in map.entries() {
                self.mem[at(off)] = v[lane as usize];
            }
        }
    }

    /// The absolute float index of a decoded access, after one range
    /// check over its whole reach and the alignment check. When the
    /// range check fails, the per-float checks name the error.
    fn locate(&self, access: &Access) -> Result<usize, ExecError> {
        let base = self.addr_value(access.addr);
        let (lo, hi) = access.reach;
        let len = (self.kernel.arrays[access.arr.0].len + ARRAY_PAD) as i64;
        if base + lo < 0 || base + hi >= len {
            let ops = &self.ops[access.ops.start as usize..access.ops.end as usize];
            let mem_ops = ops.iter().filter_map(|t| Some((t.off, t.inst.mem?.bytes)));
            let (arr, map, align) = (access.arr, access.map, access.check_alignment);
            return self.checks(access.load, arr, base, map, align, mem_ops);
        }
        let abs = self.layout.bases[access.arr.0] / 4 + base as usize;
        self.validate_alignment(access.arr, abs, access.check_alignment)?;
        Ok(abs)
    }

    /// An access's checks, one float at a time, in the order that names
    /// its error: a load's last lane, the address, the alignment, each
    /// lane, and the last float of each machine access (`(float offset,
    /// bytes)` in `mem_ops`) — NEON's "load 4, keep 3" reads a float its
    /// map does not name. Returns the absolute float index of the
    /// address.
    fn checks(
        &self,
        load: bool,
        arr: ArrayId,
        base: i64,
        map: &MemMap,
        check_alignment: bool,
        mem_ops: impl Iterator<Item = (i64, usize)>,
    ) -> Result<usize, ExecError> {
        if load {
            self.check(arr, base + map.max_offset())?;
        }
        let abs = self.check(arr, base)?;
        self.validate_alignment(arr, abs, check_alignment)?;
        for &(off, _) in map.entries() {
            self.check(arr, base + off)?;
        }
        for (off, bytes) in mem_ops {
            self.check(arr, base + off + (bytes as i64 - 1) / 4)?;
        }
        Ok(abs)
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
    fn check(&self, arr: ArrayId, fidx: i64) -> Result<usize, ExecError> {
        let decl = &self.kernel.arrays[arr.0];
        if fidx < 0 || fidx as usize >= decl.len + ARRAY_PAD {
            return Err(ExecError::OutOfBounds {
                name: decl.name.clone(),
                index: fidx,
            });
        }
        Ok(self.layout.bases[arr.0] / 4 + fidx as usize)
    }

    /// Validates the alignment-detection verdict dynamically (Theorem 3.1:
    /// an access marked aligned must never reach an unaligned address).
    fn validate_alignment(
        &self,
        arr: ArrayId,
        abs_float: usize,
        check: bool,
    ) -> Result<(), ExecError> {
        if check && !(abs_float * 4).is_multiple_of(16) {
            return Err(ExecError::AlignmentViolation {
                name: self.kernel.arrays[arr.0].name.clone(),
                byte_addr: abs_float * 4,
            });
        }
        Ok(())
    }
}

/// Whether an access is subject to the dynamic alignment check: it was
/// marked aligned and moves one whole 16-byte vector.
fn check_alignment(map: &MemMap, aligned: bool) -> bool {
    aligned && map.contiguous_bytes() == Some(16)
}

/// The machine op of `l`, with its trace register ids resolved: a kernel
/// register keeps its id, temporary `t` is `nreg + t`.
fn tape_op(nreg: u32, l: &LoweredOp) -> TapeOp {
    let slot_id = |s: &Slot| match *s {
        Slot::Reg(r) => r,
        Slot::Tmp(t) => nreg + t,
    };
    let mut srcs = [0; MAX_SRCS];
    for (id, s) in srcs.iter_mut().zip(l.srcs()) {
        *id = slot_id(s);
    }
    let mem = l.mem_off.map(|_| MemRef {
        addr: 0,
        bytes: l.op.access_bytes(),
    });
    TapeOp {
        inst: MachInst {
            op: l.op,
            dst: l.dst.as_ref().map(slot_id),
            srcs: Srcs::new(&srcs[..l.srcs().len()]),
            mem,
        },
        off: l.mem_off.unwrap_or(0),
    }
}

/// A load into `reg`, or a store of it, lowered to `isa`.
fn lower_access(isa: VectorIsa, load: bool, reg: VReg, map: &MemMap, aligned: bool) -> LoweredSeq {
    if load {
        lower::lower_load(isa, reg, map, aligned)
    } else {
        lower::lower_store(isa, reg, map, aligned)
    }
}

/// The lowest and highest float index, relative to the address, of an
/// access of `map` lowered to `seq`: its lanes (their maximum included)
/// and the last float of each machine access, around the address itself.
fn reach(map: &MemMap, seq: &[LoweredOp]) -> (i64, i64) {
    let lanes = map.entries().iter().map(|&(off, _)| off);
    let last_floats = mem_ops(seq).map(|(off, bytes)| off + (bytes as i64 - 1) / 4);
    lanes
        .chain(last_floats)
        .fold((0, 0), |(lo, hi), off| (lo.min(off), hi.max(off)))
}

/// The `(float offset, bytes)` of each machine access of `seq`.
fn mem_ops(seq: &[LoweredOp]) -> impl Iterator<Item = (i64, usize)> + '_ {
    seq.iter()
        .filter_map(|l| Some((l.mem_off?, l.op.access_bytes())))
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

    /// Runs a kernel that loads `x` (`n` floats) per `map` at `addr`,
    /// inside `for i in 0..iters` when `iters` is set, and stores it to
    /// `y` horizontally.
    fn run_load(
        isa: VectorIsa,
        n: usize,
        map: MemMap,
        addr: impl Fn(usize) -> AffineExpr,
        iters: Option<i64>,
    ) -> Result<(), ExecError> {
        let mut b = KernelBuilder::new("reach");
        let x = b.input("x", n);
        let y = b.output("y", 4);
        let lanes = map.lanes();
        let body = |b: &mut KernelBuilder, i| {
            let v = b.load(x, addr(i), map.clone());
            b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(lanes));
        };
        match iters {
            Some(end) => b.for_loop("i", 0, end, 1, body),
            None => body(&mut b, 0),
        }
        let k = b.finish(0);
        let layout = MemLayout::aligned(&k);
        let (mut xv, mut yv) = (vec![1.0f32; n], vec![0.0f32; 4]);
        run_kernel(&k, &mut [&mut xv, &mut yv], &layout, isa, &mut NullSink)
    }

    fn oob(name: &str, index: i64) -> Result<(), ExecError> {
        Err(ExecError::OutOfBounds {
            name: name.into(),
            index,
        })
    }

    /// NEON loads three floats with `vld1q`, which reads a fourth: the
    /// bounds check covers that float, and names it when it is out of
    /// bounds although every lane is in, in straight-line code and in
    /// the loop iteration that first reaches it.
    #[test]
    fn neon_load_four_keep_three_is_checked_whole() {
        // x has 5 floats and 4 of padding: valid indices are 0..9.
        let at = |base: i64| move |_| AffineExpr::constant(base);
        let h3 = MemMap::horizontal(3);
        let neon = VectorIsa::Neon;
        assert_eq!(run_load(neon, 5, h3.clone(), at(5), None), Ok(()));
        assert_eq!(run_load(neon, 5, h3.clone(), at(6), None), oob("x", 9));
        let var = |i| AffineExpr::var(i);
        assert_eq!(run_load(neon, 5, h3.clone(), var, Some(6)), Ok(()));
        assert_eq!(run_load(neon, 5, h3.clone(), var, Some(7)), oob("x", 9));
        // SSSE3 reads exactly the three floats, so the same access is in.
        assert_eq!(run_load(VectorIsa::Ssse3, 5, h3, at(6), None), Ok(()));
    }

    /// A vertical map whose last lane leaves the array reports that
    /// lane's index, in straight-line code and in the loop iteration that
    /// first reaches it.
    #[test]
    fn vertical_map_reports_its_last_lane() {
        // x has 12 floats and 4 of padding: valid indices are 0..16.
        let v3 = MemMap::vertical(3, 4);
        let at = |base: i64| move |_| AffineExpr::constant(base);
        for isa in [VectorIsa::Ssse3, VectorIsa::Neon] {
            assert_eq!(run_load(isa, 12, v3.clone(), at(7), None), Ok(()));
            assert_eq!(run_load(isa, 12, v3.clone(), at(9), None), oob("x", 17));
            let var = |i| AffineExpr::var(i);
            assert_eq!(run_load(isa, 12, v3.clone(), var, Some(8)), Ok(()));
            assert_eq!(run_load(isa, 12, v3.clone(), var, Some(10)), oob("x", 16));
        }
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
