//! The kernel container and the operand types of C-IR instructions.
//!
//! A [`Kernel`] declares its arrays and holds one body per alignment
//! version; each body is an [`Arena`] of [`crate::arena::AInst`]s under a
//! root block — the one form of C-IR from codegen to unparse.

use crate::arena::{Arena, BlockId, InstId};

/// A virtual register holding up to 4 single-precision lanes.
pub type VReg = u32;

/// Index of an array declared by the kernel (parameter or local temporary).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// Role of a kernel array.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ArrayKind {
    /// Read-only parameter.
    Input,
    /// Written parameter.
    Output,
    /// Parameter that is both read and written (e.g. `y` in `y = αAx + βy`).
    InOut,
    /// Kernel-local temporary (the arrays between codelets of a computation
    /// chain, Fig. 2.3 — scalar replacement removes accesses to these).
    Local,
}

impl ArrayKind {
    /// Whether the array is a kernel parameter.
    pub fn is_param(self) -> bool {
        !matches!(self, ArrayKind::Local)
    }
}

/// Declaration of a kernel array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDecl {
    /// C identifier.
    pub name: String,
    /// Length in floats (excluding the safety padding added by the
    /// interpreter's memory layout).
    pub len: usize,
    /// Role.
    pub kind: ArrayKind,
}

/// Vector width of an arithmetic operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum VWidth {
    /// Scalar (lane 0 only).
    S,
    /// Doubleword — 2 lanes (NEON `d` registers, §3.4).
    D,
    /// Quadword — 4 lanes (full ν).
    Q,
}

impl VWidth {
    /// Number of active lanes.
    pub fn lanes(self) -> usize {
        match self {
            VWidth::S => 1,
            VWidth::D => 2,
            VWidth::Q => 4,
        }
    }
}

/// Vector (or scalar) arithmetic operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum VArith {
    /// Lane-wise addition.
    Add(VWidth),
    /// Lane-wise multiplication.
    Mul(VWidth),
    /// SSE3-style horizontal add of two vectors:
    /// `dst = [a0+a1, a2+a3, b0+b1, b2+b3]`.
    Hadd,
    /// Fused multiply-accumulate `dst += a * b` (NEON `vmla`; expands to
    /// mul+add on ISAs without FMA).
    Fma(VWidth),
    /// Multiply by a lane-broadcast scalar: `dst = a * b[lane]`.
    MulLane(VWidth, u8),
    /// FMA with a lane-broadcast scalar: `dst += a * b[lane]`.
    FmaLane(VWidth, u8),
    /// NEON pairwise add of two doubleword values:
    /// `dst = [a0+a1, b0+b1]` (used by the NEON row-reduction ν-BLAC).
    Pairwise,
}

impl VArith {
    /// Whether the destination register is also read (accumulating ops).
    pub(crate) fn reads_dst(self) -> bool {
        matches!(self, VArith::Fma(_) | VArith::FmaLane(_, _))
    }
}

/// Register moves and lane manipulations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum VMove {
    /// `dst = a`.
    Mov,
    /// `dst = 0` (no source).
    Zero,
    /// `dst = broadcast(a[lane])`.
    Splat(u8),
    /// Four-lane select: `dst[i] = sel[i] < 4 ? a[sel[i]] : b[sel[i] - 4]`.
    Shuf([u8; 4]),
    /// `dst = a` with `dst[lane] = b[0]`.
    SetLane(u8),
    /// `dst[0] = a[lane]`, other lanes zero.
    GetLane(u8),
}

/// Kinds of schedule-only overhead (see [`crate::arena::AInst::Overhead`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum OverheadKind {
    /// Integer address arithmetic.
    Addr,
    /// A branch.
    Branch,
    /// Amortized library-call overhead (serializing).
    Call,
}

/// One alignment version of a kernel body (§3.2.4).
#[derive(Clone, Debug)]
pub struct KernelVersion {
    /// Required base-address offsets, in floats modulo ν, for each
    /// *parameter* array (in declaration order); `None` entries are
    /// don't-care (e.g. scalar parameters). A `None` at the outer level is
    /// the unconditional fallback version.
    pub required_offsets: Option<Vec<Option<usize>>>,
    /// The body specialized under that assumption: the program reachable
    /// from [`root`](Self::root).
    pub arena: Arena,
    /// The body's top-level block.
    pub root: BlockId,
}

impl KernelVersion {
    /// The top-level instruction ids of the body, in program order.
    pub fn insts(&self) -> &[InstId] {
        self.arena.block(self.root)
    }
}

/// Structural: equal requirements and equal reachable programs, whatever
/// the arenas' unreachable instructions or interning order.
impl PartialEq for KernelVersion {
    fn eq(&self, other: &Self) -> bool {
        self.required_offsets == other.required_offsets
            && self.arena.same_program(self.root, &other.arena, other.root)
    }
}

/// A compiled kernel: arrays, one or more alignment-dispatched bodies, and
/// metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    /// Kernel name (C function name).
    pub name: String,
    /// Array declarations; parameters first, then locals.
    pub arrays: Vec<ArrayDecl>,
    /// Alignment versions; the last must be the unconditional fallback.
    pub versions: Vec<KernelVersion>,
    /// Number of virtual registers used.
    pub nreg: u32,
    /// Number of loop variables used.
    pub nvars: usize,
    /// Useful flops of the BLAC this kernel implements (deduced from the
    /// computation, per §5.1.4 — *not* from the instruction count).
    pub flops: u64,
}

impl Kernel {
    /// The single body of an unversioned kernel.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has alignment versions.
    pub fn body(&self) -> &KernelVersion {
        assert_eq!(self.versions.len(), 1, "kernel has alignment versions");
        &self.versions[0]
    }

    /// Mutable access to the single body of an unversioned kernel.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has alignment versions.
    pub fn body_mut(&mut self) -> &mut KernelVersion {
        assert_eq!(self.versions.len(), 1, "kernel has alignment versions");
        &mut self.versions[0]
    }

    /// Ids of parameter arrays, in declaration order.
    pub(crate) fn param_ids(&self) -> Vec<ArrayId> {
        self.arrays
            .iter()
            .enumerate()
            .filter(|(_, d)| d.kind.is_param())
            .map(|(i, _)| ArrayId(i))
            .collect()
    }

    /// Total static instruction count across all versions (loops counted
    /// once; unreachable arena entries not at all).
    pub fn static_size(&self) -> usize {
        self.versions.iter().map(|v| v.arena.count(v.root)).sum()
    }
}

/// Merges separately built single-version kernels into one runtime-
/// dispatched kernel. Used by alignment-peeling code generation (both
/// LGen's §6-style peeling and the peeled competitor models).
///
/// # Panics
///
/// Panics if the kernels disagree on their array declarations, or if the
/// last entry is not the unconditional fallback (`None` requirements).
pub fn merge_kernel_versions(kernels: Vec<(Option<Vec<Option<usize>>>, Kernel)>) -> Kernel {
    assert!(!kernels.is_empty());
    assert!(
        kernels.last().expect("non-empty").0.is_none(),
        "last version must be the fallback"
    );
    let arrays = kernels[0].1.arrays.clone();
    let name = kernels[0].1.name.clone();
    let flops = kernels[0].1.flops;
    let mut nreg = 0;
    let mut nvars = 0;
    let mut versions = Vec::with_capacity(kernels.len());
    for (req, k) in kernels {
        assert_eq!(k.arrays, arrays, "versions must declare identical arrays");
        nreg = nreg.max(k.nreg);
        nvars = nvars.max(k.nvars);
        let body = k.versions.into_iter().next().expect("single body");
        versions.push(KernelVersion {
            required_offsets: req,
            ..body
        });
    }
    Kernel {
        name,
        arrays,
        versions,
        nreg,
        nvars,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::AInst;
    use crate::builder::KernelBuilder;
    use crate::map::MemMap;
    use lgen_absint::AffineExpr;

    fn tiny_kernel(looped: bool) -> Kernel {
        let mut b = KernelBuilder::new("k");
        let x = b.input("x", 4);
        let y = b.output("y", 4);
        b.local("t0", 4);
        let copy = |b: &mut KernelBuilder| {
            let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
            b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(4));
        };
        if looped {
            b.for_loop("i", 0, 8, 4, |b, _| copy(b));
        } else {
            copy(&mut b);
        }
        b.finish(0)
    }

    #[test]
    fn param_ids_exclude_locals() {
        let k = tiny_kernel(false);
        assert_eq!(k.param_ids(), vec![ArrayId(0), ArrayId(1)]);
    }

    #[test]
    fn static_size_counts_nested() {
        let mut k = tiny_kernel(true);
        assert_eq!(k.static_size(), 3);
        // An unlinked instruction is not part of the body.
        k.body_mut().arena.push(AInst::Overhead {
            kind: OverheadKind::Call,
            count: 1,
        });
        assert_eq!(k.static_size(), 3);
    }

    #[test]
    fn fma_reads_dst() {
        assert!(VArith::Fma(VWidth::Q).reads_dst());
        assert!(VArith::FmaLane(VWidth::D, 1).reads_dst());
        assert!(!VArith::Add(VWidth::Q).reads_dst());
    }

    #[test]
    fn widths() {
        assert_eq!(VWidth::S.lanes(), 1);
        assert_eq!(VWidth::D.lanes(), 2);
        assert_eq!(VWidth::Q.lanes(), 4);
    }
}
