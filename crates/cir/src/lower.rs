//! Lowering of C-IR instructions to concrete machine opcode sequences.
//!
//! Lowering happens "only one step before unparsing" (§3.1): generic loads
//! and stores stay abstract through every optimization pass, and this module
//! decides — per ISA and per memory map — which concrete instruction
//! sequence implements each access. The same descriptors drive both the
//! dynamic trace emitted by the interpreter and the C text produced by the
//! unparser, so the code that is measured is the code that is printed.
//!
//! A lowered sequence is a fixed-capacity inline value ([`LoweredSeq`]):
//! lowering never touches the heap. The interpreter lowers each
//! instruction once per run (a loop body into a tape it replays), and the
//! unparser once per printed one.

use crate::ir::{VArith, VMove, VReg, VWidth};
use crate::map::MemMap;
use lgen_isa::{MOp, VectorIsa};
use std::ops::Deref;

/// The most machine ops one C-IR instruction lowers to: the SSSE3
/// vertical gather of four elements (four `load_ss`, three combines) and
/// the four-lane vertical scatter (one `store_ss`, three shuffle+store
/// pairs) are the longest sequences, at 7 ops.
pub const MAX_LOWERED_OPS: usize = 8;

/// The most source slots one lowered op reads: NEON `vmla` reads its
/// accumulator and both factors. Equal to the trace's inline bound, so
/// every lowered op fits a [`lgen_isa::MachInst`].
pub(crate) const MAX_LOWERED_SRCS: usize = lgen_isa::MAX_SRCS;

/// An operand slot in a lowered sequence: either a C-IR virtual register or
/// a sequence-local temporary.
///
/// Temporary ids are always below [`MAX_LOWERED_OPS`], and a sequence
/// writes each temporary before it reads it, so consumers can track them
/// in one fixed-size table shared by every sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Slot {
    /// A kernel virtual register.
    Reg(VReg),
    /// A temporary local to one lowered sequence.
    Tmp(u32),
}

/// One machine instruction of a lowered sequence.
///
/// `mem_off` is the float offset added to the C-IR instruction's base
/// address for memory operations (e.g. the `+2` of the `_mm_load_ss(addr+2)`
/// in the paper's Fig. 3.2 three-element load).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoweredOp {
    /// The machine opcode.
    pub op: MOp,
    /// Destination slot, if any.
    pub dst: Option<Slot>,
    /// For memory ops: offset in floats from the instruction's address.
    pub mem_off: Option<i64>,
    srcs: [Slot; MAX_LOWERED_SRCS],
    nsrcs: u8,
}

impl LoweredOp {
    /// Source slots, in operand order.
    pub fn srcs(&self) -> &[Slot] {
        &self.srcs[..self.nsrcs as usize]
    }

    fn new(op: MOp, dst: Option<Slot>, srcs: &[Slot], mem_off: Option<i64>) -> Self {
        let mut inline = [Slot::Tmp(0); MAX_LOWERED_SRCS];
        inline[..srcs.len()].copy_from_slice(srcs);
        LoweredOp {
            op,
            dst,
            mem_off,
            srcs: inline,
            nsrcs: srcs.len() as u8,
        }
    }

    fn reg(op: MOp, dst: Slot, srcs: &[Slot]) -> Self {
        Self::new(op, Some(dst), srcs, None)
    }

    fn load(op: MOp, dst: Slot, off: i64) -> Self {
        Self::new(op, Some(dst), &[], Some(off))
    }

    fn store(op: MOp, src: Slot, off: i64) -> Self {
        Self::new(op, None, &[src], Some(off))
    }
}

/// The machine ops one C-IR instruction lowers to, stored inline (at most
/// [`MAX_LOWERED_OPS`]); dereferences to `[LoweredOp]`.
#[derive(Clone, Copy, Debug)]
pub struct LoweredSeq {
    ops: [LoweredOp; MAX_LOWERED_OPS],
    len: u8,
}

impl LoweredSeq {
    fn new() -> Self {
        LoweredSeq {
            ops: [LoweredOp::new(MOp::Branch, None, &[], None); MAX_LOWERED_OPS],
            len: 0,
        }
    }

    fn push(&mut self, op: LoweredOp) {
        self.ops[self.len as usize] = op;
        self.len += 1;
    }
}

impl<const N: usize> From<[LoweredOp; N]> for LoweredSeq {
    fn from(ops: [LoweredOp; N]) -> Self {
        let mut seq = LoweredSeq::new();
        for op in ops {
            seq.push(op);
        }
        seq
    }
}

impl Deref for LoweredSeq {
    type Target = [LoweredOp];

    fn deref(&self) -> &[LoweredOp] {
        &self.ops[..self.len as usize]
    }
}

/// Lowers a generic load of `map` into `dst` on `isa`.
///
/// `aligned` is the alignment-detection verdict: on SSSE3 it selects
/// `_mm_load_ps` over `_mm_loadu_ps` for full-width accesses (§3.2); it is
/// ignored on NEON and scalar targets, where the instruction choice does not
/// depend on provable alignment.
///
/// # Panics
///
/// Panics if the map shape is not implementable on the ISA (e.g. a 4-lane
/// map on the scalar ISA) — the code generator must not produce such code.
pub fn lower_load(isa: VectorIsa, dst: VReg, map: &MemMap, aligned: bool) -> LoweredSeq {
    let d = Slot::Reg(dst);
    match isa {
        VectorIsa::Ssse3 => lower_load_ssse3(d, map, aligned),
        VectorIsa::Neon => lower_load_neon(d, map),
        VectorIsa::Scalar => {
            assert_eq!(
                map.lanes(),
                1,
                "scalar ISA cannot load {} lanes",
                map.lanes()
            );
            [LoweredOp::load(MOp::FLoad, d, map.entries()[0].0)].into()
        }
    }
}

fn lower_load_ssse3(d: Slot, map: &MemMap, aligned: bool) -> LoweredSeq {
    if map.is_broadcast() {
        return [LoweredOp::load(MOp::MmLoad1Ps, d, 0)].into();
    }
    if map.is_horizontal() {
        return match map.lanes() {
            4 => {
                let op = if aligned {
                    MOp::MmLoadAPs
                } else {
                    MOp::MmLoadUPs
                };
                [LoweredOp::load(op, d, 0)].into()
            }
            // Fig. 3.2: loadl_pi + load_ss + shuffle.
            3 => [
                LoweredOp::load(MOp::MmLoadLPi, Slot::Tmp(0), 0),
                LoweredOp::load(MOp::MmLoadSs, Slot::Tmp(1), 2),
                LoweredOp::reg(MOp::MmShufPs, d, &[Slot::Tmp(0), Slot::Tmp(1)]),
            ]
            .into(),
            2 => [LoweredOp::load(MOp::MmLoadLPi, d, 0)].into(),
            _ => [LoweredOp::load(MOp::MmLoadSs, d, 0)].into(),
        };
    }
    // Vertical / arbitrary map: per-element loads combined with unpacks
    // (the classic column gather).
    let entries = map.entries();
    if entries.len() == 1 {
        return [LoweredOp::load(MOp::MmLoadSs, d, entries[0].0)].into();
    }
    let mut seq = LoweredSeq::new();
    for (i, &(off, _lane)) in entries.iter().enumerate() {
        seq.push(LoweredOp::load(MOp::MmLoadSs, Slot::Tmp(i as u32), off));
    }
    // Combine: unpack pairs, then merge.
    match entries.len() {
        2 => seq.push(LoweredOp::reg(
            MOp::MmUnpckPs,
            d,
            &[Slot::Tmp(0), Slot::Tmp(1)],
        )),
        3 => {
            seq.push(LoweredOp::reg(
                MOp::MmUnpckPs,
                Slot::Tmp(3),
                &[Slot::Tmp(0), Slot::Tmp(1)],
            ));
            seq.push(LoweredOp::reg(
                MOp::MmShufPs,
                d,
                &[Slot::Tmp(3), Slot::Tmp(2)],
            ));
        }
        _ => {
            seq.push(LoweredOp::reg(
                MOp::MmUnpckPs,
                Slot::Tmp(4),
                &[Slot::Tmp(0), Slot::Tmp(1)],
            ));
            seq.push(LoweredOp::reg(
                MOp::MmUnpckPs,
                Slot::Tmp(5),
                &[Slot::Tmp(2), Slot::Tmp(3)],
            ));
            seq.push(LoweredOp::reg(
                MOp::MmShufPs,
                d,
                &[Slot::Tmp(4), Slot::Tmp(5)],
            ));
        }
    }
    seq
}

fn lower_load_neon(d: Slot, map: &MemMap) -> LoweredSeq {
    if map.is_broadcast() {
        return [LoweredOp::load(MOp::VldDup, d, 0)].into();
    }
    if map.is_horizontal() {
        return match map.lanes() {
            4 => [LoweredOp::load(MOp::VldQ, d, 0)].into(),
            // Fig. 3.4 load side: vld1q + zero lane 3 via vsetq_lane.
            3 => [
                LoweredOp::load(MOp::VldQ, Slot::Tmp(0), 0),
                LoweredOp::reg(MOp::Vzero, Slot::Tmp(1), &[]),
                LoweredOp::reg(MOp::VsetLane, d, &[Slot::Tmp(0), Slot::Tmp(1)]),
            ]
            .into(),
            2 => [LoweredOp::load(MOp::VldD, d, 0)].into(),
            _ => [LoweredOp::load(MOp::VldLane, d, 0)].into(),
        };
    }
    // Vertical map: one lane load per element.
    let mut seq = LoweredSeq::new();
    for &(off, _) in map.entries() {
        seq.push(LoweredOp::load(MOp::VldLane, d, off));
    }
    seq
}

/// Lowers a generic store of `src` per `map` on `isa`.
///
/// # Panics
///
/// Panics on map shapes not implementable on the ISA (see [`lower_load`]).
pub fn lower_store(isa: VectorIsa, src: VReg, map: &MemMap, aligned: bool) -> LoweredSeq {
    assert!(!map.is_broadcast(), "cannot store a broadcast map");
    let s = Slot::Reg(src);
    match isa {
        VectorIsa::Ssse3 => lower_store_ssse3(s, map, aligned),
        VectorIsa::Neon => lower_store_neon(s, map),
        VectorIsa::Scalar => {
            assert_eq!(
                map.lanes(),
                1,
                "scalar ISA cannot store {} lanes",
                map.lanes()
            );
            [LoweredOp::store(MOp::FStore, s, map.entries()[0].0)].into()
        }
    }
}

fn lower_store_ssse3(s: Slot, map: &MemMap, aligned: bool) -> LoweredSeq {
    if map.is_horizontal() {
        return match map.lanes() {
            4 => {
                let op = if aligned {
                    MOp::MmStoreAPs
                } else {
                    MOp::MmStoreUPs
                };
                [LoweredOp::store(op, s, 0)].into()
            }
            // Fig. 3.2: storel_pi + shuffle + store_ss.
            3 => [
                LoweredOp::store(MOp::MmStoreLPi, s, 0),
                LoweredOp::reg(MOp::MmShufPs, Slot::Tmp(0), &[s, s]),
                LoweredOp::store(MOp::MmStoreSs, Slot::Tmp(0), 2),
            ]
            .into(),
            2 => [LoweredOp::store(MOp::MmStoreLPi, s, 0)].into(),
            _ => [LoweredOp::store(MOp::MmStoreSs, s, 0)].into(),
        };
    }
    // Vertical map: shuffle each lane down to lane 0 and store_ss.
    let mut seq = LoweredSeq::new();
    for (i, &(off, lane)) in map.entries().iter().enumerate() {
        if lane == 0 {
            seq.push(LoweredOp::store(MOp::MmStoreSs, s, off));
        } else {
            seq.push(LoweredOp::reg(MOp::MmShufPs, Slot::Tmp(i as u32), &[s, s]));
            seq.push(LoweredOp::store(MOp::MmStoreSs, Slot::Tmp(i as u32), off));
        }
    }
    seq
}

fn lower_store_neon(s: Slot, map: &MemMap) -> LoweredSeq {
    if map.is_horizontal() {
        return match map.lanes() {
            4 => [LoweredOp::store(MOp::VstQ, s, 0)].into(),
            // Fig. 3.4 store side: vst1_f32 (two lanes) + vst1q_lane (third).
            3 => [
                LoweredOp::store(MOp::VstD, s, 0),
                LoweredOp::store(MOp::VstLane, s, 2),
            ]
            .into(),
            2 => [LoweredOp::store(MOp::VstD, s, 0)].into(),
            _ => [LoweredOp::store(MOp::VstLane, s, 0)].into(),
        };
    }
    let mut seq = LoweredSeq::new();
    for &(off, _) in map.entries() {
        seq.push(LoweredOp::store(MOp::VstLane, s, off));
    }
    seq
}

/// Lowers an arithmetic C-IR op.
///
/// # Panics
///
/// Panics on width/ISA combinations the code generator must not produce
/// (vector ops on the scalar ISA).
pub fn lower_arith(isa: VectorIsa, op: VArith, dst: VReg, a: VReg, b: VReg) -> LoweredSeq {
    let d = Slot::Reg(dst);
    let (a, b) = (Slot::Reg(a), Slot::Reg(b));
    match isa {
        VectorIsa::Ssse3 => lower_arith_ssse3(op, d, a, b),
        VectorIsa::Neon => lower_arith_neon(op, d, a, b),
        VectorIsa::Scalar => lower_arith_scalar(op, d, a, b),
    }
}

fn lower_arith_ssse3(op: VArith, d: Slot, a: Slot, b: Slot) -> LoweredSeq {
    use VArith::*;
    match op {
        Add(VWidth::S) => [LoweredOp::reg(MOp::FAdd, d, &[a, b])].into(),
        Mul(VWidth::S) => [LoweredOp::reg(MOp::FMul, d, &[a, b])].into(),
        // SSSE3 has no doubleword forms: D-width ops are executed as Q.
        Add(_) => [LoweredOp::reg(MOp::MmAddPs, d, &[a, b])].into(),
        Mul(_) => [LoweredOp::reg(MOp::MmMulPs, d, &[a, b])].into(),
        Hadd | Pairwise => [LoweredOp::reg(MOp::MmHaddPs, d, &[a, b])].into(),
        Fma(VWidth::S) => [
            LoweredOp::reg(MOp::FMul, Slot::Tmp(0), &[a, b]),
            LoweredOp::reg(MOp::FAdd, d, &[d, Slot::Tmp(0)]),
        ]
        .into(),
        Fma(_) => [
            LoweredOp::reg(MOp::MmMulPs, Slot::Tmp(0), &[a, b]),
            LoweredOp::reg(MOp::MmAddPs, d, &[d, Slot::Tmp(0)]),
        ]
        .into(),
        MulLane(_, _) => [
            LoweredOp::reg(MOp::MmShufPs, Slot::Tmp(0), &[b, b]),
            LoweredOp::reg(MOp::MmMulPs, d, &[a, Slot::Tmp(0)]),
        ]
        .into(),
        FmaLane(_, _) => [
            LoweredOp::reg(MOp::MmShufPs, Slot::Tmp(0), &[b, b]),
            LoweredOp::reg(MOp::MmMulPs, Slot::Tmp(1), &[a, Slot::Tmp(0)]),
            LoweredOp::reg(MOp::MmAddPs, d, &[d, Slot::Tmp(1)]),
        ]
        .into(),
    }
}

fn lower_arith_neon(op: VArith, d: Slot, a: Slot, b: Slot) -> LoweredSeq {
    use VArith::*;
    let one = |m: MOp| -> LoweredSeq { [LoweredOp::reg(m, d, &[a, b])].into() };
    let acc = |m: MOp| -> LoweredSeq { [LoweredOp::reg(m, d, &[d, a, b])].into() };
    match op {
        Add(VWidth::Q) => one(MOp::VaddQ),
        Add(_) => one(MOp::VaddD),
        Mul(VWidth::Q) => one(MOp::VmulQ),
        Mul(_) => one(MOp::VmulD),
        Fma(VWidth::Q) => acc(MOp::VmlaQ),
        Fma(_) => acc(MOp::VmlaD),
        MulLane(VWidth::Q, _) => one(MOp::VmulLaneQ),
        MulLane(_, _) => one(MOp::VmulLaneD),
        FmaLane(VWidth::Q, _) => acc(MOp::VmlaLaneQ),
        FmaLane(_, _) => acc(MOp::VmlaLaneD),
        Pairwise => one(MOp::Vpadd),
        // NEON has no single-instruction 4-lane horizontal add: emulate the
        // SSE hadd semantics with two pairwise adds and a permute.
        Hadd => [
            LoweredOp::reg(MOp::Vpadd, Slot::Tmp(0), &[a, a]),
            LoweredOp::reg(MOp::Vpadd, Slot::Tmp(1), &[b, b]),
            LoweredOp::reg(MOp::Vperm, d, &[Slot::Tmp(0), Slot::Tmp(1)]),
        ]
        .into(),
    }
}

fn lower_arith_scalar(op: VArith, d: Slot, a: Slot, b: Slot) -> LoweredSeq {
    use VArith::*;
    match op {
        Add(VWidth::S) => [LoweredOp::reg(MOp::FAdd, d, &[a, b])].into(),
        Mul(VWidth::S) => [LoweredOp::reg(MOp::FMul, d, &[a, b])].into(),
        Fma(VWidth::S) => [
            LoweredOp::reg(MOp::FMul, Slot::Tmp(0), &[a, b]),
            LoweredOp::reg(MOp::FAdd, d, &[d, Slot::Tmp(0)]),
        ]
        .into(),
        other => panic!("vector op {other:?} on the scalar ISA"),
    }
}

/// Lowers a register move / lane manipulation.
pub fn lower_move(isa: VectorIsa, op: VMove, dst: VReg, a: VReg, b: VReg) -> LoweredSeq {
    let d = Slot::Reg(dst);
    let (a, b) = (Slot::Reg(a), Slot::Reg(b));
    let one = |m: MOp, srcs: &[Slot]| -> LoweredSeq { [LoweredOp::reg(m, d, srcs)].into() };
    use VMove::*;
    match isa {
        VectorIsa::Ssse3 => match op {
            Mov => one(MOp::MmMovAps, &[a]),
            Zero => one(MOp::MmSetZeroPs, &[]),
            Splat(_) => one(MOp::MmShufPs, &[a, a]),
            Shuf(_) => one(MOp::MmShufPs, &[a, b]),
            SetLane(_) => [
                LoweredOp::reg(MOp::MmShufPs, Slot::Tmp(0), &[a, b]),
                LoweredOp::reg(MOp::MmShufPs, d, &[a, Slot::Tmp(0)]),
            ]
            .into(),
            GetLane(_) => one(MOp::MmShufPs, &[a, a]),
        },
        VectorIsa::Neon => match op {
            Mov => one(MOp::Vmov, &[a]),
            Zero => one(MOp::Vzero, &[]),
            Splat(_) => one(MOp::VdupLane, &[a]),
            Shuf(_) => one(MOp::Vperm, &[a, b]),
            SetLane(_) => one(MOp::VsetLane, &[a, b]),
            GetLane(_) => one(MOp::VgetLane, &[a]),
        },
        VectorIsa::Scalar => match op {
            Mov | Splat(_) | GetLane(_) => one(MOp::FMov, &[a]),
            Zero => one(MOp::FMov, &[]),
            SetLane(_) => one(MOp::FMov, &[b]),
            Shuf(_) => panic!("shuffle on the scalar ISA"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seq: &[LoweredOp]) -> Vec<MOp> {
        seq.iter().map(|l| l.op).collect()
    }

    #[test]
    fn full_width_load_respects_alignment_verdict() {
        let seq = lower_load(VectorIsa::Ssse3, 0, &MemMap::horizontal(4), true);
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].op, MOp::MmLoadAPs);
        let seq = lower_load(VectorIsa::Ssse3, 0, &MemMap::horizontal(4), false);
        assert_eq!(seq[0].op, MOp::MmLoadUPs);
        // NEON ignores the verdict — vld1q handles any alignment.
        let seq = lower_load(VectorIsa::Neon, 0, &MemMap::horizontal(4), false);
        assert_eq!(seq[0].op, MOp::VldQ);
    }

    /// The mismatched NEON 3-element implementations of Fig. 3.4.
    #[test]
    fn fig_3_4_mismatched_three_element_access() {
        let load = lower_load(VectorIsa::Neon, 0, &MemMap::horizontal(3), false);
        assert_eq!(ops(&load), vec![MOp::VldQ, MOp::Vzero, MOp::VsetLane]);
        let store = lower_store(VectorIsa::Neon, 0, &MemMap::horizontal(3), false);
        assert_eq!(ops(&store), vec![MOp::VstD, MOp::VstLane]);
    }

    /// The SSE 3-element sequences of Fig. 3.2.
    #[test]
    fn fig_3_2_three_element_sse() {
        let load = lower_load(VectorIsa::Ssse3, 0, &MemMap::horizontal(3), false);
        assert_eq!(
            ops(&load),
            vec![MOp::MmLoadLPi, MOp::MmLoadSs, MOp::MmShufPs]
        );
        let store = lower_store(VectorIsa::Ssse3, 0, &MemMap::horizontal(3), false);
        assert_eq!(
            ops(&store),
            vec![MOp::MmStoreLPi, MOp::MmShufPs, MOp::MmStoreSs]
        );
    }

    #[test]
    fn vertical_maps_gather_and_scatter() {
        let seq = lower_load(VectorIsa::Ssse3, 0, &MemMap::vertical(4, 8), false);
        let loads = seq.iter().filter(|l| l.op == MOp::MmLoadSs).count();
        assert_eq!(loads, 4);
        assert_eq!(seq.iter().filter(|l| l.op.touches_memory()).count(), 4);
        let seq = lower_load(VectorIsa::Neon, 0, &MemMap::vertical(3, 5), false);
        assert_eq!(seq.len(), 3);
        assert!(seq.iter().all(|l| l.op == MOp::VldLane));
        // Offsets follow the stride.
        assert_eq!(
            seq.iter().map(|l| l.mem_off.unwrap()).collect::<Vec<_>>(),
            vec![0, 5, 10]
        );
    }

    #[test]
    fn fma_expands_on_ssse3_but_not_neon() {
        let x86 = lower_arith(VectorIsa::Ssse3, VArith::Fma(VWidth::Q), 0, 1, 2);
        assert_eq!(ops(&x86), vec![MOp::MmMulPs, MOp::MmAddPs]);
        let neon = lower_arith(VectorIsa::Neon, VArith::Fma(VWidth::Q), 0, 1, 2);
        assert_eq!(ops(&neon), vec![MOp::VmlaQ]);
        // vmla reads its accumulator and both factors.
        assert_eq!(neon[0].srcs(), &[Slot::Reg(0), Slot::Reg(1), Slot::Reg(2)]);
        // Doubleword on NEON.
        let neon_d = lower_arith(VectorIsa::Neon, VArith::Fma(VWidth::D), 0, 1, 2);
        assert_eq!(neon_d[0].op, MOp::VmlaD);
    }

    #[test]
    fn lane_multiplies_avoid_shuffles_on_neon() {
        // §2.2.2: NEON's by-scalar instructions avoid the shuffles x86 needs.
        let neon = lower_arith(VectorIsa::Neon, VArith::MulLane(VWidth::Q, 2), 0, 1, 2);
        assert_eq!(neon.len(), 1);
        let x86 = lower_arith(VectorIsa::Ssse3, VArith::MulLane(VWidth::Q, 2), 0, 1, 2);
        assert_eq!(x86.len(), 2);
    }

    #[test]
    #[should_panic(expected = "scalar ISA")]
    fn vector_op_on_scalar_isa_panics() {
        lower_arith(VectorIsa::Scalar, VArith::Add(VWidth::Q), 0, 1, 2);
    }

    /// Every memory-map shape a kernel can carry: broadcasts, horizontal
    /// and strided vertical maps of 1–4 lanes, and every lane subset at
    /// scattered offsets.
    fn every_map() -> Vec<MemMap> {
        let mut maps = Vec::new();
        for lanes in 1..=4 {
            maps.push(MemMap::splat(lanes));
            maps.push(MemMap::horizontal(lanes));
            maps.push(MemMap::vertical(lanes, 7));
        }
        for subset in 1u8..16 {
            let entries = (0..4u8)
                .filter(|l| subset & (1 << l) != 0)
                .map(|l| (5 * l as i64 + 3, l))
                .collect();
            maps.push(MemMap::from_entries(entries));
        }
        maps
    }

    /// Every lowering the three ISAs implement, for the bound checks.
    fn every_sequence() -> Vec<LoweredSeq> {
        let widths = [VWidth::S, VWidth::D, VWidth::Q];
        let mut ariths = vec![VArith::Hadd, VArith::Pairwise];
        for w in widths {
            ariths.extend([
                VArith::Add(w),
                VArith::Mul(w),
                VArith::Fma(w),
                VArith::MulLane(w, 3),
                VArith::FmaLane(w, 1),
            ]);
        }
        let moves = [
            VMove::Mov,
            VMove::Zero,
            VMove::Splat(2),
            VMove::Shuf([3, 2, 5, 4]),
            VMove::SetLane(1),
            VMove::GetLane(3),
        ];
        let mut out = Vec::new();
        for isa in [VectorIsa::Ssse3, VectorIsa::Neon, VectorIsa::Scalar] {
            let scalar = isa == VectorIsa::Scalar;
            for map in every_map() {
                if scalar && map.lanes() != 1 {
                    continue;
                }
                for aligned in [false, true] {
                    out.push(lower_load(isa, 7, &map, aligned));
                    if !map.is_broadcast() {
                        out.push(lower_store(isa, 7, &map, aligned));
                    }
                }
            }
            for &op in &ariths {
                let scalar_ok = matches!(
                    op,
                    VArith::Add(VWidth::S) | VArith::Mul(VWidth::S) | VArith::Fma(VWidth::S)
                );
                if !scalar || scalar_ok {
                    out.push(lower_arith(isa, op, 7, 8, 9));
                }
            }
            for op in moves {
                if !(scalar && matches!(op, VMove::Shuf(_))) {
                    out.push(lower_move(isa, op, 7, 8, 9));
                }
            }
        }
        out
    }

    #[test]
    fn every_lowering_fits_the_inline_bounds() {
        let seqs = every_sequence();
        let longest = seqs.iter().map(|s| s.len()).max().unwrap();
        let widest = seqs
            .iter()
            .flat_map(|s| s.iter())
            .map(|l| l.srcs().len())
            .max()
            .unwrap();
        assert!(longest <= MAX_LOWERED_OPS, "{longest} ops");
        assert!(widest <= MAX_LOWERED_SRCS, "{widest} sources");
        // The bounds are tight enough to matter: the vertical gather and
        // vmla reach them.
        assert_eq!(longest, 7);
        assert_eq!(widest, MAX_LOWERED_SRCS);
        for seq in &seqs {
            assert!(!seq.is_empty());
            for l in seq.iter() {
                for s in l.srcs().iter().chain(l.dst.as_ref()) {
                    if let Slot::Tmp(t) = s {
                        assert!((*t as usize) < MAX_LOWERED_OPS, "tmp {t} in {seq:?}");
                    }
                }
            }
        }
    }

    /// The interpreter gives every lowered sequence the same temporary
    /// ids, which is sound only if no sequence reads a temporary it has
    /// not written: otherwise the read would see the previous sequence's
    /// value and ready time.
    #[test]
    fn every_sequence_writes_a_temporary_before_reading_it() {
        for seq in every_sequence() {
            let mut written = [false; MAX_LOWERED_OPS];
            for l in seq.iter() {
                for s in l.srcs() {
                    if let Slot::Tmp(t) = s {
                        assert!(written[*t as usize], "tmp {t} read before written: {seq:?}");
                    }
                }
                if let Some(Slot::Tmp(t)) = l.dst {
                    written[t as usize] = true;
                }
            }
        }
    }
}
