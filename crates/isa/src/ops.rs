//! The machine-level opcode set.
//!
//! Every kernel — LGen-generated or baseline — is ultimately a stream of
//! these opcodes. The set covers the SSE/SSSE3 intrinsics used by the x86
//! ν-BLACs (paper Listings 3.4–3.8), the NEON instructions used by the ARM
//! ν-BLACs (Listings 3.9–3.10), scalar floating-point operations, and the
//! loop/address bookkeeping that competes for issue slots on the in-order
//! embedded cores.

/// Coarse classification used by the schedulers and by cost tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub(crate) enum OpClass {
    /// Vector or scalar load.
    Load,
    /// Vector or scalar store.
    Store,
    /// Vector arithmetic (add/mul/fma/hadd/…).
    VectorArith,
    /// Vector permutation/lane manipulation.
    Shuffle,
    /// Scalar floating-point arithmetic.
    ScalarArith,
    /// Integer address arithmetic, compares, branches, call overhead.
    Overhead,
}

/// A machine opcode.
///
/// The `Q`/`D` suffix pairs on NEON opcodes distinguish 128-bit quadword
/// from 64-bit doubleword forms; doubleword data-processing instructions are
/// twice as fast on Cortex-A8/A9 (paper §2.2.2), which is what the
/// specialized ν-BLACs of §3.4 exploit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MOp {
    // ---- x86 SSE/SSSE3 (ν = 4 floats) ----
    /// `_mm_load_ps` — 16-byte-aligned 128-bit load.
    MmLoadAPs,
    /// `_mm_loadu_ps` — unaligned 128-bit load.
    MmLoadUPs,
    /// `_mm_load_ss` — scalar 32-bit load into lane 0.
    MmLoadSs,
    /// `_mm_loadl_pi` — 64-bit load into the low half.
    MmLoadLPi,
    /// `_mm_load1_ps` — load one float broadcast to all lanes.
    MmLoad1Ps,
    /// `_mm_store_ps` — 16-byte-aligned 128-bit store.
    MmStoreAPs,
    /// `_mm_storeu_ps` — unaligned 128-bit store.
    MmStoreUPs,
    /// `_mm_store_ss` — scalar 32-bit store from lane 0.
    MmStoreSs,
    /// `_mm_storel_pi` — 64-bit store of the low half.
    MmStoreLPi,
    /// `_mm_add_ps`.
    MmAddPs,
    /// `_mm_mul_ps`.
    MmMulPs,
    /// `_mm_hadd_ps` (SSE3 horizontal add) — slow on Atom (Table 3.1).
    MmHaddPs,
    /// `_mm_shuffle_ps`.
    MmShufPs,
    /// `_mm_unpacklo_ps` / `_mm_unpackhi_ps` (transpose building block).
    MmUnpckPs,
    /// `_mm_setzero_ps`.
    MmSetZeroPs,
    /// Register-to-register 128-bit move.
    MmMovAps,

    // ---- ARM NEON ----
    /// `vld1q_f32` — 128-bit load.
    VldQ,
    /// `vld1_f32` — 64-bit load.
    VldD,
    /// `vld1q_lane_f32` — single-lane load.
    VldLane,
    /// `vld1q_dup_f32` — broadcast load.
    VldDup,
    /// `vst1q_f32` — 128-bit store.
    VstQ,
    /// `vst1_f32` — 64-bit store.
    VstD,
    /// `vst1q_lane_f32` — single-lane store.
    VstLane,
    /// `vaddq_f32`.
    VaddQ,
    /// `vadd_f32` (doubleword).
    VaddD,
    /// `vmulq_f32`.
    VmulQ,
    /// `vmul_f32` (doubleword).
    VmulD,
    /// `vmlaq_f32` — quadword fused multiply-accumulate.
    VmlaQ,
    /// `vmla_f32` — doubleword fused multiply-accumulate.
    VmlaD,
    /// `vmulq_lane_f32` — multiply by a scalar from a lane.
    VmulLaneQ,
    /// `vmul_lane_f32` (doubleword).
    VmulLaneD,
    /// `vmlaq_lane_f32` — FMA with a scalar from a lane.
    VmlaLaneQ,
    /// `vmla_lane_f32` (doubleword).
    VmlaLaneD,
    /// `vpadd_f32` — pairwise add (doubleword, horizontal-add block).
    Vpadd,
    /// `vmov`/`vorr` register move.
    Vmov,
    /// `vdupq_n_f32` etc. — broadcast from register lane.
    VdupLane,
    /// `vzip`/`vuzp`/`vext`/`vtrn` — permutes.
    Vperm,
    /// `vsetq_lane_f32`.
    VsetLane,
    /// `vgetq_lane_f32`.
    VgetLane,
    /// `vmovq_n_f32(0)` — zero a register.
    Vzero,

    // ---- Scalar floating point (x86 scalar SSE or ARM VFP) ----
    /// Scalar load (4 bytes).
    FLoad,
    /// Scalar store (4 bytes).
    FStore,
    /// Scalar add.
    FAdd,
    /// Scalar multiply.
    FMul,
    /// Scalar fused multiply-accumulate (VFP `fmacs`).
    FMac,
    /// Scalar register move.
    FMov,

    // ---- Bookkeeping ----
    /// Integer address computation feeding a memory access.
    IAddr,
    /// Conditional branch closing a loop iteration.
    Branch,
    /// Amortized per-call overhead of a library routine (BLAS baselines).
    CallOverhead,
}

impl MOp {
    /// The number of opcodes: `op as usize` is below it for every `op`
    /// (`CallOverhead` is the last variant).
    pub const COUNT: usize = MOp::CallOverhead as usize + 1;

    /// The coarse class of this opcode.
    pub(crate) fn class(self) -> OpClass {
        use MOp::*;
        match self {
            MmLoadAPs | MmLoadUPs | MmLoadSs | MmLoadLPi | MmLoad1Ps | VldQ | VldD | VldLane
            | VldDup | FLoad => OpClass::Load,
            MmStoreAPs | MmStoreUPs | MmStoreSs | MmStoreLPi | VstQ | VstD | VstLane | FStore => {
                OpClass::Store
            }
            MmAddPs | MmMulPs | MmHaddPs | VaddQ | VaddD | VmulQ | VmulD | VmlaQ | VmlaD
            | VmulLaneQ | VmulLaneD | VmlaLaneQ | VmlaLaneD | Vpadd => OpClass::VectorArith,
            MmShufPs | MmUnpckPs | MmSetZeroPs | MmMovAps | Vmov | VdupLane | Vperm | VsetLane
            | VgetLane | Vzero => OpClass::Shuffle,
            FAdd | FMul | FMac | FMov => OpClass::ScalarArith,
            IAddr | Branch | CallOverhead => OpClass::Overhead,
        }
    }

    /// Whether the opcode reads memory.
    pub fn is_load(self) -> bool {
        self.class() == OpClass::Load
    }

    /// Whether the opcode writes memory.
    pub fn is_store(self) -> bool {
        self.class() == OpClass::Store
    }

    /// Whether the opcode accesses memory at all.
    pub fn touches_memory(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Bytes moved by a memory opcode (0 otherwise).
    pub fn access_bytes(self) -> usize {
        use MOp::*;
        match self {
            MmLoadAPs | MmLoadUPs | MmStoreAPs | MmStoreUPs | VldQ | VstQ => 16,
            MmLoadLPi | MmStoreLPi | VldD | VstD => 8,
            MmLoadSs | MmStoreSs | MmLoad1Ps | VldLane | VstLane | VldDup | FLoad | FStore => 4,
            _ => 0,
        }
    }

    /// Floating-point operations performed (for peak-utilization debugging;
    /// kernel flops are always *deduced from the BLAC*, per §5.1.4, not from
    /// instruction counts).
    pub fn flops(self) -> usize {
        use MOp::*;
        match self {
            MmAddPs | MmMulPs => 4,
            MmHaddPs => 4,
            VaddQ | VmulQ | VmulLaneQ => 4,
            VmlaQ | VmlaLaneQ => 8,
            VaddD | VmulD | VmulLaneD | Vpadd => 2,
            VmlaD | VmlaLaneD => 4,
            FAdd | FMul => 1,
            FMac => 2,
            _ => 0,
        }
    }

    /// A short mnemonic for trace dumps and the C unparser.
    pub fn mnemonic(self) -> &'static str {
        use MOp::*;
        match self {
            MmLoadAPs => "_mm_load_ps",
            MmLoadUPs => "_mm_loadu_ps",
            MmLoadSs => "_mm_load_ss",
            MmLoadLPi => "_mm_loadl_pi",
            MmLoad1Ps => "_mm_load1_ps",
            MmStoreAPs => "_mm_store_ps",
            MmStoreUPs => "_mm_storeu_ps",
            MmStoreSs => "_mm_store_ss",
            MmStoreLPi => "_mm_storel_pi",
            MmAddPs => "_mm_add_ps",
            MmMulPs => "_mm_mul_ps",
            MmHaddPs => "_mm_hadd_ps",
            MmShufPs => "_mm_shuffle_ps",
            MmUnpckPs => "_mm_unpacklo_ps",
            MmSetZeroPs => "_mm_setzero_ps",
            MmMovAps => "movaps",
            VldQ => "vld1q_f32",
            VldD => "vld1_f32",
            VldLane => "vld1q_lane_f32",
            VldDup => "vld1q_dup_f32",
            VstQ => "vst1q_f32",
            VstD => "vst1_f32",
            VstLane => "vst1q_lane_f32",
            VaddQ => "vaddq_f32",
            VaddD => "vadd_f32",
            VmulQ => "vmulq_f32",
            VmulD => "vmul_f32",
            VmlaQ => "vmlaq_f32",
            VmlaD => "vmla_f32",
            VmulLaneQ => "vmulq_lane_f32",
            VmulLaneD => "vmul_lane_f32",
            VmlaLaneQ => "vmlaq_lane_f32",
            VmlaLaneD => "vmla_lane_f32",
            Vpadd => "vpadd_f32",
            Vmov => "vmov",
            VdupLane => "vdupq_lane_f32",
            Vperm => "vextq_f32",
            VsetLane => "vsetq_lane_f32",
            VgetLane => "vgetq_lane_f32",
            Vzero => "vmovq_n_f32",
            FLoad => "flds",
            FStore => "fsts",
            FAdd => "fadds",
            FMul => "fmuls",
            FMac => "fmacs",
            FMov => "fcpys",
            IAddr => "addr",
            Branch => "bne",
            CallOverhead => "call",
        }
    }
}

impl std::fmt::Display for MOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_consistent() {
        assert!(MOp::MmLoadAPs.is_load());
        assert!(MOp::VstD.is_store());
        assert!(!MOp::MmAddPs.touches_memory());
        assert_eq!(MOp::VmlaD.class(), OpClass::VectorArith);
        assert_eq!(MOp::MmShufPs.class(), OpClass::Shuffle);
        assert_eq!(MOp::FMac.class(), OpClass::ScalarArith);
    }

    #[test]
    fn access_bytes_match_width() {
        assert_eq!(MOp::MmLoadUPs.access_bytes(), 16);
        assert_eq!(MOp::VldD.access_bytes(), 8);
        assert_eq!(MOp::FLoad.access_bytes(), 4);
        assert_eq!(MOp::MmAddPs.access_bytes(), 0);
    }

    #[test]
    fn flop_counts() {
        assert_eq!(MOp::VmlaQ.flops(), 8);
        assert_eq!(MOp::VmlaD.flops(), 4);
        assert_eq!(MOp::MmAddPs.flops(), 4);
        assert_eq!(MOp::FMac.flops(), 2);
        assert_eq!(MOp::VldQ.flops(), 0);
    }
}
