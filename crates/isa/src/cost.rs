//! Per-microarchitecture instruction cost tables.
//!
//! Latency/throughput pairs follow the paper's published data where given
//! (Table 3.1 for `_mm_add_ps` vs `_mm_hadd_ps`; §2.2 for issue disciplines,
//! the doubleword/quadword NEON asymmetry, the non-pipelined Cortex-A8 VFP,
//! and the single-issue Cortex-A9 NEON pipeline) and plausible values from
//! vendor optimization manuals elsewhere. These numbers are the *mechanism*
//! behind every performance result this repository reproduces.

use crate::ops::MOp;
use crate::uarch::Microarch;

/// Issue-port requirement of an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PortReq {
    /// May issue on any port in the bitmask (bit *i* = port *i*).
    AnyOf(u8),
    /// Occupies *all* ports while issuing (e.g. `_mm_hadd_ps` on Atom,
    /// which "occupies both of the issue ports", §3.3).
    All,
}

impl PortReq {
    /// Bitmask of candidate ports given the machine's port count.
    pub fn mask(self, num_ports: u32) -> u8 {
        let all = ((1u16 << num_ports) - 1) as u8;
        match self {
            PortReq::AnyOf(m) => m & all,
            PortReq::All => all,
        }
    }

    /// Whether the instruction blocks every port while it issues.
    pub fn blocks_all(self) -> bool {
        matches!(self, PortReq::All)
    }
}

/// Cost of one instruction on one microarchitecture.
///
/// `latency` is the cycles until the result is available; `issue` is the
/// reciprocal throughput (cycles the chosen port stays busy) — the same
/// convention as the paper's Table 3.1 "latency / throughput" pairs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct InstCost {
    /// Result latency in cycles.
    pub latency: u32,
    /// Reciprocal throughput (port-busy cycles).
    pub issue: u32,
    /// Which port(s) the instruction needs.
    pub ports: PortReq,
}

const fn c(latency: u32, issue: u32, ports: PortReq) -> InstCost {
    InstCost {
        latency,
        issue,
        ports,
    }
}

const ANY: PortReq = PortReq::AnyOf(0xff);
const P0: PortReq = PortReq::AnyOf(0b001);
const P1: PortReq = PortReq::AnyOf(0b010);
const P2: PortReq = PortReq::AnyOf(0b100);

/// Cost of `op` on `arch`.
///
/// Opcodes that cannot occur on an architecture (NEON ops on x86 and vice
/// versa) get a generic conservative cost rather than panicking, so that
/// exhaustive property tests can sweep the full cross product.
pub fn cost(arch: Microarch, op: MOp) -> InstCost {
    match arch {
        Microarch::Atom => atom_cost(op),
        Microarch::CortexA8 => a8_cost(op),
        Microarch::CortexA9 => a9_cost(op),
        Microarch::Arm1176 => arm1176_cost(op),
        _ => big_x86_cost(op),
    }
}

/// Intel Atom (Bonnell): in-order, two issue ports shared by memory and
/// arithmetic; unaligned 16-byte accesses are far slower than aligned ones
/// (§3.2.1); `_mm_hadd_ps` is 8/7 and occupies both ports (Table 3.1, §3.3);
/// SIMD multiply has half the throughput of SIMD add (1.5 DP instructions
/// per cycle at a 2:1 add:mul ratio, §2.2.1).
fn atom_cost(op: MOp) -> InstCost {
    use MOp::*;
    match op {
        MmLoadAPs => c(3, 1, ANY),
        MmLoadUPs => c(9, 5, ANY),
        MmLoadSs | MmLoadLPi => c(3, 1, ANY),
        MmLoad1Ps => c(4, 2, ANY),
        MmStoreAPs => c(3, 1, ANY),
        MmStoreUPs => c(9, 5, ANY),
        MmStoreSs | MmStoreLPi => c(3, 1, ANY),
        MmAddPs => c(5, 1, P1),
        MmMulPs => c(5, 2, P0),
        MmHaddPs => c(8, 7, PortReq::All),
        MmShufPs | MmUnpckPs => c(1, 1, P0),
        MmSetZeroPs | MmMovAps => c(1, 1, ANY),
        FAdd => c(5, 1, P1),
        FMul => c(4, 1, P0),
        FMac => c(9, 2, P0),
        FLoad | FStore => c(3, 1, ANY),
        FMov => c(1, 1, ANY),
        IAddr => c(1, 1, ANY),
        Branch => c(1, 1, ANY),
        CallOverhead => c(48, 48, PortReq::All),
        // NEON opcodes cannot occur on x86; conservative fallback.
        _ => c(8, 4, ANY),
    }
}

/// ARM Cortex-A8: the NEON unit issues one load/store/permute (port 0)
/// together with one data-processing instruction (port 1) per cycle;
/// doubleword DP instructions are twice as fast as quadword ones; the
/// scalar VFP is non-pipelined (§2.2.2). Port 2 is the integer pipe.
fn a8_cost(op: MOp) -> InstCost {
    use MOp::*;
    match op {
        VldQ | VldD | VldDup => c(3, 1, P0),
        VldLane => c(4, 2, P0),
        VstQ | VstD => c(2, 1, P0),
        VstLane => c(3, 2, P0),
        VaddQ | VmulQ => c(5, 2, P1),
        VaddD | VmulD => c(5, 1, P1),
        VmlaQ | VmlaLaneQ => c(7, 2, P1),
        VmlaD | VmlaLaneD => c(7, 1, P1),
        VmulLaneQ => c(5, 2, P1),
        VmulLaneD => c(5, 1, P1),
        Vpadd => c(5, 1, P1),
        Vmov | VdupLane | Vperm => c(1, 1, P0),
        VsetLane => c(2, 1, P0),
        // NEON-to-core transfers stall the Cortex-A8 pipeline.
        VgetLane => c(14, 2, P0),
        Vzero => c(1, 1, P1),
        // Non-pipelined VFP: "each instruction has to run to completion
        // before the next instruction can be issued".
        FAdd | FMul => c(10, 8, P1),
        FMac => c(11, 9, P1),
        FLoad => c(3, 1, P0),
        FStore => c(2, 1, P0),
        FMov => c(2, 1, P1),
        IAddr => c(1, 1, P2),
        Branch => c(1, 1, P2),
        CallOverhead => c(48, 48, PortReq::All),
        _ => c(8, 4, ANY),
    }
}

/// ARM Cortex-A9: out-of-order core, but the NEON pipeline issues only one
/// instruction per cycle — memory accesses share the single NEON issue port
/// with data processing (§2.2.3). The VFP is pipelined, so scalar floating
/// point is much faster than on the A8.
fn a9_cost(op: MOp) -> InstCost {
    use MOp::*;
    match op {
        VldQ => c(4, 2, P0),
        VldD | VldDup => c(3, 1, P0),
        VldLane => c(4, 2, P0),
        VstQ => c(2, 2, P0),
        VstD => c(1, 1, P0),
        VstLane => c(2, 2, P0),
        VaddQ | VmulQ | VmulLaneQ => c(5, 2, P0),
        VaddD | VmulD | VmulLaneD => c(5, 1, P0),
        VmlaQ | VmlaLaneQ => c(7, 2, P0),
        VmlaD | VmlaLaneD => c(7, 1, P0),
        Vpadd => c(5, 1, P0),
        Vmov | VdupLane | Vperm => c(1, 1, P0),
        VsetLane | VgetLane => c(3, 1, P0),
        Vzero => c(1, 1, P0),
        // Pipelined VFP.
        FAdd => c(4, 1, P0),
        FMul => c(5, 1, P0),
        FMac => c(8, 1, P0),
        FLoad => c(4, 1, P0),
        FStore => c(2, 1, P0),
        FMov => c(1, 1, P0),
        IAddr => c(1, 1, P1),
        Branch => c(1, 1, P1),
        CallOverhead => c(48, 48, PortReq::All),
        _ => c(8, 4, ANY),
    }
}

/// ARM1176JZF-S: single-issue; the FMAC, DS and LS pipelines share their
/// first two stages, so at most one floating-point instruction enters per
/// cycle (§2.2.4) — peak 1 flop/cycle.
fn arm1176_cost(op: MOp) -> InstCost {
    use MOp::*;
    match op {
        FAdd | FMul => c(4, 1, P0),
        FMac => c(5, 2, P0),
        FLoad => c(3, 1, P0),
        FStore => c(2, 1, P0),
        FMov => c(1, 1, P0),
        IAddr => c(1, 1, P0),
        Branch => c(2, 1, P0),
        CallOverhead => c(48, 48, PortReq::All),
        // SIMD opcodes cannot occur on ARMv6; conservative fallback.
        _ => c(8, 4, P0),
    }
}

/// Big out-of-order x86 cores (Haswell … Nehalem): Table 3.1 gives
/// `_mm_add_ps` = 3/1 and `_mm_hadd_ps` = 5/2 on all five of them.
fn big_x86_cost(op: MOp) -> InstCost {
    use MOp::*;
    match op {
        MmAddPs | MmMulPs => c(3, 1, ANY),
        MmHaddPs => c(5, 2, ANY),
        MmLoadAPs | MmLoadSs | MmLoadLPi | MmLoad1Ps => c(3, 1, ANY),
        MmLoadUPs => c(4, 1, ANY),
        MmStoreAPs | MmStoreUPs | MmStoreSs | MmStoreLPi => c(3, 1, ANY),
        MmShufPs | MmUnpckPs | MmSetZeroPs | MmMovAps => c(1, 1, ANY),
        FAdd | FMul => c(3, 1, ANY),
        FMac => c(5, 1, ANY),
        FLoad | FStore => c(3, 1, ANY),
        FMov => c(1, 1, ANY),
        IAddr | Branch => c(1, 1, ANY),
        CallOverhead => c(48, 48, PortReq::All),
        _ => c(8, 4, ANY),
    }
}

/// The data behind the paper's Table 3.1: `(microarch, _mm_add_ps cost,
/// _mm_hadd_ps cost)` for the six x86 microarchitectures listed there.
pub fn haswell_family_add_vs_hadd() -> Vec<(Microarch, InstCost, InstCost)> {
    [
        Microarch::Haswell,
        Microarch::IvyBridge,
        Microarch::SandyBridge,
        Microarch::Westmere,
        Microarch::Nehalem,
        Microarch::Atom,
    ]
    .into_iter()
    .map(|m| (m, cost(m, MOp::MmAddPs), cost(m, MOp::MmHaddPs)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 3.1, exactly.
    #[test]
    fn table_3_1_values() {
        for (m, add, hadd) in haswell_family_add_vs_hadd() {
            if m == Microarch::Atom {
                assert_eq!((add.latency, add.issue), (5, 1));
                assert_eq!((hadd.latency, hadd.issue), (8, 7));
                assert!(hadd.ports.blocks_all());
            } else {
                assert_eq!((add.latency, add.issue), (3, 1));
                assert_eq!((hadd.latency, hadd.issue), (5, 2));
            }
        }
    }

    /// §2.2.2/§2.2.3: doubleword NEON DP is twice the throughput of quadword.
    #[test]
    fn neon_doubleword_twice_as_fast() {
        for arch in [Microarch::CortexA8, Microarch::CortexA9] {
            for (q, d) in [
                (MOp::VaddQ, MOp::VaddD),
                (MOp::VmulQ, MOp::VmulD),
                (MOp::VmlaQ, MOp::VmlaD),
                (MOp::VmlaLaneQ, MOp::VmlaLaneD),
            ] {
                assert_eq!(
                    cost(arch, q).issue,
                    2 * cost(arch, d).issue,
                    "{arch:?} {q:?}"
                );
            }
        }
    }

    /// §3.2.1: unaligned SSE accesses are much slower than aligned on Atom.
    #[test]
    fn atom_unaligned_penalty() {
        let a = cost(Microarch::Atom, MOp::MmLoadAPs);
        let u = cost(Microarch::Atom, MOp::MmLoadUPs);
        assert!(u.latency > 2 * a.latency || u.issue >= 3 * a.issue);
        // ... but roughly equal on the big cores.
        let a = cost(Microarch::Haswell, MOp::MmLoadAPs);
        let u = cost(Microarch::Haswell, MOp::MmLoadUPs);
        assert_eq!(a.issue, u.issue);
    }

    /// §2.2.2: the Cortex-A8 VFP is non-pipelined (issue ≈ latency), while
    /// the Cortex-A9 VFP is pipelined (issue 1).
    #[test]
    fn vfp_pipelining_difference() {
        let a8 = cost(Microarch::CortexA8, MOp::FAdd);
        assert!(a8.issue >= a8.latency - 2);
        let a9 = cost(Microarch::CortexA9, MOp::FAdd);
        assert_eq!(a9.issue, 1);
    }

    /// Memory and data-processing NEON ops use different ports on the A8
    /// (dual-issue) but the same port on the A9 (single NEON issue).
    #[test]
    fn a8_dual_issue_vs_a9_single_issue() {
        let a8_ld = cost(Microarch::CortexA8, MOp::VldD).ports.mask(3);
        let a8_dp = cost(Microarch::CortexA8, MOp::VmlaD).ports.mask(3);
        assert_eq!(a8_ld & a8_dp, 0, "A8 LS and DP ports must be disjoint");
        let a9_ld = cost(Microarch::CortexA9, MOp::VldD).ports.mask(2);
        let a9_dp = cost(Microarch::CortexA9, MOp::VmlaD).ports.mask(2);
        assert_eq!(a9_ld, a9_dp, "A9 LS and DP share the single NEON port");
    }

    /// Every opcode has a non-degenerate cost on every architecture.
    #[test]
    fn all_costs_well_formed() {
        use MOp::*;
        let all_ops = [
            MmLoadAPs,
            MmLoadUPs,
            MmLoadSs,
            MmLoadLPi,
            MmLoad1Ps,
            MmStoreAPs,
            MmStoreUPs,
            MmStoreSs,
            MmStoreLPi,
            MmAddPs,
            MmMulPs,
            MmHaddPs,
            MmShufPs,
            MmUnpckPs,
            MmSetZeroPs,
            MmMovAps,
            VldQ,
            VldD,
            VldLane,
            VldDup,
            VstQ,
            VstD,
            VstLane,
            VaddQ,
            VaddD,
            VmulQ,
            VmulD,
            VmlaQ,
            VmlaD,
            VmulLaneQ,
            VmulLaneD,
            VmlaLaneQ,
            VmlaLaneD,
            Vpadd,
            Vmov,
            VdupLane,
            Vperm,
            VsetLane,
            VgetLane,
            Vzero,
            FLoad,
            FStore,
            FAdd,
            FMul,
            FMac,
            FMov,
            IAddr,
            Branch,
            CallOverhead,
        ];
        assert_eq!(all_ops.len(), MOp::COUNT, "every opcode is listed");
        assert!(all_ops.iter().all(|&op| (op as usize) < MOp::COUNT));
        for arch in [
            Microarch::Atom,
            Microarch::CortexA8,
            Microarch::CortexA9,
            Microarch::Arm1176,
            Microarch::Haswell,
        ] {
            let np = arch.params().num_ports;
            for op in all_ops {
                let k = cost(arch, op);
                assert!(k.latency >= 1 && k.issue >= 1, "{arch:?} {op:?}");
                assert!(k.ports.mask(np) != 0, "{arch:?} {op:?} has no usable port");
            }
        }
    }

    #[test]
    fn port_masks_are_clipped() {
        assert_eq!(PortReq::AnyOf(0xff).mask(2), 0b11);
        assert_eq!(PortReq::All.mask(3), 0b111);
        assert_eq!(PortReq::AnyOf(0b100).mask(3), 0b100);
    }
}
