//! Instruction-set and microarchitecture models for the LGen backends.
//!
//! This crate defines the vocabulary shared by the code generator
//! (`lgen-cir`, `lgen-sigma`), the baselines (`lgen-baselines`) and the
//! performance simulator (`lgen-machine`):
//!
//! * [`VectorIsa`] — the supported SIMD extensions (SSSE3 with ν = 4, NEON
//!   with quadword ν = 4 / doubleword ν = 2, or scalar-only), §2.2 of the
//!   paper;
//! * [`MOp`] — the machine-level opcode set that generated kernels are
//!   lowered to (SSE intrinsics, NEON intrinsics, scalar VFP ops, and address
//!   /branch bookkeeping);
//! * [`Microarch`] — the evaluated processors (Intel Atom, ARM Cortex-A8,
//!   Cortex-A9, ARM1176) plus the big x86 cores of Table 3.1, each with an
//!   instruction cost model ([`InstCost`]) encoding the published latency /
//!   throughput / issue-port asymmetries that drive the paper's results;
//! * [`MachInst`] and [`TraceSink`] — the dynamic-trace interface between
//!   kernel execution and the cycle simulator.

pub mod cost;
pub mod energy;
pub mod inst;
pub mod ops;
pub(crate) mod uarch;

pub use cost::{haswell_family_add_vs_hadd, InstCost, PortReq};
pub use inst::{MachInst, MemRef, Srcs, TraceSink, MAX_SRCS};
pub use ops::MOp;
pub use uarch::{Microarch, UarchParams};

/// A SIMD instruction-set extension targeted by the compiler backend.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum VectorIsa {
    /// x86-64 SSSE3 (Intel Atom): 128-bit vectors, ν = 4 floats.
    Ssse3,
    /// ARMv7 NEON (Cortex-A8/A9): 128-bit quadword (ν = 4) and 64-bit
    /// doubleword (ν = 2) operations.
    Neon,
    /// No SIMD extension (ARM1176 / ARMv6): scalar code only.
    Scalar,
}

impl VectorIsa {
    /// The vector length ν in single-precision floats (1 for scalar).
    pub fn nu(self) -> usize {
        match self {
            VectorIsa::Ssse3 | VectorIsa::Neon => 4,
            VectorIsa::Scalar => 1,
        }
    }
}

impl std::fmt::Display for VectorIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VectorIsa::Ssse3 => write!(f, "SSSE3"),
            VectorIsa::Neon => write!(f, "NEON"),
            VectorIsa::Scalar => write!(f, "scalar"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nu_values() {
        assert_eq!(VectorIsa::Ssse3.nu(), 4);
        assert_eq!(VectorIsa::Neon.nu(), 4);
        assert_eq!(VectorIsa::Scalar.nu(), 1);
    }
}
