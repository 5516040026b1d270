//! Dynamic instruction traces.
//!
//! Kernel execution (the C-IR interpreter in `lgen-cir`, or a baseline
//! generator) produces a stream of [`MachInst`]s — one event per dynamic
//! instruction, with concrete memory addresses — which a [`TraceSink`]
//! consumes. `lgen-machine` implements `TraceSink` with the cycle-accurate
//! scheduler; lightweight sinks here support counting and debugging.

use crate::ops::MOp;

/// A concrete memory access performed by an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MemRef {
    /// Byte address within the kernel's flat memory space.
    pub addr: usize,
    /// Access width in bytes.
    pub bytes: usize,
}

/// Most source registers one instruction reads (`vmla`'s accumulator and
/// two multiplicands).
pub const MAX_SRCS: usize = 3;

/// The source registers of a [`MachInst`], stored inline (at most
/// [`MAX_SRCS`]); dereferences to `[u32]`. Unused slots are zero, so the
/// derived equality compares the sources alone.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Srcs {
    ids: [u32; MAX_SRCS],
    len: u8,
}

impl Srcs {
    /// Copies `srcs` inline.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` holds more than [`MAX_SRCS`] registers.
    pub fn new(srcs: &[u32]) -> Self {
        assert!(srcs.len() <= MAX_SRCS, "{} sources", srcs.len());
        let mut ids = [0; MAX_SRCS];
        ids[..srcs.len()].copy_from_slice(srcs);
        Srcs {
            ids,
            len: srcs.len() as u8,
        }
    }
}

impl std::ops::Deref for Srcs {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.ids[..self.len as usize]
    }
}

impl std::fmt::Debug for Srcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One dynamic instruction: opcode, register dataflow, optional memory
/// reference. `Copy` and heap-free, so emitting a trace allocates nothing.
///
/// Register ids identify *values* for dependence tracking (read-after-write
/// hazards); they need not correspond to a finite architectural register
/// file — the schedulers only use them to compute operand-ready times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachInst {
    /// The opcode.
    pub op: MOp,
    /// Destination register, if the instruction produces a value.
    pub dst: Option<u32>,
    /// Source registers read by the instruction.
    pub srcs: Srcs,
    /// Memory reference for loads/stores.
    pub mem: Option<MemRef>,
}

impl MachInst {
    /// A register-only instruction.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` holds more than [`MAX_SRCS`] registers.
    pub fn reg(op: MOp, dst: Option<u32>, srcs: &[u32]) -> Self {
        debug_assert!(!op.touches_memory(), "{op} needs a memory operand");
        MachInst {
            op,
            dst,
            srcs: Srcs::new(srcs),
            mem: None,
        }
    }

    /// A load producing `dst` from `addr`.
    pub fn load(op: MOp, dst: u32, addr: usize) -> Self {
        debug_assert!(op.is_load(), "{op} is not a load");
        MachInst {
            op,
            dst: Some(dst),
            srcs: Srcs::new(&[]),
            mem: Some(MemRef {
                addr,
                bytes: op.access_bytes(),
            }),
        }
    }

    /// A store of `src` to `addr`.
    pub fn store(op: MOp, src: u32, addr: usize) -> Self {
        debug_assert!(op.is_store(), "{op} is not a store");
        MachInst {
            op,
            dst: None,
            srcs: Srcs::new(&[src]),
            mem: Some(MemRef {
                addr,
                bytes: op.access_bytes(),
            }),
        }
    }
}

/// Consumer of a dynamic instruction trace.
pub trait TraceSink {
    /// Called once per dynamic instruction, in program order.
    fn emit(&mut self, inst: &MachInst);
}

/// A sink that discards the trace (pure-correctness runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _inst: &MachInst) {}
}

/// A sink that counts dynamic instructions per opcode.
///
/// Used by the Table 3.2 reproduction (arithmetic-operation counts of the
/// old vs. new matrix-vector multiplication) and by tests that assert on
/// instruction mixes (e.g. "no shuffles remain after scalar replacement
/// with generic loads/stores", §3.1).
#[derive(Clone, Debug, Default)]
pub struct CountingSink {
    counts: std::collections::HashMap<MOp, u64>,
    total: u64,
}

impl CountingSink {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dynamic count of `op`.
    pub fn count(&self, op: MOp) -> u64 {
        self.counts.get(&op).copied().unwrap_or(0)
    }

    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of counts over the opcodes for which `pred` holds.
    pub fn count_matching(&self, pred: impl Fn(MOp) -> bool) -> u64 {
        self.counts
            .iter()
            .filter(|(op, _)| pred(**op))
            .map(|(_, n)| n)
            .sum()
    }

    /// Iterator over `(opcode, count)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (MOp, u64)> + '_ {
        self.counts.iter().map(|(op, n)| (*op, *n))
    }
}

impl TraceSink for CountingSink {
    fn emit(&mut self, inst: &MachInst) {
        *self.counts.entry(inst.op).or_insert(0) += 1;
        self.total += 1;
    }
}

/// A sink that records the whole trace (tests and debugging).
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    /// The recorded instructions.
    pub insts: Vec<MachInst>,
}

impl TraceSink for RecordingSink {
    fn emit(&mut self, inst: &MachInst) {
        self.insts.push(*inst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_memory_metadata() {
        let ld = MachInst::load(MOp::MmLoadUPs, 3, 100);
        assert_eq!(ld.mem.unwrap().bytes, 16);
        let st = MachInst::store(MOp::VstD, 7, 8);
        assert_eq!(st.mem.unwrap().bytes, 8);
        assert_eq!(*st.srcs, [7]);
    }

    #[test]
    fn counting_sink_histograms() {
        let mut s = CountingSink::new();
        s.emit(&MachInst::reg(MOp::MmAddPs, Some(0), &[1, 2]));
        s.emit(&MachInst::reg(MOp::MmAddPs, Some(0), &[1, 2]));
        s.emit(&MachInst::reg(MOp::MmHaddPs, Some(0), &[1, 2]));
        assert_eq!(s.count(MOp::MmAddPs), 2);
        assert_eq!(s.count(MOp::MmHaddPs), 1);
        assert_eq!(s.total(), 3);
        assert_eq!(
            s.count_matching(|op| op == MOp::MmAddPs || op == MOp::MmHaddPs),
            3
        );
    }
}
