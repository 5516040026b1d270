//! Microarchitecture performance simulator for the paper's four embedded
//! targets (§2.2) and measurement protocol (§5.1.4).
//!
//! The simulator consumes the dynamic instruction trace of a kernel
//! execution (emitted by `lgen-cir`'s interpreter through the
//! [`TraceSink`](lgen_isa::TraceSink) interface) and schedules it against a
//! cost model of the target core:
//!
//! * **issue discipline** — in-order (Atom, Cortex-A8, ARM1176) or a small
//!   out-of-order window (Cortex-A9), with per-cycle issue width;
//! * **issue ports** — instructions bind to ports per
//!   [`lgen_isa::cost::cost`]; `_mm_hadd_ps` on Atom blocks both ports, the
//!   Cortex-A8 NEON unit dual-issues one load/store with one
//!   data-processing instruction, the Cortex-A9 NEON pipeline is
//!   single-issue;
//! * **latency/throughput** — per-opcode from the cost tables (Table 3.1
//!   and §2.2), with read-after-write dependence tracking;
//! * **memory** — an L1 cache model (capacity/line size per core,
//!   miss and line-crossing penalties).
//!
//! This is a *cost model*, not RTL: it encodes exactly the published
//! asymmetries that the paper's optimizations exploit, so relative rankings
//! and crossovers are meaningful while absolute cycle counts are nominal.

pub mod cache;
pub mod measure;
pub mod sched;

pub use measure::{measure_protocol, timed_run, Measurement};
pub use sched::{Simulator, Warming};
