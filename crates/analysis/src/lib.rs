//! Static analyses over the C-IR: instruction mixes and cost
//! prediction **without executing or trace-scheduling anything**.
//!
//! The autotuner's per-candidate price is dominated by dynamic work —
//! numeric validation plus cycle simulation execute every candidate a
//! dozen times. But almost everything those executions reveal is already
//! statically determined: every C-IR loop has a fixed trip count, every
//! generic load/store lowers through the same per-ISA tables that drive
//! the interpreter's trace ([`lgen_cir::lower`]), and `lgen-isa` carries
//! per-op latency/throughput ([`lgen_isa::cost`]) and energy
//! ([`lgen_isa::energy`]) tables. This crate folds those together in one
//! linear sweep over the kernel body:
//!
//! * [`MixHistogram`] — the weighted per-[`MOp`] instruction mix a kernel
//!   would execute (C-IR ops → machine ops via the lowering tables, loop
//!   bodies weighted by their trip product, loop/dispatch bookkeeping
//!   charged exactly as the interpreter emits it);
//! * [`StaticCost`] — cycle estimates (port throughput and
//!   dependence-chain latency) and a first-order energy estimate,
//!   computed from the mix. This is the first first-class consumer of the
//!   `energy.rs` tables outside the simulator.
//!
//! The prediction is a ranking signal, not a simulator replacement: the
//! autotuner uses it to order candidates before measuring the best few,
//! and reports its rank correlation against the measurements it does
//! take (see `lgen-core`'s pruning support). Accuracy therefore matters
//! monotonically — a model that ranks well prunes well — and the model
//! stays deliberately simple: warm caches, perfectly predicted branches,
//! no issue-window effects.

use lgen_cir::arena::trip_count;
use lgen_cir::lower::{
    lower_arith, lower_load, lower_move, lower_store, LoweredOp, Slot, MAX_LOWERED_OPS,
};
use lgen_cir::{dispatch_version, overhead_mop, AInst, Arena, BlockId, Kernel, VReg};
use lgen_isa::cost::cost;
use lgen_isa::energy::{op_energy_pj, static_energy_pj_per_cycle};
use lgen_isa::{MOp, Microarch, VectorIsa};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the small integer keys the analysis maps by
/// (register ids, opcode discriminants): one multiply per key instead of
/// SipHash, which the analysis would otherwise spend most of its time in.
#[derive(Clone, Copy, Debug, Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// A weighted machine-op histogram: how many dynamic instances of each
/// [`MOp`] one kernel invocation executes, predicted statically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MixHistogram {
    counts: IntMap<MOp, u64>,
}

impl MixHistogram {
    /// Adds `n` instances of `op`.
    pub fn add(&mut self, op: MOp, n: u64) {
        *self.counts.entry(op).or_insert(0) += n;
    }

    /// Predicted dynamic instances of `op`.
    pub fn count(&self, op: MOp) -> u64 {
        self.counts.get(&op).copied().unwrap_or(0)
    }

    /// Total predicted dynamic instructions.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// `(op, count)` rows sorted by descending count, then mnemonic —
    /// a deterministic order for reports and tests.
    pub fn sorted(&self) -> Vec<(MOp, u64)> {
        let mut rows: Vec<(MOp, u64)> = self.counts.iter().map(|(op, n)| (*op, *n)).collect();
        rows.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.mnemonic().cmp(b.0.mnemonic()))
        });
        rows
    }
}

/// The static cost prediction for one kernel on one core.
///
/// Both cycle fields are estimates under an idealized machine (warm
/// cache, perfect branch prediction, unbounded scheduling window), not
/// lower bounds: the simulator can beat either. mvm 4×32 on Cortex-A8
/// (`base` variant, no unrolling) has a latency field of 197 against 155
/// simulated cycles, so neither field nor their maximum
/// ([`predicted_cycles`](Self::predicted_cycles)) may prune a candidate
/// as provably slower.
#[derive(Clone, Debug, PartialEq)]
pub struct StaticCost {
    /// Cycles forced by issue-port contention: for every subset of the
    /// core's ports, the busy cycles of instructions restricted to that
    /// subset divided by its width (port-blocking ops like `_mm_hadd_ps`
    /// stall every subset), and the plain issue-width bound.
    pub cycles_throughput_bound: u64,
    /// Cycles forced by the longest register dependence chain, with
    /// loop-carried chains (accumulators) multiplied by their trip
    /// counts.
    pub cycles_latency_bound: u64,
    /// First-order energy estimate in picojoules: per-op dynamic energy
    /// over the mix plus static leakage over the predicted cycles —
    /// the same model the simulator charges dynamically.
    pub energy_pj: u64,
    /// Useful flops (carried on the kernel, deduced from the BLAC).
    pub flops: u64,
    /// The predicted instruction mix behind the bounds.
    pub mix: MixHistogram,
}

impl StaticCost {
    /// The predicted cycle count: the larger of the two bounds.
    pub fn predicted_cycles(&self) -> u64 {
        self.cycles_throughput_bound.max(self.cycles_latency_bound)
    }

    /// Predicted energy-delay product (pJ · cycles), mirroring
    /// [`Measurement::energy_delay`] for the low-power tuning objective.
    ///
    /// [`Measurement::energy_delay`]: https://docs.rs/lgen-machine
    pub fn energy_delay(&self) -> u128 {
        self.energy_pj as u128 * self.predicted_cycles() as u128
    }
}

/// Predicts the cost of one `kernel` invocation on `arch`, analyzing the
/// version the all-aligned runtime dispatch selects (the condition the
/// autotuner measures under) plus the dispatch predicates it evaluates
/// on the way there.
pub fn analyze_kernel(kernel: &Kernel, arch: Microarch) -> StaticCost {
    let isa = arch.vector_isa();
    let params = arch.params();
    let mut mix = MixHistogram::default();
    let version = dispatch_version(kernel, |_| 0, |op| mix.add(op, 1));
    let v = &kernel.versions[version];
    let flow = walk_block(&v.arena, v.root, isa, arch, 1, &mut mix);

    let throughput = throughput_bound(&mix, arch, params.num_ports, params.issue_width);
    let latency = flow.chain;
    let cycles = throughput.max(latency);
    let dyn_energy: u64 = mix
        .counts
        .iter()
        .map(|(op, n)| op_energy_pj(arch, *op).saturating_mul(*n))
        .sum();
    StaticCost {
        cycles_throughput_bound: throughput,
        cycles_latency_bound: latency,
        energy_pj: dyn_energy + cycles * static_energy_pj_per_cycle(arch),
        flops: kernel.flops,
        mix,
    }
}

/// Charges `n` dynamic instances of `op` to the mix (a zero count adds
/// no row).
fn charge(mix: &mut MixHistogram, op: MOp, n: u64) {
    if n != 0 {
        mix.add(op, n);
    }
}

/// The port-contention lower bound of a predicted mix: over every
/// non-empty port subset `S`, the work confined to `S` cannot finish
/// faster than `⌈work(S) / |S|⌉`, and port-blocking ops serialize on
/// top; the machine also never issues more than `issue_width` per cycle.
fn throughput_bound(mix: &MixHistogram, arch: Microarch, num_ports: u32, issue_width: u32) -> u64 {
    // Busy cycles per admissible-port bitmask, and of port-blocking ops
    // (which stall every port).
    let mut port_work: IntMap<u8, u64> = IntMap::default();
    let mut all_work = 0u64;
    for (&op, &n) in &mix.counts {
        let ic = cost(arch, op);
        let busy = ic.issue as u64 * n;
        if ic.ports.blocks_all() {
            all_work += busy;
        } else {
            *port_work.entry(ic.ports.mask(num_ports)).or_insert(0) += busy;
        }
    }
    let mut bound = div_ceil(mix.total(), issue_width as u64);
    for subset in 1u32..(1u32 << num_ports) {
        let width = subset.count_ones() as u64;
        let work: u64 = port_work
            .iter()
            .filter(|(mask, _)| (**mask as u32) & !subset == 0)
            .map(|(_, w)| *w)
            .sum();
        bound = bound.max(div_ceil(work, width) + all_work);
    }
    bound
}

fn div_ceil(a: u64, b: u64) -> u64 {
    if b == 0 {
        0
    } else {
        a.div_ceil(b)
    }
}

/// Register dataflow summary of one block (single execution).
struct Flow {
    /// Final result-ready times of registers written in the block,
    /// relative to block entry with all live-ins ready at 0.
    ready: IntMap<VReg, u64>,
    /// Registers read before any write in the block (loop-carried when
    /// the block is a loop body that also writes them).
    live_in: IntSet<VReg>,
    /// Critical-path length: the latest finish time in the block.
    chain: u64,
}

impl Flow {
    fn new() -> Self {
        Flow {
            ready: IntMap::default(),
            live_in: IntSet::default(),
            chain: 0,
        }
    }

    fn read(&mut self, r: VReg) -> u64 {
        match self.ready.get(&r) {
            Some(&t) => t,
            None => {
                self.live_in.insert(r);
                0
            }
        }
    }

    fn write(&mut self, r: VReg, t: u64) {
        self.ready.insert(r, t);
    }
}

/// Walks one block with a dynamic-execution `weight` (the trip product
/// of enclosing loops), charging the mix and returning the block's
/// dataflow summary.
fn walk_block(
    arena: &Arena,
    block: BlockId,
    isa: VectorIsa,
    arch: Microarch,
    weight: u64,
    mix: &mut MixHistogram,
) -> Flow {
    let mut flow = Flow::new();
    for &id in arena.block(block) {
        match arena.inst(id) {
            AInst::GLoad {
                dst, map, aligned, ..
            } => {
                let seq = lower_load(isa, *dst, arena.maps.get(*map), *aligned);
                charge_seq(&seq, arch, weight, mix, &mut flow);
            }
            AInst::GStore {
                src, map, aligned, ..
            } => {
                let seq = lower_store(isa, *src, arena.maps.get(*map), *aligned);
                charge_seq(&seq, arch, weight, mix, &mut flow);
            }
            &AInst::Arith { op, dst, a, b } => {
                let seq = lower_arith(isa, op, dst, a, b);
                charge_seq(&seq, arch, weight, mix, &mut flow);
            }
            &AInst::Move { op, dst, a, b } => {
                let seq = lower_move(isa, op, dst, a, b);
                charge_seq(&seq, arch, weight, mix, &mut flow);
            }
            &AInst::Overhead { kind, count } => {
                charge(mix, overhead_mop(kind), weight * count as u64);
            }
            AInst::Loop {
                start,
                end,
                step,
                body,
                ..
            } => {
                let trips = trip_count(*start, *end, *step) as u64;
                if trips == 0 {
                    continue;
                }
                let inner = walk_block(arena, *body, isa, arch, weight * trips, mix);
                // Loop bookkeeping, exactly as the interpreter emits it:
                // one counter increment and one compare-and-branch per
                // iteration.
                charge(mix, MOp::IAddr, weight * trips);
                charge(mix, MOp::Branch, weight * trips);
                // Macro-op dataflow: iterations overlap freely except
                // along loop-carried registers (read before written in
                // the body, e.g. accumulators), whose per-iteration
                // chain increment serializes the remaining trips.
                let carried_inc = inner
                    .live_in
                    .iter()
                    .filter_map(|r| inner.ready.get(r))
                    .copied()
                    .max()
                    .unwrap_or(0);
                let total = inner.chain + (trips - 1) * carried_inc;
                let start_t = inner
                    .live_in
                    .iter()
                    .map(|&r| flow.read(r))
                    .max()
                    .unwrap_or(0);
                let finish = start_t + total;
                for &r in inner.ready.keys() {
                    flow.write(r, finish);
                }
                flow.chain = flow.chain.max(finish);
            }
        }
    }
    flow
}

/// Charges one lowered sequence: every machine op goes to the mix, and the sequence's internal dataflow (through registers
/// and sequence-local temporaries) extends the block's latency chains.
fn charge_seq(
    seq: &[LoweredOp],
    arch: Microarch,
    weight: u64,
    mix: &mut MixHistogram,
    flow: &mut Flow,
) {
    // Ready times of the sequence's temporaries (ids < MAX_LOWERED_OPS).
    let mut tmps = [0u64; MAX_LOWERED_OPS];
    for op in seq {
        charge(mix, op.op, weight);
        let start = op
            .srcs()
            .iter()
            .map(|s| match s {
                Slot::Reg(r) => flow.read(*r),
                Slot::Tmp(t) => tmps[*t as usize],
            })
            .max()
            .unwrap_or(0);
        let finish = start + cost(arch, op.op).latency as u64;
        match op.dst {
            Some(Slot::Reg(r)) => flow.write(r, finish),
            Some(Slot::Tmp(t)) => tmps[t as usize] = finish,
            None => {}
        }
        flow.chain = flow.chain.max(finish);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgen_absint::AffineExpr;
    use lgen_cir::{KernelBuilder, MemMap, VArith, VWidth};

    /// `y[i..] += x[i..]` over `n` floats, vectorized by `lanes`
    /// (1 = the scalar code shape the Arm1176 backend generates).
    fn vadd_kernel_w(n: usize, lanes: usize) -> Kernel {
        let width = match lanes {
            1 => VWidth::S,
            2 => VWidth::D,
            _ => VWidth::Q,
        };
        let mut b = KernelBuilder::new("vadd");
        let x = b.input("x", n);
        let y = b.inout("y", n);
        b.for_loop("i", 0, n as i64, lanes as i64, |b, i| {
            let vx = b.load(x, AffineExpr::var(i), MemMap::horizontal(lanes));
            let vy = b.load(y, AffineExpr::var(i), MemMap::horizontal(lanes));
            let s = b.arith(VArith::Add(width), vx, vy);
            b.store(s, y, AffineExpr::var(i), MemMap::horizontal(lanes));
        });
        b.finish(n as u64)
    }

    fn vadd_kernel(n: usize) -> Kernel {
        vadd_kernel_w(n, 4)
    }

    /// The widest kernel shape `arch`'s backend would generate.
    fn vadd_for(n: usize, arch: Microarch) -> Kernel {
        let lanes = if arch.vector_isa() == VectorIsa::Scalar {
            1
        } else {
            4
        };
        vadd_kernel_w(n, lanes)
    }

    /// A length-`n` dot-product-style reduction: `acc += x[i] * y[i]`,
    /// whose loop-carried accumulator serializes iterations.
    fn reduction_kernel(n: usize) -> Kernel {
        let mut b = KernelBuilder::new("dot");
        let x = b.input("x", n);
        let y = b.input("y", n);
        let z = b.output("z", 4);
        let acc = b.zero();
        b.for_loop("i", 0, n as i64, 4, |b, i| {
            let vx = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            let vy = b.load(y, AffineExpr::var(i), MemMap::horizontal(4));
            b.arith_acc(VArith::Fma(VWidth::Q), acc, vx, vy);
        });
        b.store(acc, z, AffineExpr::constant(0), MemMap::horizontal(4));
        b.finish(2 * n as u64)
    }

    #[test]
    fn mix_matches_the_interpreter_trace_shape() {
        // 16 iterations × (2 loads + 1 add + 1 store) plus per-iteration
        // loop bookkeeping — the same counts the interpreter's trace
        // produces for this kernel.
        let k = vadd_kernel(64);
        let cost = analyze_kernel(&k, Microarch::Atom);
        assert_eq!(cost.mix.count(MOp::MmLoadUPs), 32);
        assert_eq!(cost.mix.count(MOp::MmAddPs), 16);
        assert_eq!(cost.mix.count(MOp::MmStoreUPs), 16);
        assert_eq!(cost.mix.count(MOp::Branch), 16);
        assert_eq!(cost.mix.count(MOp::IAddr), 16);
        assert_eq!(cost.mix.total(), 32 + 16 + 16 + 16 + 16);
    }

    #[test]
    fn bounds_are_positive_and_consistent() {
        for arch in Microarch::EVALUATED {
            let cost = analyze_kernel(&vadd_for(64, arch), arch);
            assert!(cost.cycles_throughput_bound > 0, "{arch}");
            assert!(cost.cycles_latency_bound > 0, "{arch}");
            assert!(cost.predicted_cycles() >= cost.cycles_throughput_bound);
            assert!(cost.predicted_cycles() >= cost.cycles_latency_bound);
            assert!(cost.energy_pj > 0, "{arch}");
            assert_eq!(cost.flops, 64);
        }
    }

    #[test]
    fn loop_carried_chains_dominate_reductions() {
        // The dot-product accumulator serializes its FMA chain, so the
        // latency bound grows linearly with the trip count while the
        // independent-iteration vadd stays throughput-bound.
        let dot = analyze_kernel(&reduction_kernel(256), Microarch::Atom);
        assert!(
            dot.cycles_latency_bound > dot.cycles_throughput_bound,
            "reduction must be latency-bound: {dot:?}"
        );
        let short = analyze_kernel(&reduction_kernel(64), Microarch::Atom);
        assert!(dot.cycles_latency_bound > 3 * short.cycles_latency_bound);
    }

    #[test]
    fn bigger_kernels_cost_more() {
        for arch in Microarch::EVALUATED {
            let small = analyze_kernel(&vadd_for(32, arch), arch);
            let big = analyze_kernel(&vadd_for(256, arch), arch);
            assert!(big.predicted_cycles() > small.predicted_cycles(), "{arch}");
            assert!(big.energy_pj > small.energy_pj, "{arch}");
            assert!(big.mix.total() > small.mix.total(), "{arch}");
        }
    }

    #[test]
    fn sorted_mix_is_deterministic() {
        let k = vadd_kernel(64);
        let a = analyze_kernel(&k, Microarch::Atom).mix.sorted();
        let b = analyze_kernel(&k, Microarch::Atom).mix.sorted();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].1 >= w[1].1), "descending counts");
    }
}
