//! The instruction scheduler: trace → cycles.

use crate::cache::L1Cache;
use lgen_cir::MemLayout;
use lgen_isa::cost::cost;
use lgen_isa::{MachInst, Microarch, TraceSink, UarchParams};
use std::collections::{HashMap, VecDeque};

/// Register ids from this one on fall back to a map, so a hand-built
/// trace with ids near `u32::MAX` cannot size a table.
const DENSE_REGS: u32 = 1 << 16;

/// A set of busy cycles as a growable bitmap indexed by cycle number.
///
/// The scheduler probes and occupies cycles in a dense band just behind
/// the horizon, so a bitmap beats a hash set on every operation the hot
/// loop performs (`emit` runs once per dynamic instruction of the timed
/// run; the warm-up before it only touches the L1 model, through a
/// [`Warming`] sink).
#[derive(Clone, Debug, Default)]
struct CycleSet(Vec<u64>);

impl CycleSet {
    fn contains(&self, c: u64) -> bool {
        self.0
            .get((c / 64) as usize)
            .is_some_and(|w| w & (1 << (c % 64)) != 0)
    }

    fn insert_range(&mut self, r: std::ops::Range<u64>) {
        let need = (r.end / 64) as usize + 1;
        if self.0.len() < need {
            self.0.resize(need, 0);
        }
        for c in r {
            self.0[(c / 64) as usize] |= 1 << (c % 64);
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// Operand-ready time per register id. The C-IR interpreter emits
/// compact ids (kernel registers, then the lowering temporaries, then the
/// loop counters), so the table grows to a static property of the kernel
/// and never to the dynamic instruction count. Ids from [`DENSE_REGS`]
/// on live in a map. A missing id reads as 0.
#[derive(Clone, Debug, Default)]
struct RegReady {
    dense: Vec<u64>,
    sparse: HashMap<u32, u64>,
}

impl RegReady {
    fn get(&self, id: u32) -> u64 {
        if id < DENSE_REGS {
            self.dense.get(id as usize).copied().unwrap_or(0)
        } else {
            self.sparse.get(&id).copied().unwrap_or(0)
        }
    }

    fn set(&mut self, id: u32, t: u64) {
        if id < DENSE_REGS {
            let i = id as usize;
            if self.dense.len() <= i {
                self.dense.resize(i + 1, 0);
            }
            self.dense[i] = t;
        } else {
            self.sparse.insert(id, t);
        }
    }

    /// Forgets every ready time, keeping the table's capacity.
    fn clear(&mut self) {
        self.dense.fill(0);
        self.sparse.clear();
    }
}

/// A [`TraceSink`] that only touches a simulator's L1 model, in trace
/// order: see [`Simulator::warming`].
#[derive(Debug)]
pub struct Warming<'a>(&'a mut L1Cache);

impl TraceSink for Warming<'_> {
    fn emit(&mut self, inst: &MachInst) {
        if let Some(m) = inst.mem {
            self.0.access(m.addr, m.bytes);
        }
    }
}

/// A cycle-level scheduler for one core, implementing
/// [`TraceSink`].
///
/// Feed it a dynamic instruction trace (via `lgen_cir::run_kernel` or a
/// baseline generator), then read [`cycles`](Simulator::cycles).
///
/// # Example
///
/// ```
/// use lgen_machine::Simulator;
/// use lgen_isa::{MachInst, MOp, Microarch, TraceSink};
///
/// let mut sim = Simulator::new(Microarch::Atom);
/// // Two independent adds dual-issue on... no: both need Atom port 1.
/// sim.emit(&MachInst::reg(MOp::MmAddPs, Some(2), &[0, 1]));
/// sim.emit(&MachInst::reg(MOp::MmAddPs, Some(3), &[0, 1]));
/// assert!(sim.cycles() >= 6); // serialized on the port + 5-cycle latency
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    arch: Microarch,
    params: UarchParams,
    cache: L1Cache,
    /// Busy cycles per port (gap-filling within the scheduling window).
    port_busy: Vec<CycleSet>,
    /// Ready time per register id.
    reg_ready: RegReady,
    /// Completion time of the last store per 4-byte memory word
    /// (store→load forwarding dependency), dense by word index.
    mem_ready: Vec<u64>,
    /// Instructions issued per cycle, dense by cycle.
    issued_at: Vec<u32>,
    /// Issue cycles of the last `window` instructions (order constraint).
    recent_issues: VecDeque<u64>,
    /// Completion time of the latest-finishing instruction.
    horizon: u64,
    /// Dynamic instruction count.
    ninsts: u64,
    /// Dynamic (per-instruction) energy in picojoules.
    dyn_energy_pj: u64,
    /// `LGEN_SCHED_TRACE` was set at construction (read once; an env
    /// lookup per dynamic instruction is measurable).
    sched_trace: bool,
}

impl Simulator {
    /// A fresh simulator (cold cache, cycle 0).
    pub fn new(arch: Microarch) -> Self {
        Self::with_params(arch, arch.params())
    }

    /// A simulator with overridden parameters (scheduling-window ablations).
    pub fn with_params(arch: Microarch, params: UarchParams) -> Self {
        Simulator {
            arch,
            params,
            cache: L1Cache::new(params.l1d_bytes, params.line_bytes),
            port_busy: vec![CycleSet::default(); params.num_ports as usize],
            reg_ready: RegReady::default(),
            mem_ready: Vec::new(),
            issued_at: Vec::new(),
            recent_issues: VecDeque::new(),
            horizon: 0,
            ninsts: 0,
            dyn_energy_pj: 0,
            sched_trace: std::env::var_os("LGEN_SCHED_TRACE").is_some(),
        }
    }

    /// A fresh simulator whose L1 already holds every line `layout`
    /// spans, or `None` if they are more than the L1 holds. A run over the
    /// layout then finds the warm cache of §5.1.4 without a warm-up run
    /// (see [`measure_protocol`](crate::measure_protocol)).
    pub fn prefilled(arch: Microarch, layout: &MemLayout) -> Option<Self> {
        let params = arch.params();
        let lines = layout.bytes().div_ceil(params.line_bytes);
        if lines > params.l1d_bytes / params.line_bytes {
            return None;
        }
        let mut sim = Self::new(arch);
        sim.cache.prefill(lines);
        Some(sim)
    }

    /// The modelled core.
    pub fn arch(&self) -> Microarch {
        self.arch
    }

    /// Total cycles: completion time of the last instruction.
    pub fn cycles(&self) -> u64 {
        self.horizon
    }

    /// Dynamic instructions scheduled so far.
    pub fn dynamic_insts(&self) -> u64 {
        self.ninsts
    }

    /// Cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Total energy in picojoules: per-instruction dynamic energy plus the
    /// core's static energy over the elapsed cycles (§6 future work: energy
    /// metrics in the autotuning loop).
    pub fn energy_pj(&self) -> u64 {
        self.dyn_energy_pj + self.horizon * lgen_isa::energy::static_energy_pj_per_cycle(self.arch)
    }

    /// The dynamic (per-instruction) share of [`energy_pj`](Self::energy_pj)
    /// alone, excluding static leakage over the elapsed cycles. This is the
    /// number a static instruction-mix model (`lgen-analysis`) predicts
    /// directly, so it is reported separately for predicted-vs-simulated
    /// comparisons.
    pub fn dyn_energy_pj(&self) -> u64 {
        self.dyn_energy_pj
    }

    /// Resets timing state but keeps the cache contents — the warm-cache
    /// measurement condition of §5.1.4 ("the generated kernel is executed a
    /// few times before starting measuring").
    pub fn reset_timing(&mut self) {
        self.port_busy.iter_mut().for_each(|p| p.clear());
        self.reg_ready.clear();
        self.mem_ready.clear();
        self.issued_at.clear();
        self.recent_issues.clear();
        self.horizon = 0;
        self.ninsts = 0;
        self.dyn_energy_pj = 0;
    }

    /// A sink that warms the cache with a trace without scheduling it:
    /// every memory access touches the L1 model in trace order, exactly
    /// as [`emit`](TraceSink::emit) does, and nothing else changes. Running
    /// a warm-up through it leaves the same LRU state and hit/miss counts
    /// as scheduling the warm-up and then calling
    /// [`reset_timing`](Self::reset_timing), at a fraction of the cost.
    pub fn warming(&mut self) -> Warming<'_> {
        Warming(&mut self.cache)
    }

    /// The earliest program-order constraint: with window W, an instruction
    /// may not issue before the instruction W places ahead of it issued
    /// (W = 1 ⇒ strictly in-order issue).
    fn order_floor(&self) -> u64 {
        let w = self.params.window as usize;
        if self.recent_issues.len() < w {
            0
        } else {
            *self.recent_issues.front().expect("nonempty")
        }
    }

    fn note_issue(&mut self, cycle: u64) {
        let w = self.params.window as usize;
        self.recent_issues.push_back(cycle);
        while self.recent_issues.len() > w {
            self.recent_issues.pop_front();
        }
        let c = cycle as usize;
        if self.issued_at.len() <= c {
            self.issued_at.resize(c + 1, 0);
        }
        self.issued_at[c] += 1;
    }
}

impl TraceSink for Simulator {
    fn emit(&mut self, inst: &MachInst) {
        self.ninsts += 1;
        self.dyn_energy_pj += lgen_isa::energy::op_energy_pj(self.arch, inst.op);
        let k = cost(self.arch, inst.op);
        let mask = k.ports.mask(self.params.num_ports);
        let blocks_all = k.ports.blocks_all();

        // Operand readiness (read-after-write).
        let mut ready = self.order_floor();
        for &src in inst.srcs.iter() {
            ready = ready.max(self.reg_ready.get(src));
        }

        // Memory penalty, charged to the access latency; loads must also
        // wait for earlier stores to the same words (no store buffer).
        let mut mem_extra = 0u64;
        if let Some(m) = inst.mem {
            let (missed, crossed) = self.cache.access(m.addr, m.bytes);
            mem_extra += missed as u64 * self.params.miss_penalty as u64;
            if crossed {
                mem_extra += self.params.cross_line_penalty as u64;
            }
            if inst.op.is_load() {
                for w in (m.addr / 4)..(m.addr + m.bytes.max(1)).div_ceil(4) {
                    if let Some(&t) = self.mem_ready.get(w) {
                        ready = ready.max(t);
                    }
                }
            }
        }

        // Find the earliest cycle with an admissible port and issue slot;
        // gaps left by earlier (program-order) instructions may be filled —
        // the reordering the compiler's static scheduling provides.
        let issue_len = k.issue as u64;
        let port_open = |busy: &CycleSet, c: u64| (c..c + issue_len).all(|t| !busy.contains(t));
        let mut c = ready;
        let (cycle, port) = loop {
            let width_ok =
                self.issued_at.get(c as usize).copied().unwrap_or(0) < self.params.issue_width;
            if width_ok {
                if blocks_all {
                    if self.port_busy.iter().all(|b| port_open(b, c)) {
                        break (c, None);
                    }
                } else if let Some(p) = (0..self.params.num_ports as usize)
                    .find(|&p| mask & (1 << p) != 0 && port_open(&self.port_busy[p], c))
                {
                    break (c, Some(p));
                }
            }
            c += 1;
        };

        // Occupy the port(s).
        match port {
            None => {
                for b in self.port_busy.iter_mut() {
                    b.insert_range(cycle..cycle + issue_len);
                }
            }
            Some(p) => {
                self.port_busy[p].insert_range(cycle..cycle + issue_len);
            }
        }
        self.note_issue(cycle);

        let done = cycle + k.latency as u64 + mem_extra;
        if self.sched_trace && self.ninsts < 60 {
            eprintln!(
                "#{:3} {:16} dst={:?} srcs={:?} ready={} issue={} done={}",
                self.ninsts,
                inst.op.mnemonic(),
                inst.dst,
                inst.srcs,
                ready,
                cycle,
                done
            );
        }
        if let Some(dst) = inst.dst {
            self.reg_ready.set(dst, done);
        }
        if inst.op.is_store() {
            if let Some(m) = inst.mem {
                let end = (m.addr + m.bytes.max(1)).div_ceil(4);
                if self.mem_ready.len() < end {
                    self.mem_ready.resize(end, 0);
                }
                for w in (m.addr / 4)..end {
                    self.mem_ready[w] = done;
                }
            }
        }
        self.horizon = self.horizon.max(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgen_isa::MOp;

    fn add(dst: u32, a: u32, b: u32) -> MachInst {
        MachInst::reg(MOp::MmAddPs, Some(dst), &[a, b])
    }

    #[test]
    fn dependent_chain_pays_latency() {
        let mut sim = Simulator::new(Microarch::Atom);
        // r1 = r0+r0; r2 = r1+r1; r3 = r2+r2 — three dependent adds, 5
        // cycles latency each.
        sim.emit(&add(1, 0, 0));
        sim.emit(&add(2, 1, 1));
        sim.emit(&add(3, 2, 2));
        assert_eq!(sim.cycles(), 15);
    }

    #[test]
    fn independent_adds_pipeline() {
        let mut sim = Simulator::new(Microarch::Atom);
        for i in 0..8 {
            sim.emit(&add(10 + i, 0, 1));
        }
        // Throughput 1/cycle on the add port: issue 0..7, last completes 12.
        assert_eq!(sim.cycles(), 12);
    }

    /// Table 3.1 / §3.3: hadd blocks both Atom ports for 7 cycles each.
    #[test]
    fn hadd_serializes_atom() {
        let mut sim = Simulator::new(Microarch::Atom);
        for i in 0..4 {
            sim.emit(&MachInst::reg(MOp::MmHaddPs, Some(10 + i), &[0, 1]));
        }
        // 4 hadds at 7-cycle issue intervals + 8 latency.
        assert_eq!(sim.cycles(), 3 * 7 + 8);
        // The same number of normal adds is far cheaper.
        let mut sim2 = Simulator::new(Microarch::Atom);
        for i in 0..4 {
            sim2.emit(&add(10 + i, 0, 1));
        }
        assert!(sim2.cycles() * 3 < sim.cycles());
    }

    /// §2.2.2: the A8 NEON unit dual-issues a load with a data-processing
    /// instruction, so an interleaved stream overlaps perfectly.
    #[test]
    fn a8_dual_issues_load_with_arith() {
        // Warm-cache steady state: on the A8 each load pairs with a
        // data-processing instruction (ports 0 and 1); on the A9 both go
        // through the single NEON port.
        let run = |arch: Microarch| {
            let mut sim = Simulator::new(arch);
            let stream = |sim: &mut Simulator| {
                for i in 0..64u32 {
                    sim.emit(&MachInst::load(MOp::VldD, 100 + i, (i as usize % 16) * 8));
                    sim.emit(&MachInst::reg(
                        MOp::VmlaD,
                        Some(200 + i),
                        &[300 + i, 50 + i],
                    ));
                }
            };
            stream(&mut sim);
            sim.reset_timing();
            stream(&mut sim);
            sim.cycles()
        };
        let a8 = run(Microarch::CortexA8);
        let a9 = run(Microarch::CortexA9);
        // A8 sustains ~1 pair/cycle; A9 needs ~2 cycles per pair.
        assert!(a9 as f64 > 1.5 * a8 as f64, "A9 {a9} vs A8 {a8}");
    }

    /// The A9's out-of-order window hides latency that stalls the in-order
    /// A8: a long-latency op followed by many independent ops.
    #[test]
    fn ooo_window_hides_latency() {
        let trace: Vec<MachInst> = std::iter::once(MachInst::reg(MOp::VmlaD, Some(1), &[0, 0]))
            .chain((0..6).map(|i| MachInst::reg(MOp::VaddD, Some(50 + i), &[2, 3])))
            .chain(std::iter::once(MachInst::reg(MOp::VmlaD, Some(4), &[1, 1])))
            .collect();
        let run = |arch: Microarch| {
            let mut sim = Simulator::new(arch);
            for i in &trace {
                sim.emit(i);
            }
            sim.cycles()
        };
        // Both are single-DP-pipe for these ops; the windowed A9 can slide
        // the dependent VmlaD no earlier, but the comparison of interest is
        // that in-order issue on the A8 never issues past a stalled inst.
        // (A8 dual-issue makes the absolute numbers differ; just sanity.)
        assert!(run(Microarch::CortexA9) >= 7);
    }

    #[test]
    fn cache_misses_add_latency() {
        let mut cold = Simulator::new(Microarch::Atom);
        cold.emit(&MachInst::load(MOp::MmLoadAPs, 1, 0));
        let cold_cycles = cold.cycles();
        // Warm run: reset timing, keep cache.
        cold.reset_timing();
        cold.emit(&MachInst::load(MOp::MmLoadAPs, 1, 0));
        let warm_cycles = cold.cycles();
        assert_eq!(
            cold_cycles - warm_cycles,
            Microarch::Atom.params().miss_penalty as u64
        );
    }

    #[test]
    fn unaligned_load_slower_than_aligned_on_atom() {
        // Warm-cache comparison (§5.1.4 protocol): the aligned/unaligned
        // gap is an execution-core property, not a cache effect.
        let run = |op: MOp, shift: usize| {
            let mut sim = Simulator::new(Microarch::Atom);
            for i in 0..8u32 {
                sim.emit(&MachInst::load(op, i, 16 * i as usize + shift));
            }
            sim.reset_timing();
            for i in 0..8u32 {
                sim.emit(&MachInst::load(op, i, 16 * i as usize + shift));
            }
            sim.cycles()
        };
        let aligned = run(MOp::MmLoadAPs, 0);
        let unaligned = run(MOp::MmLoadUPs, 4);
        assert!(unaligned > aligned * 2, "{unaligned} vs {aligned}");
    }

    #[test]
    fn call_overhead_serializes() {
        let mut sim = Simulator::new(Microarch::CortexA9);
        sim.emit(&MachInst::reg(MOp::CallOverhead, None, &[]));
        sim.emit(&MachInst::reg(MOp::VaddD, Some(1), &[0, 0]));
        assert!(sim.cycles() >= 48);
    }
}
