//! The instruction scheduler: trace → cycles.

use crate::cache::L1Cache;
use lgen_cir::MemLayout;
use lgen_isa::cost::cost;
use lgen_isa::{MOp, MachInst, Microarch, TraceSink, UarchParams};
use std::collections::{HashMap, VecDeque};
use std::sync::LazyLock;

/// Register ids from this one on fall back to a map, so a hand-built
/// trace with ids near `u32::MAX` cannot size a table.
const DENSE_REGS: u32 = 1 << 16;

/// `LGEN_SCHED_TRACE` is set: dump the first scheduled instructions of
/// every simulation to stderr. Read once per process; nothing sets it
/// mid-process.
static SCHED_TRACE: LazyLock<bool> =
    LazyLock::new(|| std::env::var_os("LGEN_SCHED_TRACE").is_some());

/// A set of busy cycles as a growable bitmap indexed by cycle number.
///
/// The scheduler probes and occupies cycles in a dense band just behind
/// the horizon, so a bitmap beats a hash set on every operation the hot
/// loop performs (`emit` runs once per dynamic instruction of the timed
/// run; the warm-up before it only touches the L1 model, through a
/// [`Warming`] sink), and the issue search reads it 64 cycles at a time.
#[derive(Clone, Debug, Default)]
struct CycleSet(Vec<u64>);

impl CycleSet {
    /// Cycles `64 * w .. 64 * w + 64`, one bit each (0 past the end).
    fn word(&self, w: usize) -> u64 {
        self.0.get(w).copied().unwrap_or(0)
    }

    /// Bit `i` is set if a cycle of `64 * w + i .. 64 * w + i + len` is
    /// in the set: the starts in word `w` that a `len`-cycle occupancy
    /// cannot take. Any `len`: a span past one word is its first 64
    /// cycles plus the rest, one word on.
    fn blocked(&self, mut w: usize, mut len: u64) -> u64 {
        if len == 1 {
            return self.word(w);
        }
        let mut out = 0;
        while len > 0 {
            let span = len.min(64);
            let v = self.word(w) as u128 | (self.word(w + 1) as u128) << 64;
            // Smear each busy cycle down over the starts it blocks:
            // after each step bit i is the OR of bits i..i + covered.
            let (mut m, mut covered) = (v, 1);
            while covered < span {
                let step = covered.min(span - covered);
                m |= m >> step;
                covered += step;
            }
            out |= m as u64;
            len -= span;
            w += 1;
        }
        out
    }

    fn contains(&self, c: u64) -> bool {
        self.word((c / 64) as usize) & (1 << (c % 64)) != 0
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

/// What the scheduler needs of one opcode on one core: its
/// [`cost`](lgen_isa::cost::cost) and
/// [`op_energy_pj`](lgen_isa::energy::op_energy_pj), resolved once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    latency: u64,
    /// Cycles the chosen port (every port, if `blocks_all`) stays busy.
    issue: u64,
    energy_pj: u64,
    /// Admissible ports, clipped to the core's port count.
    mask: u8,
    blocks_all: bool,
    is_load: bool,
    is_store: bool,
}

impl Row {
    fn new(arch: Microarch, num_ports: u32, op: MOp) -> Self {
        let k = cost(arch, op);
        Row {
            latency: k.latency as u64,
            issue: k.issue as u64,
            energy_pj: lgen_isa::energy::op_energy_pj(arch, op),
            mask: k.ports.mask(num_ports),
            blocks_all: k.ports.blocks_all(),
            is_load: op.is_load(),
            is_store: op.is_store(),
        }
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
    /// Each opcode's row, resolved on its first use.
    rows: [Option<Row>; MOp::COUNT],
    /// Busy cycles per port (gap-filling within the scheduling window).
    port_busy: Vec<CycleSet>,
    /// Ready time per register id.
    reg_ready: RegReady,
    /// Completion time of the last store per 4-byte memory word
    /// (store→load forwarding dependency), dense by word index.
    mem_ready: Vec<u64>,
    /// Instructions issued per cycle, in unary: set `k` holds the cycles
    /// that issued more than `k`. The last set holds the cycles whose
    /// issue width is full.
    issued: Vec<CycleSet>,
    /// Issue cycles of the last `window` instructions (order constraint).
    recent_issues: VecDeque<u64>,
    /// Completion time of the latest-finishing instruction.
    horizon: u64,
    /// Dynamic instruction count.
    ninsts: u64,
    /// Dynamic (per-instruction) energy in picojoules.
    dyn_energy_pj: u64,
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
            rows: [None; MOp::COUNT],
            port_busy: vec![CycleSet::default(); params.num_ports as usize],
            reg_ready: RegReady::default(),
            mem_ready: Vec::new(),
            issued: vec![CycleSet::default(); params.issue_width.max(1) as usize],
            recent_issues: VecDeque::new(),
            horizon: 0,
            ninsts: 0,
            dyn_energy_pj: 0,
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
        self.issued.iter_mut().for_each(|s| s.clear());
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
        if let Some(count) = self.issued.iter_mut().find(|s| !s.contains(cycle)) {
            count.insert_range(cycle..cycle + 1);
        }
    }

    fn row(&mut self, op: MOp) -> Row {
        let (arch, ports) = (self.arch, self.params.num_ports);
        *self.rows[op as usize].get_or_insert_with(|| Row::new(arch, ports, op))
    }

    /// The earliest cycle from `ready` on with a free issue slot and,
    /// for `row.issue` cycles from it, a free admissible port (every
    /// port, for an instruction that blocks all of them), and that port:
    /// the lowest one, or `None` when all are taken. Gaps left by
    /// earlier (program-order) instructions may be filled — the
    /// reordering the compiler's static scheduling provides. Searches
    /// 64 cycles per step.
    fn earliest_issue(&self, ready: u64, row: &Row) -> (u64, Option<usize>) {
        let mut w = (ready / 64) as usize;
        let mut from = u64::MAX << (ready % 64);
        // The mask is a `u8`: only the first 8 ports can be admissible.
        let ports = self.port_busy.len().min(8);
        // Per admissible port: the starts in word `w` it leaves open.
        let mut open = [0u64; 8];
        let full = self.issued.last().expect("issue width is at least 1");
        loop {
            let mut starts = !full.word(w) & from;
            if starts != 0 && row.blocks_all {
                for busy in &self.port_busy {
                    starts &= !busy.blocked(w, row.issue);
                }
            } else if starts != 0 {
                let mut any = 0;
                for p in (0..ports).filter(|&p| row.mask & (1 << p) != 0) {
                    open[p] = !self.port_busy[p].blocked(w, row.issue);
                    any |= open[p];
                }
                starts &= any;
            }
            if starts != 0 {
                let bit = starts.trailing_zeros();
                let port = (!row.blocks_all).then(|| {
                    (0..ports)
                        .find(|&p| row.mask & (1 << p) != 0 && open[p] & (1 << bit) != 0)
                        .expect("an open start has an open port")
                });
                return (64 * w as u64 + bit as u64, port);
            }
            w += 1;
            from = u64::MAX;
        }
    }

    /// Schedules `inst`, its issue cycle found by `search` (this
    /// simulator's [`earliest_issue`](Self::earliest_issue) outside
    /// tests), and returns that cycle.
    fn schedule(
        &mut self,
        inst: &MachInst,
        search: impl Fn(&Self, u64, &Row) -> (u64, Option<usize>),
    ) -> u64 {
        let row = self.row(inst.op);
        self.ninsts += 1;
        self.dyn_energy_pj += row.energy_pj;

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
            if row.is_load {
                for w in (m.addr / 4)..(m.addr + m.bytes.max(1)).div_ceil(4) {
                    if let Some(&t) = self.mem_ready.get(w) {
                        ready = ready.max(t);
                    }
                }
            }
        }

        let (cycle, port) = search(self, ready, &row);

        // Occupy the port(s).
        let busy = cycle..cycle + row.issue;
        match port {
            None => {
                for b in self.port_busy.iter_mut() {
                    b.insert_range(busy.clone());
                }
            }
            Some(p) => self.port_busy[p].insert_range(busy),
        }
        self.note_issue(cycle);

        let done = cycle + row.latency + mem_extra;
        if *SCHED_TRACE && self.ninsts < 60 {
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
        if row.is_store {
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
        cycle
    }
}

impl TraceSink for Simulator {
    fn emit(&mut self, inst: &MachInst) {
        self.schedule(inst, Self::earliest_issue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The cycle-by-cycle issue scan the bitmap search replaced, kept
    /// as its oracle: from `ready`, the first cycle with a free issue
    /// slot and a port free for the whole issue length.
    fn scan_issue(sim: &Simulator, ready: u64, row: &Row) -> (u64, Option<usize>) {
        let port_open = |busy: &CycleSet, c: u64| (c..c + row.issue).all(|t| !busy.contains(t));
        let mut c = ready;
        loop {
            let issued = sim.issued.iter().filter(|s| s.contains(c)).count();
            let width_ok = issued < sim.params.issue_width as usize;
            if width_ok {
                if row.blocks_all {
                    if sim.port_busy.iter().all(|b| port_open(b, c)) {
                        return (c, None);
                    }
                } else if let Some(p) = (0..sim.params.num_ports as usize)
                    .find(|&p| row.mask & (1 << p) != 0 && port_open(&sim.port_busy[p], c))
                {
                    return (c, Some(p));
                }
            }
            c += 1;
        }
    }

    /// Opcodes of all four evaluated cores, with the long occupancies:
    /// Atom's `hadd` holds both ports for 7 cycles, `CallOverhead` every
    /// port for 48.
    const VOCABULARY: [MOp; 20] = [
        MOp::MmLoadAPs,
        MOp::MmLoadUPs,
        MOp::MmStoreUPs,
        MOp::MmAddPs,
        MOp::MmMulPs,
        MOp::MmHaddPs,
        MOp::MmShufPs,
        MOp::VldQ,
        MOp::VldD,
        MOp::VstQ,
        MOp::VaddQ,
        MOp::VmlaQ,
        MOp::VmlaD,
        MOp::FLoad,
        MOp::FStore,
        MOp::FAdd,
        MOp::FMul,
        MOp::FMac,
        MOp::IAddr,
        MOp::Branch,
    ];

    /// A random instruction: mostly independent ones over a few dozen
    /// registers, so traces fill the issue width, and one in fifty a
    /// `CallOverhead`.
    fn arb_inst() -> impl proptest::strategy::Strategy<Value = MachInst> {
        use proptest::prelude::*;
        (0usize..1000, 0u32..32, 0u32..32, 0u32..32, 0usize..256).prop_map(
            |(pick, dst, a, b, word)| {
                if pick < 20 {
                    return MachInst::reg(MOp::CallOverhead, None, &[]);
                }
                let op = VOCABULARY[pick % VOCABULARY.len()];
                if op.is_load() {
                    MachInst::load(op, dst, word * 4)
                } else if op.is_store() {
                    MachInst::store(op, a, word * 4)
                } else {
                    MachInst::reg(op, Some(dst), &[a, b])
                }
            },
        )
    }

    proptest::proptest! {
        /// The bitmap search issues every instruction in the cycle the
        /// scan does, so cycles and energy agree too; the energy is the
        /// cost tables' own, independent of the resolved rows.
        #[test]
        fn bitmap_search_matches_the_scan(
            trace in proptest::collection::vec(arb_inst(), 1..600)
        ) {
            for arch in Microarch::EVALUATED {
                let (mut fast, mut scan) = (Simulator::new(arch), Simulator::new(arch));
                let mut energy = 0;
                for inst in &trace {
                    let want = scan.schedule(inst, scan_issue);
                    let got = fast.schedule(inst, Simulator::earliest_issue);
                    proptest::prop_assert_eq!(got, want, "{} {:?}", arch, inst.op);
                    energy += lgen_isa::energy::op_energy_pj(arch, inst.op);
                }
                proptest::prop_assert_eq!(fast.cycles(), scan.cycles());
                proptest::prop_assert_eq!(fast.energy_pj(), scan.energy_pj());
                proptest::prop_assert_eq!(fast.dyn_energy_pj(), energy);
            }
        }
    }

    #[test]
    fn blocked_starts_match_a_brute_force() {
        let mut set = CycleSet::default();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..40 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            set.insert_range(x % 400..x % 400 + 1);
        }
        for len in [1, 2, 7, 48, 63, 64, 65, 100, 130] {
            for w in 0..8 {
                let want = (0..64).fold(0u64, |acc, i| {
                    let c = 64 * w as u64 + i;
                    let hit = (c..c + len).any(|t| set.contains(t));
                    acc | (hit as u64) << i
                });
                assert_eq!(set.blocked(w, len), want, "word {w}, length {len}");
            }
        }
    }

    #[test]
    fn rows_are_the_cost_tables() {
        for arch in Microarch::EVALUATED {
            let mut sim = Simulator::new(arch);
            for op in VOCABULARY.into_iter().chain([MOp::CallOverhead]) {
                let k = cost(arch, op);
                let row = sim.row(op);
                assert_eq!(
                    (row.latency, row.issue, row.blocks_all),
                    (k.latency as u64, k.issue as u64, k.ports.blocks_all())
                );
                assert_eq!(row.mask, k.ports.mask(arch.params().num_ports));
                assert_eq!(row.energy_pj, lgen_isa::energy::op_energy_pj(arch, op));
            }
        }
    }

    #[test]
    fn call_overhead_serializes() {
        let mut sim = Simulator::new(Microarch::CortexA9);
        sim.emit(&MachInst::reg(MOp::CallOverhead, None, &[]));
        sim.emit(&MachInst::reg(MOp::VaddD, Some(1), &[0, 0]));
        assert!(sim.cycles() >= 48);
    }
}
