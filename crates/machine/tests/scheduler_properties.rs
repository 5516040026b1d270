//! Property tests of the cycle scheduler: invariants any sane machine
//! model must satisfy, independent of the particular cost numbers.

use lgen_isa::{MOp, MachInst, Microarch, Srcs, TraceSink};
use lgen_machine::Simulator;
use proptest::prelude::*;

/// A small random instruction vocabulary valid on every core family.
fn arb_inst() -> impl Strategy<Value = MachInst> {
    prop_oneof![
        (0u32..8, 0u32..8, 8u32..16)
            .prop_map(|(a, b, d)| { MachInst::reg(MOp::FAdd, Some(d), &[a, b]) }),
        (0u32..8, 0u32..8, 8u32..16)
            .prop_map(|(a, b, d)| { MachInst::reg(MOp::FMul, Some(d), &[a, b]) }),
        (8u32..16, 0usize..64).prop_map(|(d, w)| MachInst::load(MOp::FLoad, d, w * 4)),
        (0u32..16, 0usize..64).prop_map(|(s, w)| MachInst::store(MOp::FStore, s, w * 4)),
        Just(MachInst::reg(MOp::IAddr, None, &[])),
    ]
}

fn run(arch: Microarch, trace: &[MachInst]) -> u64 {
    let mut sim = Simulator::new(arch);
    for i in trace {
        sim.emit(i);
    }
    sim.cycles()
}

proptest! {
    /// Cycles are monotone in the trace: a prefix never takes longer than
    /// the whole trace.
    #[test]
    fn prefix_monotonicity(trace in prop::collection::vec(arb_inst(), 1..60),
                           cut in 0usize..60) {
        let cut = cut.min(trace.len());
        for arch in Microarch::EVALUATED {
            let whole = run(arch, &trace);
            let prefix = run(arch, &trace[..cut]);
            prop_assert!(prefix <= whole, "{arch}: prefix {prefix} > whole {whole}");
        }
    }

    /// A wider machine is never slower: halving the issue width cannot
    /// speed a trace up.
    #[test]
    fn narrower_machines_are_not_faster(trace in prop::collection::vec(arb_inst(), 1..60)) {
        let mut narrow = Microarch::Atom.params();
        narrow.issue_width = 1;
        let mut sn = Simulator::with_params(Microarch::Atom, narrow);
        let mut sw = Simulator::new(Microarch::Atom);
        for i in &trace {
            sn.emit(i);
            sw.emit(i);
        }
        prop_assert!(sn.cycles() >= sw.cycles());
    }

    /// A larger scheduling window is never slower.
    #[test]
    fn larger_window_is_not_slower(trace in prop::collection::vec(arb_inst(), 1..60)) {
        let mut small = Microarch::CortexA9.params();
        small.window = 1;
        let mut big = Microarch::CortexA9.params();
        big.window = 64;
        let mut ss = Simulator::with_params(Microarch::CortexA9, small);
        let mut sb = Simulator::with_params(Microarch::CortexA9, big);
        for i in &trace {
            ss.emit(i);
            sb.emit(i);
        }
        prop_assert!(ss.cycles() >= sb.cycles());
    }

    /// Energy is positive, monotone in the trace, and at least the static
    /// leakage over the elapsed cycles.
    #[test]
    fn energy_accounting(trace in prop::collection::vec(arb_inst(), 1..40)) {
        for arch in Microarch::EVALUATED {
            let mut sim = Simulator::new(arch);
            let mut last = 0;
            for i in &trace {
                sim.emit(i);
                let e = sim.energy_pj();
                prop_assert!(e >= last, "{arch}: energy decreased");
                last = e;
            }
            let static_floor =
                sim.cycles() * lgen_isa::energy::static_energy_pj_per_cycle(arch);
            prop_assert!(sim.energy_pj() >= static_floor);
        }
    }

    /// Determinism: the same trace always costs the same.
    #[test]
    fn deterministic(trace in prop::collection::vec(arb_inst(), 1..40)) {
        for arch in Microarch::EVALUATED {
            prop_assert_eq!(run(arch, &trace), run(arch, &trace));
        }
    }
}

/// Instructions over registers 0..16 with byte addresses anywhere in
/// 1 KiB (so accesses cross lines) and up to three sources.
fn arb_mem_inst() -> impl Strategy<Value = MachInst> {
    prop_oneof![
        (0u32..16, 0u32..16, 0u32..16, 0u32..16).prop_map(|(a, b, c, d)| MachInst::reg(
            MOp::FAdd,
            Some(d),
            &[a, b, c]
        )),
        (0u32..16, 0u32..16, 0u32..16).prop_map(|(a, b, d)| MachInst::reg(
            MOp::FMul,
            Some(d),
            &[a, b]
        )),
        (0u32..16, 0usize..1024).prop_map(|(d, b)| MachInst::load(MOp::FLoad, d, b)),
        (0u32..16, 0usize..1024).prop_map(|(s, b)| MachInst::store(MOp::FStore, s, b)),
        Just(MachInst::reg(MOp::Branch, None, &[])),
    ]
}

/// Every statistic a measurement reads off the simulator.
fn stats(sim: &Simulator) -> (u64, u64, u64, u64, (u64, u64)) {
    (
        sim.cycles(),
        sim.dynamic_insts(),
        sim.energy_pj(),
        sim.dyn_energy_pj(),
        sim.cache_stats(),
    )
}

/// The cores' own parameters, and each with a four-line L1 so that the
/// warm-up evicts.
fn param_sets() -> Vec<(Microarch, lgen_isa::UarchParams)> {
    Microarch::EVALUATED
        .into_iter()
        .flat_map(|arch| {
            let mut tiny = arch.params();
            tiny.l1d_bytes = 4 * tiny.line_bytes;
            [(arch, arch.params()), (arch, tiny)]
        })
        .collect()
}

/// Register ids spread over the scheduler's dense table (from 0), past
/// its end into the map, and up to `u32::MAX`.
const SPREAD_IDS: [u32; 16] = [
    0,
    7,
    300,
    65_534,
    65_535,
    65_536,
    70_000,
    1 << 20,
    (1 << 29) + 3,
    (1 << 30) + 9,
    1 << 31,
    u32::MAX - 65_536,
    u32::MAX - 2,
    u32::MAX - 1,
    u32::MAX,
    u32::MAX / 3,
];

/// A bijection of 0..16 onto [`SPREAD_IDS`], shuffled by `seed`.
fn spread(seed: u64) -> [u32; 16] {
    let mut ids = SPREAD_IDS;
    let mut state = seed | 1;
    for i in (1..ids.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ids.swap(i, (state % (i as u64 + 1)) as usize);
    }
    ids
}

proptest! {
    /// Warming the cache through `warming()` and then timing a run
    /// matches scheduling the warm-up, resetting the timing and timing
    /// the same run: same cycles, instructions, energies and cache
    /// counts.
    #[test]
    fn warming_matches_a_scheduled_warm_up(
        warm in prop::collection::vec(arb_mem_inst(), 0..80),
        timed in prop::collection::vec(arb_mem_inst(), 1..80),
    ) {
        for (arch, params) in param_sets() {
            let mut scheduled = Simulator::with_params(arch, params);
            for i in &warm {
                scheduled.emit(i);
            }
            scheduled.reset_timing();
            let mut warmed = Simulator::with_params(arch, params);
            let mut sink = warmed.warming();
            for i in &warm {
                sink.emit(i);
            }
            for i in &timed {
                scheduled.emit(i);
                warmed.emit(i);
            }
            prop_assert_eq!(stats(&warmed), stats(&scheduled), "{}", arch);
        }
    }

    /// Register ids only name values: renaming them by a bijection, over
    /// the dense table, the map and up to `u32::MAX`, leaves the schedule
    /// unchanged.
    #[test]
    fn renaming_registers_keeps_cycles(
        trace in prop::collection::vec(arb_mem_inst(), 1..80),
        seed in any::<u64>(),
    ) {
        let ids = spread(seed);
        let renamed: Vec<MachInst> = trace
            .iter()
            .map(|i| {
                let srcs: Vec<u32> = i.srcs.iter().map(|&r| ids[r as usize]).collect();
                MachInst {
                    dst: i.dst.map(|r| ids[r as usize]),
                    srcs: Srcs::new(&srcs),
                    ..*i
                }
            })
            .collect();
        for (arch, params) in param_sets() {
            let mut plain = Simulator::with_params(arch, params);
            let mut spread = Simulator::with_params(arch, params);
            for (a, b) in trace.iter().zip(&renamed) {
                plain.emit(a);
                spread.emit(b);
            }
            prop_assert_eq!(stats(&spread), stats(&plain), "{}", arch);
            // And again after a timing reset, which must forget every
            // ready time, dense or not.
            plain.reset_timing();
            spread.reset_timing();
            for (a, b) in trace.iter().zip(&renamed) {
                plain.emit(a);
                spread.emit(b);
            }
            prop_assert_eq!(stats(&spread), stats(&plain), "{}", arch);
        }
    }
}

/// A read-after-write chain costs at least latency × length.
#[test]
fn raw_chains_bound_cycles_from_below() {
    let mut sim = Simulator::new(Microarch::Arm1176);
    let lat = lgen_isa::cost::cost(Microarch::Arm1176, MOp::FAdd).latency as u64;
    let n = 20u64;
    for i in 0..n {
        // r1 = r1 + r1 — a serial dependency chain.
        sim.emit(&MachInst::reg(MOp::FAdd, Some(1), &[1, 1]));
        let _ = i;
    }
    assert!(sim.cycles() >= (n - 1) * lat);
}

/// Store→load forwarding through memory is serialized.
#[test]
fn store_load_dependency_is_enforced() {
    let mut sim = Simulator::new(Microarch::CortexA8);
    sim.emit(&MachInst::store(MOp::FStore, 1, 128));
    sim.emit(&MachInst::load(MOp::FLoad, 2, 128));
    let dependent = sim.cycles();
    let mut sim2 = Simulator::new(Microarch::CortexA8);
    sim2.emit(&MachInst::store(MOp::FStore, 1, 128));
    sim2.emit(&MachInst::load(MOp::FLoad, 2, 256));
    assert!(
        dependent > sim2.cycles(),
        "{dependent} vs {}",
        sim2.cycles()
    );
}
