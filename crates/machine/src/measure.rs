//! The measurement protocol of §5.1.4.
//!
//! Flops are deduced from the BLAC (carried on the kernel); cycles come
//! from the scheduler. Kernels are measured warm, as in the paper ("the
//! generated kernel is executed a few times before starting measuring"):
//! one timed run is scheduled on a warm cache.
//!
//! How the cache gets warm depends on the memory layout. When every line
//! the layout spans fits in the core's L1, [`Simulator::prefilled`]
//! starts the simulator with those lines resident and the one run of the
//! kernel is the timed run. This equals a warm-up followed by a timed
//! run: no access reaches past the layout (`MemLayout::bytes`), so a run
//! over it can never evict a line; after any warm-up, every access of the
//! timed run hits in both protocols; and the scheduler's own state
//! starts empty in both. When the layout does not fit, one untimed run
//! fills the simulated L1 through [`Simulator::warming`], which touches
//! the cache in trace order and schedules nothing, and [`timed_run`] then
//! schedules the kernel again on restored inputs.
//!
//! One timed run is the whole sample. The trace depends only on the
//! kernel, the memory layout and the ISA, never on the data: loop bounds
//! are constants, addresses are affine in the loop counters, and no
//! instruction branches on a value. The simulator is exact, so every
//! repetition would schedule the same trace from the same cache state;
//! the median and both quartiles collapse onto the one timed run, which
//! EXPERIMENTS.md records. The same argument lets the autotuner's
//! evaluator (in `lgen-core`) validate on the run it times, or on the
//! warm-up when the layout does not fit: the numbers the validation data
//! leaves behind cannot move a simulated statistic.

use crate::sched::Simulator;
use lgen_cir::{run_kernel, ExecError, Kernel, MemLayout};
use lgen_isa::Microarch;

/// Result of measuring one kernel on one core.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Median cycles per kernel invocation.
    pub cycles: u64,
    /// First-quartile cycles (== median under determinism).
    pub q1: u64,
    /// Third-quartile cycles (== median under determinism).
    pub q3: u64,
    /// Useful flops per invocation (from the BLAC).
    pub flops: u64,
    /// Dynamic instructions per invocation.
    pub dynamic_insts: u64,
    /// Modelled energy per invocation in picojoules (§6 future work):
    /// dynamic per-instruction energy plus static leakage over the cycles.
    pub energy_pj: u64,
    /// The dynamic (per-instruction) share of [`energy_pj`](Self::energy_pj)
    /// from the simulator's instruction stream — the quantity a static
    /// instruction-mix predictor estimates, reported separately so
    /// predicted-vs-simulated energy can be compared, not just cycles.
    pub dyn_energy_pj: u64,
}

impl Measurement {
    /// The measurement of the run `sim` has just scheduled, for a kernel
    /// of `flops` useful flops.
    pub fn of_run(sim: &Simulator, flops: u64) -> Self {
        let cycles = sim.cycles();
        Measurement {
            cycles,
            q1: cycles,
            q3: cycles,
            flops,
            dynamic_insts: sim.dynamic_insts(),
            energy_pj: sim.energy_pj(),
            dyn_energy_pj: sim.dyn_energy_pj(),
        }
    }

    /// Performance in flops per cycle — the y-axis of every figure.
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flops as f64 / self.cycles as f64
        }
    }

    /// Energy efficiency in flops per nanojoule.
    pub fn flops_per_nj(&self) -> f64 {
        if self.energy_pj == 0 {
            0.0
        } else {
            self.flops as f64 / (self.energy_pj as f64 / 1000.0)
        }
    }

    /// Energy-delay product (pJ · cycles), the low-power tuning objective.
    pub fn energy_delay(&self) -> u128 {
        self.energy_pj as u128 * self.cycles as u128
    }
}

/// Measures `kernel` on `arch` under the §5.1.4 protocol with `reps`
/// repetitions. Every repetition would report the same cycles (see the
/// module docs), so one timed run stands for all `reps`; the parameter
/// states the protocol a call site follows.
///
/// `args` are the kernel's parameter arrays (declaration order). When the
/// layout does not fit in L1 the kernel runs twice, so they are
/// snapshotted and restored between the warm-up and the timed run; either
/// way they hold one run's results afterwards.
///
/// # Errors
///
/// Propagates [`ExecError`] from kernel execution.
pub fn measure_protocol(
    kernel: &Kernel,
    args: &mut [&mut [f32]],
    layout: &MemLayout,
    arch: Microarch,
    reps: usize,
) -> Result<Measurement, ExecError> {
    assert!(reps >= 1);
    if let Some(mut sim) = Simulator::prefilled(arch, layout) {
        run_kernel(kernel, args, layout, arch.vector_isa(), &mut sim)?;
        return Ok(Measurement::of_run(&sim, kernel.flops));
    }
    let snapshot: Vec<Vec<f32>> = args.iter().map(|a| a.to_vec()).collect();
    let mut sim = Simulator::new(arch);
    run_kernel(kernel, args, layout, arch.vector_isa(), &mut sim.warming())?;
    timed_run(&mut sim, kernel, args, &snapshot, layout)
}

/// The timed run of the protocol: restores `args` from `inputs`, then
/// schedules one execution of `kernel` on `sim`, whose cache a warm-up
/// has filled, and reads the measurement off it.
///
/// # Errors
///
/// Propagates [`ExecError`] from kernel execution.
pub fn timed_run(
    sim: &mut Simulator,
    kernel: &Kernel,
    args: &mut [&mut [f32]],
    inputs: &[Vec<f32>],
    layout: &MemLayout,
) -> Result<Measurement, ExecError> {
    for (a, input) in args.iter_mut().zip(inputs) {
        a.copy_from_slice(input);
    }
    run_kernel(kernel, args, layout, sim.arch().vector_isa(), sim)?;
    Ok(Measurement::of_run(sim, kernel.flops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgen_absint::AffineExpr;
    use lgen_cir::{KernelBuilder, MemMap, VArith, VWidth};

    fn vadd_kernel(n: usize) -> Kernel {
        let mut b = KernelBuilder::new("vadd");
        let x = b.input("x", n);
        let y = b.inout("y", n);
        b.for_loop("i", 0, n as i64, 4, |b, i| {
            let vx = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            let vy = b.load(y, AffineExpr::var(i), MemMap::horizontal(4));
            let s = b.arith(VArith::Add(VWidth::Q), vx, vy);
            b.store(s, y, AffineExpr::var(i), MemMap::horizontal(4));
        });
        b.finish(n as u64)
    }

    #[test]
    fn measurement_is_deterministic_and_correct() {
        let k = vadd_kernel(64);
        let layout = MemLayout::aligned(&k);
        let mut x: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut y = vec![1.0f32; 64];
        let m = measure_protocol(&k, &mut [&mut x, &mut y], &layout, Microarch::Atom, 15).unwrap();
        assert_eq!(m.q1, m.cycles);
        assert_eq!(m.q3, m.cycles);
        assert!(m.cycles > 0);
        assert!(m.flops_per_cycle() > 0.0);
        // The energy split: dynamic share is positive and strictly below
        // the total (which adds static leakage over the cycles).
        assert!(m.dyn_energy_pj > 0);
        assert!(m.dyn_energy_pj < m.energy_pj);
        // Repetition restores inputs: y holds exactly one accumulation.
        assert_eq!(y[5], 1.0 + 5.0);
    }

    #[test]
    fn repetition_count_cannot_change_the_result() {
        // The determinism contract behind the single-timed-run protocol:
        // any repetition count reports the same measurement.
        let k = vadd_kernel(64);
        let layout = MemLayout::aligned(&k);
        let mut ms = Vec::new();
        for reps in [1, 3, 15] {
            let mut x: Vec<f32> = (0..64).map(|i| i as f32).collect();
            let mut y = vec![1.0f32; 64];
            ms.push(
                measure_protocol(&k, &mut [&mut x, &mut y], &layout, Microarch::Atom, reps)
                    .unwrap(),
            );
        }
        assert_eq!(ms[0], ms[1]);
        assert_eq!(ms[0], ms[2]);
    }

    #[test]
    fn larger_kernels_take_more_cycles() {
        let small = vadd_kernel(32);
        let big = vadd_kernel(256);
        let ls = MemLayout::aligned(&small);
        let lb = MemLayout::aligned(&big);
        let mut x1 = vec![0.0f32; 32];
        let mut y1 = vec![0.0f32; 32];
        let mut x2 = vec![0.0f32; 256];
        let mut y2 = vec![0.0f32; 256];
        let ms =
            measure_protocol(&small, &mut [&mut x1, &mut y1], &ls, Microarch::Atom, 15).unwrap();
        let mb = measure_protocol(&big, &mut [&mut x2, &mut y2], &lb, Microarch::Atom, 15).unwrap();
        assert!(mb.cycles > ms.cycles);
    }

    #[test]
    fn arch_differences_show() {
        let k = vadd_kernel(128);
        let layout = MemLayout::aligned(&k);
        let mut per_arch = Vec::new();
        for arch in [Microarch::Atom, Microarch::CortexA8, Microarch::CortexA9] {
            let mut x = vec![1.0f32; 128];
            let mut y = vec![2.0f32; 128];
            let m = measure_protocol(&k, &mut [&mut x, &mut y], &layout, arch, 15).unwrap();
            per_arch.push((arch, m.cycles));
        }
        // The A9 (single NEON issue) must be slower than the A8 (dual
        // issue) on this memory-heavy kernel.
        let a8 = per_arch[1].1;
        let a9 = per_arch[2].1;
        assert!(a9 > a8, "A9 {a9} vs A8 {a8}");
    }
}
