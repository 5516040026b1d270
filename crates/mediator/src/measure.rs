//! Performance-measuring modules (§4.5, Listing 4.1).
//!
//! Mediator ships one measuring module per microarchitecture, all
//! implementing the same interface, so experiment code retrieves cycle
//! counts "with minimal user involvement". The thesis's modules read the
//! x86 TSC, the ARM cycle-count register (via a kernel module on Cortex-A8
//! and ARM1176), or Linux `perf` (Cortex-A9); here each module reads the
//! device's simulator — the dispatch-by-microarchitecture structure and the
//! Listing 4.1 call protocol (`init → start → stop → finish`) are retained.

use lgen_isa::Microarch;
use lgen_machine::Simulator;

/// The measuring-module interface of Listing 4.1.
///
/// Call order: [`init`](Self::init), then any number of
/// [`start`](Self::start)/[`stop`](Self::stop) pairs, then
/// [`finish`](Self::finish). `stop` returns the cycles elapsed since the
/// matching `start`.
pub trait MeasurementModule {
    /// Initialize the measuring process.
    fn init(&mut self);
    /// Start counting.
    fn start(&mut self, sim: &Simulator);
    /// Stop counting; returns cycles since `start`.
    fn stop(&mut self, sim: &Simulator) -> u64;
    /// Finalize; returns all recorded measurements.
    fn finish(&mut self) -> Vec<u64>;
    /// The counter's name (e.g. "RDTSC", "CCNT", "perf").
    fn counter_name(&self) -> &'static str;
}

/// Builds the measuring module for a microarchitecture (the per-device
/// `measure.h` dispatch of §4.5).
pub fn module_for(arch: Microarch) -> Box<dyn MeasurementModule + Send> {
    let counter = match arch {
        Microarch::Atom
        | Microarch::Haswell
        | Microarch::IvyBridge
        | Microarch::SandyBridge
        | Microarch::Westmere
        | Microarch::Nehalem => "RDTSC",
        // User-mode access to the cycle-count register, enabled through a
        // loadable kernel module (§5.1.4).
        Microarch::CortexA8 | Microarch::Arm1176 => "CCNT",
        // "For ARM Cortex-A9 we didn't manage to enable user-mode access …
        // and instead we used the perf infrastructure of Linux."
        Microarch::CortexA9 => "perf",
    };
    Box::new(CycleModule {
        counter,
        started_at: 0,
        initialized: false,
        samples: Vec::new(),
    })
}

struct CycleModule {
    counter: &'static str,
    started_at: u64,
    initialized: bool,
    samples: Vec<u64>,
}

impl MeasurementModule for CycleModule {
    fn init(&mut self) {
        self.initialized = true;
        self.samples.clear();
    }

    fn start(&mut self, sim: &Simulator) {
        assert!(
            self.initialized,
            "measurement_start before measurement_init"
        );
        self.started_at = sim.cycles();
    }

    fn stop(&mut self, sim: &Simulator) -> u64 {
        let elapsed = sim.cycles().saturating_sub(self.started_at);
        self.samples.push(elapsed);
        elapsed
    }

    fn finish(&mut self) -> Vec<u64> {
        self.initialized = false;
        std::mem::take(&mut self.samples)
    }

    fn counter_name(&self) -> &'static str {
        self.counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgen_isa::{MOp, MachInst, TraceSink};

    #[test]
    fn counter_dispatch_matches_paper() {
        assert_eq!(module_for(Microarch::Atom).counter_name(), "RDTSC");
        assert_eq!(module_for(Microarch::CortexA8).counter_name(), "CCNT");
        assert_eq!(module_for(Microarch::CortexA9).counter_name(), "perf");
        assert_eq!(module_for(Microarch::Arm1176).counter_name(), "CCNT");
    }

    #[test]
    fn start_stop_measures_elapsed_cycles() {
        let mut sim = Simulator::new(Microarch::Atom);
        let mut m = module_for(Microarch::Atom);
        m.init();
        m.start(&sim);
        for i in 0..4 {
            sim.emit(&MachInst::reg(MOp::MmAddPs, Some(10 + i), &[0, 1]));
        }
        let elapsed = m.stop(&sim);
        assert!(elapsed > 0);
        let all = m.finish();
        assert_eq!(all, vec![elapsed]);
    }

    #[test]
    #[should_panic(expected = "measurement_start before measurement_init")]
    fn protocol_violation_panics() {
        let sim = Simulator::new(Microarch::Atom);
        let mut m = module_for(Microarch::Atom);
        m.start(&sim);
    }
}
