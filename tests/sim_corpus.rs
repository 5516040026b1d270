//! Pins every simulated statistic over a kernel corpus: cycles, dynamic
//! instructions and both energies from the measurement protocol, the L1
//! hit/miss counts after a warm and a timed run, and the samples and
//! winners of exhaustive tunes. The simulator is a cost model, so these
//! numbers are part of what `lgen` reports; a change that moves one must
//! be deliberate.
//!
//! One FNV-1a line per kernel in `tests/golden/sim_corpus.digest`, so a
//! mismatch names the kernel. To regenerate after an intentional change:
//! `LGEN_BLESS=1 cargo test --test sim_corpus`.

mod common;

use common::{arch_name, check_digest, fnv1a, paper_families, versioning_is_small, PROGRAMS};
use lgen::cir::{run_kernel, Kernel, MemLayout};
use lgen::core::ProgramTuner;
use lgen::ll::reference::test_data_for;
use lgen::machine::Measurement;
use lgen::prelude::*;

/// Cache `(hits, misses)` after one scheduled warm run and after a timed
/// run on the warm cache, with `bufs` as the parameter arrays.
fn cache_stats(kernel: &Kernel, arch: Microarch, mut bufs: Vec<Vec<f32>>) -> [(u64, u64); 2] {
    let layout = MemLayout::aligned(kernel);
    let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
    let mut sim = Simulator::new(arch);
    run_kernel(kernel, &mut refs, &layout, arch.vector_isa(), &mut sim).unwrap();
    let warm = sim.cache_stats();
    sim.reset_timing();
    run_kernel(kernel, &mut refs, &layout, arch.vector_isa(), &mut sim).unwrap();
    [warm, sim.cache_stats()]
}

fn line(name: &str, m: Measurement, cache: [(u64, u64); 2]) -> String {
    let stats = format!(
        "{} {} {} {} {} {} {cache:?}",
        m.cycles, m.q1, m.q3, m.dynamic_insts, m.energy_pj, m.dyn_energy_pj
    );
    format!("{name} {:016x}\n", fnv1a(stats.as_bytes()))
}

fn blac_line(name: &str, blac: &Blac, kernel: &Kernel, arch: Microarch) -> String {
    let zeros = vec![0; blac.operands.len()];
    let m = measure_blac(blac, kernel, arch, &zeros, 3).unwrap();
    let bufs = blac
        .operands
        .iter()
        .enumerate()
        .map(|(i, op)| test_data_for(op, 77 + i as u64).data)
        .collect();
    line(name, m, cache_stats(kernel, arch, bufs))
}

fn program_line(name: &str, program: &Program, kernel: &Kernel, arch: Microarch) -> String {
    let m = measure_program(program, kernel, arch, 3).unwrap();
    let bufs = program
        .operands
        .iter()
        .enumerate()
        .filter(|(i, _)| !program.temps[*i])
        .map(|(i, op)| test_data_for(op, 77 + i as u64).data)
        .collect();
    line(name, m, cache_stats(kernel, arch, bufs))
}

/// The corpus: the paper BLACs at micro and leftover sizes under the base
/// and full variants, their peeled and versioned forms, the programs, one
/// kernel whose working set exceeds L1, and exhaustive tunes — on every
/// evaluated core.
fn sim_corpus() -> String {
    let families = paper_families();
    // 40 KiB of matrix: larger than every modelled L1 (16–32 KiB), so
    // the timed run evicts.
    let over_l1 = lgen::ll::paper::gemv(64, 160);
    let tuned_blacs = [
        ("gemv_5x7", lgen::ll::paper::gemv(5, 7)),
        ("mmm_3x3x3", lgen::ll::paper::mmm(3, 3, 3)),
    ];
    let mut out = String::new();
    for arch in Microarch::EVALUATED {
        for variant in [Variant::Base, Variant::Full] {
            let tag = format!("{}_{variant:?}", arch_name(arch)).to_lowercase();
            let cfg = CompileConfig::variant(arch, variant);
            for (label, blac) in families.iter().flat_map(|f| &f[..2]) {
                let name = format!("{label}_{tag}");
                out += &blac_line(&name, blac, &compile(blac, &name, &cfg), arch);
            }
            for (label, src) in &PROGRAMS {
                let name = format!("{label}_{tag}");
                let program = parse_program(src).unwrap();
                let kernel = compile_program(&program, &name, &cfg).kernel;
                out += &program_line(&name, &program, &kernel, arch);
            }
        }
        let full = CompileConfig::full(arch);
        for (label, blac) in families.iter().map(|f| &f[1]) {
            let name = format!("{label}_{}_peel", arch_name(arch));
            let kernel = compile(blac, &name, &full.clone().with_peeling());
            out += &blac_line(&name, blac, &kernel, arch);
            if versioning_is_small(blac) {
                let name = format!("{label}_{}_valign", arch_name(arch));
                let kernel = compile(blac, &name, &full.clone().with_versioning());
                out += &blac_line(&name, blac, &kernel, arch);
            }
        }
        let name = format!("gemv_64x160_{}_over_l1", arch_name(arch));
        let (hits, misses) = {
            let kernel = compile(&over_l1, &name, &full);
            out += &blac_line(&name, &over_l1, &kernel, arch);
            let bufs = over_l1
                .operands
                .iter()
                .map(|op| test_data_for(op, 1).data)
                .collect();
            cache_stats(&kernel, arch, bufs)[1]
        };
        assert!(
            misses > 0 && hits > 0,
            "{name}: the timed run must both hit and evict ({hits} hits, {misses} misses)"
        );

        for (label, blac) in &tuned_blacs {
            let tuned = Autotuner::new(full.clone())
                .with_strategy(lgen::core::SearchStrategy::Exhaustive)
                .tune(blac, label);
            let record = format!("{} {:?}", tuned.measurement.cycles, tuned.samples);
            let name = format!("tune_{label}_{}", arch_name(arch));
            out += &format!("{name} {:016x}\n", fnv1a(record.as_bytes()));
        }
        for (label, src) in [PROGRAMS[3], PROGRAMS[4]] {
            let program = parse_program(src).unwrap();
            let tuned = ProgramTuner::new(full.clone()).tune(&program, label);
            let record = format!("{} {:?}", tuned.measurement.cycles, tuned.samples);
            let name = format!("tune_{label}_{}", arch_name(arch));
            out += &format!("{name} {:016x}\n", fnv1a(record.as_bytes()));
        }
    }
    out
}

#[test]
fn golden_sim_corpus() {
    check_digest("sim_corpus.digest", &sim_corpus());
}
