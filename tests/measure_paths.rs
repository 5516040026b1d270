//! Pins `measure_blac` and `measure_program` to the §5.1.4 protocol as
//! written out here: one warming run through `Simulator::warming`, the
//! inputs restored, then one scheduled run on the warm cache. The
//! library runs a kernel whose layout fits in L1 once, on a cache that
//! already holds the layout, and only the others twice; both paths must
//! equal the oracle.
//!
//! The kernels straddle each core's L1: axpy at the largest size whose
//! memory layout fits and at the next size, which does not; axpy 3782
//! (30 KB against the Atom's 24 KB); Kalman predict at n = 24; and a
//! versioned gemv with `A`, `x`, `y` at float offsets 0, 1, 1 (the
//! Fig. 5.9 protocol).

use lgen::cir::{run_kernel, Kernel, MemLayout};
use lgen::ll::blac::Operand;
use lgen::ll::reference::test_data_for;
use lgen::machine::Measurement;
use lgen::prelude::*;

/// The protocol: warm the cache with one unscheduled run, restore the
/// inputs, schedule one run and read the measurement off it.
fn oracle(
    kernel: &Kernel,
    arch: Microarch,
    layout: &MemLayout,
    inputs: &[Vec<f32>],
) -> Measurement {
    let isa = arch.vector_isa();
    let mut sim = Simulator::new(arch);
    let mut bufs = inputs.to_vec();
    let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
    run_kernel(kernel, &mut refs, layout, isa, &mut sim.warming()).unwrap();
    let mut bufs = inputs.to_vec();
    let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
    run_kernel(kernel, &mut refs, layout, isa, &mut sim).unwrap();
    let cycles = sim.cycles();
    Measurement {
        cycles,
        q1: cycles,
        q3: cycles,
        flops: kernel.flops,
        dynamic_insts: sim.dynamic_insts(),
        energy_pj: sim.energy_pj(),
        dyn_energy_pj: sim.dyn_energy_pj(),
    }
}

/// The measurement inputs: operand `i` holds the data of seed `77 + i`.
fn inputs<'a>(operands: impl Iterator<Item = (usize, &'a Operand)>) -> Vec<Vec<f32>> {
    operands
        .map(|(i, op)| test_data_for(op, 77 + i as u64).data)
        .collect()
}

/// L1 lines a layout spans.
fn layout_lines(layout: &MemLayout, arch: Microarch) -> usize {
    layout.bytes().div_ceil(arch.params().line_bytes)
}

fn l1_lines(arch: Microarch) -> usize {
    let p = arch.params();
    p.l1d_bytes / p.line_bytes
}

/// Checks `measure_blac` against the oracle and returns the lines the
/// layout spans.
fn check_blac(blac: &Blac, cfg: &CompileConfig, offsets: &[usize]) -> usize {
    let arch = cfg.arch;
    let kernel = compile(blac, "k", cfg);
    let layout = MemLayout::with_float_offsets(&kernel, offsets);
    let expected = oracle(
        &kernel,
        arch,
        &layout,
        &inputs(blac.operands.iter().enumerate()),
    );
    let measured = measure_blac(blac, &kernel, arch, offsets, 3).unwrap();
    assert_eq!(measured, expected, "{arch:?} {blac:?}");
    layout_lines(&layout, arch)
}

#[test]
fn axpy_at_each_cores_l1_boundary_follows_the_protocol() {
    // The largest axpy whose layout fits in L1, per core; one float more
    // pushes `y` past the last line.
    for (arch, fits) in [
        (Microarch::Atom, 3052),
        (Microarch::CortexA8, 4076),
        (Microarch::CortexA9, 4076),
        (Microarch::Arm1176, 2028),
    ] {
        let cfg = CompileConfig::full(arch);
        let zeros = [0; 3];
        let under = check_blac(&lgen::ll::paper::axpy(fits), &cfg, &zeros);
        let over = check_blac(&lgen::ll::paper::axpy(fits + 1), &cfg, &zeros);
        let cap = l1_lines(arch);
        assert!(
            under <= cap && under + 3 > cap,
            "{arch:?}: {under} of {cap} lines"
        );
        assert!(
            over > cap && over < cap + 3,
            "{arch:?}: {over} of {cap} lines"
        );
    }
}

#[test]
fn axpy_3782_overflows_the_atom_l1_and_follows_the_protocol() {
    for arch in Microarch::EVALUATED {
        let lines = check_blac(
            &lgen::ll::paper::axpy(3782),
            &CompileConfig::full(arch),
            &[0; 3],
        );
        if arch == Microarch::Atom {
            assert!(lines > l1_lines(arch), "{lines} lines");
        }
    }
}

#[test]
fn versioned_gemv_at_offsets_follows_the_protocol() {
    // Parameters alpha, beta, A, x, y; 30x256 spans 30 KB.
    let blac = lgen::ll::paper::gemv(30, 256);
    let mut overflows = Vec::new();
    for arch in Microarch::EVALUATED {
        let cfg = CompileConfig::full(arch).with_versioning();
        let lines = check_blac(&blac, &cfg, &[0, 0, 0, 1, 1]);
        overflows.push(lines > l1_lines(arch));
    }
    // The Atom and the ARM1176 take the warm-up; the Cortex cores fit.
    assert_eq!(overflows, [true, false, false, true]);
}

#[test]
fn kalman_predict_24_follows_the_protocol() {
    let n = 24;
    let m = n / 2;
    let program = parse_program(&format!(
        "F = matrix({n}, {n})\nB = matrix({n}, {m})\nu = vector({m})\nx = vector({n})\n\
         x_next = vector({n})\nP = matrix({n}, {n}) symmetric\nQ = matrix({n}, {n}) symmetric\n\
         P_next = matrix({n}, {n})\n\
         x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;"
    ))
    .unwrap();
    for arch in Microarch::EVALUATED {
        let kernel = compile_program(&program, "kp", &CompileConfig::full(arch)).kernel;
        let layout = MemLayout::aligned(&kernel);
        let params = program
            .operands
            .iter()
            .enumerate()
            .filter(|(i, _)| !program.temps[*i]);
        let expected = oracle(&kernel, arch, &layout, &inputs(params));
        let measured = measure_program(&program, &kernel, arch, 3).unwrap();
        assert_eq!(measured, expected, "{arch:?}");
        // The layout, with the local temporary `S`, fits every core's L1.
        assert!(layout_lines(&layout, arch) <= l1_lines(arch));
    }
}
