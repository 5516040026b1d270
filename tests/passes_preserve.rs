//! Differential testing of the optimization passes: for any BLAC or
//! program, any unrolling decision, and any backend, the fully optimized
//! kernel must compute exactly what the unoptimized emission computes.

#[allow(dead_code)]
mod common;

use common::{program_families, PIPELINE_SPECS};
use lgen::cir::passes::UnrollPolicy;
use lgen::ll::paper;
use lgen::ll::reference::test_data;
use lgen::ll::Blac;
use lgen::prelude::*;
use lgen::sigma::CodegenOptions;
use proptest::prelude::*;

/// Output of a kernel on deterministic data.
fn outputs(blac: &Blac, kernel: &lgen::cir::Kernel, isa: VectorIsa) -> Vec<f32> {
    let values: Vec<_> = blac
        .operands
        .iter()
        .enumerate()
        .map(|(i, op)| test_data(op.dims, 400 + i as u64))
        .collect();
    run_program_kernel(&Program::from(blac), kernel, isa, &values)
        .expect("kernel executes")
        .swap_remove(blac.output.0)
        .data
}

fn raw_kernel(blac: &Blac, arch: Microarch) -> lgen::cir::Kernel {
    lgen::sigma::compile_blac(blac, "raw", &CodegenOptions::full(arch.vector_isa()))
}

fn optimized_kernel(blac: &Blac, arch: Microarch, unroll: UnrollPolicy) -> lgen::cir::Kernel {
    compile(blac, "opt", &CompileConfig::full(arch).with_unroll(unroll))
}

/// The passes must be *bit-exact* semantics preservers: they reorder no
/// floating-point arithmetic, so raw and optimized outputs are identical.
fn assert_preserved(blac: &Blac, arch: Microarch, unroll: UnrollPolicy) {
    let raw = outputs(blac, &raw_kernel(blac, arch), arch.vector_isa());
    let opt = outputs(
        blac,
        &optimized_kernel(blac, arch, unroll),
        arch.vector_isa(),
    );
    assert_eq!(raw, opt, "{arch} {unroll:?}");
}

#[test]
fn passes_preserve_semantics_bit_exactly_on_the_paper_suite() {
    let suite = [
        paper::mvm(5, 9),
        paper::gemv(6, 10),
        paper::mmm(3, 7, 5),
        paper::gemm(4, 8, 4),
        paper::two_gemv(4, 6),
        paper::bilinear(5, 7),
        paper::addt_gemm(6, 4, 5),
        paper::axpy(19),
        paper::madd(5, 6),
        paper::transpose(6, 5),
    ];
    let policies = [
        UnrollPolicy::None,
        UnrollPolicy::Full { max_trip: 4 },
        UnrollPolicy::Full { max_trip: 64 },
        UnrollPolicy::Factor { factor: 2 },
    ];
    for blac in &suite {
        for arch in Microarch::EVALUATED {
            for unroll in policies {
                assert_preserved(blac, arch, unroll);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn passes_preserve_semantics_on_random_shapes(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        arch_pick in 0usize..4,
        full_trip in 1usize..80,
    ) {
        let arch = Microarch::EVALUATED[arch_pick];
        let unroll = UnrollPolicy::Full { max_trip: full_trip };
        assert_preserved(&paper::mmm(m, k, n), arch, unroll);
        assert_preserved(&paper::gemv(m, n), arch, unroll);
    }

    /// Factor unrolling only fires on dividing trip counts; either way the
    /// result is preserved.
    #[test]
    fn factor_unrolling_preserves(
        n in 2usize..100,
        factor in 2usize..9,
        arch_pick in 0usize..4,
    ) {
        let arch = Microarch::EVALUATED[arch_pick];
        assert_preserved(&paper::axpy(n), arch, UnrollPolicy::Factor { factor });
    }
}

/// Differential testing over pass *schedules*: any legal pipeline spec —
/// fixpoint groups and dropped passes included — must compute bit-exactly
/// what the unoptimized emission computes, on paper BLACs and random
/// shapes alike (checked through the C-IR interpreter).
#[test]
fn every_pipeline_spec_preserves_semantics_bit_exactly() {
    let suite = [
        paper::gemv(5, 9),
        paper::gemm(4, 8, 4),
        paper::bilinear(5, 7),
        paper::axpy(19),
        paper::addt_gemm(6, 4, 5),
    ];
    for blac in &suite {
        for arch in [Microarch::Atom, Microarch::CortexA8] {
            let raw = outputs(blac, &raw_kernel(blac, arch), arch.vector_isa());
            for spec in PIPELINE_SPECS {
                let pipeline = PassPipeline::parse(spec).expect("spec is legal");
                let cfg = CompileConfig::full(arch)
                    .with_unroll(UnrollPolicy::Full { max_trip: 16 })
                    .with_passes(pipeline);
                let opt = outputs(blac, &compile(blac, "opt", &cfg), arch.vector_isa());
                assert_eq!(raw, opt, "{arch} spec \"{spec}\"");
            }
        }
    }
}

/// The schedule sweep over the program families on every evaluated core:
/// each fused kernel, whose local temporaries carry values between
/// statements, must compute bit-exactly what its raw emission computes
/// under every spec.
#[test]
fn every_pipeline_spec_preserves_program_semantics_bit_exactly() {
    for (label, source) in program_families() {
        let program = parse_program(&source).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        let values = lgen::core::program_test_values(&program, 400);
        for arch in Microarch::EVALUATED {
            let isa = arch.vector_isa();
            let outputs = |kernel: &lgen::cir::Kernel| -> Vec<Vec<f32>> {
                run_program_kernel(&program, kernel, isa, &values)
                    .expect("kernel executes")
                    .into_iter()
                    .map(|v| v.data)
                    .collect()
            };
            let opts = CodegenOptions::full(isa);
            let raw = outputs(&lgen::sigma::compile_program(&program, "raw", &opts).kernel);
            for spec in PIPELINE_SPECS {
                let pipeline = PassPipeline::parse(spec).expect("spec is legal");
                let cfg = CompileConfig::full(arch)
                    .with_unroll(UnrollPolicy::Full { max_trip: 64 })
                    .with_passes(pipeline);
                let opt = outputs(&compile_program(&program, "opt", &cfg).kernel);
                assert_eq!(raw, opt, "{label} on {arch}, spec \"{spec}\"");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The schedule sweep over random shapes: every spec agrees with the
    /// raw emission on random GEMV/MMM sizes and unroll decisions.
    #[test]
    fn pipeline_specs_preserve_semantics_on_random_shapes(
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..10,
        arch_pick in 0usize..4,
        full_trip in 1usize..40,
        spec_pick in 0usize..PIPELINE_SPECS.len(),
    ) {
        let arch = Microarch::EVALUATED[arch_pick];
        let spec = PIPELINE_SPECS[spec_pick];
        let pipeline = PassPipeline::parse(spec).expect("spec is legal");
        for blac in [paper::mmm(m, k, n), paper::gemv(m, n)] {
            let raw = outputs(&blac, &raw_kernel(&blac, arch), arch.vector_isa());
            let cfg = CompileConfig::full(arch)
                .with_unroll(UnrollPolicy::Full { max_trip: full_trip })
                .with_passes(pipeline.clone());
            let opt = outputs(&blac, &compile(&blac, "opt", &cfg), arch.vector_isa());
            prop_assert_eq!(raw, opt, "{} spec \"{}\"", arch, spec);
        }
    }
}

/// Optimization must strictly reduce dynamic memory traffic whenever full
/// unrolling exposes a store→load chain through a materialized temporary
/// (the point of scalar replacement, Fig. 2.4). `α = xᵀAy` materializes
/// t = Ay and then reads it back with matching footprints.
#[test]
fn scalar_replacement_reduces_dynamic_memory_traffic() {
    use lgen::isa::inst::CountingSink;
    let blac = paper::bilinear(4, 8); // materializes t = Ay
    let arch = Microarch::Atom;
    let count_mem = |kernel: &lgen::cir::Kernel| {
        let values: Vec<_> = blac
            .operands
            .iter()
            .enumerate()
            .map(|(i, op)| test_data(op.dims, 7 + i as u64))
            .collect();
        let mut bufs: Vec<Vec<f32>> = values.iter().map(|v| v.data.clone()).collect();
        let layout = lgen::cir::MemLayout::aligned(kernel);
        let mut sink = CountingSink::new();
        {
            let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            lgen::cir::run_kernel(kernel, &mut refs, &layout, arch.vector_isa(), &mut sink)
                .expect("runs");
        }
        sink.count_matching(|op| op.touches_memory())
    };
    let raw = count_mem(&raw_kernel(&blac, arch));
    let opt = count_mem(&optimized_kernel(
        &blac,
        arch,
        UnrollPolicy::Full { max_trip: 16 },
    ));
    assert!(
        opt < raw,
        "optimized {opt} must move less memory than raw {raw}"
    );
}
