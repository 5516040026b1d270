//! End-to-end pipeline tests: every paper BLAC, on every evaluated core,
//! through the full compile pipeline, validated against the naive
//! reference and measured on the simulator.

use lgen::core::SearchStrategy;
use lgen::ll::paper;
use lgen::ll::Blac;
use lgen::prelude::*;

fn tolerance(blac: &Blac) -> f32 {
    1e-4 + 1e-6 * blac.flops() as f32
}

fn suite() -> Vec<(&'static str, Blac)> {
    vec![
        ("mvm 4x17", paper::mvm(4, 17)),
        ("mvm 30x4", paper::mvm(30, 4)),
        ("mmm 5x7x3", paper::mmm(5, 7, 3)),
        ("mmm 4x16x4", paper::mmm(4, 16, 4)),
        ("axpy 37", paper::axpy(37)),
        ("gemv 30x11", paper::gemv(30, 11)),
        ("gemm 6x9x6", paper::gemm(6, 9, 6)),
        ("two_gemv 5x13", paper::two_gemv(5, 13)),
        ("bilinear 7x9", paper::bilinear(7, 9)),
        ("addt_gemm 9x5x6", paper::addt_gemm(9, 5, 6)),
        ("madd 6x7", paper::madd(6, 7)),
        ("transpose 5x9", paper::transpose(5, 9)),
    ]
}

#[test]
fn every_blac_compiles_validates_and_measures_on_every_core() {
    for (name, blac) in suite() {
        for arch in Microarch::EVALUATED {
            for variant in Variant::ALL {
                let cfg = CompileConfig::variant(arch, variant);
                let kernel = compile(&blac, "k", &cfg);
                let diff = check_kernel(&blac, &kernel, arch.vector_isa(), 5)
                    .unwrap_or_else(|e| panic!("{name} on {arch} ({variant:?}): {e}"));
                assert!(
                    diff < tolerance(&blac),
                    "{name} on {arch} ({variant:?}): numeric diff {diff}"
                );
                let m = measure_blac(&blac, &kernel, arch, &vec![0; blac.operands.len()], 3)
                    .unwrap_or_else(|e| panic!("{name} on {arch}: {e}"));
                assert!(m.cycles > 0);
                assert!(
                    m.flops_per_cycle() <= arch.peak_flops_per_cycle(),
                    "{name} on {arch}: {} f/c exceeds the {} peak",
                    m.flops_per_cycle(),
                    arch.peak_flops_per_cycle()
                );
            }
        }
    }
}

#[test]
fn generated_c_is_well_formed_for_each_backend() {
    let blac = paper::gemm(6, 10, 6);
    for arch in Microarch::EVALUATED {
        let kernel = compile(&blac, "sgemm_6x10x6", &CompileConfig::full(arch));
        let c = lgen::cir::unparse::unparse(&kernel, arch.vector_isa());
        assert!(c.contains("void sgemm_6x10x6("), "{arch}: {c}");
        assert!(c.contains("const float* A"));
        assert!(c.contains("float* C"));
        match arch.vector_isa() {
            VectorIsa::Ssse3 => assert!(c.contains("_mm_"), "{arch} must use SSE intrinsics"),
            VectorIsa::Neon => assert!(c.contains("vld1") || c.contains("vmla"), "{arch}"),
            VectorIsa::Scalar => {
                assert!(
                    !c.contains("_mm_") && !c.contains("vld1"),
                    "{arch} must be scalar"
                )
            }
        }
        // Braces balance.
        assert_eq!(c.matches('{').count(), c.matches('}').count(), "{arch}");
    }
}

#[test]
fn autotuner_improves_or_matches_every_paper_blac_on_atom() {
    for (name, blac) in suite() {
        let cfg = CompileConfig::full(Microarch::Atom);
        let tuned = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Random(6))
            .tune(&blac, "k");
        let default = compile(&blac, "k", &cfg);
        let dm = measure_blac(
            &blac,
            &default,
            Microarch::Atom,
            &vec![0; blac.operands.len()],
            3,
        )
        .expect("measure");
        assert!(
            tuned.measurement.cycles <= dm.cycles,
            "{name}: tuned {} > default {}",
            tuned.measurement.cycles,
            dm.cycles
        );
    }
}

#[test]
fn headline_claim_lgen_full_beats_every_competitor() {
    // The paper's central result, asserted on a representative shape per
    // platform: "LGen produces code that performs better than
    // well-established libraries, generators, and compilers."
    let cases = [
        (Microarch::Atom, paper::mvm(4, 64)),
        (Microarch::Atom, paper::gemv(30, 44)),
        (Microarch::CortexA8, paper::gemv(4, 64)),
        (Microarch::CortexA8, paper::mmm(4, 48, 4)),
        (Microarch::CortexA9, paper::mvm(64, 4)),
        (Microarch::CortexA9, paper::mmm(4, 48, 4)),
        (Microarch::Arm1176, paper::gemv(4, 64)),
    ];
    for (arch, blac) in cases {
        let kernel = Autotuner::new(CompileConfig::full(arch))
            .with_strategy(SearchStrategy::Random(6))
            .tune(&blac, "k");
        let lgen_fc = kernel.measurement.flops_per_cycle();
        for comp in Competitor::ALL {
            let Some(bk) = compile_baseline(&blac, comp, arch) else {
                continue;
            };
            let m = measure_blac(&blac, &bk, arch, &vec![0; blac.operands.len()], 3)
                .expect("baseline measures");
            assert!(
                lgen_fc > m.flops_per_cycle(),
                "{arch}: LGen-Full {lgen_fc:.3} ≤ {} {:.3}",
                comp.label(),
                m.flops_per_cycle()
            );
        }
    }
}

#[test]
fn variant_ordering_on_atom_mvm() {
    // Fig. 5.1 structure: Full ≥ Align, Mvm ≥ Base, and Full ≥ both.
    let blac = paper::mvm(4, 64);
    let fc = |v: Variant| {
        let t = Autotuner::new(CompileConfig::variant(Microarch::Atom, v))
            .with_strategy(SearchStrategy::Random(6))
            .tune(&blac, "k");
        t.measurement.flops_per_cycle()
    };
    let base = fc(Variant::Base);
    let align = fc(Variant::Align);
    let mvm = fc(Variant::Mvm);
    let full = fc(Variant::Full);
    assert!(align > base, "Align {align} vs Base {base}");
    assert!(mvm > base, "Mvm {mvm} vs Base {base}");
    assert!(
        full > align && full > mvm,
        "Full {full} vs Align {align} / Mvm {mvm}"
    );
}

#[test]
fn specialized_nu_blacs_win_on_leftover_heavy_neon_mmm() {
    // Fig. 5.13/5.18: the §3.4 speedup on 2×2×2 is around 3×.
    let blac = paper::mmm(2, 2, 2);
    for arch in [Microarch::CortexA8, Microarch::CortexA9] {
        let full = compile(&blac, "k", &CompileConfig::full(arch));
        let base = compile(&blac, "k", &CompileConfig::base(arch));
        let mf = measure_blac(&blac, &full, arch, &[0, 0, 0], 3).unwrap();
        let mb = measure_blac(&blac, &base, arch, &[0, 0, 0], 3).unwrap();
        let speedup = mb.cycles as f64 / mf.cycles as f64;
        assert!(
            speedup > 1.5,
            "{arch}: specialized ν-BLACs speedup {speedup:.2} (paper ≈ 3)"
        );
    }
}
