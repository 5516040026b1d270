//! Golden-file tests of the C unparser: the emitted C for a fixed kernel is
//! part of the public contract (users read and compile it), so changes must
//! be deliberate.
//!
//! To regenerate after an intentional change:
//! `LGEN_BLESS=1 cargo test --test golden_c`.

mod common;

use common::{
    arch_name, check_digest, fnv1a, paper_families, program_families, versioning_is_small,
    KALMAN_PREDICT_4, PIPELINE_SPECS, PROGRAMS,
};
use lgen::cir::passes::UnrollPolicy;
use lgen::cir::{render, verify_kernel, Kernel, PassCtx, PassTrace, VerifyLevel};
use lgen::prelude::*;
use lgen::sigma::CodegenOptions;

fn golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}.c", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("LGEN_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with LGEN_BLESS=1)"));
    assert_eq!(
        actual, expected,
        "golden mismatch for {name}; LGEN_BLESS=1 to regenerate"
    );
}

fn kernel_c(arch: Microarch) -> String {
    let blac = lgen::ll::paper::gemv(4, 8);
    let kernel = compile(&blac, "sgemv_4x8", &CompileConfig::full(arch));
    lgen::cir::unparse::unparse(&kernel, arch.vector_isa())
}

#[test]
fn golden_ssse3_gemv() {
    golden("gemv_4x8_ssse3", &kernel_c(Microarch::Atom));
}

#[test]
fn golden_neon_gemv() {
    golden("gemv_4x8_neon", &kernel_c(Microarch::CortexA8));
}

#[test]
fn golden_scalar_gemv() {
    golden("gemv_4x8_arm1176", &kernel_c(Microarch::Arm1176));
}

/// The Kalman predict step compiled as one fused program: the emitted C
/// (one function, the temporary `S` eliminated, `P`/`Q` symmetric inputs)
/// is part of the program-compilation contract.
#[test]
fn golden_program_kalman_predict() {
    let program = parse_program(KALMAN_PREDICT_4).unwrap();
    let compiled = compile_program(
        &program,
        "kalman_predict_4",
        &CompileConfig::full(Microarch::Atom),
    );
    golden(
        "kalman_predict_4_ssse3",
        &lgen::cir::unparse::unparse(&compiled.kernel, VectorIsa::Ssse3),
    );
}

/// Every paper BLAC at a micro, a leftover and a panel size, plus the
/// peeled and alignment-versioned variants and the multi-statement
/// programs, on every evaluated core under the base and full variants:
/// `(kernel name, rendered C)`.
fn unparse_corpus() -> Vec<(String, String)> {
    let families = paper_families();
    let mut out = Vec::new();
    for arch in Microarch::EVALUATED {
        let isa = arch.vector_isa();
        for variant in [Variant::Base, Variant::Full] {
            let tag = format!("{}_{variant:?}", arch_name(arch)).to_lowercase();
            let cfg = CompileConfig::variant(arch, variant);
            for (label, blac) in families.iter().flatten() {
                let name = format!("{label}_{tag}");
                let kernel = compile(blac, &name, &cfg);
                out.push((name, lgen::cir::unparse::unparse(&kernel, isa)));
            }
            for (label, src) in &PROGRAMS {
                let name = format!("{label}_{tag}");
                let program = parse_program(src).unwrap();
                let compiled = compile_program(&program, &name, &cfg);
                out.push((name, lgen::cir::unparse::unparse(&compiled.kernel, isa)));
            }
        }
        // The single-kernel transforms, on the leftover and panel sizes.
        let full = CompileConfig::full(arch);
        for (label, blac) in families.iter().flat_map(|f| &f[1..]) {
            let name = format!("{label}_{}_peel", arch_name(arch));
            let kernel = compile(blac, &name, &full.clone().with_peeling());
            out.push((name, lgen::cir::unparse::unparse(&kernel, isa)));
            if versioning_is_small(blac) {
                let name = format!("{label}_{}_valign", arch_name(arch));
                let kernel = compile(blac, &name, &full.clone().with_versioning());
                out.push((name, lgen::cir::unparse::unparse(&kernel, isa)));
            }
        }
    }
    out
}

/// Pins the unparser over a corpus wide enough to reach every lowering
/// shape (NEON 3-lane loads, NEON and SSSE3 vertical gathers, peeled
/// bodies, dispatch chains): one FNV-1a line per kernel
/// in `tests/golden/unparse_corpus.digest`, so a mismatch names the
/// kernel.
#[test]
fn golden_unparse_corpus() {
    let corpus = unparse_corpus();
    // The lowering shapes the five single-kernel goldens never reach.
    for shape in [
        "_mm_unpacklo_ps(t",   // SSSE3 vertical gather
        "vsetq_lane_f32(t",    // NEON 3-lane load (Fig. 3.4)
        "vld1q_lane_f32(A + ", // NEON vertical gather
    ] {
        assert!(
            corpus.iter().any(|(_, c)| c.contains(shape)),
            "corpus never renders {shape}"
        );
    }
    let actual: String = corpus
        .iter()
        .map(|(name, c)| format!("{name} {:016x}\n", fnv1a(c.as_bytes())))
        .collect();
    check_digest("unparse_corpus.digest", &actual);
}

#[test]
fn golden_versioned_axpy_dispatch() {
    let blac = lgen::ll::paper::axpy(8);
    let kernel = compile(
        &blac,
        "saxpy_8",
        &CompileConfig::full(Microarch::Atom).with_versioning(),
    );
    golden(
        "saxpy_8_versioned",
        &lgen::cir::unparse::unparse(&kernel, VectorIsa::Ssse3),
    );
}

/// Digest lines of one schedule point: the raw `kernel` run through
/// `spec` under `unroll`, once plain and once observed (a `PassTrace`
/// sink and `VerifyLevel::EveryPass`). One line per observed stage
/// hashes its `--print-after-all` snapshot; the `final` line hashes the
/// emitted C, the rendered verifier diagnostics and the observed verdict.
fn schedule_lines(
    label: &str,
    raw: &Kernel,
    arch: Microarch,
    spec: &str,
    unroll: UnrollPolicy,
) -> String {
    let pipeline = PassPipeline::parse(spec).expect("spec is legal");
    let isa = arch.vector_isa();
    let mut kernel = raw.clone();
    pipeline
        .run(&mut kernel, &PassCtx::new(unroll))
        .expect("pipeline runs");

    let trace = PassTrace::new();
    let ctx = PassCtx {
        verify: VerifyLevel::EveryPass,
        isa,
        trace: Some(&trace),
        ..PassCtx::new(unroll)
    };
    let verdict = match pipeline.run(&mut raw.clone(), &ctx) {
        Ok(()) => "ok".to_string(),
        Err(f) => format!("after {}: {}", f.pass, render(&f.diagnostics)),
    };
    let point = format!("{label}/{}/{spec}", arch_name(arch));
    let mut out = String::new();
    for (i, (stage, ir)) in trace.snapshots().iter().enumerate() {
        out += &format!("{point}/{i}:{stage} {:016x}\n", fnv1a(ir.as_bytes()));
    }
    let outcome = format!(
        "{}\0{}\0{verdict}",
        lgen::cir::unparse::unparse(&kernel, isa),
        render(&verify_kernel(&kernel))
    );
    out += &format!("{point}/final {:016x}\n", fnv1a(outcome.as_bytes()));
    out
}

/// Pins what every pass schedule makes of a fixed input set, stage by
/// stage: 7 paper BLACs on Atom and Cortex-A8 under `Full { max_trip: 16 }`
/// and the 5 program families on the 4 evaluated cores under
/// `Full { max_trip: 64 }`, each through the 6 `PIPELINE_SPECS`. One
/// FNV-1a line per input, core, spec and observed stage in
/// `tests/golden/pipeline_specs.digest`.
#[test]
fn golden_pipeline_specs() {
    use lgen::ll::paper;
    let blacs = [
        ("mvm_5x9", paper::mvm(5, 9)),
        ("gemv_6x10", paper::gemv(6, 10)),
        ("gemm_4x8x4", paper::gemm(4, 8, 4)),
        ("bilinear_5x7", paper::bilinear(5, 7)),
        ("addt_gemm_6x4x5", paper::addt_gemm(6, 4, 5)),
        ("axpy_19", paper::axpy(19)),
        ("transpose_6x5", paper::transpose(6, 5)),
    ];
    let mut actual = String::new();
    for (label, blac) in &blacs {
        for arch in [Microarch::Atom, Microarch::CortexA8] {
            let opts = CodegenOptions::full(arch.vector_isa());
            let raw = lgen::sigma::compile_blac(blac, "k", &opts);
            for spec in PIPELINE_SPECS {
                let unroll = UnrollPolicy::Full { max_trip: 16 };
                actual += &schedule_lines(label, &raw, arch, spec, unroll);
            }
        }
    }
    for (label, source) in program_families() {
        let program = parse_program(&source).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        for arch in Microarch::EVALUATED {
            let opts = CodegenOptions::full(arch.vector_isa());
            let raw = lgen::sigma::compile_program(&program, "k", &opts).kernel;
            for spec in PIPELINE_SPECS {
                let unroll = UnrollPolicy::Full { max_trip: 64 };
                actual += &schedule_lines(label, &raw, arch, spec, unroll);
            }
        }
    }
    check_digest("pipeline_specs.digest", &actual);
}
