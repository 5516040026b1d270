//! Golden-file tests of the C unparser: the emitted C for a fixed kernel is
//! part of the public contract (users read and compile it), so changes must
//! be deliberate.
//!
//! To regenerate after an intentional change:
//! `LGEN_BLESS=1 cargo test --test golden_c`.

mod common;

use common::{
    arch_name, check_digest, fnv1a, paper_families, versioning_is_small, KALMAN_PREDICT_4, PROGRAMS,
};
use lgen::prelude::*;

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
