//! Golden-file tests of the C unparser: the emitted C for a fixed kernel is
//! part of the public contract (users read and compile it), so changes must
//! be deliberate.
//!
//! To regenerate after an intentional change:
//! `LGEN_BLESS=1 cargo test --test golden_c`.

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

/// The Kalman predict step over 4-vectors with symmetric covariances.
const KALMAN_PREDICT_4: &str = "F = matrix(4, 4)\nB = matrix(4, 2)\nu = vector(2)\nx = vector(4)\n\
    x_next = vector(4)\nP = matrix(4, 4) symmetric\nQ = matrix(4, 4) symmetric\n\
    P_next = matrix(4, 4)\n\
    x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;";

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

/// FNV-1a, 64-bit: a stable digest for one rendered kernel.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn arch_name(arch: Microarch) -> &'static str {
    match arch {
        Microarch::Atom => "atom",
        Microarch::CortexA8 => "a8",
        Microarch::CortexA9 => "a9",
        Microarch::Arm1176 => "arm1176",
        other => unreachable!("only the evaluated cores are rendered, not {other:?}"),
    }
}

/// Every paper BLAC at a micro, a leftover and a panel size, plus the
/// peeled and alignment-versioned variants and the multi-statement
/// programs, on every evaluated core under the base and full variants:
/// `(kernel name, rendered C)`.
fn unparse_corpus() -> Vec<(String, String)> {
    use lgen::ll::paper;
    // Per family: a micro, a leftover and a panel size.
    let families: [[(&str, Blac); 3]; 10] = [
        [
            ("mvm_3x3", paper::mvm(3, 3)),
            ("mvm_5x7", paper::mvm(5, 7)),
            ("mvm_4x23", paper::mvm(4, 23)),
        ],
        [
            ("mmm_3x3x3", paper::mmm(3, 3, 3)),
            ("mmm_5x6x7", paper::mmm(5, 6, 7)),
            ("mmm_4x4x23", paper::mmm(4, 4, 23)),
        ],
        [
            ("axpy_3", paper::axpy(3)),
            ("axpy_7", paper::axpy(7)),
            ("axpy_23", paper::axpy(23)),
        ],
        [
            ("gemv_3x3", paper::gemv(3, 3)),
            ("gemv_5x7", paper::gemv(5, 7)),
            ("gemv_4x23", paper::gemv(4, 23)),
        ],
        [
            ("gemm_3x3x3", paper::gemm(3, 3, 3)),
            ("gemm_5x6x7", paper::gemm(5, 6, 7)),
            ("gemm_4x23x4", paper::gemm(4, 23, 4)),
        ],
        [
            ("two_gemv_3x3", paper::two_gemv(3, 3)),
            ("two_gemv_5x7", paper::two_gemv(5, 7)),
            ("two_gemv_4x23", paper::two_gemv(4, 23)),
        ],
        [
            ("bilinear_3x3", paper::bilinear(3, 3)),
            ("bilinear_5x7", paper::bilinear(5, 7)),
            ("bilinear_4x23", paper::bilinear(4, 23)),
        ],
        [
            ("addt_gemm_3x3x3", paper::addt_gemm(3, 3, 3)),
            ("addt_gemm_7x5x6", paper::addt_gemm(7, 5, 6)),
            ("addt_gemm_23x4x4", paper::addt_gemm(23, 4, 4)),
        ],
        [
            ("madd_3x3", paper::madd(3, 3)),
            ("madd_5x7", paper::madd(5, 7)),
            ("madd_4x23", paper::madd(4, 23)),
        ],
        [
            ("transpose_3x3", paper::transpose(3, 3)),
            ("transpose_5x7", paper::transpose(5, 7)),
            ("transpose_4x23", paper::transpose(4, 23)),
        ],
    ];
    let programs = [
        ("kalman_4", KALMAN_PREDICT_4),
        (
            "kalman_3",
            "F = matrix(3, 3)\nB = matrix(3, 1)\nu = vector(1)\nx = vector(3)\n\
             x_next = vector(3)\nP = matrix(3, 3) symmetric\nQ = matrix(3, 3) symmetric\n\
             P_next = matrix(3, 3)\n\
             x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;",
        ),
        (
            "triangular_lower_6",
            "L = matrix(6, 6) triangular(lower)\nx = vector(6)\ny = vector(6)\n\
             t = L * x;\ny = L' * t;",
        ),
        (
            "triangular_upper_5",
            "L = matrix(5, 5) triangular(upper)\nx = vector(5)\ny = vector(5)\n\
             t = L * x;\ny = L' * t;",
        ),
        (
            "chain_7",
            "A = matrix(7, 7)\nx = vector(7)\ny = vector(7)\nt = A * x;\ny = A * t;",
        ),
    ];
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
            for (label, src) in &programs {
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
            // Versioning makes 4^a + 1 bodies over the `a` vector-sized
            // operands; a <= 2 keeps the corpus small.
            let vector_sized = blac
                .operands
                .iter()
                .filter(|o| o.dims.rows * o.dims.cols >= 4)
                .count();
            if vector_sized <= 2 {
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
    let path = format!(
        "{}/tests/golden/unparse_corpus.digest",
        env!("CARGO_MANIFEST_DIR")
    );
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
    if std::env::var_os("LGEN_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with LGEN_BLESS=1)"));
    let want: Vec<&str> = expected.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let mismatched: Vec<String> = got
        .iter()
        .filter(|line| !want.contains(line))
        .map(|line| line.split(' ').next().unwrap_or(line).to_string())
        .collect();
    assert!(
        mismatched.is_empty() && want.len() == got.len(),
        "unparse corpus mismatch ({} expected, {} rendered) for: {}; LGEN_BLESS=1 to regenerate",
        want.len(),
        got.len(),
        mismatched.join(", ")
    );
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
