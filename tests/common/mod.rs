//! The kernel corpus shared by the golden tests: every paper BLAC family
//! at a micro, a leftover and a panel size, and the multi-statement
//! programs.

use lgen::prelude::*;

/// The Kalman predict step over 4-vectors with symmetric covariances.
pub const KALMAN_PREDICT_4: &str =
    "F = matrix(4, 4)\nB = matrix(4, 2)\nu = vector(2)\nx = vector(4)\n\
    x_next = vector(4)\nP = matrix(4, 4) symmetric\nQ = matrix(4, 4) symmetric\n\
    P_next = matrix(4, 4)\n\
    x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;";

/// Per family: `(label, BLAC)` at a micro, a leftover and a panel size.
pub fn paper_families() -> [[(&'static str, Blac); 3]; 10] {
    use lgen::ll::paper;
    [
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
    ]
}

/// `(label, LL source)` of the Kalman, triangular and chain programs.
pub const PROGRAMS: [(&str, &str); 5] = [
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

/// Whether versioning `blac` stays small: it makes 4^a + 1 bodies over
/// the `a` vector-sized operands, and a <= 2 keeps a corpus small.
pub fn versioning_is_small(blac: &Blac) -> bool {
    let vector_sized = blac
        .operands
        .iter()
        .filter(|o| o.dims.rows * o.dims.cols >= 4)
        .count();
    vector_sized <= 2
}

/// FNV-1a, 64-bit: a stable digest for one corpus line.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

pub fn arch_name(arch: Microarch) -> &'static str {
    match arch {
        Microarch::Atom => "atom",
        Microarch::CortexA8 => "a8",
        Microarch::CortexA9 => "a9",
        Microarch::Arm1176 => "arm1176",
        other => unreachable!("only the evaluated cores are in a corpus, not {other:?}"),
    }
}

/// Checks `actual` (one `<name> <digest>` line per kernel) against the
/// digest file `tests/golden/<file>`, or rewrites it under `LGEN_BLESS`.
/// A mismatch names the kernels whose lines changed.
pub fn check_digest(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("LGEN_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
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
        "{file} mismatch ({} expected, {} rendered) for: {}; LGEN_BLESS=1 to regenerate",
        want.len(),
        got.len(),
        mismatched.join(", ")
    );
}

/// `(label, LL source)` of the pass-schedule program families: Kalman
/// predict at n = 4 and 8, triangular apply (lower and upper) and the
/// `t = A*x; y = A*t` chain. Their fused kernels keep local temporaries,
/// so liveness flows register → local store → load → parameter store,
/// the case DCE has to chase across statements.
#[allow(dead_code)] // not every test binary sweeps schedules
pub fn program_families() -> Vec<(&'static str, String)> {
    let kalman = |n: usize| {
        let m = (n / 2).max(1);
        format!(
            "F = matrix({n}, {n})\nB = matrix({n}, {m})\nu = vector({m})\nx = vector({n})\n\
             x_next = vector({n})\nP = matrix({n}, {n}) symmetric\n\
             Q = matrix({n}, {n}) symmetric\nP_next = matrix({n}, {n})\n\
             x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;\n"
        )
    };
    let triangular = |n: usize, side: &str| {
        format!(
            "L = matrix({n}, {n}) triangular({side})\nx = vector({n})\ny = vector({n})\n\
             t = L * x;\ny = L' * t;\n"
        )
    };
    let chain = |n: usize| {
        format!("A = matrix({n}, {n})\nx = vector({n})\ny = vector({n})\nt = A * x;\ny = A * t;\n")
    };
    vec![
        ("kalman_4", kalman(4)),
        ("kalman_8", kalman(8)),
        ("triangular_lower_8", triangular(8, "lower")),
        ("triangular_upper_5", triangular(5, "upper")),
        ("chain_6", chain(6)),
    ]
}

/// The pass schedules the schedule sweeps run: the standard order,
/// fixpoint-cleanup variants, re-ordered cleanup, and schedules with a
/// pass dropped (`align`, `scalrep`).
#[allow(dead_code)] // not every test binary sweeps schedules
pub const PIPELINE_SPECS: [&str; 6] = [
    "unroll,scalrep,copyprop,dce,align",
    "unroll,scalrep,repeat(copyprop,dce),align",
    "unroll,copyprop,scalrep,copyprop,dce,align",
    "unroll,scalrep,copyprop,dce",
    "unroll,copyprop,dce,align",
    "unroll,repeat(scalrep,copyprop,dce)",
];
