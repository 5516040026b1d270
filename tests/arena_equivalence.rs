//! Differential pinning of the arena pass pipeline to the tree-walking
//! reference: for random BLACs, the benchmark's multi-statement program
//! families, unroll decisions, and every pipeline spec the schedule sweep
//! exercises, `PassPipeline::run` (one tree→arena conversion, linear
//! index sweeps, one conversion back) must produce a kernel whose
//! unparsed C is byte-identical to `PassPipeline::run_reference`
//! (clone-and-rebuild rewrites over boxed `Inst` trees), and whose
//! verifier diagnostics render identically. Every point runs a second
//! time under a `PassTrace` sink and `VerifyLevel::EveryPass`: the
//! per-pass snapshots and verdicts the observers see must agree too.

use lgen::cir::passes::UnrollPolicy;
use lgen::cir::unparse::unparse;
use lgen::cir::{
    render, verify_kernel, Kernel, PassCtx, PassPipeline, PassTrace, VerifyFailure, VerifyLevel,
};
use lgen::ll::Blac;
use lgen::ll::{paper, parse_program};
use lgen::prelude::*;
use lgen::sigma::CodegenOptions;
use proptest::prelude::*;

/// The same schedules `tests/passes_preserve.rs` sweeps: standard order,
/// fixpoint-cleanup variants, and schedules with a pass dropped.
const PIPELINE_SPECS: [&str; 6] = [
    "unroll,scalrep,copyprop,dce,align",
    "unroll,scalrep,repeat(copyprop,dce),align",
    "unroll,copyprop,scalrep,copyprop,dce,align",
    "unroll,scalrep,copyprop,dce",
    "unroll,copyprop,dce,align",
    "unroll,repeat(scalrep,copyprop,dce)",
];

fn raw_kernel(blac: &Blac, arch: Microarch) -> Kernel {
    lgen::sigma::compile_blac(blac, "k", &CodegenOptions::full(arch.vector_isa()))
}

/// Runs one (kernel, spec, unroll) point through both pipeline
/// implementations and asserts C output and diagnostics agree byte for
/// byte.
fn assert_equivalent(blac: &Blac, arch: Microarch, spec: &str, unroll: UnrollPolicy) {
    assert_kernel_equivalent("blac", &raw_kernel(blac, arch), arch, spec, unroll);
}

/// [`assert_equivalent`] on an already lowered kernel; `label` names it
/// in failure messages.
fn assert_kernel_equivalent(
    label: &str,
    raw: &Kernel,
    arch: Microarch,
    spec: &str,
    unroll: UnrollPolicy,
) {
    let pipeline = PassPipeline::parse(spec).expect("spec is legal");
    let ctx = PassCtx::new(unroll);

    let mut arena_kernel = raw.clone();
    pipeline
        .run(&mut arena_kernel, &ctx)
        .expect("arena pipeline runs");

    let mut reference_kernel = raw.clone();
    pipeline
        .run_reference(&mut reference_kernel, &ctx)
        .expect("reference pipeline runs");

    let isa = arch.vector_isa();
    assert_eq!(
        unparse(&arena_kernel, isa),
        unparse(&reference_kernel, isa),
        "{label} on {arch}, spec \"{spec}\", {unroll:?}: arena and reference C differ"
    );
    assert_eq!(
        render(&verify_kernel(&arena_kernel)),
        render(&verify_kernel(&reference_kernel)),
        "{label} on {arch}, spec \"{spec}\", {unroll:?}: verifier diagnostics differ"
    );

    // Observed: `run` writes the arena back after every pass for the
    // trace and the between-pass verifier; both must see what the tree
    // oracle sees, pass for pass.
    let observe = |run: fn(&PassPipeline, &mut Kernel, &PassCtx) -> Result<(), VerifyFailure>| {
        let trace = PassTrace::new();
        let ctx = PassCtx {
            verify: VerifyLevel::EveryPass,
            isa,
            trace: Some(&trace),
            ..PassCtx::new(unroll)
        };
        let verdict = run(&pipeline, &mut raw.clone(), &ctx)
            .map_err(|f| format!("after {}: {}", f.pass, render(&f.diagnostics)));
        (trace.snapshots(), verdict)
    };
    let (arena_snaps, arena_verdict) = observe(PassPipeline::run);
    let (reference_snaps, reference_verdict) = observe(PassPipeline::run_reference);
    assert_eq!(
        arena_snaps
            .iter()
            .map(|(stage, _)| stage)
            .collect::<Vec<_>>(),
        reference_snaps
            .iter()
            .map(|(stage, _)| stage)
            .collect::<Vec<_>>(),
        "{label} on {arch}, spec \"{spec}\", {unroll:?}: observed stages differ"
    );
    for ((stage, arena_ir), (_, reference_ir)) in arena_snaps.iter().zip(&reference_snaps) {
        assert_eq!(
            arena_ir, reference_ir,
            "{label} on {arch}, spec \"{spec}\", {unroll:?}: IR after {stage} differs"
        );
    }
    assert_eq!(
        arena_verdict, reference_verdict,
        "{label} on {arch}, spec \"{spec}\", {unroll:?}: between-pass verdicts differ"
    );
}

#[test]
fn arena_matches_reference_on_the_paper_suite() {
    let suite = [
        paper::mvm(5, 9),
        paper::gemv(6, 10),
        paper::gemm(4, 8, 4),
        paper::bilinear(5, 7),
        paper::addt_gemm(6, 4, 5),
        paper::axpy(19),
        paper::transpose(6, 5),
    ];
    for blac in &suite {
        for arch in [Microarch::Atom, Microarch::CortexA8] {
            for spec in PIPELINE_SPECS {
                assert_equivalent(blac, arch, spec, UnrollPolicy::Full { max_trip: 16 });
            }
        }
    }
}

/// The benchmark's program families (Kalman predict, triangular apply,
/// the `t = A*x; y = A*t` chain). Their fused kernels keep local
/// temporaries, so liveness flows register → local store → load →
/// parameter store, the case DCE has to chase across statements.
fn program_sources() -> Vec<(&'static str, String)> {
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
        ("kalman 4", kalman(4)),
        ("kalman 8", kalman(8)),
        ("triangular lower 8", triangular(8, "lower")),
        ("triangular upper 5", triangular(5, "upper")),
        ("chain 6", chain(6)),
    ]
}

#[test]
fn arena_matches_reference_on_programs() {
    for (label, source) in program_sources() {
        let program = parse_program(&source).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        for arch in Microarch::EVALUATED {
            let opts = CodegenOptions::full(arch.vector_isa());
            let raw = lgen::sigma::compile_program(&program, "k", &opts).kernel;
            for spec in PIPELINE_SPECS {
                let unroll = UnrollPolicy::Full { max_trip: 64 };
                assert_kernel_equivalent(label, &raw, arch, spec, unroll);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random BLACs x the 6 pipeline specs: the arena pipeline is
    /// byte-equivalent to the reference on arbitrary shapes, backends,
    /// and unroll decisions.
    #[test]
    fn arena_matches_reference_on_random_blacs(
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..10,
        arch_pick in 0usize..4,
        full_trip in 1usize..40,
        spec_pick in 0usize..PIPELINE_SPECS.len(),
        kind in 0usize..4,
    ) {
        let arch = Microarch::EVALUATED[arch_pick];
        let spec = PIPELINE_SPECS[spec_pick];
        let unroll = UnrollPolicy::Full { max_trip: full_trip };
        let blac = match kind {
            0 => paper::mmm(m, k, n),
            1 => paper::gemv(m, n),
            2 => paper::gemm(m, k, n),
            _ => paper::axpy(m * n),
        };
        assert_equivalent(&blac, arch, spec, unroll);
    }

    /// Factor unrolling takes different legality paths in the two
    /// implementations; they must still agree byte for byte.
    #[test]
    fn arena_matches_reference_under_factor_unrolling(
        n in 2usize..64,
        factor in 2usize..9,
        arch_pick in 0usize..4,
        spec_pick in 0usize..PIPELINE_SPECS.len(),
    ) {
        let arch = Microarch::EVALUATED[arch_pick];
        assert_equivalent(
            &paper::axpy(n),
            arch,
            PIPELINE_SPECS[spec_pick],
            UnrollPolicy::Factor { factor },
        );
    }
}
