//! Integration tests for the C-IR static verifier.
//!
//! Three angles:
//!
//! 1. **Soundness on real output** — the full paper pipeline (all variants
//!    × unrolling policies over a GEMV/GEMM suite, plus the versioning and
//!    peeling paths) verifies clean at `VerifyLevel::EveryPass`.
//! 2. **Mutation coverage** — hand-injected bugs (an out-of-bounds index,
//!    a dropped store to a local) each produce a nonempty diagnostic set.
//! 3. **Autotuner integration** — a corrupt candidate seeded into the
//!    shared kernel cache is rejected (and counted) instead of measured.

use lgen::absint::AffineExpr;
use lgen::cir::passes::UnrollPolicy;
use lgen::cir::{
    verify_kernel, ArrayKind, Check, Inst, Kernel, KernelBuilder, MemMap, VArith, VWidth,
};
use lgen::core::{KernelCache, ProgramCacheKey, SearchStrategy};
use lgen::ll::paper;
use lgen::prelude::*;
use lgen::sigma::CodegenOptions;
use std::sync::Arc;

const POLICIES: [UnrollPolicy; 4] = [
    UnrollPolicy::None,
    UnrollPolicy::Full { max_trip: 8 },
    UnrollPolicy::Full { max_trip: 128 },
    UnrollPolicy::Factor { factor: 2 },
];

fn suite() -> Vec<(lgen::ll::Blac, &'static str)> {
    vec![
        (paper::gemv(4, 12), "gemv"),
        (paper::gemm(4, 8, 4), "gemm"),
        (paper::mvm(4, 24), "mvm"),
        (paper::axpy(23), "axpy"),
        (paper::bilinear(4, 8), "bilinear"),
    ]
}

#[test]
fn paper_pipeline_verifies_clean_at_every_pass() {
    for (blac, name) in &suite() {
        for arch in Microarch::EVALUATED {
            for v in Variant::ALL {
                for policy in POLICIES {
                    let cfg = CompileConfig::variant(arch, v)
                        .with_unroll(policy)
                        .with_verify(VerifyLevel::EveryPass);
                    try_compile(blac, name, &cfg).unwrap_or_else(|e| {
                        panic!("{name} on {arch} ({}) {policy:?}: {e}", v.label())
                    });
                }
            }
        }
    }
}

#[test]
fn versioned_and_peeled_kernels_verify_clean() {
    let blac = paper::gemv(4, 12);
    let base = CompileConfig::full(Microarch::Atom).with_verify(VerifyLevel::EveryPass);
    try_compile(&blac, "versioned", &base.clone().with_versioning()).expect("versioning verifies");
    try_compile(&blac, "peeled", &base.with_peeling()).expect("peeling verifies");
}

#[test]
fn custom_pipeline_specs_verify_clean_at_every_pass() {
    // `--passes` schedules (fixpoint groups, reordered cleanup, dropped
    // passes) run under paranoid verification: every interior pass output
    // must re-prove the verifier's invariants.
    let specs = [
        "unroll,scalrep,repeat(copyprop,dce),align",
        "unroll,copyprop,scalrep,copyprop,dce,align",
        "unroll,copyprop,dce",
    ];
    for (blac, name) in &suite() {
        for spec in specs {
            let cfg = CompileConfig::full(Microarch::Atom)
                .with_passes(PassPipeline::parse(spec).unwrap())
                .with_verify(VerifyLevel::EveryPass);
            try_compile(blac, name, &cfg)
                .unwrap_or_else(|e| panic!("{name} under \"{spec}\": {e}"));
        }
    }
}

/// Adds `bump` to the address constant of the first generic load found
/// (descending into loops). Returns whether a load was mutated.
fn bump_first_load(insts: &mut [Inst], bump: i64) -> bool {
    insts.iter_mut().any(|inst| match inst {
        Inst::GLoad { addr, .. } => {
            addr.constant += bump;
            true
        }
        Inst::Loop { body, .. } => bump_first_load(body, bump),
        _ => false,
    })
}

#[test]
fn injected_oob_index_is_reported() {
    let blac = paper::gemv(4, 12);
    let cfg = CompileConfig::base(Microarch::Atom).with_unroll(UnrollPolicy::None);
    let mut kernel = compile(&blac, "oob", &cfg);
    assert!(
        verify_kernel(&kernel).is_empty(),
        "clean kernel must verify"
    );
    assert!(bump_first_load(kernel.body_mut(), 1000));
    let diags = verify_kernel(&kernel);
    assert!(!diags.is_empty(), "out-of-bounds load must be reported");
    assert!(
        diags.iter().any(|d| d.check == Check::OutOfBounds),
        "expected an oob diagnostic, got:\n{}",
        lgen::cir::render(&diags)
    );
}

/// Removes every store whose destination is a local array (descending into
/// loops), simulating a scalar-replacement/DCE bug that forwarded a store
/// away while a load through the local survived.
fn drop_local_stores(insts: &mut Vec<Inst>, kernel_arrays: &[lgen::cir::ArrayDecl]) {
    insts.retain_mut(|inst| match inst {
        Inst::GStore { arr, .. } => kernel_arrays[arr.0].kind != ArrayKind::Local,
        Inst::Loop { body, .. } => {
            drop_local_stores(body, kernel_arrays);
            true
        }
        _ => true,
    });
}

fn loads_a_local(insts: &[Inst], kernel_arrays: &[lgen::cir::ArrayDecl]) -> bool {
    insts.iter().any(|inst| match inst {
        Inst::GLoad { arr, .. } => kernel_arrays[arr.0].kind == ArrayKind::Local,
        Inst::Loop { body, .. } => loads_a_local(body, kernel_arrays),
        _ => false,
    })
}

#[test]
fn dropped_local_store_is_reported() {
    // Raw codegen of a computation chain keeps the store→load traffic
    // through local temporaries that the optimizer would normally remove
    // (`bilinear` = x^T A y lowers through a local between its codelets).
    let blac = paper::bilinear(4, 8);
    let opts = CodegenOptions::full(Microarch::Atom.vector_isa());
    let mut kernel = lgen::sigma::compile_blac(&blac, "chain", &opts);
    let arrays = kernel.arrays.clone();
    assert!(
        loads_a_local(kernel.body(), &arrays),
        "test premise: raw chain kernel reads a local temporary"
    );
    assert!(verify_kernel(&kernel).is_empty(), "raw kernel must verify");
    drop_local_stores(kernel.body_mut(), &arrays);
    let diags = verify_kernel(&kernel);
    assert!(
        diags.iter().any(|d| d.check == Check::LocalDataflow),
        "expected a local-dataflow diagnostic, got:\n{}",
        lgen::cir::render(&diags)
    );
}

#[test]
fn use_before_def_is_reported() {
    let mut b = KernelBuilder::new("ubd");
    let x = b.input("x", 4);
    let y = b.output("y", 4);
    let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
    let ghost = b.fresh_reg(); // never defined
    let sum = b.arith(VArith::Add(VWidth::Q), v, ghost);
    b.store(sum, y, AffineExpr::constant(0), MemMap::horizontal(4));
    let kernel = b.finish(4);
    let diags = verify_kernel(&kernel);
    assert!(
        diags.iter().any(|d| d.check == Check::UseBeforeDef),
        "expected a use-before-def diagnostic, got:\n{}",
        lgen::cir::render(&diags)
    );
}

#[test]
fn autotuner_rejects_corrupt_cached_candidate() {
    let blac = paper::gemv(4, 12);
    let cfg = CompileConfig::full(Microarch::Atom).with_verify(VerifyLevel::Boundaries);
    let cache = Arc::new(KernelCache::new());

    // Poison exactly one candidate's cache slot with an out-of-bounds
    // kernel; the tuner must reject it instead of measuring it.
    let poisoned = cfg.clone().with_unroll(UnrollPolicy::None);
    let mut corrupt: Kernel = (*cache.get_or_compile(&blac, "k", &poisoned)).clone();
    assert!(bump_first_load(corrupt.body_mut(), 1000));
    cache.insert(
        ProgramCacheKey {
            program: Program::from(&blac),
            name: "k".to_string(),
            cfg: poisoned,
            policies: None,
        },
        Arc::new(corrupt),
    );

    let tuned = Autotuner::new(cfg.clone())
        .with_strategy(SearchStrategy::Exhaustive)
        .with_cache(cache.clone())
        .tune(&blac, "k");
    let space = Autotuner::search_space().len();
    assert_eq!(tuned.rejected, 1, "exactly the poisoned candidate");
    assert_eq!(tuned.samples.len(), space - 1);
    assert_ne!(
        tuned.unroll,
        UnrollPolicy::None,
        "corrupt candidate cannot win"
    );
    assert_eq!(cache.stats().verify_rejects, 1);
    assert!(verify_kernel(&tuned.kernel).is_empty(), "winner verifies");
    // The rejection is not cached: retuning re-checks (and re-rejects).
    let again = Autotuner::new(cfg)
        .with_strategy(SearchStrategy::Exhaustive)
        .with_cache(cache.clone())
        .tune(&blac, "k");
    assert_eq!(again.rejected, 1);
    assert_eq!(cache.stats().verify_rejects, 2);
}
