//! Parity of the tuner's settings. A tune through a shared `KernelCache`
//! on two workers and a one-worker tune without a cache, which keys its
//! candidates with a compile memo of its own, settle every candidate the
//! same way: for each search strategy the two agree on the winner's C,
//! every sample, the measurement, the pruning count and correlation, and every
//! failure with its reason. So does a verifying tune, cached or not. And
//! a random sample that covers every distinct kernel is the exhaustive
//! search.

#[allow(dead_code)]
mod common;

use common::{paper_families, KALMAN_PREDICT_4, PROGRAMS};
use lgen::core::{Autotuner, FaultPlan, KernelCache, Objective, PrunePolicy, SearchStrategy};
use lgen::prelude::*;
use std::sync::Arc;

/// The strategies of the `tune_strategies` digest that the cache can
/// change, plus an exhaustive search with a panicking and a corrupt
/// candidate.
fn settings(cfg: &CompileConfig) -> [(&'static str, Autotuner); 7] {
    use SearchStrategy::{Exhaustive, Guided, Random};
    let tuner = |strategy| {
        Autotuner::new(cfg.clone())
            .with_strategy(strategy)
            .with_faults(FaultPlan::none())
    };
    [
        ("exhaustive", tuner(Exhaustive)),
        ("random10", tuner(Random(10))),
        ("guided", tuner(Guided)),
        ("guided_passes", tuner(Guided).with_pipeline_search()),
        ("topk4", tuner(Random(10)).with_prune(PrunePolicy::TopK(4))),
        (
            "frac0.3_edp",
            tuner(Random(10))
                .with_prune(PrunePolicy::Frac(0.3))
                .with_objective(Objective::EnergyDelay),
        ),
        (
            "exhaustive_faults",
            tuner(Exhaustive).with_faults(FaultPlan::none().panic_at(1).corrupt_at(2)),
        ),
    ]
}

/// Everything a tune (a `TunedKernel` or `TunedProgram`) reports that the
/// cache and verification must not change.
macro_rules! record {
    ($tuned:expr, $isa:expr) => {{
        let t = $tuned.unwrap();
        let c = lgen::cir::unparse::unparse(&t.kernel, $isa);
        let samples: Vec<String> = t.samples.iter().map(|s| format!("{s:?}")).collect();
        let (m, spec) = (t.measurement, t.pipeline.to_spec());
        let rest = format!("{m:?} {spec} {} {:?}", t.pruned, t.rank_correlation);
        let failures: Vec<String> = t.failures.iter().map(ToString::to_string).collect();
        (c, samples, rest, failures)
    }};
}

#[test]
fn cached_and_uncached_tunes_settle_every_candidate_alike() {
    let families = paper_families();
    let blacs = [(0, 1), (1, 0), (3, 1), (3, 2), (5, 1), (7, 0)].map(|(f, i)| &families[f][i]);
    let programs = [("kp", KALMAN_PREDICT_4), PROGRAMS[3], PROGRAMS[4]]
        .map(|(label, src)| (label, parse_program(src).unwrap()));
    for arch in Microarch::EVALUATED {
        let isa = arch.vector_isa();
        let full = CompileConfig::full(arch);
        let verified = settings(&full.clone().with_verify(VerifyLevel::Boundaries));
        for ((setting, tuner), (_, verified)) in settings(&full).into_iter().zip(verified) {
            let cache = || Arc::new(KernelCache::new());
            let cached = tuner.clone().with_threads(2).with_cache(cache());
            let others = [cached, verified.clone(), verified.with_cache(cache())];
            for (label, blac) in blacs {
                let want = record!(tuner.try_tune(blac, label), isa);
                for other in &others {
                    let got = record!(other.try_tune(blac, label), isa);
                    assert_eq!(got, want, "{label} {setting} on {arch:?}");
                }
            }
            for (label, program) in &programs {
                let want = record!(tuner.try_tune_program(program, label), isa);
                for other in &others {
                    let got = record!(other.try_tune_program(program, label), isa);
                    assert_eq!(got, want, "{label} {setting} on {arch:?}");
                }
            }
        }
    }
}

#[test]
fn a_sample_of_every_kernel_is_the_exhaustive_search() {
    // Over the paper families on every core: wherever `Random(10)` can
    // take every distinct kernel, it returns the exhaustive winner byte
    // for byte, samples included.
    let mut covered = 0;
    for arch in Microarch::EVALUATED {
        for (label, blac) in paper_families().iter().flatten() {
            let cache = Arc::new(KernelCache::new());
            let tuner = |strategy| {
                Autotuner::new(CompileConfig::full(arch))
                    .with_strategy(strategy)
                    .with_cache(cache.clone())
            };
            let exhaustive = tuner(SearchStrategy::Exhaustive).tune(blac, label);
            if exhaustive.samples.len() > 10 {
                continue;
            }
            covered += 1;
            let random = tuner(SearchStrategy::Random(10)).tune(blac, label);
            let c = |t: &lgen::core::TunedKernel| {
                let c = lgen::cir::unparse::unparse(&t.kernel, arch.vector_isa());
                (c, t.unroll, t.samples.clone(), t.measurement)
            };
            assert_eq!(c(&random), c(&exhaustive), "{label} on {arch:?}");
        }
    }
    assert!(covered > 0, "no input has at most 10 kernels");
}
