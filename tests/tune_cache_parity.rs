//! Cache parity of the tuner: a tune through a shared `KernelCache` on two
//! workers, whose compile memo collapses candidates that make the same
//! kernel, and a one-worker tune without a cache, where every candidate
//! compiles and is evaluated on its own, settle every candidate the same
//! way. For each search strategy the two agree on the winner's C, every
//! sample, the measurement, the pruning count and audit, and every
//! failure with its reason.

#[allow(dead_code)]
mod common;

use common::{paper_families, KALMAN_PREDICT_4};
use lgen::core::{
    Autotuner, CandidateFailure, FaultPlan, KernelCache, Objective, PrunePolicy, SearchStrategy,
};
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
            tuner(Exhaustive).with_faults(FaultPlan::none().panic_at(1).corrupt_at(3)),
        ),
    ]
}

fn reasons(failures: &[CandidateFailure]) -> Vec<String> {
    failures.iter().map(ToString::to_string).collect()
}

/// Everything a tune reports that the cache must not change.
type Record = (String, Vec<String>, String, usize, Option<f64>, Vec<String>);

#[test]
fn cached_and_uncached_tunes_settle_every_candidate_alike() {
    let families = paper_families();
    let blacs = [
        &families[0][1],
        &families[1][0],
        &families[3][2],
        &families[5][1],
        &families[7][0],
    ];
    let kalman = parse_program(KALMAN_PREDICT_4).unwrap();
    for arch in Microarch::EVALUATED {
        let isa = arch.vector_isa();
        for (setting, tuner) in settings(&CompileConfig::full(arch)) {
            let cached = tuner
                .clone()
                .with_threads(2)
                .with_cache(Arc::new(KernelCache::new()));
            for (label, blac) in blacs {
                let run = |t: &Autotuner| -> Record {
                    let t = t.try_tune(blac, label).unwrap();
                    (
                        lgen::cir::unparse::unparse(&t.kernel, isa),
                        t.samples.iter().map(|s| format!("{s:?}")).collect(),
                        format!("{:?} {}", t.measurement, t.pipeline.to_spec()),
                        t.pruned,
                        t.rank_correlation,
                        reasons(&t.failures),
                    )
                };
                assert_eq!(run(&cached), run(&tuner), "{label} {setting} on {arch:?}");
            }
            let run = |t: &Autotuner| -> Record {
                let t = t.try_tune_program(&kalman, "kp").unwrap();
                (
                    lgen::cir::unparse::unparse(&t.kernel, isa),
                    t.samples.iter().map(|s| format!("{s:?}")).collect(),
                    format!("{:?} {}", t.measurement, t.pipeline.to_spec()),
                    t.pruned,
                    t.rank_correlation,
                    reasons(&t.failures),
                )
            };
            assert_eq!(run(&cached), run(&tuner), "kalman {setting} on {arch:?}");
        }
    }
}
