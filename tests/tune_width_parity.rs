//! Tuning width parity: a tune on 1, 2 or 4 workers picks byte-identical
//! winners from identical samples, and does the same work — it runs the
//! pass pipeline (`memo_misses`) and validates and measures
//! (`evaluations`) each distinct kernel exactly once, whichever worker
//! gets there first.

#[allow(dead_code)]
mod common;

use common::{paper_families, KALMAN_PREDICT_4};
use lgen::core::{KernelCache, SearchStrategy};
use lgen::prelude::*;
use std::sync::Arc;

const WIDTHS: [usize; 3] = [1, 2, 4];

/// An exhaustive tuner on `threads` workers with a fresh cache.
fn tuner(arch: Microarch, threads: usize) -> (Autotuner, Arc<KernelCache>) {
    let cache = Arc::new(KernelCache::new());
    let tuner = Autotuner::new(CompileConfig::full(arch))
        .with_strategy(SearchStrategy::Exhaustive)
        .with_threads(threads)
        .with_cache(cache.clone());
    (tuner, cache)
}

/// The work counters that must not depend on the width.
fn work(cache: &KernelCache) -> (u64, u64) {
    let s = cache.stats();
    (s.memo_misses, s.evaluations)
}

#[test]
fn blac_tunes_are_width_invariant() {
    for arch in Microarch::EVALUATED {
        for (label, blac) in paper_families().iter().flatten() {
            let runs: Vec<_> = WIDTHS
                .iter()
                .map(|&threads| {
                    let (tuner, cache) = tuner(arch, threads);
                    let t = tuner.tune(blac, label);
                    let c = lgen::cir::unparse::unparse(&t.kernel, arch.vector_isa());
                    (c, t.unroll, t.samples, work(&cache))
                })
                .collect();
            let (_, _, _, (misses, evaluations)) = &runs[0];
            assert!(*evaluations >= 1, "{label} on {arch:?}: nothing evaluated");
            assert!(evaluations <= misses, "{label} on {arch:?}");
            for (run, threads) in runs.iter().zip(WIDTHS).skip(1) {
                assert!(
                    *run == runs[0],
                    "{label} on {arch:?}: {threads} workers differ from 1 \
                     (memo misses, evaluations: {:?} vs {:?})",
                    run.3,
                    runs[0].3
                );
            }
        }
    }
}

#[test]
fn kalman_genome_tune_is_width_invariant() {
    let program = parse_program(KALMAN_PREDICT_4).unwrap();
    let runs: Vec<_> = WIDTHS
        .iter()
        .map(|&threads| {
            let (tuner, cache) = tuner(Microarch::CortexA9, threads);
            let t = tuner.try_tune_program(&program, "kp").unwrap();
            let c = lgen::cir::unparse::unparse(&t.kernel, Microarch::CortexA9.vector_isa());
            (c, t.policies, t.samples, work(&cache))
        })
        .collect();
    assert!(runs[0].3 .1 >= 2, "a genome tune evaluates several kernels");
    for (run, threads) in runs.iter().zip(WIDTHS).skip(1) {
        assert!(
            *run == runs[0],
            "{threads} workers differ from 1 (memo misses, evaluations: {:?} vs {:?})",
            run.3,
            runs[0].3
        );
    }
}
