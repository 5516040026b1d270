//! Benchmarks for the parallel autotuner and the kernel cache: sequential
//! vs parallel tuning of one GEMV/GEMM suite, and cold vs warm cache
//! compilation. Results land in `target/criterion-lite/tune_cache.json`
//! (JSON, via the criterion harness) for cross-commit tracking.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lgen_core::{compile_many, Autotuner, CompileConfig, KernelCache, SearchStrategy};
use lgen_isa::Microarch;
use lgen_ll::paper;
use std::sync::Arc;

const SAMPLE: usize = 16;

fn suite() -> Vec<(lgen_ll::Blac, String)> {
    vec![
        (paper::gemv(4, 32), "gemv_4x32".to_string()),
        (paper::gemm(4, 8, 8), "gemm_4x8x8".to_string()),
        (paper::mvm(8, 24), "mvm_8x24".to_string()),
    ]
}

fn bench_tune(c: &mut Criterion) {
    let jobs = suite();
    let cfg = CompileConfig::full(Microarch::Atom);
    let mut g = c.benchmark_group("autotune");
    g.sample_size(10);
    // Each tune gets a fresh cache so the comparison measures evaluation
    // throughput, not cache warmth.
    g.bench_function(format!("sequential/sample-{SAMPLE}").as_str(), |b| {
        b.iter(|| {
            let tuner = Autotuner::new(cfg.clone())
                .with_strategy(SearchStrategy::Random(SAMPLE))
                .with_threads(1)
                .with_cache(Arc::new(KernelCache::new()));
            black_box(
                jobs.iter()
                    .map(|(blac, name)| tuner.tune(blac, name))
                    .collect::<Vec<_>>(),
            )
        })
    });
    g.bench_function(format!("parallel/sample-{SAMPLE}").as_str(), |b| {
        b.iter(|| {
            let tuner = Autotuner::new(cfg.clone())
                .with_strategy(SearchStrategy::Random(SAMPLE))
                .with_threads(0) // one worker per available core
                .with_cache(Arc::new(KernelCache::new()));
            black_box(
                jobs.iter()
                    .map(|(blac, name)| tuner.tune(blac, name))
                    .collect::<Vec<_>>(),
            )
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let cfg = CompileConfig::full(Microarch::Atom);
    let jobs: Vec<(lgen_ll::Blac, String, CompileConfig)> = suite()
        .into_iter()
        .map(|(blac, name)| (blac, name, cfg.clone()))
        .collect();
    let mut g = c.benchmark_group("kernel-cache");
    g.sample_size(10);
    g.bench_function("cold/compile-suite", |b| {
        b.iter(|| {
            let cache = Arc::new(KernelCache::new());
            black_box(compile_many(&jobs, 1, &cache))
        })
    });
    let warm = Arc::new(KernelCache::new());
    compile_many(&jobs, 1, &warm);
    g.bench_function("warm/compile-suite", |b| {
        b.iter(|| black_box(compile_many(&jobs, 1, &warm)))
    });
    g.finish();
}

fn bench_tune_strategies(c: &mut Criterion) {
    let blac = paper::gemv(4, 48);
    let cfg = CompileConfig::full(Microarch::Atom);
    let mut g = c.benchmark_group("autotune-strategy");
    g.sample_size(10);
    g.bench_function("exhaustive/gemv-4x48", |b| {
        b.iter(|| {
            let tuner = Autotuner::new(cfg.clone()).with_strategy(SearchStrategy::Exhaustive);
            black_box(tuner.tune(&blac, "k"))
        })
    });
    g.bench_function("guided/gemv-4x48", |b| {
        b.iter(|| {
            let tuner = Autotuner::new(cfg.clone()).with_strategy(SearchStrategy::Guided);
            black_box(tuner.tune(&blac, "k"))
        })
    });
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(10)
}

criterion_group!(name = benches; config = quick(); targets = bench_tune, bench_cache, bench_tune_strategies);
criterion_main!(benches);
