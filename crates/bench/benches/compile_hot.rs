//! Hot-path compile benchmarks with allocation accounting.
//!
//! Three shapes the arena/memoization and emission work targets: a
//! single-kernel compile served from the warm kernel cache, a 32-candidate
//! tuning sweep against a warm cache (the cross-candidate subtree memo's
//! steady state), and C emission into a warm buffer. A counting global
//! allocator asserts the hot paths stay within an allocation budget — the
//! point of the arena-backed C-IR is that a served compile does not
//! rebuild the IR, a memoized sweep allocates per *distinct* decision
//! vector, not per candidate, and unparsing allocates nothing at all.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lgen_cir::unparse::unparse_into;
use lgen_core::{compile, compile_program, Autotuner, CompileConfig, KernelCache, SearchStrategy};
use lgen_isa::Microarch;
use lgen_ll::{paper, parse_program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every heap allocation made through the global allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

fn bench_compile_hot(c: &mut Criterion) {
    let blac = paper::gemv(4, 8);
    let cfg = CompileConfig::full(Microarch::Atom);
    let cache = KernelCache::new();
    cache
        .try_get_or_compile(&blac, "k", &cfg)
        .expect("seed compile");

    // A served compile is a fingerprint + map probe: it must not rebuild
    // or re-walk the C-IR. The budget is ~2x the measured count so the
    // assert flags an accidental clone of the kernel body, not noise.
    let ((), hit_allocs) = allocs_during(|| {
        let kernel = cache
            .try_get_or_compile(&blac, "k", &cfg)
            .expect("warm compile");
        black_box(kernel);
    });
    assert_eq!(cache.stats().hits, 1, "second compile must be a cache hit");
    assert!(
        hit_allocs <= 64,
        "cache-hit compile made {hit_allocs} allocations (budget 64)"
    );

    let mut g = c.benchmark_group("compile-hot");
    g.sample_size(20);
    g.bench_function("hit/gemv-4x8", |b| {
        b.iter(|| black_box(cache.try_get_or_compile(&blac, "k", &cfg)))
    });
    g.finish();
}

fn bench_sweep_32(c: &mut Criterion) {
    let blac = paper::gemv(4, 8);
    let cfg = CompileConfig::full(Microarch::Atom);
    let cache = Arc::new(KernelCache::new());
    let sweep = |cache: &Arc<KernelCache>| {
        // Random(32) over the 90-point unroll x pass-schedule space: a
        // 32-candidate sweep, every compile flowing through the subtree
        // memo once the cache is warm.
        Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Random(32))
            .with_pipeline_search()
            .with_threads(1)
            .with_cache(Arc::clone(cache))
            .tune(&blac, "k")
    };

    // Warm every decision vector (the random strategy reshuffles, so one
    // full-space pass warms all 90), then budget the steady state.
    let full = Autotuner::new(cfg.clone())
        .with_strategy(SearchStrategy::Exhaustive)
        .with_pipeline_search()
        .with_threads(1)
        .with_cache(Arc::clone(&cache))
        .tune(&blac, "k");
    assert!(
        full.samples.len() >= 32,
        "search space smaller than a sweep"
    );

    let (tuned, sweep_allocs) = allocs_during(|| sweep(&cache));
    assert_eq!(tuned.samples.len(), 32, "expected a 32-candidate sweep");
    // Warm sweeps still allocate per candidate (measurement buffers,
    // sample bookkeeping) but must not re-lower or re-optimize: the
    // budget of ~200 allocations/candidate holds only when compiles are
    // served and equivalent candidates share one memoized kernel.
    let budget = 200 * tuned.samples.len() as u64;
    assert!(
        sweep_allocs <= budget,
        "warm 32-candidate sweep made {sweep_allocs} allocations (budget {budget})"
    );

    let mut g = c.benchmark_group("compile-hot");
    g.sample_size(10);
    g.bench_function("sweep-32/gemv-4x8", |b| b.iter(|| black_box(sweep(&cache))));
    g.finish();
}

fn bench_unparse(c: &mut Criterion) {
    let gemv = paper::gemv(4, 8);
    let mut kernels: Vec<(&str, _, _)> = [
        ("gemv-4x8-ssse3", Microarch::Atom),
        ("gemv-4x8-neon", Microarch::CortexA8),
        ("gemv-4x8-scalar", Microarch::Arm1176),
    ]
    .into_iter()
    .map(|(label, arch)| {
        let kernel = compile(&gemv, "sgemv_4x8", &CompileConfig::full(arch));
        (label, kernel, arch.vector_isa())
    })
    .collect();
    let kalman = parse_program(
        "F = matrix(4, 4)\nB = matrix(4, 2)\nu = vector(2)\nx = vector(4)\n\
         x_next = vector(4)\nP = matrix(4, 4) symmetric\nQ = matrix(4, 4) symmetric\n\
         P_next = matrix(4, 4)\n\
         x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;",
    )
    .expect("kalman parses");
    let atom = CompileConfig::full(Microarch::Atom);
    let compiled = compile_program(&kalman, "kalman_predict_4", &atom);
    kernels.push(("kalman-4-ssse3", compiled.kernel, atom.arch.vector_isa()));

    // Warm one buffer to the largest render, then render everything
    // again: lowering is inline and tokens are written in place, so a
    // warm render makes no heap allocation at all.
    let mut buf = String::new();
    for (_, kernel, isa) in &kernels {
        unparse_into(kernel, *isa, &mut buf);
    }
    let ((), allocs) = allocs_during(|| {
        for (_, kernel, isa) in &kernels {
            unparse_into(kernel, *isa, &mut buf);
            black_box(&buf);
        }
    });
    assert_eq!(allocs, 0, "warm unparse_into made {allocs} allocations");

    let mut g = c.benchmark_group("compile-hot");
    g.sample_size(20);
    for (label, kernel, isa) in &kernels {
        g.bench_function(format!("unparse/{label}"), |b| {
            b.iter(|| {
                unparse_into(kernel, *isa, &mut buf);
                black_box(buf.len())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_compile_hot, bench_sweep_32, bench_unparse);
criterion_main!(benches);
