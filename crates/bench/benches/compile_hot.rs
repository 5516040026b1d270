//! Hot-path compile benchmarks with allocation accounting.
//!
//! The shapes the arena/memoization and emission work targets: a
//! single-kernel compile served from the warm kernel cache, a 32-candidate
//! tuning sweep against a warm cache (the cross-candidate subtree memo's
//! steady state), cold compiles of the slowest kinds of input, and C
//! emission into a warm buffer. A counting global allocator asserts the
//! hot paths stay within an allocation budget — the point of the
//! arena-backed C-IR is that a served compile does not rebuild the IR, a
//! memoized sweep allocates per *distinct* decision vector, not per
//! candidate, a cold compile never converts its IR, dead-code elimination
//! allocates its tables once rather than per round, and unparsing
//! allocates nothing at all. Evaluating a tuning
//! candidate (validate, then measure) allocates per run and per static
//! instruction, never per dynamic instruction, and a program tune runs the pass pipeline once
//! per distinct kernel, not once per genome.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lgen_cir::arena::dce_block;
use lgen_cir::unparse::unparse_into;
use lgen_cir::Kernel;
use lgen_core::{
    compile, compile_program, try_compile, try_compile_program, Autotuner, CompileConfig,
    Evaluator, KernelCache, SearchStrategy,
};
use lgen_isa::Microarch;
use lgen_ll::{paper, parse_program, Program};
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

/// Kalman predict of size `n` (SLinGen's running example).
fn kalman(n: usize) -> Program {
    let m = (n / 2).max(1);
    parse_program(&format!(
        "F = matrix({n}, {n})\nB = matrix({n}, {m})\nu = vector({m})\nx = vector({n})\n\
         x_next = vector({n})\nP = matrix({n}, {n}) symmetric\n\
         Q = matrix({n}, {n}) symmetric\nP_next = matrix({n}, {n})\n\
         x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;"
    ))
    .expect("kalman parses")
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
        // Random(32) over the 90-point unroll x pass-schedule space, whose
        // distinct kernels are fewer than 32: a sweep of every kernel,
        // every compile flowing through the subtree memo once the cache
        // is warm.
        Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Random(32))
            .with_pipeline_search()
            .with_threads(1)
            .with_cache(Arc::clone(cache))
            .tune(&blac, "k")
    };

    // Warm every kernel, then budget the steady state.
    let full = Autotuner::new(cfg.clone())
        .with_strategy(SearchStrategy::Exhaustive)
        .with_pipeline_search()
        .with_threads(1)
        .with_cache(Arc::clone(&cache))
        .tune(&blac, "k");

    let (tuned, sweep_allocs) = allocs_during(|| sweep(&cache));
    assert_eq!(
        tuned.samples, full.samples,
        "expected a sweep of every kernel"
    );
    // Warm sweeps still allocate per candidate (measurement buffers,
    // sample bookkeeping) but must not re-lower or re-optimize: the
    // budget of ~200 allocations/candidate holds only when compiles are
    // served and equivalent candidates share one memoized kernel.
    let budget = 200 * tuned.samples.len() as u64;
    assert!(
        sweep_allocs <= budget,
        "warm {}-kernel sweep made {sweep_allocs} allocations (budget {budget})",
        tuned.samples.len()
    );

    let mut g = c.benchmark_group("compile-hot");
    g.sample_size(10);
    g.bench_function("sweep-32/gemv-4x8", |b| b.iter(|| black_box(sweep(&cache))));
    g.finish();
}

fn bench_cold_compile(c: &mut Criterion) {
    let kalman8 = kalman(8);
    let arm1176 = CompileConfig::full(Microarch::Arm1176);
    let compiled =
        try_compile_program(&kalman8, "kalman_predict_8", &arm1176).expect("kalman compiles");

    // One-pass DCE sizes its tables from the body up front and compacts
    // blocks in place, so its allocations do not grow with the number of
    // rounds a fixpoint would take.
    // The optimized kernel's own arena, cloned so the pass runs alone.
    let body = compiled.kernel.body();
    let (mut arena, root) = (body.arena.clone(), body.root);
    let budget = arena.blocks.len() as u64 + 8;
    let (_, dce_allocs) = allocs_during(|| dce_block(&mut arena, root, &compiled.kernel.arrays));
    assert!(
        dce_allocs <= budget,
        "dce_block on kalman-8-arm1176 made {dce_allocs} allocations (budget {budget})"
    );

    // A one-shot compile builds its C-IR once: codegen emits into the
    // arena the passes rewrite in place. The budget is 1.25x the 163
    // allocations measured; converting the body to another form and back
    // would exceed it.
    let mmm = paper::mmm(8, 8, 8);
    let atom = CompileConfig::full(Microarch::Atom);
    try_compile(&mmm, "k", &atom).expect("mmm compiles");
    let (_, cold_allocs) = allocs_during(|| black_box(try_compile(&mmm, "k", &atom)));
    assert!(
        cold_allocs <= 204,
        "cold compile of mmm-8x8x8-atom made {cold_allocs} allocations (budget 204)"
    );

    let gemv = paper::gemv(30, 71);
    let a9_peel = CompileConfig::full(Microarch::CortexA9).with_peeling();
    let mut g = c.benchmark_group("compile-hot");
    g.sample_size(20);
    g.bench_function("cold/kalman-8-arm1176", |b| {
        b.iter(|| black_box(try_compile_program(&kalman8, "k", &arm1176)))
    });
    g.bench_function("cold/gemv-30x71-peel-a9", |b| {
        b.iter(|| black_box(try_compile(&gemv, "k", &a9_peel)))
    });
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
    let atom = CompileConfig::full(Microarch::Atom);
    let compiled = compile_program(&kalman(4), "kalman_predict_4", &atom);
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

fn bench_evaluate(c: &mut Criterion) {
    // The interpreter lowers each instruction of the dispatched version
    // once per run into a tape of trace-ready machine ops (a loop nest
    // whole, as it is first reached) and replays it on every iteration;
    // the tape grows with the static instructions and the scheduler's
    // tables with the kernel's registers and memory layout, never with
    // the dynamic instructions. So one evaluation makes a bounded number
    // of allocations however long the trace: the ARM1176 mmm runs tens of
    // thousands of scalar instructions. Both measurement paths are
    // guarded and timed: the gemv and mmm layouts fit in L1, so their
    // validation run is the timed run on a prefilled cache; axpy 3782
    // spans 30 KB against the Atom's 24 KB, so it takes a warm-up run and
    // a timed run.
    let guarded = [
        ("gemv-24x24-atom", paper::gemv(24, 24), Microarch::Atom),
        (
            "mmm-16x16x16-arm1176",
            paper::mmm(16, 16, 16),
            Microarch::Arm1176,
        ),
        ("axpy-3782-atom", paper::axpy(3782), Microarch::Atom),
    ]
    .map(|(label, blac, arch)| {
        let kernel = compile(&blac, "k", &CompileConfig::full(arch));
        (label, kernel, Evaluator::new(&Program::from(&blac)), arch)
    });
    for (label, kernel, evaluator, arch) in &guarded {
        let (_, allocs) = allocs_during(|| black_box(evaluator.evaluate(kernel, *arch)));
        assert!(
            allocs <= 128,
            "evaluating {label} made {allocs} allocations (budget 128)"
        );
    }

    let kalman4 = kalman(4);
    let a9 = CompileConfig::full(Microarch::CortexA9);
    let kalman_kernel = compile_program(&kalman4, "k", &a9).kernel;
    let kalman_eval = Evaluator::new(&kalman4);
    let mut g = c.benchmark_group("compile-hot");
    g.sample_size(20);
    for (label, kernel, evaluator, arch) in &guarded {
        g.bench_function(format!("evaluate/{label}"), |b| {
            b.iter(|| black_box(evaluator.evaluate(kernel, *arch)))
        });
    }
    g.bench_function("evaluate/kalman-4-a9", |b| {
        b.iter(|| black_box(kalman_eval.evaluate(&kalman_kernel, Microarch::CortexA9)))
    });
    g.finish();
}

fn bench_program_tune(c: &mut Criterion) {
    // An unpruned one-worker tune of Kalman predict from a fresh cache:
    // genomes whose per-statement unroll decisions agree share one
    // memoized kernel, so the pass pipeline (and, behind it, validation
    // and simulation) runs once per distinct kernel, not once per genome.
    let kalman4 = kalman(4);
    let a9 = CompileConfig::full(Microarch::CortexA9);
    let tune = |cache: &Arc<KernelCache>| {
        Autotuner::new(a9.clone())
            .with_strategy(SearchStrategy::Exhaustive)
            .with_threads(1)
            .with_cache(Arc::clone(cache))
            .try_tune_program(&kalman4, "k")
            .expect("kalman tunes")
    };
    let cache = Arc::new(KernelCache::new());
    let tuned = tune(&cache);
    let mut distinct: Vec<Arc<Kernel>> = Vec::new();
    for (genome, _) in &tuned.samples {
        let kernel = cache.get_or_compile_program(&kalman4, "k", &a9, Some(genome));
        if !distinct.contains(&kernel) {
            distinct.push(kernel);
        }
    }
    let misses = cache.stats().memo_misses;
    assert!(
        misses <= distinct.len() as u64,
        "tuning kalman-4-a9 over {} genomes made {misses} memo misses \
         for {} distinct kernels",
        tuned.samples.len(),
        distinct.len()
    );

    let mut g = c.benchmark_group("compile-hot");
    g.sample_size(20);
    g.bench_function("tune/kalman-4-a9", |b| {
        b.iter(|| black_box(tune(&Arc::new(KernelCache::new()))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_compile_hot,
    bench_sweep_32,
    bench_cold_compile,
    bench_unparse,
    bench_evaluate,
    bench_program_tune
);
criterion_main!(benches);
