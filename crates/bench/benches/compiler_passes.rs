//! Criterion benchmarks of the compiler itself: per-pass cost and the
//! ablations DESIGN.md calls out (generic-memory forwarding, alignment
//! analysis, versioning, unparsing).

use criterion::{criterion_group, criterion_main, Criterion};
use lgen_cir::arena::{
    align_block, copy_prop_block, dce_block, scalar_replacement_block, unroll_block,
};
use lgen_cir::passes::UnrollPolicy;
use lgen_core::CompileConfig;
use lgen_isa::Microarch;
use lgen_ll::paper;
use lgen_sigma::{compile_blac, CodegenOptions};
use std::hint::black_box;

fn bench_codegen(c: &mut Criterion) {
    let blac = paper::gemm(30, 44, 30);
    let opts = CodegenOptions::full(lgen_isa::VectorIsa::Ssse3);
    let mut g = c.benchmark_group("codegen");
    g.bench_function("emit/gemm-30x44x30", |b| {
        b.iter(|| black_box(compile_blac(&blac, "k", &opts)))
    });
    g.bench_function("full-pipeline/gemm-30x44x30", |b| {
        b.iter(|| {
            black_box(lgen_core::compile(
                &blac,
                "k",
                &CompileConfig::full(Microarch::Atom),
            ))
        })
    });
    g.finish();
}

/// Each pass as the arena sweep the pipeline runs, on a copy of the
/// arena the previous passes left.
fn bench_passes(c: &mut Criterion) {
    let blac = paper::gemv(30, 100);
    let opts = CodegenOptions::full(lgen_isa::VectorIsa::Ssse3);
    let raw = compile_blac(&blac, "k", &opts);
    let arrays = &raw.arrays;
    let policy = UnrollPolicy::Full { max_trip: 32 };
    // The lowered kernel's own arena, cloned per iteration.
    let (lowered, root) = (&raw.body().arena, raw.body().root);
    let mut g = c.benchmark_group("passes");
    g.bench_function("unroll-full", |b| {
        b.iter(|| {
            let mut a = lowered.clone();
            unroll_block(&mut a, root, policy);
            black_box(a)
        })
    });
    let mut unrolled = lowered.clone();
    unroll_block(&mut unrolled, root, policy);
    g.bench_function("scalar-replacement", |b| {
        b.iter(|| {
            let mut a = unrolled.clone();
            scalar_replacement_block(&mut a, root, arrays);
            black_box(a)
        })
    });
    let mut replaced = unrolled;
    scalar_replacement_block(&mut replaced, root, arrays);
    g.bench_function("copy-prop+dce", |b| {
        b.iter(|| {
            let mut a = replaced.clone();
            copy_prop_block(&mut a, root);
            dce_block(&mut a, root, arrays);
            black_box(a)
        })
    });
    let mut cleaned = replaced;
    copy_prop_block(&mut cleaned, root);
    dce_block(&mut cleaned, root, arrays);
    let aligned = vec![Some(0); arrays.len()];
    g.bench_function("alignment-detection", |b| {
        b.iter(|| {
            align_block(&mut cleaned, root, &aligned);
            black_box(&cleaned);
        })
    });
    g.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    // Versioning multiplies code size by 4^a + 1: measure its cost.
    let blac = paper::gemv(30, 44);
    g.bench_function("alignment-versioning/gemv-30x44", |b| {
        b.iter(|| {
            black_box(lgen_core::compile(
                &blac,
                "k",
                &CompileConfig::full(Microarch::Atom).with_versioning(),
            ))
        })
    });
    // C unparsing.
    let kernel = lgen_core::compile(&blac, "k", &CompileConfig::full(Microarch::Atom));
    g.bench_function("unparse-c/gemv-30x44", |b| {
        b.iter(|| {
            black_box(lgen_cir::unparse::unparse(
                &kernel,
                lgen_isa::VectorIsa::Ssse3,
            ))
        })
    });
    // Simulator throughput.
    g.bench_function("simulate/gemv-30x44-atom", |b| {
        b.iter(|| {
            black_box(lgen_core::measure_blac(
                &blac,
                &kernel,
                Microarch::Atom,
                &[0; 5],
                1,
            ))
        })
    });
    g.finish();
}

fn quick() -> Criterion {
    // Keep full-suite bench runs affordable; pass --measurement-time to
    // override for precision runs.
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10)
}

criterion_group!(name = benches; config = quick(); targets = bench_codegen, bench_passes, bench_ablations);
criterion_main!(benches);
