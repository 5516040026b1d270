//! Pins every simulated statistic over a kernel corpus: cycles, dynamic
//! instructions and both energies from the measurement protocol, the L1
//! hit/miss counts after a warm and a timed run, and the samples and
//! winners of exhaustive tunes. The simulator is a cost model, so these
//! numbers are part of what `lgen` reports; a change that moves one must
//! be deliberate. The static predictor's output over the same kernels
//! (`analyze_kernel`, which ranks pruned tunes) is pinned alongside, and
//! so are the kernel codec's bytes, which disk caches written by earlier
//! builds must keep decoding. Every autotuner setting's result is pinned
//! too: winner, schedule, samples and pruning report per strategy.
//!
//! One FNV-1a line per kernel in `tests/golden/sim_corpus.digest`,
//! `tests/golden/static_cost.digest` and `tests/golden/codec_corpus.digest`,
//! and per (core, input, tuner setting) in
//! `tests/golden/tune_strategies.digest`, so a mismatch names the kernel.
//! To regenerate after an intentional change:
//! `LGEN_BLESS=1 cargo test --test sim_corpus`.

mod common;

use common::{arch_name, check_digest, fnv1a, paper_families, versioning_is_small, PROGRAMS};
use lgen::cir::{decode_kernel, encode_kernel, run_kernel, Kernel, MemLayout};
use lgen::core::{KernelCache, Objective, SearchStrategy};
use lgen::ll::reference::test_data_for;
use lgen::machine::Measurement;
use lgen::prelude::*;
use std::sync::Arc;

/// Cache `(hits, misses)` after one scheduled warm run and after a timed
/// run on the warm cache, with `bufs` as the parameter arrays.
fn cache_stats(kernel: &Kernel, arch: Microarch, mut bufs: Vec<Vec<f32>>) -> [(u64, u64); 2] {
    let layout = MemLayout::aligned(kernel);
    let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
    let mut sim = Simulator::new(arch);
    run_kernel(kernel, &mut refs, &layout, arch.vector_isa(), &mut sim).unwrap();
    let warm = sim.cache_stats();
    sim.reset_timing();
    run_kernel(kernel, &mut refs, &layout, arch.vector_isa(), &mut sim).unwrap();
    [warm, sim.cache_stats()]
}

fn line(name: &str, m: Measurement, cache: [(u64, u64); 2]) -> String {
    let stats = format!(
        "{} {} {} {} {} {} {cache:?}",
        m.cycles, m.q1, m.q3, m.dynamic_insts, m.energy_pj, m.dyn_energy_pj
    );
    format!("{name} {:016x}\n", fnv1a(stats.as_bytes()))
}

fn blac_line(name: &str, blac: &Blac, kernel: &Kernel, arch: Microarch) -> String {
    let zeros = vec![0; blac.operands.len()];
    let m = measure_blac(blac, kernel, arch, &zeros, 3).unwrap();
    let bufs = blac
        .operands
        .iter()
        .enumerate()
        .map(|(i, op)| test_data_for(op, 77 + i as u64).data)
        .collect();
    line(name, m, cache_stats(kernel, arch, bufs))
}

fn program_line(name: &str, program: &Program, kernel: &Kernel, arch: Microarch) -> String {
    let m = measure_program(program, kernel, arch, 3).unwrap();
    let bufs = program
        .operands
        .iter()
        .enumerate()
        .filter(|(i, _)| !program.temps[*i])
        .map(|(i, op)| test_data_for(op, 77 + i as u64).data)
        .collect();
    line(name, m, cache_stats(kernel, arch, bufs))
}

/// What a corpus kernel computes: the reference its measurement runs.
enum Source<'a> {
    Blac(&'a Blac),
    Program(&'a Program),
}

/// Calls `visit` on every compiled kernel of the corpus on `arch`: the
/// paper BLACs at micro and leftover sizes under the base and full
/// variants, the programs, the peeled and versioned forms, and one kernel
/// whose working set exceeds L1 (named `*_over_l1`).
fn for_each_kernel(arch: Microarch, mut visit: impl FnMut(&str, Source, &Kernel)) {
    let families = paper_families();
    for variant in [Variant::Base, Variant::Full] {
        let tag = format!("{}_{variant:?}", arch_name(arch)).to_lowercase();
        let cfg = CompileConfig::variant(arch, variant);
        for (label, blac) in families.iter().flat_map(|f| &f[..2]) {
            let name = format!("{label}_{tag}");
            visit(&name, Source::Blac(blac), &compile(blac, &name, &cfg));
        }
        for (label, src) in &PROGRAMS {
            let name = format!("{label}_{tag}");
            let program = parse_program(src).unwrap();
            let kernel = compile_program(&program, &name, &cfg).kernel;
            visit(&name, Source::Program(&program), &kernel);
        }
    }
    let full = CompileConfig::full(arch);
    for (label, blac) in families.iter().map(|f| &f[1]) {
        let name = format!("{label}_{}_peel", arch_name(arch));
        let kernel = compile(blac, &name, &full.clone().with_peeling());
        visit(&name, Source::Blac(blac), &kernel);
        if versioning_is_small(blac) {
            let name = format!("{label}_{}_valign", arch_name(arch));
            let kernel = compile(blac, &name, &full.clone().with_versioning());
            visit(&name, Source::Blac(blac), &kernel);
        }
    }
    // 40 KiB of matrix: larger than every modelled L1 (16–32 KiB), so
    // the timed run evicts.
    let over_l1 = lgen::ll::paper::gemv(64, 160);
    let name = format!("gemv_64x160_{}_over_l1", arch_name(arch));
    visit(
        &name,
        Source::Blac(&over_l1),
        &compile(&over_l1, &name, &full),
    );
}

/// The corpus: every kernel of [`for_each_kernel`] and uncached exhaustive
/// tunes (`tune_strategies` pins cached ones) — on every evaluated core.
fn sim_corpus() -> String {
    use lgen::ll::paper::{gemv, mmm};
    let mut out = String::new();
    for arch in Microarch::EVALUATED {
        for_each_kernel(arch, |name, source, kernel| match source {
            Source::Blac(blac) => {
                out += &blac_line(name, blac, kernel, arch);
                if name.ends_with("_over_l1") {
                    let bufs = blac
                        .operands
                        .iter()
                        .map(|op| test_data_for(op, 1).data)
                        .collect();
                    let (hits, misses) = cache_stats(kernel, arch, bufs)[1];
                    assert!(
                        misses > 0 && hits > 0,
                        "{name}: the timed run must both hit and evict \
                         ({hits} hits, {misses} misses)"
                    );
                }
            }
            Source::Program(program) => out += &program_line(name, program, kernel, arch),
        });

        let tuner =
            Autotuner::new(CompileConfig::full(arch)).with_strategy(SearchStrategy::Exhaustive);
        let mut tune_line = |label: &str, record: String| {
            let name = format!("tune_{label}_{}", arch_name(arch));
            out += &format!("{name} {:016x}\n", fnv1a(record.as_bytes()));
        };
        for (label, blac) in [("gemv_5x7", gemv(5, 7)), ("mmm_3x3x3", mmm(3, 3, 3))] {
            let t = tuner.tune(&blac, label);
            tune_line(label, format!("{} {:?}", t.measurement.cycles, t.samples));
        }
        for (label, src) in [PROGRAMS[3], PROGRAMS[4]] {
            let t = tuner.try_tune_program(&parse_program(src).unwrap(), label);
            let t = t.unwrap();
            tune_line(label, format!("{} {:?}", t.measurement.cycles, t.samples));
        }
    }
    out
}

/// The static prediction of every corpus kernel: both cycle bounds, the
/// energy estimate, the flops and the sorted instruction mix.
fn static_cost_corpus() -> String {
    let mut out = String::new();
    for arch in Microarch::EVALUATED {
        for_each_kernel(arch, |name, _, kernel| {
            let c = analyze_kernel(kernel, arch);
            let record = format!(
                "{} {} {} {} {:?}",
                c.cycles_throughput_bound,
                c.cycles_latency_bound,
                c.energy_pj,
                c.flops,
                c.mix.sorted()
            );
            out += &format!("{name} {:016x}\n", fnv1a(record.as_bytes()));
        });
    }
    out
}

/// `encode_kernel`'s bytes for every corpus kernel; each must also decode
/// back to the kernel it encodes.
fn codec_corpus() -> String {
    let mut out = String::new();
    for arch in Microarch::EVALUATED {
        for_each_kernel(arch, |name, _, kernel| {
            let bytes = encode_kernel(kernel);
            let decoded = decode_kernel(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(decoded == *kernel, "{name}: decode(encode(k)) != k");
            out += &format!("{name} {:016x}\n", fnv1a(&bytes));
        });
    }
    out
}

/// The tuner settings `tune_strategies.digest` pins: every strategy, the
/// non-default objectives, pass-order search, both pruning policies and a
/// multi-threaded pruned pass-order search.
fn tune_settings(cfg: &CompileConfig) -> [(&'static str, Autotuner); 9] {
    use SearchStrategy::{Exhaustive, Guided, Random};
    let tuner = |strategy| Autotuner::new(cfg.clone()).with_strategy(strategy);
    let topk = |k| PrunePolicy::TopK(k);
    [
        ("random10", tuner(Random(10))),
        ("exhaustive", tuner(Exhaustive)),
        ("guided", tuner(Guided)),
        (
            "guided_energy",
            tuner(Guided).with_objective(Objective::Energy),
        ),
        ("guided_passes", tuner(Guided).with_pipeline_search()),
        (
            "exhaustive_passes",
            tuner(Exhaustive).with_pipeline_search(),
        ),
        ("topk4", tuner(Random(10)).with_prune(topk(4))),
        (
            "frac0.3_edp",
            tuner(Random(10))
                .with_prune(PrunePolicy::Frac(0.3))
                .with_objective(Objective::EnergyDelay),
        ),
        (
            "random30_passes_topk2_j2",
            tuner(Random(30))
                .with_pipeline_search()
                .with_prune(topk(2))
                .with_threads(2),
        ),
    ]
}

/// One line per (core, input, setting) over the micro and leftover paper
/// BLACs and the programs: the winning decision, its schedule, cycles and
/// energy, every sample, the failure count, the pruned count and the
/// rank correlation.
fn tune_strategies() -> String {
    let families = paper_families();
    let programs = PROGRAMS.map(|(label, src)| (label, parse_program(src).unwrap()));
    let blacs = families.iter().flat_map(|f| &f[..2]);
    let inputs: Vec<(&str, Source)> = blacs
        .map(|(label, blac)| (*label, Source::Blac(blac)))
        .chain(programs.iter().map(|(l, p)| (*l, Source::Program(p))))
        .collect();
    let tail = |pipeline: &PassPipeline, m: &Measurement, failures: usize, pruned: usize| {
        let spec = pipeline.to_spec();
        format!("{spec} {} {} {failures} {pruned}", m.cycles, m.energy_pj)
    };
    let mut out = String::new();
    for arch in Microarch::EVALUATED {
        for (label, source) in &inputs {
            // One cache per input: the settings share its compiles.
            let cache = Arc::new(KernelCache::new());
            for (setting, tuner) in tune_settings(&CompileConfig::full(arch)) {
                let tuner = tuner.with_cache(cache.clone());
                let record = match source {
                    Source::Blac(blac) => {
                        let t = tuner.tune(blac, label);
                        let tail = tail(&t.pipeline, &t.measurement, t.failures.len(), t.pruned);
                        let rho = t.rank_correlation.map(|r| (r * 1e6).round() as i64);
                        format!("{:?} {:?} {tail} {rho:?}", t.unroll, t.samples)
                    }
                    Source::Program(program) => {
                        let t = tuner.try_tune_program(program, label).unwrap();
                        let tail = tail(&t.pipeline, &t.measurement, t.failures.len(), t.pruned);
                        let rho = t.rank_correlation.map(|r| (r * 1e6).round() as i64);
                        format!("{:?} {:?} {tail} {rho:?}", t.policies, t.samples)
                    }
                };
                let name = format!("{label}_{}_{setting}", arch_name(arch));
                out += &format!("{name} {:016x}\n", fnv1a(record.as_bytes()));
            }
        }
    }
    out
}

#[test]
fn golden_sim_corpus() {
    check_digest("sim_corpus.digest", &sim_corpus());
}

#[test]
fn golden_static_cost_corpus() {
    check_digest("static_cost.digest", &static_cost_corpus());
}

#[test]
fn golden_codec_corpus() {
    check_digest("codec_corpus.digest", &codec_corpus());
}

#[test]
fn golden_tune_strategies() {
    check_digest("tune_strategies.digest", &tune_strategies());
}
