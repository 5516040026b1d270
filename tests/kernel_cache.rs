//! Integration tests for the content-addressed kernel cache and the
//! structural BLAC identity it keys on.

use lgen::cir::Kernel;
use lgen::core::{Autotuner, KernelCache, SearchStrategy};
use lgen::ll::blac::{Blac, Dims, Expr, OperandId};
use lgen::prelude::*;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Deterministically generates a random BLAC expression tree (same
/// construction as `tests/random_blacs.rs`, kept self-contained).
fn gen_blac(rows: usize, cols: usize, depth: usize, seed: u64) -> Blac {
    struct Pool {
        operands: Vec<lgen::ll::blac::Operand>,
    }
    impl Pool {
        fn fresh(&mut self, d: Dims) -> Expr {
            let id = OperandId(self.operands.len());
            self.operands.push(lgen::ll::blac::Operand {
                name: format!("op{}", id.0),
                dims: d,
                structure: lgen::ll::Structure::General,
            });
            Expr::Ref(id)
        }
    }
    fn gen_expr(pool: &mut Pool, d: Dims, depth: usize, seed: &mut u64) -> Expr {
        let mut next = || {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed
        };
        if depth == 0 {
            return pool.fresh(d);
        }
        match next() % 6 {
            0 => pool.fresh(d),
            1 => Expr::Add(
                Arc::new(gen_expr(pool, d, depth - 1, seed)),
                Arc::new(gen_expr(pool, d, depth - 1, seed)),
            ),
            2 => {
                let s = pool.fresh(Dims::new(1, 1));
                Expr::Mul(Arc::new(s), Arc::new(gen_expr(pool, d, depth - 1, seed)))
            }
            3 => {
                let k = 1 + (next() % 9) as usize;
                let left = gen_expr(pool, Dims::new(d.rows, k), depth - 1, seed);
                let right = gen_expr(pool, Dims::new(k, d.cols), depth - 1, seed);
                Expr::Mul(Arc::new(left), Arc::new(right))
            }
            4 => Expr::Trans(Arc::new(gen_expr(pool, d.t(), depth - 1, seed))),
            _ => pool.fresh(d),
        }
    }
    let mut pool = Pool {
        operands: Vec::new(),
    };
    let mut s = seed | 1;
    let expr = gen_expr(&mut pool, Dims::new(rows, cols), depth, &mut s);
    let out = OperandId(pool.operands.len());
    pool.operands.push(lgen::ll::blac::Operand {
        name: "out".into(),
        dims: Dims::new(rows, cols),
        structure: lgen::ll::Structure::General,
    });
    let blac = Blac {
        operands: pool.operands,
        output: out,
        expr,
    };
    blac.validate()
        .expect("generated BLACs are well-formed by construction");
    blac
}

fn std_hash(blac: &Blac) -> u64 {
    let mut h = DefaultHasher::new();
    blac.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural identity: a BLAC rebuilt from the same construction is
    /// `==` and hashes identically (both the std `Hash` the cache map uses
    /// and the stable `fingerprint` used for sharding), while BLACs that
    /// compare unequal fingerprint differently — equal hash iff equal
    /// structure, over random expression trees.
    #[test]
    fn hashes_agree_with_structural_equality(
        rows in 1usize..9,
        cols in 1usize..9,
        depth in 1usize..4,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let a = gen_blac(rows, cols, depth, seed_a);
        let rebuilt = gen_blac(rows, cols, depth, seed_a);
        prop_assert_eq!(&a, &rebuilt, "same construction must be structurally equal");
        prop_assert_eq!(a.fingerprint(), rebuilt.fingerprint());
        prop_assert_eq!(std_hash(&a), std_hash(&rebuilt));

        let b = gen_blac(rows, cols, depth, seed_b);
        if a == b {
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
            prop_assert_eq!(std_hash(&a), std_hash(&b));
        } else {
            // 64-bit FNV collisions are possible in principle but must not
            // occur on this sample; a failure here means the fingerprint
            // ignores part of the structure.
            prop_assert_ne!(a.fingerprint(), b.fingerprint());
        }
    }

    /// Sharing sub-expressions via `Arc` must not change identity: the
    /// fingerprint walks structure, not pointers.
    #[test]
    fn fingerprint_ignores_sharing(rows in 1usize..7, cols in 1usize..7, seed in any::<u64>()) {
        let blac = gen_blac(rows, cols, 2, seed);
        let shared = Blac {
            operands: blac.operands.clone(),
            output: blac.output,
            // Add(e, e) with one shared Arc vs two separate clones.
            expr: Expr::Add(Arc::new(blac.expr.clone()), Arc::new(blac.expr.clone())),
        };
        let aliased_arc = Arc::new(blac.expr.clone());
        let aliased = Blac {
            operands: blac.operands.clone(),
            output: blac.output,
            expr: Expr::Add(aliased_arc.clone(), aliased_arc),
        };
        prop_assert_eq!(&shared, &aliased);
        prop_assert_eq!(shared.fingerprint(), aliased.fingerprint());
    }
}

#[test]
fn warm_cache_compile_skips_the_pipeline_and_matches() {
    let cache = KernelCache::new();
    let blac = lgen::ll::paper::gemv(4, 24);
    let cfg = CompileConfig::full(Microarch::Atom);

    let cold = cache.get_or_compile(&blac, "kernel", &cfg);
    assert_eq!(cache.pass_stats().compiles(), 1);

    // The warm path must be a counted hit that runs zero pipeline stages
    // and returns the identical kernel.
    let warm = cache.get_or_compile(&blac, "kernel", &cfg);
    assert_eq!(
        cache.pass_stats().compiles(),
        1,
        "warm compile must skip the pipeline"
    );
    assert_eq!(cache.stats().hits, 1);
    assert!(Arc::ptr_eq(&cold, &warm));
    assert_eq!(*cold, compile(&blac, "kernel", &cfg));
}

#[test]
fn batch_compile_dedups_and_preserves_order() {
    let cache = Arc::new(KernelCache::new());
    let cfg = CompileConfig::full(Microarch::Atom);
    let jobs: Vec<(Blac, String, CompileConfig)> = vec![
        (lgen::ll::paper::gemv(4, 12), "a".into(), cfg.clone()),
        (lgen::ll::paper::axpy(16), "b".into(), cfg.clone()),
        (lgen::ll::paper::gemv(4, 12), "a".into(), cfg), // duplicate of job 0
    ];
    let kernels = lgen::core::compile_many(&jobs, 4, &cache);
    assert_eq!(kernels.len(), 3);
    assert_eq!(kernels[0].name, "a");
    assert_eq!(kernels[1].name, "b");
    assert_eq!(
        *kernels[0], *kernels[2],
        "duplicate jobs must yield the identical kernel"
    );
    let stats = cache.stats();
    assert_eq!(
        stats.entries, 2,
        "the duplicate point must not compile twice"
    );
}

#[test]
fn distinct_pipeline_specs_are_distinct_cache_entries() {
    // The pass schedule is part of the kernel's identity: the same BLAC
    // compiled under two different `--passes` specs must occupy two cache
    // entries, and re-requesting either spec hits its own entry.
    let cache = KernelCache::new();
    let blac = lgen::ll::paper::gemv(4, 24);
    let standard = CompileConfig::full(Microarch::Atom);
    let fixpoint = standard
        .clone()
        .with_passes(PassPipeline::parse("unroll,scalrep,repeat(copyprop,dce),align").unwrap());
    assert_ne!(
        standard.pipeline.fingerprint(),
        fixpoint.pipeline.fingerprint(),
        "spec fingerprints must distinguish the schedules"
    );

    let a = cache.get_or_compile(&blac, "kernel", &standard);
    let b = cache.get_or_compile(&blac, "kernel", &fixpoint);
    assert_eq!(cache.stats().entries, 2, "one entry per schedule");
    assert_eq!(cache.stats().misses, 2);

    let a2 = cache.get_or_compile(&blac, "kernel", &standard);
    let b2 = cache.get_or_compile(&blac, "kernel", &fixpoint);
    assert_eq!(cache.stats().hits, 2, "each schedule hits its own entry");
    assert!(Arc::ptr_eq(&a, &a2));
    assert!(Arc::ptr_eq(&b, &b2));
}

#[test]
fn tuned_winner_survives_a_cache_round_trip() {
    // End-to-end: tuning through a cache and re-tuning from the warm cache
    // agree exactly with the uncached tuner.
    let blac = lgen::ll::paper::gemm(4, 8, 4);
    let cfg = CompileConfig::full(Microarch::CortexA9);
    let cache = Arc::new(KernelCache::new());
    let cached = Autotuner::new(cfg.clone())
        .with_strategy(SearchStrategy::Random(16))
        .with_threads(2)
        .with_cache(cache.clone())
        .tune(&blac, "k");
    let uncached = Autotuner::new(cfg)
        .with_strategy(SearchStrategy::Random(16))
        .tune(&blac, "k");
    assert_eq!(cached.unroll, uncached.unroll);
    assert_eq!(cached.samples, uncached.samples);
    assert_eq!(cached.kernel, uncached.kernel);
    assert!(cache.stats().misses > 0);
}

/// The Kalman predict, triangular apply and chain programs of size `n`.
fn programs(n: usize) -> [(String, Program); 3] {
    let m = (n / 2).max(1);
    let sources = [
        (
            format!("kalman_{n}"),
            format!(
                "F = matrix({n}, {n})\nB = matrix({n}, {m})\nu = vector({m})\n\
                 x = vector({n})\nx_next = vector({n})\nP = matrix({n}, {n}) symmetric\n\
                 Q = matrix({n}, {n}) symmetric\nP_next = matrix({n}, {n})\n\
                 x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;"
            ),
        ),
        (
            format!("triangular_{n}"),
            format!(
                "L = matrix({n}, {n}) triangular(lower)\nx = vector({n})\ny = vector({n})\n\
                 t = L * x;\ny = L' * t;"
            ),
        ),
        (
            format!("chain_{n}"),
            format!(
                "A = matrix({n}, {n})\nx = vector({n})\ny = vector({n})\n\
                 t = A * x;\ny = A * t;"
            ),
        ),
    ];
    sources.map(|(name, src)| (name, parse_program(&src).expect("program parses")))
}

/// Every genome of an unpruned tune of `program` (the diagonal plus the
/// mixed samples), looked up through the tune's own cache: genomes whose
/// per-statement decisions agree share one memoized kernel
/// (completeness), and the shared kernel is the one that genome compiles
/// to alone (soundness).
fn check_genome_collapse(name: &str, program: &Program, arch: Microarch, variant: Variant) {
    let at = format!("{name} on {arch:?} {variant:?}");
    let cfg = &CompileConfig::variant(arch, variant);
    let cache = Arc::new(KernelCache::new());
    let tuned = Autotuner::new(cfg.clone())
        .with_strategy(lgen::core::SearchStrategy::Exhaustive)
        .with_cache(cache.clone())
        .try_tune_program(program, name)
        .expect("program tunes");
    assert!(tuned.failures.is_empty(), "{at}: {:?}", tuned.failures);
    let mut arcs: Vec<Arc<Kernel>> = Vec::new();
    let mut kernels: Vec<Arc<Kernel>> = Vec::new();
    for (genome, _) in &tuned.samples {
        let served = cache.get_or_compile_program(program, name, cfg, Some(genome));
        let alone = KernelCache::new().get_or_compile_program(program, name, cfg, Some(genome));
        assert_eq!(
            *served, *alone,
            "{at}: genome {genome:?} served another kernel"
        );
        if !arcs.iter().any(|a| Arc::ptr_eq(a, &served)) {
            arcs.push(served.clone());
        }
        if !kernels.contains(&served) {
            kernels.push(served);
        }
    }
    assert_eq!(
        arcs.len(),
        kernels.len(),
        "{at}: {} genomes made {} kernels but {} memo entries",
        tuned.samples.len(),
        kernels.len(),
        arcs.len()
    );
}

#[test]
fn program_genomes_collapse_to_their_distinct_kernels() {
    for n in 2..=4 {
        for (name, program) in programs(n) {
            for arch in Microarch::EVALUATED {
                for variant in [Variant::Base, Variant::Full] {
                    check_genome_collapse(&name, &program, arch, variant);
                }
            }
        }
    }
}
