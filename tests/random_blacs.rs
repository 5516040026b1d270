//! Property-based fuzzing of the whole compiler: *random* BLAC expression
//! trees — not just the paper's fixed suite — must compile and compute the
//! same result as the naive reference on every backend and option set.
//! A second, differential property interprets each random kernel after
//! every *individual* optimization pass: outputs must stay bit-identical
//! and the static verifier must stay clean, so a failure shrinks straight
//! to the offending pass.

use lgen::cir::passes::{UnrollPolicy, PASS_NAMES};
use lgen::cir::{verify_kernel, PassCtx};
use lgen::ll::blac::{Blac, Dims, Expr, OperandId};
use lgen::ll::reference::{eval_reference, max_abs_diff, test_data};
use lgen::prelude::*;
use lgen::sigma::CodegenOptions;
use proptest::prelude::*;
use std::sync::Arc;

/// Operand pool under construction.
#[derive(Default)]
struct Pool {
    operands: Vec<lgen::ll::blac::Operand>,
}

impl Pool {
    fn fresh(&mut self, d: Dims) -> Expr {
        let id = OperandId(self.operands.len());
        self.operands.push(lgen::ll::blac::Operand {
            name: format!("op{}", self.operands.len()),
            dims: d,
            structure: lgen::ll::Structure::General,
        });
        Expr::Ref(id)
    }
}

/// Recursively generates an expression of the target dims, consuming
/// pseudo-random decisions from `seed`.
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
            // scalar × expr
            let s = pool.fresh(Dims::new(1, 1));
            Expr::Mul(Arc::new(s), Arc::new(gen_expr(pool, d, depth - 1, seed)))
        }
        3 => {
            // product with a random inner dimension
            let k = 1 + (next() % 9) as usize;
            let left = gen_expr(pool, Dims::new(d.rows, k), depth - 1, seed);
            let right = gen_expr(pool, Dims::new(k, d.cols), depth - 1, seed);
            Expr::Mul(Arc::new(left), Arc::new(right))
        }
        4 => Expr::Trans(Arc::new(gen_expr(pool, d.t(), depth - 1, seed))),
        _ => pool.fresh(d),
    }
}

fn gen_blac(rows: usize, cols: usize, depth: usize, seed: u64) -> Blac {
    let mut pool = Pool::default();
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

fn check(blac: &Blac, arch: Microarch, variant: Variant) {
    let cfg = CompileConfig::variant(arch, variant);
    let kernel = compile(blac, "fuzz", &cfg);
    let values: Vec<_> = blac
        .operands
        .iter()
        .enumerate()
        .map(|(i, op)| test_data(op.dims, 101 + i as u64))
        .collect();
    let expected = eval_reference(blac, &values);
    let got = run_program_kernel(&Program::from(blac), &kernel, arch.vector_isa(), &values)
        .unwrap_or_else(|e| panic!("{arch} {variant:?}: {e}"))
        .swap_remove(blac.output.0);
    let tol = 1e-3 + 1e-5 * blac.flops() as f32;
    let diff = max_abs_diff(&got, &expected);
    assert!(
        diff < tol,
        "{arch} {variant:?}: diff {diff} > {tol} for {blac:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_blacs_compile_correctly_everywhere(
        rows in 1usize..11,
        cols in 1usize..11,
        depth in 1usize..4,
        seed in any::<u64>(),
        arch_pick in 0usize..4,
        variant_pick in 0usize..4,
    ) {
        let blac = gen_blac(rows, cols, depth, seed);
        let arch = Microarch::EVALUATED[arch_pick];
        let variant = Variant::ALL[variant_pick];
        check(&blac, arch, variant);
    }

    /// Deep expressions exercise temporary materialization and chains.
    #[test]
    fn deep_random_blacs_on_default_targets(
        seed in any::<u64>(),
        rows in 2usize..7,
        cols in 2usize..7,
    ) {
        let blac = gen_blac(rows, cols, 5, seed);
        check(&blac, Microarch::Atom, Variant::Full);
        check(&blac, Microarch::CortexA8, Variant::Full);
    }
}

/// Interprets the kernel and returns the output bits (exact comparison —
/// optimization passes may not change a single ulp).
fn output_bits(
    blac: &Blac,
    kernel: &lgen::cir::Kernel,
    arch: Microarch,
    values: &[lgen::ll::reference::MatrixValue],
) -> Vec<u32> {
    run_program_kernel(&Program::from(blac), kernel, arch.vector_isa(), values)
        .unwrap_or_else(|e| panic!("{arch}: {e}"))
        .swap_remove(blac.output.0)
        .data
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Differential per-pass property: after *each individual* pass the
    /// kernel still verifies clean and computes bit-identical outputs.
    /// The assert message names the offending pass.
    #[test]
    fn every_pass_preserves_outputs_and_verifies(
        rows in 1usize..9,
        cols in 1usize..9,
        depth in 1usize..4,
        seed in any::<u64>(),
        arch_pick in 0usize..4,
        policy_pick in 0usize..4,
    ) {
        let blac = gen_blac(rows, cols, depth, seed);
        let arch = Microarch::EVALUATED[arch_pick];
        let policy = [
            UnrollPolicy::None,
            UnrollPolicy::Full { max_trip: 8 },
            UnrollPolicy::Full { max_trip: 128 },
            UnrollPolicy::Factor { factor: 2 },
        ][policy_pick];
        let values: Vec<_> = blac
            .operands
            .iter()
            .enumerate()
            .map(|(i, op)| test_data(op.dims, 400 + i as u64))
            .collect();
        let opts = CodegenOptions::full(arch.vector_isa());
        let mut kernel = lgen::sigma::compile_blac(&blac, "diff", &opts);
        let diags = verify_kernel(&kernel);
        prop_assert!(diags.is_empty(), "codegen fails verification:\n{}", lgen::cir::render(&diags));
        let baseline = output_bits(&blac, &kernel, arch, &values);
        // The standard schedule, one single-step pipeline per pass.
        let ctx = PassCtx::new(policy);
        for name in PASS_NAMES {
            let step = PassPipeline::parse(name).expect("pass name");
            prop_assert!(step.run(&mut kernel, &ctx).is_ok());
            let diags = verify_kernel(&kernel);
            prop_assert!(
                diags.is_empty(),
                "pass `{}` broke verification:\n{}",
                name,
                lgen::cir::render(&diags)
            );
            let got = output_bits(&blac, &kernel, arch, &values);
            prop_assert_eq!(&got, &baseline, "pass `{}` changed outputs", name);
        }
    }
}

#[test]
fn generator_produces_nontrivial_trees() {
    // Sanity: some seeds must produce products and transposes.
    let mut saw_mul = false;
    let mut saw_trans = false;
    for seed in 0..40u64 {
        let blac = gen_blac(4, 4, 3, seed);
        fn walk(e: &Expr, mul: &mut bool, trans: &mut bool) {
            match e {
                Expr::Mul(a, b) => {
                    *mul = true;
                    walk(a, mul, trans);
                    walk(b, mul, trans);
                }
                Expr::Add(a, b) | Expr::Mvh(a, b) => {
                    walk(a, mul, trans);
                    walk(b, mul, trans);
                }
                Expr::Trans(a) | Expr::Rr(a) => {
                    *trans = true;
                    walk(a, mul, trans);
                }
                Expr::Ref(_) => {}
            }
        }
        walk(&blac.expr, &mut saw_mul, &mut saw_trans);
    }
    assert!(saw_mul && saw_trans);
}
