//! Whole-program differential tests: a *random* multi-statement program,
//! compiled and fused into one kernel, must compute what the
//! statement-by-statement reference composition computes — on every
//! backend. A second differential runs each statement as its own compiled
//! kernel in sequence and compares that against the fused kernel, so a
//! failure separates "fusion is wrong" from "codegen is wrong".

use lgen::ll::blac::{Dims, Expr, Operand, OperandId};
use lgen::ll::Statement;
use lgen::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Program-under-construction: a shared operand table plus an xorshift
/// decision stream (the same scheme as `tests/random_blacs.rs`).
struct Gen {
    operands: Vec<Operand>,
    temps: Vec<bool>,
    seed: u64,
}

impl Gen {
    fn next(&mut self) -> u64 {
        self.seed ^= self.seed << 13;
        self.seed ^= self.seed >> 7;
        self.seed ^= self.seed << 17;
        self.seed
    }

    /// A fresh input operand; square matrices sometimes get a structure
    /// annotation so the structured-codegen paths are exercised.
    fn fresh(&mut self, d: Dims) -> Expr {
        let structure = if d.rows == d.cols && d.rows > 1 && self.next().is_multiple_of(3) {
            match self.next() % 4 {
                0 => Structure::LowerTriangular,
                1 => Structure::UpperTriangular,
                2 => Structure::Symmetric,
                _ => Structure::Diagonal,
            }
        } else {
            Structure::General
        };
        let id = OperandId(self.operands.len());
        self.operands.push(Operand {
            name: format!("op{}", id.0),
            dims: d,
            structure,
        });
        self.temps.push(false);
        Expr::Ref(id)
    }

    /// An expression of dims `d`; leaves may reuse an earlier statement's
    /// target of matching dims (that is what makes fusion interesting).
    fn expr(&mut self, d: Dims, depth: usize, avail: &[(OperandId, Dims)]) -> Expr {
        if depth == 0 || self.next().is_multiple_of(5) {
            let matching: Vec<OperandId> = avail
                .iter()
                .filter(|(_, ad)| *ad == d)
                .map(|(id, _)| *id)
                .collect();
            if !matching.is_empty() && self.next().is_multiple_of(2) {
                return Expr::Ref(matching[self.next() as usize % matching.len()]);
            }
            return self.fresh(d);
        }
        match self.next() % 4 {
            0 => Expr::Add(
                Arc::new(self.expr(d, depth - 1, avail)),
                Arc::new(self.expr(d, depth - 1, avail)),
            ),
            1 => {
                let s = self.fresh(Dims::new(1, 1));
                Expr::Mul(Arc::new(s), Arc::new(self.expr(d, depth - 1, avail)))
            }
            2 => {
                let k = 1 + (self.next() % 5) as usize;
                let left = self.expr(Dims::new(d.rows, k), depth - 1, avail);
                let right = self.expr(Dims::new(k, d.cols), depth - 1, avail);
                Expr::Mul(Arc::new(left), Arc::new(right))
            }
            _ => Expr::Trans(Arc::new(self.expr(d.t(), depth - 1, avail))),
        }
    }
}

/// A random well-formed program: `nstmt` statements, each a fresh target
/// (interior targets are `let`-bound temporaries about half the time, so
/// some runs fuse and some materialize).
fn gen_program(nstmt: usize, max_dim: usize, depth: usize, seed: u64) -> Program {
    let mut g = Gen {
        operands: Vec::new(),
        temps: Vec::new(),
        seed: seed | 1,
    };
    let mut statements = Vec::new();
    let mut avail: Vec<(OperandId, Dims)> = Vec::new();
    for i in 0..nstmt {
        let d = Dims::new(
            1 + (g.next() as usize % max_dim),
            1 + (g.next() as usize % max_dim),
        );
        let expr = g.expr(d, depth, &avail);
        let is_temp = i + 1 < nstmt && g.next().is_multiple_of(2);
        let id = OperandId(g.operands.len());
        g.operands.push(Operand {
            name: format!("t{i}"),
            dims: d,
            structure: Structure::General,
        });
        g.temps.push(is_temp);
        statements.push(Statement { target: id, expr });
        avail.push((id, d));
    }
    let program = Program {
        operands: g.operands,
        temps: g.temps,
        statements,
    };
    program
        .validate()
        .expect("generated programs are well-formed by construction");
    program
}

/// Fused-vs-reference check (the program analogue of
/// `random_blacs::check`).
fn check(program: &Program, arch: Microarch, variant: Variant) {
    let cfg = CompileConfig::variant(arch, variant);
    let compiled = compile_program(program, "fuzz", &cfg);
    let diff = check_program(program, &compiled.kernel, arch.vector_isa(), 101)
        .unwrap_or_else(|e| panic!("{arch} {variant:?}: {e}"));
    let tol = 1e-3 + 1e-5 * program.flops() as f32;
    assert!(
        diff < tol,
        "{arch} {variant:?}: diff {diff} > {tol} for {program:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random fused program matches the statement-by-statement
    /// reference composition on every backend and variant.
    #[test]
    fn random_programs_fuse_correctly_everywhere(
        nstmt in 2usize..5,
        max_dim in 1usize..7,
        depth in 1usize..3,
        seed in any::<u64>(),
        arch_pick in 0usize..4,
        variant_pick in 0usize..4,
    ) {
        let program = gen_program(nstmt, max_dim, depth, seed);
        let arch = Microarch::EVALUATED[arch_pick];
        let variant = Variant::ALL[variant_pick];
        check(&program, arch, variant);
    }

    /// Kernel-vs-kernel differential: the fused program kernel must agree
    /// with its own statements compiled and executed *independently* in
    /// order (temporaries round-tripping through buffers), isolating
    /// fusion bugs from codegen bugs.
    #[test]
    fn fused_kernel_matches_statementwise_kernels(
        nstmt in 2usize..4,
        max_dim in 1usize..6,
        seed in any::<u64>(),
        arch_pick in 0usize..4,
    ) {
        let program = gen_program(nstmt, max_dim, 2, seed);
        let arch = Microarch::EVALUATED[arch_pick];
        let cfg = CompileConfig::full(arch);

        let compiled = compile_program(&program, "fuzz", &cfg);
        let values = lgen::core::program_test_values(&program, 33);
        let fused = run_program_kernel(&program, &compiled.kernel, arch.vector_isa(), &values)
            .unwrap_or_else(|e| panic!("{arch}: {e}"));

        // Statement-by-statement: full-table views keep operand ids
        // aligned, so each statement's kernel reads/writes the shared
        // value vector exactly like the reference composition.
        let mut state = values.clone();
        for i in 0..program.statements.len() {
            let blac = program.view(i);
            let kernel = compile(&blac, "stage", &cfg);
            let mut out =
                run_program_kernel(&Program::from(&blac), &kernel, arch.vector_isa(), &state)
                    .unwrap_or_else(|e| panic!("{arch} stmt {i}: {e}"));
            state[blac.output.0] = out.swap_remove(blac.output.0);
        }

        let tol = 1e-3 + 1e-5 * program.flops() as f32;
        for (i, _) in program.operands.iter().enumerate() {
            if program.temps[i] {
                continue;
            }
            let diff = lgen::ll::reference::max_abs_diff(&fused[i], &state[i]);
            prop_assert!(
                diff < tol,
                "{arch}: operand {i} diff {diff} > {tol} for {program:?}"
            );
        }
    }
}

/// The Kalman predict step (the `examples/kalman_update.rs` program) as a
/// fixed regression: fuses exactly one temporary and validates everywhere.
#[test]
fn kalman_predict_program_fuses_and_validates() {
    let program = parse_program(
        "F = matrix(6, 6)\nB = matrix(6, 3)\nu = vector(3)\nx = vector(6)\n\
         x_next = vector(6)\nP = matrix(6, 6) symmetric\nQ = matrix(6, 6) symmetric\n\
         P_next = matrix(6, 6)\n\
         x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;",
    )
    .unwrap();
    for arch in Microarch::EVALUATED {
        let cfg = CompileConfig::full(arch);
        let compiled = compile_program(&program, "kalman_predict", &cfg);
        assert_eq!(compiled.fusions, 1, "{arch:?}");
        let diff = check_program(&program, &compiled.kernel, arch.vector_isa(), 7).unwrap();
        assert!(diff < 1e-3, "{arch:?}: {diff}");
    }
}
