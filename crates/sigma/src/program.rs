//! Whole-program lowering: cross-statement fusion and single-unit
//! code generation.
//!
//! A [`Program`] lowers into *one* Σ-LL unit: every
//! statement is tiled and driven into the same [`Kernel`], temporaries
//! become kernel locals, and — the payoff — the scatter of a producer
//! statement is fused with the gather of its consumer. Concretely, a
//! temporary that is written by exactly one statement and read by exactly
//! one later statement is eliminated by substituting the producer's
//! expression into the consumer ([`fuse_program`]): the store-to-array /
//! load-from-array round-trip through the intermediate disappears, and
//! once the loops are unrolled, scalar replacement and DCE shorten the
//! remaining computation chains exactly as they do within a single BLAC.
//! A statement-by-statement compilation cannot do this, because each
//! statement's output is an opaque parameter array.

use crate::codegen::{lower_statement, CodegenOptions};
use lgen_cir::{ArrayId, Kernel, KernelBuilder};
use lgen_ll::blac::{Expr, OperandId};
use lgen_ll::Program;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

/// A compiled program: the fused kernel plus per-statement metadata.
#[derive(Clone, Debug)]
pub struct ProgramKernel {
    /// The single fused kernel. Its parameters are the program's
    /// non-temporary operands, in operand order.
    pub kernel: Kernel,
    /// For each *fused* statement, the half-open range of top-level
    /// instructions of `kernel.body` it produced — the regions a joint
    /// autotuner unrolls independently.
    pub stmt_ranges: Vec<Range<usize>>,
    /// The program after cross-statement fusion (same operand table as
    /// the input; possibly fewer statements).
    pub fused: Program,
    /// Number of producer→consumer substitutions performed.
    pub fusions: usize,
}

fn refs_of(e: &Expr, out: &mut Vec<OperandId>) {
    match e {
        Expr::Ref(id) => out.push(*id),
        Expr::Add(a, b) | Expr::Mul(a, b) | Expr::Mvh(a, b) => {
            refs_of(a, out);
            refs_of(b, out);
        }
        Expr::Trans(a) | Expr::Rr(a) => refs_of(a, out),
    }
}

fn substitute(e: &Expr, temp: OperandId, replacement: &Expr) -> Expr {
    match e {
        Expr::Ref(id) if *id == temp => replacement.clone(),
        Expr::Ref(_) => e.clone(),
        Expr::Add(a, b) => Expr::Add(
            Arc::new(substitute(a, temp, replacement)),
            Arc::new(substitute(b, temp, replacement)),
        ),
        Expr::Mul(a, b) => Expr::Mul(
            Arc::new(substitute(a, temp, replacement)),
            Arc::new(substitute(b, temp, replacement)),
        ),
        Expr::Trans(a) => Expr::Trans(Arc::new(substitute(a, temp, replacement))),
        Expr::Mvh(a, b) => Expr::Mvh(
            Arc::new(substitute(a, temp, replacement)),
            Arc::new(substitute(b, temp, replacement)),
        ),
        Expr::Rr(a) => Expr::Rr(Arc::new(substitute(a, temp, replacement))),
    }
}

/// Cross-statement scatter∘gather fusion: eliminates temporaries that are
/// defined by exactly one statement and consumed by exactly one later
/// statement, substituting the producer's expression into the consumer
/// and dropping the producer. Runs to a fixpoint (a chain `t0 → t1 → out`
/// collapses completely). Returns the fused program (operand table
/// unchanged — eliminated temporaries simply become unreferenced) and the
/// number of substitutions.
///
/// A substitution is only legal when moving the producer's evaluation
/// down to the consumer cannot change its value: no statement between the
/// two writes any operand the producer reads, and the consumer's own
/// target is not among them (the generated kernel writes output tiles
/// while reading inputs).
pub fn fuse_program(program: &Program) -> (Program, usize) {
    let mut fused = program.clone();
    if !program.temps.contains(&true) {
        // Only temporaries fuse: a program without any (a BLAC) is final.
        return (fused, 0);
    }
    let mut fusions = 0usize;
    loop {
        let mut applied = false;
        // def/use counts per temp over the current statement list.
        let nops = fused.operands.len();
        let mut defs = vec![0usize; nops];
        let mut def_at = vec![usize::MAX; nops];
        let mut uses = vec![0usize; nops];
        let mut use_at = vec![usize::MAX; nops];
        for (i, stmt) in fused.statements.iter().enumerate() {
            defs[stmt.target.0] += 1;
            if def_at[stmt.target.0] == usize::MAX {
                def_at[stmt.target.0] = i;
            }
            let mut refs = Vec::new();
            refs_of(&stmt.expr, &mut refs);
            for id in refs {
                uses[id.0] += 1;
                use_at[id.0] = i;
            }
        }
        for t in 0..nops {
            if !fused.temps[t] || defs[t] != 1 || uses[t] != 1 {
                continue;
            }
            let (d, u) = (def_at[t], use_at[t]);
            if u <= d {
                continue;
            }
            let mut prod_reads = Vec::new();
            refs_of(&fused.statements[d].expr, &mut prod_reads);
            let prod_reads: HashSet<usize> = prod_reads.iter().map(|id| id.0).collect();
            // Legality: nothing the producer reads is written in (d, u],
            // including by the consumer itself.
            let hazard = fused.statements[(d + 1)..=u]
                .iter()
                .any(|s| prod_reads.contains(&s.target.0));
            if hazard {
                continue;
            }
            let producer = fused.statements[d].expr.clone();
            let consumer = &mut fused.statements[u];
            consumer.expr = substitute(&consumer.expr, OperandId(t), &producer);
            fused.statements.remove(d);
            fusions += 1;
            applied = true;
            break; // counts are stale; recompute
        }
        if !applied {
            break;
        }
    }
    if fusions > 0 {
        lgen_telemetry::counter("sigma.fusions").add(fusions as u64);
    }
    (fused, fusions)
}

/// Compiles a validated program into one (unoptimized) C-IR kernel.
///
/// Statements are fused across producer/consumer boundaries
/// ([`fuse_program`]), then each surviving statement is tiled and driven
/// into a shared [`KernelBuilder`]: non-temporary operands become kernel
/// parameters (classified input / output / in-out from the program's
/// dataflow), surviving temporaries become kernel locals, and fully fused
/// temporaries vanish. The kernel reports the *original* program's useful
/// flops (§5.1.4 convention — fusion and structure change the executed
/// operations, not the computation's cost denominator).
///
/// # Panics
///
/// Panics if the program does not validate.
pub fn compile_program(program: &Program, name: &str, opts: &CodegenOptions) -> ProgramKernel {
    program
        .validate()
        .expect("program must validate before compilation");
    let (fused, fusions) = fuse_program(program);

    // Which operands are still referenced after fusion, and where.
    let nops = fused.operands.len();
    let mut written = vec![false; nops];
    let mut read_before_write = vec![false; nops];
    let mut referenced = vec![false; nops];
    for stmt in &fused.statements {
        let mut refs = Vec::new();
        refs_of(&stmt.expr, &mut refs);
        for id in refs {
            referenced[id.0] = true;
            if !written[id.0] {
                read_before_write[id.0] = true;
            }
        }
        written[stmt.target.0] = true;
        referenced[stmt.target.0] = true;
    }

    let mut b = KernelBuilder::new(name);
    let mut operand_arrays: Vec<ArrayId> = Vec::with_capacity(nops);
    // Parameters first, in operand order (the execution ABI); locals after.
    for (i, op) in fused.operands.iter().enumerate() {
        if fused.temps[i] {
            operand_arrays.push(ArrayId(usize::MAX)); // patched below
            continue;
        }
        let arr = if !written[i] {
            b.input(&op.name, op.dims.len())
        } else if read_before_write[i] {
            b.inout(&op.name, op.dims.len())
        } else {
            b.output(&op.name, op.dims.len())
        };
        operand_arrays.push(arr);
    }
    for (i, op) in fused.operands.iter().enumerate() {
        if fused.temps[i] && referenced[i] {
            operand_arrays[i] = b.local(&op.name, op.dims.len());
        }
        // Fully fused-away temps keep the placeholder id; no statement
        // references them, so it is never dereferenced.
    }

    let mut stmt_ranges = Vec::with_capacity(fused.statements.len());
    let mut ntmp = 0usize;
    for i in 0..fused.statements.len() {
        let mut span = lgen_telemetry::span("stmt");
        span.attr("index", i);
        span.attr("target", &fused.operands[fused.statements[i].target.0].name);
        let start = b.top_level_len();
        let stmt = &fused.statements[i];
        let (bb, n) = lower_statement(
            &fused.operands,
            stmt.target,
            &stmt.expr,
            opts,
            b,
            operand_arrays.clone(),
            ntmp,
        );
        b = bb;
        ntmp = n;
        stmt_ranges.push(start..b.top_level_len());
    }

    let kernel = b.finish(program.flops());
    ProgramKernel {
        kernel,
        stmt_ranges,
        fused,
        fusions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::MvmStrategy;
    use lgen_cir::{run_kernel, ArrayKind, MemLayout};
    use lgen_isa::inst::{CountingSink, NullSink};
    use lgen_isa::VectorIsa;
    use lgen_ll::blac::Structure;
    use lgen_ll::reference::{max_abs_diff, test_data_for, MatrixValue};
    use lgen_ll::{eval_program_reference, parse_program, ProgramBuilder};

    fn all_option_combos() -> Vec<CodegenOptions> {
        let mut v = Vec::new();
        for isa in [VectorIsa::Ssse3, VectorIsa::Neon, VectorIsa::Scalar] {
            for mvm in [MvmStrategy::Classic, MvmStrategy::MvhRr] {
                for spec in [false, true] {
                    v.push(CodegenOptions {
                        isa,
                        mvm,
                        specialized_leftovers: spec,
                        peel_offset: None,
                    });
                }
            }
        }
        v
    }

    /// Compiles and executes a program, comparing every non-temp output
    /// against the statement-by-statement reference composition.
    fn check(program: &Program, opts: &CodegenOptions) {
        let pk = compile_program(program, "prog", opts);
        let values: Vec<MatrixValue> = program
            .operands
            .iter()
            .enumerate()
            .map(|(i, op)| test_data_for(op, i as u64 + 1))
            .collect();
        let expected = eval_program_reference(program, &values);
        let mut bufs: Vec<Vec<f32>> = program
            .operands
            .iter()
            .zip(&program.temps)
            .zip(&values)
            .filter(|((_, &t), _)| !t)
            .map(|((_, _), v)| v.data.clone())
            .collect();
        let layout = MemLayout::aligned(&pk.kernel);
        {
            let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            run_kernel(&pk.kernel, &mut refs, &layout, opts.isa, &mut NullSink)
                .unwrap_or_else(|e| panic!("{}: {e}", pk.kernel.name));
        }
        let tol = 1e-4 + 1e-6 * program.flops() as f32;
        let mut param = 0usize;
        for (i, op) in program.operands.iter().enumerate() {
            if program.temps[i] {
                continue;
            }
            let got = MatrixValue::new(op.dims, bufs[param].clone());
            let diff = max_abs_diff(&got, &expected[i]);
            assert!(
                diff < tol,
                "operand {} on {:?} (mvm {:?}, spec {}): diff {diff} > {tol}",
                op.name,
                opts.isa,
                opts.mvm,
                opts.specialized_leftovers
            );
            param += 1;
        }
    }

    fn kalman_predict() -> Program {
        parse_program(
            "F = matrix(4, 4)\n\
             B = matrix(4, 2)\n\
             u = vector(2)\n\
             x = vector(4)\n\
             x_next = vector(4)\n\
             P = matrix(4, 4) symmetric\n\
             Q = matrix(4, 4) symmetric\n\
             P_next = matrix(4, 4)\n\
             x_next = F * x + B * u;\n\
             S = P * F';\n\
             P_next = F * S + Q;",
        )
        .unwrap()
    }

    #[test]
    fn fusion_eliminates_single_use_temps() {
        let p = kalman_predict();
        let (fused, n) = fuse_program(&p);
        assert_eq!(n, 1, "S should be substituted into its consumer");
        assert_eq!(fused.statements.len(), 2);
        // A two-link chain collapses completely.
        let chain = parse_program(
            "A = matrix(4, 4)\nx = vector(4)\ny = vector(4)\n\
             t0 = A * x; t1 = A * t0; y = t1;",
        )
        .unwrap();
        let (fused, n) = fuse_program(&chain);
        assert_eq!(n, 2);
        assert_eq!(fused.statements.len(), 1);
    }

    #[test]
    fn fusion_respects_write_hazards() {
        // t reads x; x is overwritten before t's consumer runs, so
        // substituting A*x into the last statement would read the new x.
        let p = parse_program(
            "A = matrix(4, 4)\nx = vector(4)\ny = vector(4)\n\
             t = A * x; x = A * y; y = t;",
        )
        .unwrap();
        let (fused, n) = fuse_program(&p);
        assert_eq!(n, 0);
        assert_eq!(fused.statements.len(), 3);
        // The consumer writing a producer input is the same hazard.
        let p = parse_program(
            "A = matrix(4, 4)\nx = vector(4)\n\
             t = A * x; x = t + x;",
        )
        .unwrap();
        let (_, n) = fuse_program(&p);
        assert_eq!(n, 0);
    }

    #[test]
    fn multi_use_temps_are_materialized_not_fused() {
        let p = parse_program(
            "A = matrix(4, 4)\nx = vector(4)\ny = vector(4)\nz = vector(4)\n\
             t = A * x; y = t; z = t;",
        )
        .unwrap();
        let (fused, n) = fuse_program(&p);
        assert_eq!(n, 0);
        let pk = compile_program(&p, "multi", &CodegenOptions::full(VectorIsa::Ssse3));
        assert_eq!(fused.statements.len(), 3);
        // t survives as a kernel local.
        assert_eq!(
            pk.kernel
                .arrays
                .iter()
                .filter(|a| a.kind == ArrayKind::Local)
                .count(),
            1
        );
        check(&p, &CodegenOptions::full(VectorIsa::Ssse3));
    }

    #[test]
    fn fused_temps_leave_no_local_arrays() {
        let p = kalman_predict();
        let pk = compile_program(&p, "kalman", &CodegenOptions::full(VectorIsa::Ssse3));
        assert_eq!(pk.fusions, 1);
        // S was fused away; F*S still materializes its barrier operand
        // P*F' as a codegen temp, but S itself must not be declared.
        assert!(
            !pk.kernel.arrays.iter().any(|a| a.name == "S"),
            "{:?}",
            pk.kernel.arrays
        );
        // Param classification: F,B,u,x,P,Q inputs; x_next,P_next outputs.
        let kinds: Vec<(&str, ArrayKind)> = pk
            .kernel
            .arrays
            .iter()
            .filter(|a| a.kind.is_param())
            .map(|a| (a.name.as_str(), a.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("F", ArrayKind::Input),
                ("B", ArrayKind::Input),
                ("u", ArrayKind::Input),
                ("x", ArrayKind::Input),
                ("x_next", ArrayKind::Output),
                ("P", ArrayKind::Input),
                ("Q", ArrayKind::Input),
                ("P_next", ArrayKind::Output),
            ]
        );
    }

    #[test]
    fn stmt_ranges_partition_the_body() {
        let p = kalman_predict();
        let pk = compile_program(&p, "kalman", &CodegenOptions::full(VectorIsa::Neon));
        assert_eq!(pk.stmt_ranges.len(), pk.fused.statements.len());
        let mut expect_start = 0;
        for r in &pk.stmt_ranges {
            assert_eq!(r.start, expect_start);
            expect_start = r.end;
        }
        assert_eq!(expect_start, pk.kernel.body().insts().len());
    }

    #[test]
    fn programs_correct_on_all_isas() {
        let programs = [
            kalman_predict(),
            parse_program(
                "A = matrix(5, 7)\nB = matrix(7, 3)\nC = matrix(5, 3)\n\
                 alpha = scalar\n\
                 t = A * B; C = alpha * t + C;",
            )
            .unwrap(),
            parse_program(
                "A = matrix(4, 4)\nx = vector(4)\ny = vector(4)\nz = vector(4)\n\
                 t = A * x; y = t; z = t + y;",
            )
            .unwrap(),
        ];
        for p in &programs {
            for opts in all_option_combos() {
                check(p, &opts);
            }
        }
    }

    #[test]
    fn structured_operands_correct_on_all_isas() {
        let programs = [
            parse_program(
                "L = matrix(6, 6) triangular(lower)\nx = vector(6)\ny = vector(6)\n\
                 y = L * x;",
            )
            .unwrap(),
            parse_program(
                "U = matrix(6, 6) triangular(upper)\nx = vector(6)\ny = vector(6)\n\
                 y = U * x;",
            )
            .unwrap(),
            parse_program(
                "D = matrix(7, 7) diagonal\nx = vector(7)\ny = vector(7)\n\
                 y = D * x;",
            )
            .unwrap(),
            parse_program(
                "L = matrix(5, 5) triangular(lower)\nB = matrix(5, 6)\nC = matrix(5, 6)\n\
                 C = L * B;",
            )
            .unwrap(),
            // Transposed structure: L' is upper-triangular.
            parse_program(
                "L = matrix(6, 6) triangular(lower)\nx = vector(6)\ny = vector(6)\n\
                 y = L' * x;",
            )
            .unwrap(),
            parse_program(
                "P = matrix(6, 6) symmetric\nx = vector(6)\ny = vector(6)\n\
                 y = P * x;",
            )
            .unwrap(),
        ];
        for p in &programs {
            for opts in all_option_combos() {
                check(p, &opts);
            }
        }
    }

    #[test]
    fn triangular_skipping_reduces_dynamic_instructions() {
        let run = |src: &str| {
            let p = parse_program(src).unwrap();
            let pk = compile_program(&p, "tri", &CodegenOptions::full(VectorIsa::Ssse3));
            let values: Vec<MatrixValue> = p
                .operands
                .iter()
                .enumerate()
                .map(|(i, op)| test_data_for(op, i as u64 + 1))
                .collect();
            let mut bufs: Vec<Vec<f32>> = values.iter().map(|v| v.data.clone()).collect();
            let layout = MemLayout::aligned(&pk.kernel);
            let mut sink = CountingSink::new();
            let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            run_kernel(&pk.kernel, &mut refs, &layout, VectorIsa::Ssse3, &mut sink).unwrap();
            sink.total()
        };
        let dense = run("L = matrix(16, 16)\nx = vector(16)\ny = vector(16)\ny = L * x;");
        let tri =
            run("L = matrix(16, 16) triangular(lower)\nx = vector(16)\ny = vector(16)\ny = L * x;");
        assert!(
            tri < dense,
            "triangular MVM should execute fewer instructions: {tri} vs {dense}"
        );
    }

    /// Every paper family at a micro-tile (4), a leftover (5/7/3), and a
    /// panel (8/12/16) size.
    fn paper_suite() -> Vec<lgen_ll::Blac> {
        use lgen_ll::paper;
        let mut v = Vec::new();
        for (a, b, c) in [(4, 4, 4), (5, 7, 3), (8, 12, 16)] {
            v.extend([
                paper::mvm(a, b),
                paper::mmm(a, b, c),
                paper::axpy(b),
                paper::gemv(a, b),
                paper::gemm(a, b, c),
                paper::two_gemv(a, b),
                paper::bilinear(a, b),
                paper::addt_gemm(a, b, c),
                paper::madd(a, b),
                paper::transpose(a, b),
            ]);
        }
        v
    }

    #[test]
    fn a_blac_lowers_like_its_one_statement_program() {
        for blac in paper_suite() {
            let program = Program::from(&blac);
            for base in all_option_combos() {
                for peel_offset in [None, Some(0), Some(1), Some(2), Some(3)] {
                    let opts = CodegenOptions {
                        peel_offset,
                        ..base
                    };
                    let direct = crate::compile_blac(&blac, "k", &opts);
                    let pk = compile_program(&program, "k", &opts);
                    let ctx = format!("{blac} under {opts:?}");
                    assert_eq!(pk.fusions, 0, "{ctx}");
                    assert_eq!(pk.kernel.arrays, direct.arrays, "{ctx}");
                    assert_eq!(pk.kernel.flops, direct.flops, "{ctx}");
                    assert_eq!(
                        lgen_cir::unparse::unparse(&pk.kernel, opts.isa),
                        lgen_cir::unparse::unparse(&direct, opts.isa),
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn builder_programs_compile_too() {
        let mut b = ProgramBuilder::new();
        let f = b.matrix("F", 4, 4);
        let p = b.structured_matrix("P", 4, Structure::Symmetric);
        let pn = b.matrix("P_next", 4, 4);
        let s = b.let_stmt("S", b.handle(p) * b.handle(f).t()).unwrap();
        let _ = s;
        b.stmt(pn, b.handle(f) * b.handle(s)).unwrap();
        let program = b.finish().unwrap();
        for opts in [
            CodegenOptions::new(VectorIsa::Ssse3),
            CodegenOptions::full(VectorIsa::Neon),
        ] {
            check(&program, &opts);
        }
    }
}
