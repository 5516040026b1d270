//! Control workload: the predict step of a small Kalman filter, compiled
//! as **one program**.
//!
//! Control is another domain the paper's introduction motivates: fixed,
//! small state dimensions, kernels called at kilohertz rates on embedded
//! cores. This example writes the whole predict step of a 6-state /
//! 3-input system as a single LL program,
//!
//! ```text
//! x' = F x + B u                (state extrapolation)
//! S  = P Fᵀ                     (let-bound temporary)
//! P' = F S + Q                  (covariance extrapolation)
//! ```
//!
//! with `P` and `Q` declared `symmetric`. The compiler fuses the
//! single-use temporary `S` into its consumer and emits **one kernel** for
//! the whole step; the example validates it against the
//! statement-by-statement reference composition, measures it per core
//! against three independently compiled statement kernels, and finishes
//! with a joint autotune (one unroll policy per fused statement).
//!
//! Machine-readable `BENCH` lines feed `ci.sh`'s program suite
//! (`BENCH_programs.json`).
//!
//! ```text
//! cargo run --release --example kalman_update
//! ```

use lgen::prelude::*;
use std::time::Instant;

const NSTATE: usize = 6;
const NIN: usize = 3;

/// The predict step as one LL program: declarations (with structure
/// annotations), then ordered statements; `S` is `let`-bound by use.
fn predict_program() -> Program {
    let src = format!(
        "F = matrix({n}, {n})\n\
         B = matrix({n}, {m})\n\
         u = vector({m})\n\
         x = vector({n})\n\
         x_next = vector({n})\n\
         P = matrix({n}, {n}) symmetric\n\
         Q = matrix({n}, {n}) symmetric\n\
         P_next = matrix({n}, {n})\n\
         x_next = F * x + B * u;\n\
         S = P * F';\n\
         P_next = F * S + Q;",
        n = NSTATE,
        m = NIN,
    );
    parse_program(&src).expect("valid program")
}

fn main() {
    let program = predict_program();
    println!(
        "Kalman predict step, {NSTATE}-state / {NIN}-input system — one program, {} statements, {} flops\n",
        program.statements.len(),
        program.flops()
    );

    let mut fused_wins_somewhere = false;
    for arch in Microarch::EVALUATED {
        let cfg = CompileConfig::full(arch);

        // One fused kernel for the whole step.
        let compiled = compile_program(&program, "kalman_predict", &cfg);
        assert_eq!(compiled.fusions, 1, "S should fuse into P' = F S + Q");
        let diff =
            check_program(&program, &compiled.kernel, arch.vector_isa(), 13).expect("kernel runs");
        assert!(diff < 1e-3, "{arch:?}: max|err| = {diff}");
        let fused = measure_program(&program, &compiled.kernel, arch, 3).expect("measurement");

        // The pre-program workflow: each statement compiled and run as its
        // own kernel, temporaries round-tripping through memory.
        let mut unfused_cycles = 0u64;
        for i in 0..program.statements.len() {
            let blac = program.statement_blac(i);
            let kernel = compile(&blac, "stage", &cfg);
            let m = measure_blac(&blac, &kernel, arch, &vec![0; blac.operands.len()], 3)
                .expect("measurement");
            unfused_cycles += m.cycles;
        }

        let params = arch.params();
        let us = fused.cycles as f64 / params.clock_mhz as f64;
        println!(
            "{:<14} fused {:>5} cycles ({:>6.2} µs @ {} MHz) vs {:>5} unfused ({:+.0}%), {:.2} f/c",
            arch.name(),
            fused.cycles,
            us,
            params.clock_mhz,
            unfused_cycles,
            100.0 * (fused.cycles as f64 - unfused_cycles as f64) / unfused_cycles as f64,
            fused.flops as f64 / fused.cycles as f64,
        );
        println!(
            "BENCH program=kalman_predict arch={arch:?} statements={} fusions={} \
             fused_cycles={} unfused_cycles={}",
            program.statements.len(),
            compiled.fusions,
            fused.cycles,
            unfused_cycles,
        );
        if fused.cycles < unfused_cycles {
            fused_wins_somewhere = true;
        }
    }
    assert!(
        fused_wins_somewhere,
        "cross-statement fusion should beat statement-by-statement compilation on some core"
    );

    // Joint autotuning: one unroll policy per fused statement, searched as
    // a single genome.
    println!("\njoint tuning on Intel Atom (per-statement unroll genome):");
    let t = Instant::now();
    let tuned = Autotuner::new(CompileConfig::full(Microarch::Atom))
        .with_strategy(lgen::core::SearchStrategy::Exhaustive)
        .with_mixed_samples(8)
        .try_tune_program(&program, "kalman_predict")
        .expect("some genome survives");
    let tune_ms = t.elapsed().as_millis();
    println!(
        "  best genome {:?}: {} cycles over {} candidates in {} ms",
        tuned.policies,
        tuned.measurement.cycles,
        tuned.samples.len(),
        tune_ms,
    );
    println!(
        "BENCH program=kalman_predict arch=Atom tuned_cycles={} candidates={} tune_ms={}",
        tuned.measurement.cycles,
        tuned.samples.len(),
        tune_ms,
    );
}
