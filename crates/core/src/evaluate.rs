//! Candidate evaluation for the autotuner: validate, then measure.
//!
//! An [`Evaluator`] is built once per tune from the program under tuning
//! (a BLAC through `Program::from`). It holds the seeded test data and the
//! reference result, so a candidate costs one scheduled interpretation
//! when its memory layout fits in the core's L1, and two interpretations
//! and one schedule when it does not:
//!
//! - the validation run executes the kernel on the test data and takes
//!   the largest difference from the reference;
//! - if the layout fits ([`Simulator::prefilled`]), the validation run is
//!   scheduled on a simulator whose L1 already holds the layout, and is
//!   the timed run of the §5.1.4 protocol;
//! - otherwise it streams through a cache-warming sink
//!   ([`Simulator::warming`]) as the protocol's warm-up, and the timed run
//!   executes the kernel again on restored inputs, scheduled on the warm
//!   cache.
//!
//! The trace depends only on the kernel, the layout and the ISA, never on
//! the data (see `lgen_machine::measure`), so the measurement equals
//! [`measure_blac`](crate::measure_blac) with all-zero offsets and
//! [`measure_program`](crate::measure_program), and the difference equals
//! [`check_program`]'s (and so [`check_kernel`](crate::check_kernel)'s)
//! for the validation seed (11, the seed the tuners have always
//! validated on). `check_program` is this evaluator's validation run
//! without a trace consumer.

use crate::program::program_test_values;
use lgen_cir::{run_kernel, ExecError, Kernel, MemLayout};
use lgen_isa::inst::NullSink;
use lgen_isa::{Microarch, TraceSink, VectorIsa};
use lgen_ll::reference::MatrixValue;
use lgen_ll::{eval_program_reference, Program};
use lgen_machine::{timed_run, Measurement, Simulator};

/// Seed of the test data every candidate is validated on.
const VALIDATION_SEED: u64 = 11;

/// Seeded test data and the reference result of one program, shared by
/// every candidate kernel of a tune (and by every worker thread).
#[derive(Clone, Debug)]
pub struct Evaluator {
    /// Test data of each kernel parameter: the program's non-temporary
    /// operands, in operand order.
    inputs: Vec<Vec<f32>>,
    /// The reference value of each kernel parameter after the program.
    expected: Vec<MatrixValue>,
}

impl Evaluator {
    /// Builds the validation data for `program` and evaluates the
    /// reference once.
    pub fn new(program: &Program) -> Self {
        Self::seeded(program, VALIDATION_SEED)
    }

    /// [`new`](Self::new) on the test data of `seed` (as
    /// [`program_test_values`] builds it).
    fn seeded(program: &Program, seed: u64) -> Self {
        let values = program_test_values(program, seed);
        let expected = eval_program_reference(program, &values);
        let params = |(i, _): &(usize, _)| !program.temps[*i];
        Evaluator {
            inputs: values
                .into_iter()
                .enumerate()
                .filter(params)
                .map(|(_, v)| v.data)
                .collect(),
            expected: expected
                .into_iter()
                .enumerate()
                .filter(params)
                .map(|(_, v)| v)
                .collect(),
        }
    }

    /// Runs `kernel` on a copy of the test data, streaming its trace into
    /// `sink`, and returns the parameters after the run together with the
    /// largest absolute difference from the reference.
    fn run(
        &self,
        kernel: &Kernel,
        layout: &MemLayout,
        isa: VectorIsa,
        sink: &mut dyn TraceSink,
    ) -> Result<(Vec<Vec<f32>>, f32), ExecError> {
        let mut bufs = self.inputs.clone();
        let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        run_kernel(kernel, &mut refs, layout, isa, sink)?;
        let diff = bufs
            .iter()
            .zip(&self.expected)
            .flat_map(|(got, want)| got.iter().zip(&want.data))
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max);
        Ok((bufs, diff))
    }

    /// The validation run: executes `kernel` on the test data, which is
    /// the timed run when the layout fits in `arch`'s L1 and the warm-up
    /// of a fresh `arch` simulator's cache when it does not, and compares
    /// every parameter with the reference.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from the interpreter.
    pub fn validate<'a>(
        &'a self,
        kernel: &'a Kernel,
        arch: Microarch,
    ) -> Result<Validated<'a>, ExecError> {
        let layout = MemLayout::aligned(kernel);
        let isa = arch.vector_isa();
        let (sim, diff, warmed) = match Simulator::prefilled(arch, &layout) {
            Some(mut sim) => {
                let (_, diff) = self.run(kernel, &layout, isa, &mut sim)?;
                (sim, diff, None)
            }
            None => {
                let mut sim = Simulator::new(arch);
                let (bufs, diff) = self.run(kernel, &layout, isa, &mut sim.warming())?;
                (sim, diff, Some((layout, bufs)))
            }
        };
        Ok(Validated {
            evaluator: self,
            kernel,
            sim,
            diff,
            warmed,
        })
    }

    /// [`validate`](Self::validate) then [`Validated::measure`]: the
    /// largest difference from the reference and the measurement.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from the interpreter.
    pub fn evaluate(
        &self,
        kernel: &Kernel,
        arch: Microarch,
    ) -> Result<(f32, Measurement), ExecError> {
        let run = self.validate(kernel, arch)?;
        let diff = run.diff();
        Ok((diff, run.measure()?))
    }
}

/// Validates a program kernel against the statement-by-statement reference
/// composition ([`eval_program_reference`]) on deterministic structured
/// data: an [`Evaluator`]'s validation run on the data of `seed`, without
/// a trace consumer. Returns the maximum absolute difference over the
/// non-temporary operands.
///
/// # Errors
///
/// Propagates [`ExecError`] from the interpreter.
pub fn check_program(
    program: &Program,
    kernel: &Kernel,
    isa: VectorIsa,
    seed: u64,
) -> Result<f32, ExecError> {
    let layout = MemLayout::aligned(kernel);
    let run = Evaluator::seeded(program, seed).run(kernel, &layout, isa, &mut NullSink);
    Ok(run?.1)
}

/// A kernel after its validation run, holding the simulator that run
/// scheduled or warmed.
#[derive(Debug)]
pub struct Validated<'a> {
    evaluator: &'a Evaluator,
    kernel: &'a Kernel,
    sim: Simulator,
    diff: f32,
    /// The layout and the parameters after the validation run when the
    /// layout does not fit in L1: that run only warmed `sim`'s cache.
    /// `None` when it was the timed run.
    warmed: Option<(MemLayout, Vec<Vec<f32>>)>,
}

impl Validated<'_> {
    /// Largest absolute difference from the reference over every
    /// parameter.
    pub fn diff(&self) -> f32 {
        self.diff
    }

    /// The measurement: the validation run's when it was the timed run,
    /// else one more execution on restored inputs, scheduled on the cache
    /// the validation run warmed.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from the interpreter.
    pub fn measure(mut self) -> Result<Measurement, ExecError> {
        let Some((layout, mut bufs)) = self.warmed else {
            return Ok(Measurement::of_run(&self.sim, self.kernel.flops));
        };
        let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        let inputs = &self.evaluator.inputs;
        timed_run(&mut self.sim, self.kernel, &mut refs, inputs, &layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompileConfig, Variant};
    use crate::exec::{check_kernel, measure_blac, tolerance};
    use crate::pipeline::compile;
    use crate::program::{compile_program, measure_program};
    use lgen_ll::{paper, parse_program, Blac};

    /// The paper's BLAC families at a micro and a leftover size.
    fn paper_suite() -> Vec<Blac> {
        vec![
            paper::mvm(3, 3),
            paper::mvm(5, 7),
            paper::mmm(3, 3, 3),
            paper::mmm(5, 6, 7),
            paper::axpy(3),
            paper::axpy(7),
            paper::gemv(3, 3),
            paper::gemv(5, 7),
            paper::gemm(3, 3, 3),
            paper::gemm(5, 6, 7),
            paper::two_gemv(3, 3),
            paper::two_gemv(5, 7),
            paper::bilinear(3, 3),
            paper::bilinear(5, 7),
            paper::addt_gemm(3, 3, 3),
            paper::addt_gemm(7, 5, 6),
            paper::madd(3, 3),
            paper::madd(5, 7),
            paper::transpose(3, 3),
            paper::transpose(5, 7),
        ]
    }

    fn configs() -> impl Iterator<Item = CompileConfig> {
        Microarch::EVALUATED.into_iter().flat_map(|arch| {
            [Variant::Base, Variant::Full].map(|v| CompileConfig::variant(arch, v))
        })
    }

    #[test]
    fn evaluate_agrees_with_check_and_measure_on_the_paper_suite() {
        for cfg in configs() {
            let arch = cfg.arch;
            for blac in paper_suite() {
                let kernel = compile(&blac, "k", &cfg);
                let evaluator = Evaluator::new(&Program::from(&blac));
                let (diff, m) = evaluator.evaluate(&kernel, arch).unwrap();
                let zeros = vec![0; blac.operands.len()];
                let expected = measure_blac(&blac, &kernel, arch, &zeros, 3).unwrap();
                assert_eq!(m, expected, "{arch:?} {blac:?}");
                let checked =
                    check_kernel(&blac, &kernel, arch.vector_isa(), VALIDATION_SEED).unwrap();
                assert_eq!(diff, checked, "{arch:?} {blac:?}");
                assert!(diff < tolerance(blac.flops()));
            }
        }
    }

    #[test]
    fn evaluate_agrees_with_check_and_measure_on_programs() {
        let programs = [
            "F = matrix(4, 4)\nB = matrix(4, 2)\nu = vector(2)\nx = vector(4)\n\
             x_next = vector(4)\nP = matrix(4, 4) symmetric\nQ = matrix(4, 4) symmetric\n\
             P_next = matrix(4, 4)\n\
             x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;",
            "L = matrix(6, 6) triangular(lower)\nx = vector(6)\ny = vector(6)\n\
             t = L * x;\ny = L' * t;",
        ];
        for cfg in configs() {
            let arch = cfg.arch;
            for src in programs {
                let program = parse_program(src).unwrap();
                let kernel = compile_program(&program, "p", &cfg).kernel;
                let (diff, m) = Evaluator::new(&program).evaluate(&kernel, arch).unwrap();
                let expected = measure_program(&program, &kernel, arch, 3).unwrap();
                assert_eq!(m, expected, "{arch:?}");
                let checked =
                    check_program(&program, &kernel, arch.vector_isa(), VALIDATION_SEED).unwrap();
                assert_eq!(diff, checked, "{arch:?}");
                assert!(diff < tolerance(program.flops()));
            }
        }
    }

    /// A kernel that computes `A' x` where `A x` is asked for has the right
    /// signature and the wrong numbers: validation must see it.
    #[test]
    fn a_numerically_wrong_kernel_is_rejected() {
        let decls = "A = matrix(4, 4)\nx = vector(4)\ny = vector(4)\n";
        let right = parse_program(&format!("{decls}y = A * x;")).unwrap();
        let wrong = parse_program(&format!("{decls}y = A' * x;")).unwrap();
        let evaluator = Evaluator::new(&right);
        for cfg in configs() {
            let kernel = compile_program(&wrong, "k", &cfg).kernel;
            let run = evaluator.validate(&kernel, cfg.arch).unwrap();
            assert!(run.diff() >= tolerance(right.flops()), "{:?}", cfg.arch);
            let checked =
                check_program(&right, &kernel, cfg.arch.vector_isa(), VALIDATION_SEED).unwrap();
            assert_eq!(run.diff(), checked);
        }
    }
}
