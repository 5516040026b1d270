//! Execution and measurement helpers shared by tests, examples, and the
//! experiment drivers.

use crate::evaluate::check_program;
use lgen_cir::{run_kernel, ExecError, Kernel, MemLayout};
use lgen_isa::inst::NullSink;
use lgen_isa::Microarch;
use lgen_ll::reference::{test_data_for, MatrixValue};
use lgen_ll::{Blac, Program};
use lgen_machine::{measure_protocol, Measurement};

/// Runs a compiled kernel on explicit operand values and returns the output
/// operand's value (arrays 16-byte aligned).
///
/// # Errors
///
/// Propagates [`ExecError`] from the interpreter.
///
/// # Panics
///
/// Panics if `values` does not match the BLAC's operand list.
pub fn run_blac_kernel(
    blac: &Blac,
    kernel: &Kernel,
    isa: lgen_isa::VectorIsa,
    values: &[MatrixValue],
) -> Result<MatrixValue, ExecError> {
    assert_eq!(values.len(), blac.operands.len());
    let mut bufs: Vec<Vec<f32>> = values.iter().map(|v| v.data.clone()).collect();
    let layout = MemLayout::aligned(kernel);
    {
        let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        run_kernel(kernel, &mut refs, &layout, isa, &mut NullSink)?;
    }
    Ok(MatrixValue::new(
        blac.dims(blac.output),
        bufs[blac.output.0].clone(),
    ))
}

/// Validates a kernel against the naive reference on deterministic
/// pseudo-random data (the §5.1.4 correctness check): [`check_program`]
/// on the BLAC's one-statement program. Returns the maximum absolute
/// difference.
///
/// # Errors
///
/// Propagates [`ExecError`] from the interpreter.
pub fn check_kernel(
    blac: &Blac,
    kernel: &Kernel,
    isa: lgen_isa::VectorIsa,
    seed: u64,
) -> Result<f32, ExecError> {
    check_program(&Program::from(blac), kernel, isa, seed)
}

/// Acceptable numeric tolerance for a BLAC of the given flop count
/// (accumulation-order differences only).
pub fn tolerance(flops: u64) -> f32 {
    1e-4 + 1e-6 * flops as f32
}

/// Measures a compiled kernel on `arch` with deterministic test data and
/// per-parameter float offsets (the Fig. 5.9 misalignment protocol;
/// all-zero offsets = the default aligned layout).
///
/// # Errors
///
/// Propagates [`ExecError`] from the interpreter.
///
/// # Panics
///
/// Panics if `offsets` has the wrong length (one per parameter array).
pub fn measure_blac(
    blac: &Blac,
    kernel: &Kernel,
    arch: Microarch,
    offsets: &[usize],
    reps: usize,
) -> Result<Measurement, ExecError> {
    let mut bufs: Vec<Vec<f32>> = blac
        .operands
        .iter()
        .enumerate()
        .map(|(i, op)| test_data_for(op, 77 + i as u64).data)
        .collect();
    let layout = MemLayout::with_float_offsets(kernel, offsets);
    let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
    measure_protocol(kernel, &mut refs, &layout, arch, reps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompileConfig;
    use crate::pipeline::compile;
    use lgen_ll::paper;

    #[test]
    fn check_kernel_validates_good_kernels() {
        let blac = paper::gemv(6, 10);
        for arch in Microarch::EVALUATED {
            let k = compile(&blac, "k", &CompileConfig::full(arch));
            let diff = check_kernel(&blac, &k, arch.vector_isa(), 3).unwrap();
            assert!(diff < tolerance(blac.flops()), "{arch:?}: {diff}");
        }
    }

    #[test]
    fn measure_blac_returns_plausible_cycles() {
        let blac = paper::mvm(4, 32);
        let k = compile(&blac, "k", &CompileConfig::full(Microarch::Atom));
        let m = measure_blac(&blac, &k, Microarch::Atom, &[0, 0, 0], 3).unwrap();
        assert!(m.cycles > 10);
        assert!(m.flops_per_cycle() > 0.1);
        assert!(m.flops_per_cycle() < Microarch::Atom.peak_flops_per_cycle());
    }

    #[test]
    fn misaligned_measurement_is_slower_on_atom() {
        let blac = paper::axpy(256);
        let k = compile(&blac, "k", &CompileConfig::full(Microarch::Atom));
        let aligned = measure_blac(&blac, &k, Microarch::Atom, &[0, 0, 0], 3).unwrap();
        // alpha, x, y: shift x and y by one float.
        let k_unaligned = compile(&blac, "k", &CompileConfig::base(Microarch::Atom));
        let misaligned = measure_blac(&blac, &k_unaligned, Microarch::Atom, &[0, 1, 1], 3).unwrap();
        assert!(
            misaligned.cycles > aligned.cycles,
            "{} vs {}",
            misaligned.cycles,
            aligned.cycles
        );
    }
}
