//! Graphics workload: batched 4×4 homogeneous-coordinate transforms.
//!
//! The paper's motivation names computer graphics among the domains that
//! need *small*, fixed-size dense linear algebra. A classic instance is
//! transforming a vertex buffer by a 4×4 model-view-projection matrix:
//! thousands of tiny `y = Mx` products where BLAS overhead dominates. This
//! example expresses one vertex transform as a BLAC, compiles it per core,
//! and compares LGen against every available competitor on the simulator.
//!
//! ```text
//! cargo run --release --example graphics_transform
//! ```

use lgen::ll::reference::{eval_reference, max_abs_diff, test_data};
use lgen::prelude::*;

fn main() {
    // One vertex: y = M x with M 4×4 (a micro-BLAC; Fig. 5.3/5.6 territory).
    let blac = lgen::ll::paper::mvm(4, 4);

    // And a strip of 64 vertices packed as a 4×64 matrix: Y = M X.
    let strip = lgen::ll::paper::mmm(4, 4, 64);

    for (name, blac) in [
        ("single vertex y = Mx (4x4)", &blac),
        ("vertex strip Y = MX (4x4x64)", &strip),
    ] {
        println!("== {name} ==");
        for arch in Microarch::EVALUATED {
            let cfg = CompileConfig::full(arch);
            let kernel = compile(blac, "transform", &cfg);
            let m = measure_blac(blac, &kernel, arch, &vec![0; blac.operands.len()], 3)
                .expect("kernel runs");
            print!(
                "{:<14} LGen {:>5.2} f/c |",
                arch.name(),
                m.flops_per_cycle()
            );
            for comp in Competitor::ALL {
                if let Some(k) = compile_baseline(blac, comp, arch) {
                    let c = measure_blac(blac, &k, arch, &vec![0; blac.operands.len()], 3)
                        .expect("baseline runs");
                    print!(" {} {:.2}", comp.label(), c.flops_per_cycle());
                }
            }
            println!();
        }
        println!();
    }

    // Numerically transform an actual vertex with the compiled kernel.
    let values: Vec<_> = blac
        .operands
        .iter()
        .enumerate()
        .map(|(i, op)| test_data(op.dims, i as u64 + 7))
        .collect();
    let expected = eval_reference(&blac, &values);
    let kernel = compile(
        &blac,
        "transform",
        &CompileConfig::full(Microarch::CortexA8),
    );
    let got = run_program_kernel(&Program::from(&blac), &kernel, VectorIsa::Neon, &values)
        .expect("kernel runs")
        .swap_remove(blac.output.0);
    println!(
        "NEON kernel transforms a vertex with max|err| = {:.2e} vs the reference",
        max_abs_diff(&got, &expected)
    );
}
