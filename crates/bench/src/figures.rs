//! One driver per paper artifact: every table and figure of the evaluation
//! (Chapter 5) and representative complete sets of Appendix B.
//!
//! Each driver regenerates the artifact's data — same BLACs, same sweep
//! structure, same competitor set — and renders it as text. Absolute
//! numbers are simulator cycles; EXPERIMENTS.md records the shape
//! comparison against the paper.
//!
//! Appendix figures B.9 and B.14 are the paper's own duplicates of
//! Figs. 5.13 and 5.18 (the leftover experiments) and are served by those
//! ids.

use crate::drivers::{
    measure_competitor_offsets, measure_lgen, measure_lgen_offsets, sweeps, SeriesBuilder,
};
use crate::series::{Figure, Series};
use lgen_baselines::Competitor;
use lgen_cir::{run_kernel, MemLayout};
use lgen_core::{CompileConfig, Variant};
use lgen_isa::inst::CountingSink;
use lgen_isa::{MOp, Microarch};
use lgen_ll::paper;
use lgen_sigma::nu_blacs::NuBlacKind;
use std::fmt::Write as _;

/// A runnable experiment.
pub struct Experiment {
    /// Artifact id, e.g. "fig-5.1".
    pub id: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// Runs the experiment and renders its output.
    pub run: fn() -> String,
}

/// The full registry, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table-2.1",
            title: "the 18 required ν-BLACs",
            run: table_2_1,
        },
        Experiment {
            id: "table-3.1",
            title: "vector add vs hadd per µarch",
            run: table_3_1,
        },
        Experiment {
            id: "table-3.2",
            title: "old vs new MVM operation counts",
            run: table_3_2,
        },
        Experiment {
            id: "fig-5.1",
            title: "MVM BLACs on 4×n panels (Atom)",
            run: fig_5_1,
        },
        Experiment {
            id: "fig-5.2",
            title: "MVM BLACs on n×4 panels (Atom)",
            run: fig_5_2,
        },
        Experiment {
            id: "fig-5.3",
            title: "micro-BLACs with MVM (Atom)",
            run: fig_5_3,
        },
        Experiment {
            id: "fig-5.4",
            title: "MMM BLACs, right operand 4×n (Atom)",
            run: fig_5_4,
        },
        Experiment {
            id: "fig-5.5",
            title: "MMM BLACs, right operand ·×4 (Atom)",
            run: fig_5_5,
        },
        Experiment {
            id: "fig-5.6",
            title: "C = AB micro-BLAC (Atom)",
            run: fig_5_6,
        },
        Experiment {
            id: "fig-5.7",
            title: "BLACs on varying shapes (Atom)",
            run: fig_5_7,
        },
        Experiment {
            id: "fig-5.8",
            title: "y = αx + y (Atom)",
            run: fig_5_8,
        },
        Experiment {
            id: "fig-5.9",
            title: "gemv with misaligned arrays (Atom)",
            run: fig_5_9,
        },
        Experiment {
            id: "fig-5.10",
            title: "simple BLACs (Cortex-A8)",
            run: fig_5_10,
        },
        Experiment {
            id: "fig-5.11",
            title: "BLAS-like BLACs (Cortex-A8)",
            run: fig_5_11,
        },
        Experiment {
            id: "fig-5.12",
            title: "micro-BLACs (Cortex-A8)",
            run: fig_5_12,
        },
        Experiment {
            id: "fig-5.13",
            title: "leftover-heavy C = AB (Cortex-A8)",
            run: fig_5_13,
        },
        Experiment {
            id: "fig-5.14",
            title: "simple BLACs (Cortex-A9)",
            run: fig_5_14,
        },
        Experiment {
            id: "fig-5.15",
            title: "BLAS-like BLACs (Cortex-A9)",
            run: fig_5_15,
        },
        Experiment {
            id: "fig-5.16",
            title: "multi-BLAS BLACs (Cortex-A9)",
            run: fig_5_16,
        },
        Experiment {
            id: "fig-5.17",
            title: "micro-BLACs (Cortex-A9)",
            run: fig_5_17,
        },
        Experiment {
            id: "fig-5.18",
            title: "leftover-heavy C = AB (Cortex-A9)",
            run: fig_5_18,
        },
        Experiment {
            id: "fig-5.19",
            title: "various BLACs (ARM1176)",
            run: fig_5_19,
        },
        Experiment {
            id: "fig-B.1",
            title: "simple BLACs, complete (Atom)",
            run: fig_b1,
        },
        Experiment {
            id: "fig-B.2",
            title: "BLAS-matching BLACs, complete (Atom)",
            run: fig_b2,
        },
        Experiment {
            id: "fig-B.3",
            title: "multi-BLAS BLACs, complete (Atom)",
            run: fig_b3,
        },
        Experiment {
            id: "fig-B.4",
            title: "micro-BLACs, complete (Atom)",
            run: fig_b4,
        },
        Experiment {
            id: "fig-B.5",
            title: "simple BLACs, complete (Cortex-A8)",
            run: fig_b5,
        },
        Experiment {
            id: "fig-B.6",
            title: "BLAS-matching BLACs, complete (Cortex-A8)",
            run: fig_b6,
        },
        Experiment {
            id: "fig-B.7",
            title: "multi-BLAS BLACs, complete (Cortex-A8)",
            run: fig_b7,
        },
        Experiment {
            id: "fig-B.8",
            title: "micro-BLACs, complete (Cortex-A8)",
            run: fig_b8,
        },
        Experiment {
            id: "fig-B.10",
            title: "simple BLACs, complete (Cortex-A9)",
            run: fig_b10,
        },
        Experiment {
            id: "fig-B.11",
            title: "BLAS-matching BLACs, complete (Cortex-A9)",
            run: fig_b11,
        },
        Experiment {
            id: "fig-B.12",
            title: "multi-BLAS BLACs, complete (Cortex-A9)",
            run: fig_b12,
        },
        Experiment {
            id: "fig-B.13",
            title: "micro-BLACs, complete (Cortex-A9)",
            run: fig_b13,
        },
        Experiment {
            id: "fig-B.15",
            title: "simple BLACs, complete (ARM1176)",
            run: fig_b15,
        },
        Experiment {
            id: "fig-B.16",
            title: "BLAS-matching BLACs, complete (ARM1176)",
            run: fig_b16,
        },
        Experiment {
            id: "fig-B.17",
            title: "multi-BLAS BLACs, complete (ARM1176)",
            run: fig_b17,
        },
        Experiment {
            id: "fig-B.18",
            title: "micro-BLACs, complete (ARM1176)",
            run: fig_b18,
        },
        Experiment {
            id: "ext-energy",
            title: "energy-aware autotuning (§6 extension)",
            run: ext_energy,
        },
        Experiment {
            id: "ext-peel",
            title: "LGen-side loop peeling (§6 extension)",
            run: ext_peel,
        },
        Experiment {
            id: "ext-search",
            title: "guided vs random search (§6 extension)",
            run: ext_search,
        },
    ]
}

/// Runs one experiment by id.
pub fn run(id: &str) -> Option<String> {
    all().into_iter().find(|e| e.id == id).map(|e| (e.run)())
}

/// Lists available experiment ids.
pub fn list() -> Vec<&'static str> {
    all().into_iter().map(|e| e.id).collect()
}

// --------------------------------------------------------------- tables ---

fn table_2_1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== table-2.1: the 18 required ν-BLACs ==");
    for op in [
        lgen_sigma::nu_blacs::Operator::Addition,
        lgen_sigma::nu_blacs::Operator::ScalarMultiplication,
        lgen_sigma::nu_blacs::Operator::MatrixMultiplication,
        lgen_sigma::nu_blacs::Operator::Transposition,
    ] {
        let members: Vec<&str> = NuBlacKind::all()
            .iter()
            .filter(|k| k.operator() == op)
            .map(|k| k.name())
            .collect();
        let _ = writeln!(
            out,
            "{op:?} ({} ν-BLACs): {}",
            members.len(),
            members.join(", ")
        );
    }
    let _ = writeln!(out, "total: {} (paper: 18)", NuBlacKind::all().len());
    out
}

fn table_3_1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== table-3.1: _mm_add_ps vs _mm_hadd_ps (latency/throughput) =="
    );
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12}",
        "µarch", "mm_add_ps", "mm_hadd_ps"
    );
    for (m, add, hadd) in lgen_isa::haswell_family_add_vs_hadd() {
        let _ = writeln!(
            out,
            "{:<14} {:>9}/{:<2} {:>9}/{:<2}{}",
            m.name(),
            add.latency,
            add.issue,
            hadd.latency,
            hadd.issue,
            if hadd.ports.blocks_all() {
                "  (occupies both ports)"
            } else {
                ""
            }
        );
    }
    out
}

fn table_3_2() -> String {
    let (m, n) = (8usize, 16usize);
    let blac = paper::mvm(m, n);
    let count = |variant: Variant| {
        let cfg = CompileConfig::variant(Microarch::Atom, variant)
            .with_unroll(lgen_cir::passes::UnrollPolicy::None);
        let kernel = lgen_core::compile(&blac, "mvm", &cfg);
        let mut a = vec![0.5f32; m * n];
        let mut x = vec![0.5f32; n];
        let mut y = vec![0.0f32; m];
        let layout = MemLayout::aligned(&kernel);
        let mut sink = CountingSink::new();
        run_kernel(
            &kernel,
            &mut [&mut a, &mut x, &mut y],
            &layout,
            lgen_isa::VectorIsa::Ssse3,
            &mut sink,
        )
        .expect("kernel runs");
        (
            sink.count(MOp::MmMulPs),
            sink.count(MOp::MmAddPs),
            sink.count(MOp::MmHaddPs),
        )
    };
    let (mul_o, add_o, hadd_o) = count(Variant::Base);
    let (mul_n, add_n, hadd_n) = count(Variant::Mvm);
    let (m64, n64) = (m as u64, n as u64);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== table-3.2: arithmetic operations, old vs new MVM (M={m}, N={n}) =="
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10}",
        "operation", "old MVM", "new MVM"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10}   (paper: MN/4 = {})",
        "mmMulPs",
        mul_o,
        mul_n,
        m64 * n64 / 4
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10}   (paper: (M/4)(N/4-1) = {} vs M(N/4-1) = {})",
        "mmAddPs",
        add_o,
        add_n,
        (m64 / 4) * (n64 / 4 - 1),
        m64 * (n64 / 4 - 1)
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10}   (paper: 3MN/16 = {} vs 3M/4 = {})",
        "mmHaddPs",
        hadd_o,
        hadd_n,
        3 * m64 * n64 / 16,
        3 * m64 / 4
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10}   (paper: both (M/4)(2N-1) = {})",
        "total",
        mul_o + add_o + hadd_o,
        mul_n + add_n + hadd_n,
        (m64 / 4) * (2 * n64 - 1)
    );
    out
}

// -------------------------------------------------------------- helpers ---

const ATOM_VARIANTS: [Variant; 4] = [Variant::Full, Variant::Align, Variant::Mvm, Variant::Base];
const FULL_BASE: [Variant; 2] = [Variant::Full, Variant::Base];
const FULL_ONLY: [Variant; 1] = [Variant::Full];

fn render(figs: &[Figure]) -> String {
    figs.iter()
        .map(Figure::render)
        .collect::<Vec<_>>()
        .join("\n")
}

// ----------------------------------------------------------- Atom (§5.2) ---

fn fig_5_1() -> String {
    let ns = sweeps::panel();
    let figs = vec![
        SeriesBuilder::new(Microarch::Atom, |n| paper::mvm(4, n))
            .variants(&ATOM_VARIANTS)
            .run("fig-5.1a", "y = Ax, A is 4×n (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::two_gemv(4, n))
            .variants(&ATOM_VARIANTS)
            .run("fig-5.1b", "y = αAx + βBx, A,B are 4×n (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::bilinear(4, n))
            .variants(&ATOM_VARIANTS)
            .run("fig-5.1c", "α = xᵀAy, A is 4×n (Atom)", &ns),
    ];
    render(&figs)
}

fn fig_5_2() -> String {
    let ns = sweeps::panel();
    let figs = vec![
        SeriesBuilder::new(Microarch::Atom, |n| paper::gemv(n, 4))
            .variants(&ATOM_VARIANTS)
            .run("fig-5.2a", "y = αAx + βy, A is n×4 (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::two_gemv(n, 4))
            .variants(&ATOM_VARIANTS)
            .run("fig-5.2b", "y = αAx + βBx, A,B are n×4 (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::bilinear(n, 4))
            .variants(&ATOM_VARIANTS)
            .run("fig-5.2c", "α = xᵀAy, A is n×4 (Atom)", &ns),
    ];
    render(&figs)
}

fn fig_5_3() -> String {
    let ns = sweeps::micro();
    let figs = vec![
        SeriesBuilder::new(Microarch::Atom, |n| paper::mvm(n, n))
            .variants(&ATOM_VARIANTS)
            .run("fig-5.3a", "y = Ax, A is n×n (Atom micro)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::bilinear(n, n))
            .variants(&ATOM_VARIANTS)
            .run("fig-5.3b", "α = xᵀAy, A is n×n (Atom micro)", &ns),
    ];
    render(&figs)
}

fn fig_5_4() -> String {
    let ns = sweeps::panel_short();
    let varying = sweeps::varying();
    let figs = vec![
        SeriesBuilder::new(Microarch::Atom, |n| paper::mmm(4, 4, n))
            .variants(&FULL_BASE)
            .run("fig-5.4a", "C = AB, A is 4×4, B is 4×n (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::gemm(4, 4, n))
            .variants(&FULL_BASE)
            .run("fig-5.4b", "C = αAB + βC, A is 4×4, B is 4×n (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::addt_gemm(4, n, n))
            .variants(&FULL_BASE)
            .run(
                "fig-5.4c",
                "C = α(A0+A1)ᵀB + βC, A0,A1 are 4×n (Atom)",
                &varying,
            ),
    ];
    render(&figs)
}

fn fig_5_5() -> String {
    let ns = sweeps::panel_short();
    let figs = vec![
        SeriesBuilder::new(Microarch::Atom, |n| paper::mmm(4, n, 4))
            .variants(&FULL_BASE)
            .run("fig-5.5a", "C = AB, A is 4×n, B is n×4 (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::gemm(4, n, 4))
            .variants(&FULL_BASE)
            .run("fig-5.5b", "C = αAB + βC, A is 4×n, B is n×4 (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::addt_gemm(4, n, 4))
            .variants(&FULL_BASE)
            .run(
                "fig-5.5c",
                "C = α(A0+A1)ᵀB + βC, A0,A1 are 4×n, B is 4×4 (Atom)",
                &ns,
            ),
    ];
    render(&figs)
}

fn fig_5_6() -> String {
    let figs = vec![SeriesBuilder::new(Microarch::Atom, |n| paper::mmm(n, n, n))
        .variants(&FULL_BASE)
        .run(
            "fig-5.6",
            "C = AB, A and B are n×n (Atom micro)",
            &sweeps::micro(),
        )];
    render(&figs)
}

fn fig_5_7() -> String {
    let ns = sweeps::varying();
    let short: Vec<usize> = ns.iter().copied().filter(|&n| n <= 62).collect();
    let figs = vec![
        SeriesBuilder::new(Microarch::Atom, |n| paper::gemv(30, n))
            .variants(&ATOM_VARIANTS)
            .run("fig-5.7a", "y = αAx + βy, A is 30×n (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::gemm(30, n, 30))
            .variants(&FULL_BASE)
            .run(
                "fig-5.7b",
                "C = αAB + βC, A is 30×n, B is n×30 (Atom)",
                &short,
            ),
        SeriesBuilder::new(Microarch::Atom, |n| paper::addt_gemm(n, 30, 30))
            .variants(&FULL_BASE)
            .run(
                "fig-5.7c",
                "C = α(A0+A1)ᵀB + βC, A0,A1,B are n×30 (Atom)",
                &short,
            ),
    ];
    render(&figs)
}

fn fig_5_8() -> String {
    let figs = vec![SeriesBuilder::new(Microarch::Atom, paper::axpy)
        .variants(&FULL_BASE)
        .run("fig-5.8", "y = αx + y (Atom)", &sweeps::vector())];
    render(&figs)
}

fn fig_5_9() -> String {
    // y = αAx + βy on 30×n, all arrays allocated aligned + offset.
    let ns = sweeps::varying();
    let mut out = String::new();
    for (sub, off_floats, label) in [
        ("a", 0usize, "offset 0 bytes"),
        ("b", 1, "offset 4 bytes"),
        ("c", 2, "offset 8 bytes"),
    ] {
        let mut fig = Figure::new(
            &format!("fig-5.9{sub}"),
            &format!("y = αAx + βy, A is 30×n, {label} (Atom)"),
            "n",
        );
        let mut lgen_full = Series::new("LGen-Full");
        let mut lgen_mvm = Series::new("LGen-MVM");
        let mut eigen = Series::new("Eigen-3.2.0");
        let mut mkl = Series::new("MKL 11.1");
        let mut hand = Series::new("Handwritten fixed");
        for &n in &ns {
            let blac = paper::gemv(30, n);
            // Parameter order: alpha, beta, A, x, y — scalars stay aligned.
            let offs = vec![0, 0, off_floats, off_floats, off_floats];
            let full_cfg = CompileConfig::full(Microarch::Atom).with_versioning();
            let mvm_cfg = CompileConfig::variant(Microarch::Atom, Variant::Mvm);
            lgen_full.points.push((
                n,
                Some(measure_lgen_offsets(
                    &blac,
                    Microarch::Atom,
                    &full_cfg,
                    &offs,
                )),
            ));
            lgen_mvm.points.push((
                n,
                Some(measure_lgen_offsets(
                    &blac,
                    Microarch::Atom,
                    &mvm_cfg,
                    &offs,
                )),
            ));
            for (series, comp) in [
                (&mut eigen, Competitor::Eigen),
                (&mut mkl, Competitor::Mkl),
                (&mut hand, Competitor::HandwrittenFixed),
            ] {
                series.points.push((
                    n,
                    measure_competitor_offsets(&blac, Microarch::Atom, comp, Some(&offs)),
                ));
            }
        }
        fig.series = vec![lgen_full, lgen_mvm, eigen, mkl, hand];
        let _ = writeln!(out, "{}", fig.render());
    }
    out
}

// ------------------------------------------------- Cortex-A8/A9 (§5.3–4) ---

fn arm_simple(arch: Microarch, id_prefix: &str) -> String {
    let ns = sweeps::panel();
    let short = sweeps::panel_short();
    let rank: Vec<usize> = sweeps::varying()
        .iter()
        .copied()
        .filter(|&n| n <= 86)
        .collect();
    let figs = vec![
        SeriesBuilder::new(arch, |n| paper::mvm(n, 4))
            .variants(&FULL_ONLY)
            .run(
                &format!("{id_prefix}a"),
                &format!("y = Ax, A is n×4 ({arch})"),
                &ns,
            ),
        SeriesBuilder::new(arch, |n| paper::mmm(4, n, 4))
            .variants(&FULL_ONLY)
            .run(
                &format!("{id_prefix}b"),
                &format!("C = AB, A is 4×n, B is n×4 ({arch})"),
                &short,
            ),
        SeriesBuilder::new(arch, |n| paper::mmm(n, 4, n))
            .variants(&FULL_ONLY)
            .run(
                &format!("{id_prefix}c"),
                &format!("C = AB, A is n×4, B is 4×n ({arch})"),
                &rank,
            ),
    ];
    render(&figs)
}

fn arm_blas_like(arch: Microarch, id_prefix: &str) -> String {
    let ns = sweeps::panel();
    let varying = sweeps::varying();
    let figs = vec![
        SeriesBuilder::new(arch, paper::axpy)
            .variants(&FULL_ONLY)
            .run(
                &format!("{id_prefix}a"),
                &format!("y = αx + y ({arch})"),
                &sweeps::vector(),
            ),
        SeriesBuilder::new(arch, |n| paper::gemv(4, n))
            .variants(&FULL_ONLY)
            .run(
                &format!("{id_prefix}b"),
                &format!("y = αAx + βy, A is 4×n ({arch})"),
                &ns,
            ),
        SeriesBuilder::new(arch, |n| paper::gemv(30, n))
            .variants(&FULL_ONLY)
            .run(
                &format!("{id_prefix}c"),
                &format!("y = αAx + βy, A is 30×n ({arch})"),
                &varying,
            ),
        SeriesBuilder::new(arch, |n| paper::gemm(30, n, 30))
            .variants(&FULL_ONLY)
            .run(
                &format!("{id_prefix}d"),
                &format!("C = αAB + βC, A is 30×n, B is n×30 ({arch})"),
                &varying
                    .iter()
                    .copied()
                    .filter(|&n| n <= 62)
                    .collect::<Vec<_>>(),
            ),
    ];
    render(&figs)
}

fn arm_multi_blas(arch: Microarch, id_prefix: &str) -> String {
    let ns = sweeps::panel();
    let short: Vec<usize> = sweeps::varying()
        .iter()
        .copied()
        .filter(|&n| n <= 86)
        .collect();
    let figs = vec![
        SeriesBuilder::new(arch, |n| paper::two_gemv(4, n))
            .variants(&FULL_ONLY)
            .run(
                &format!("{id_prefix}a"),
                &format!("y = αAx + βBx, A,B are 4×n ({arch})"),
                &ns,
            ),
        SeriesBuilder::new(arch, |n| paper::bilinear(4, n))
            .variants(&FULL_ONLY)
            .run(
                &format!("{id_prefix}b"),
                &format!("α = xᵀAy, A is 4×n ({arch})"),
                &ns,
            ),
        SeriesBuilder::new(arch, |n| paper::addt_gemm(4, n, n))
            .variants(&FULL_ONLY)
            .run(
                &format!("{id_prefix}c"),
                &format!("C = α(A0+A1)ᵀB + βC, A0,A1 are 4×n ({arch})"),
                &short,
            ),
    ];
    render(&figs)
}

fn arm_micro(arch: Microarch, id_prefix: &str) -> String {
    let ns = sweeps::micro();
    let figs = vec![
        SeriesBuilder::new(arch, |n| paper::mvm(n, n))
            .variants(&FULL_BASE)
            .run(
                &format!("{id_prefix}a"),
                &format!("y = Ax, n×n ({arch} micro)"),
                &ns,
            ),
        SeriesBuilder::new(arch, |n| paper::mmm(n, n, n))
            .variants(&FULL_BASE)
            .run(
                &format!("{id_prefix}b"),
                &format!("C = AB, n×n ({arch} micro)"),
                &ns,
            ),
        SeriesBuilder::new(arch, |n| paper::bilinear(n, n))
            .variants(&FULL_BASE)
            .run(
                &format!("{id_prefix}c"),
                &format!("α = xᵀAy, n×n ({arch} micro)"),
                &ns,
            ),
    ];
    render(&figs)
}

fn arm_leftovers(arch: Microarch, id: &str) -> String {
    // (a) all small M×K×N shapes; (b) 100×n×n with a leftover-heavy sweep.
    let mut out = String::new();
    let mut fig_a = Figure::new(
        &format!("{id}a"),
        &format!("C = AB, M,K,N ∈ [1,4], MK>1, KN>1 ({arch})"),
        "case",
    );
    let mut padded = Series::new("LGen");
    let mut special = Series::new("LGen-Full");
    let mut case = 0usize;
    for m in 1..=4usize {
        for k in 1..=4usize {
            for n in 1..=4usize {
                if m * k <= 1 || k * n <= 1 {
                    continue;
                }
                case += 1;
                let blac = paper::mmm(m, k, n);
                padded
                    .points
                    .push((case, Some(measure_lgen(&blac, arch, Variant::Base))));
                special
                    .points
                    .push((case, Some(measure_lgen(&blac, arch, Variant::Full))));
            }
        }
    }
    fig_a.series = vec![special, padded];
    let _ = writeln!(out, "{}", fig_a.render());

    let fig_b = SeriesBuilder::new(arch, |n| paper::mmm(100, n, n))
        .variants(&FULL_BASE)
        .competitors(&[
            Competitor::HandwrittenFixed,
            Competitor::HandwrittenGen,
            Competitor::Eigen,
            Competitor::Atlas,
        ])
        .run(
            &format!("{id}b"),
            &format!("C = AB, A is 100×n, B is n×n ({arch})"),
            &sweeps::leftover(),
        );
    let _ = writeln!(out, "{}", fig_b.render());
    out
}

fn fig_5_10() -> String {
    arm_simple(Microarch::CortexA8, "fig-5.10")
}

fn fig_5_11() -> String {
    arm_blas_like(Microarch::CortexA8, "fig-5.11")
}

fn fig_5_12() -> String {
    arm_micro(Microarch::CortexA8, "fig-5.12")
}

fn fig_5_13() -> String {
    arm_leftovers(Microarch::CortexA8, "fig-5.13")
}

fn fig_5_14() -> String {
    arm_simple(Microarch::CortexA9, "fig-5.14")
}

fn fig_5_15() -> String {
    arm_blas_like(Microarch::CortexA9, "fig-5.15")
}

fn fig_5_16() -> String {
    arm_multi_blas(Microarch::CortexA9, "fig-5.16")
}

fn fig_5_17() -> String {
    arm_micro(Microarch::CortexA9, "fig-5.17")
}

fn fig_5_18() -> String {
    arm_leftovers(Microarch::CortexA9, "fig-5.18")
}

// -------------------------------------------------------- ARM1176 (§5.5) ---

fn fig_5_19() -> String {
    let arch = Microarch::Arm1176;
    let ns = sweeps::panel_short();
    let figs = vec![
        SeriesBuilder::new(arch, |n| paper::mvm(4, n))
            .variants(&FULL_ONLY)
            .run("fig-5.19a", "y = Ax, A is 4×n (ARM1176)", &ns),
        SeriesBuilder::new(arch, |n| paper::mmm(4, n, 4))
            .variants(&FULL_ONLY)
            .run("fig-5.19b", "C = AB, A is 4×n, B is n×4 (ARM1176)", &ns),
        SeriesBuilder::new(arch, paper::axpy)
            .variants(&FULL_ONLY)
            .run("fig-5.19c", "y = αx + y (ARM1176)", &sweeps::vector()),
        SeriesBuilder::new(arch, |n| paper::gemv(4, n))
            .variants(&FULL_ONLY)
            .run("fig-5.19d", "y = αAx + βy, A is 4×n (ARM1176)", &ns),
        SeriesBuilder::new(arch, |n| paper::gemm(4, n, 4))
            .variants(&FULL_ONLY)
            .run(
                "fig-5.19e",
                "C = αAB + βC, A is 4×n, B is n×4 (ARM1176)",
                &ns,
            ),
        SeriesBuilder::new(arch, |n| paper::two_gemv(4, n))
            .variants(&FULL_ONLY)
            .run("fig-5.19f", "y = αAx + βBx, A,B are 4×n (ARM1176)", &ns),
        SeriesBuilder::new(arch, |n| paper::bilinear(4, n))
            .variants(&FULL_ONLY)
            .run("fig-5.19g", "α = xᵀAy, A is 4×n (ARM1176)", &ns),
        SeriesBuilder::new(arch, |n| paper::addt_gemm(n, 4, 4))
            .variants(&FULL_ONLY)
            .run(
                "fig-5.19h",
                "C = α(A0+A1)ᵀB + βC, A0,A1,B are n×4 (ARM1176)",
                &ns,
            ),
    ];
    render(&figs)
}

// ------------------------------------------------------------ Appendix B ---

fn fig_b2() -> String {
    let ns = sweeps::panel_short();
    let figs = vec![
        SeriesBuilder::new(Microarch::Atom, paper::axpy)
            .variants(&FULL_BASE)
            .run("fig-B.2a", "y = αx + y (Atom)", &sweeps::vector()),
        SeriesBuilder::new(Microarch::Atom, |n| paper::gemv(n, 4))
            .variants(&FULL_BASE)
            .run("fig-B.2b", "y = αAx + βy, A is n×4 (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::gemv(4, n))
            .variants(&FULL_BASE)
            .run("fig-B.2c", "y = αAx + βy, A is 4×n (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::gemm(n, 4, n))
            .variants(&FULL_BASE)
            .run(
                "fig-B.2h",
                "C = αAB + βC, A is n×4, B is 4×n (Atom)",
                &sweeps::varying()
                    .iter()
                    .copied()
                    .filter(|&n| n <= 86)
                    .collect::<Vec<_>>(),
            ),
    ];
    render(&figs)
}

fn fig_b1() -> String {
    let ns = sweeps::panel_short();
    let figs = vec![
        SeriesBuilder::new(Microarch::Atom, |n| paper::mvm(n, 4))
            .variants(&FULL_BASE)
            .run("fig-B.1a", "y = Ax, A is n×4 (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::mvm(4, n))
            .variants(&FULL_BASE)
            .run("fig-B.1b", "y = Ax, A is 4×n (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::mmm(n, 4, 4))
            .variants(&FULL_BASE)
            .run("fig-B.1c", "C = AB, A is n×4, B is 4×4 (Atom)", &ns),
        SeriesBuilder::new(Microarch::Atom, |n| paper::mmm(4, 4, n))
            .variants(&FULL_BASE)
            .run("fig-B.1d", "C = AB, A is 4×4, B is 4×n (Atom)", &ns),
    ];
    render(&figs)
}

fn fig_b3() -> String {
    arm_multi_blas(Microarch::Atom, "fig-B.3")
}

fn fig_b4() -> String {
    arm_micro(Microarch::Atom, "fig-B.4")
}

fn fig_b5() -> String {
    arm_simple(Microarch::CortexA8, "fig-B.5")
}

fn fig_b6() -> String {
    arm_blas_like(Microarch::CortexA8, "fig-B.6")
}

fn fig_b7() -> String {
    arm_multi_blas(Microarch::CortexA8, "fig-B.7")
}

fn fig_b8() -> String {
    arm_micro(Microarch::CortexA8, "fig-B.8")
}

fn fig_b10() -> String {
    arm_simple(Microarch::CortexA9, "fig-B.10")
}

fn fig_b11() -> String {
    arm_blas_like(Microarch::CortexA9, "fig-B.11")
}

fn fig_b12() -> String {
    arm_multi_blas(Microarch::CortexA9, "fig-B.12")
}

fn fig_b13() -> String {
    arm_micro(Microarch::CortexA9, "fig-B.13")
}

fn fig_b15() -> String {
    let arch = Microarch::Arm1176;
    let ns = sweeps::panel_short();
    let figs = vec![
        SeriesBuilder::new(arch, |n| paper::mvm(n, 4))
            .variants(&FULL_ONLY)
            .run("fig-B.15a", "y = Ax, A is n×4 (ARM1176)", &ns),
        SeriesBuilder::new(arch, |n| paper::mvm(4, n))
            .variants(&FULL_ONLY)
            .run("fig-B.15b", "y = Ax, A is 4×n (ARM1176)", &ns),
        SeriesBuilder::new(arch, |n| paper::mmm(4, n, 4))
            .variants(&FULL_ONLY)
            .run("fig-B.15c", "C = AB, A is 4×n, B is n×4 (ARM1176)", &ns),
    ];
    render(&figs)
}

fn fig_b17() -> String {
    arm_multi_blas(Microarch::Arm1176, "fig-B.17")
}

fn fig_b18() -> String {
    arm_micro(Microarch::Arm1176, "fig-B.18")
}

fn fig_b16() -> String {
    let arch = Microarch::Arm1176;
    let ns = sweeps::panel_short();
    let figs = vec![
        SeriesBuilder::new(arch, |n| paper::gemv(n, 4))
            .variants(&FULL_ONLY)
            .run("fig-B.16b", "y = αAx + βy, A is n×4 (ARM1176)", &ns),
        SeriesBuilder::new(arch, |n| paper::gemm(n, 4, n))
            .variants(&FULL_ONLY)
            .run(
                "fig-B.16g",
                "C = αAB + βC, A is n×4, B is 4×n (ARM1176)",
                &sweeps::varying()
                    .iter()
                    .copied()
                    .filter(|&n| n <= 86)
                    .collect::<Vec<_>>(),
            ),
    ];
    render(&figs)
}

// ------------------------------------------------------- §6 extensions ---

/// Energy-aware autotuning: cycles-optimal vs energy-optimal kernels per
/// BLAC on the NEON cores.
fn ext_energy() -> String {
    use lgen_core::{Autotuner, Objective, SearchStrategy};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== ext-energy: tuning objective comparison (Cortex-A8) =="
    );
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>14} {:>12} {:>12}",
        "BLAC", "cycles(cyc-opt)", "cycles(E-opt)", "nJ(cyc-opt)", "nJ(E-opt)"
    );
    for (name, blac) in [
        ("mvm 4x64", paper::mvm(4, 64)),
        ("mmm 4x16x4", paper::mmm(4, 16, 4)),
        ("gemv 30x23", paper::gemv(30, 23)),
        ("axpy 256", paper::axpy(256)),
    ] {
        let cfg = CompileConfig::full(Microarch::CortexA8);
        let by_cycles = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Exhaustive)
            .with_objective(Objective::Cycles)
            .tune(&blac, "k");
        let by_energy = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .with_objective(Objective::Energy)
            .tune(&blac, "k");
        let _ = writeln!(
            out,
            "{:<18} {:>14} {:>14} {:>12.2} {:>12.2}",
            name,
            by_cycles.measurement.cycles,
            by_energy.measurement.cycles,
            by_cycles.measurement.energy_pj as f64 / 1000.0,
            by_energy.measurement.energy_pj as f64 / 1000.0,
        );
    }
    out
}

/// LGen-side loop peeling vs plain alignment versioning on misaligned
/// element-wise kernels (the Fig. 5.9 limitation, fixed).
fn ext_peel() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== ext-peel: y = αx + y at shared offset 1 float (Atom) =="
    );
    let _ = writeln!(
        out,
        "{:>8} {:>16} {:>16} {:>16}",
        "n", "LGen-Versioned", "LGen-Peel", "Eigen-3.2.0"
    );
    for n in [32usize, 64, 128, 256, 512, 1024] {
        let blac = paper::axpy(n);
        let offs = [0usize, 1, 1];
        let versioned = lgen_core::compile(
            &blac,
            "k",
            &CompileConfig::full(Microarch::Atom).with_versioning(),
        );
        let peeled = lgen_core::compile(
            &blac,
            "k",
            &CompileConfig::full(Microarch::Atom).with_peeling(),
        );
        let mv = lgen_core::measure_blac(&blac, &versioned, Microarch::Atom, &offs, 3).unwrap();
        let mp = lgen_core::measure_blac(&blac, &peeled, Microarch::Atom, &offs, 3).unwrap();
        let eig =
            measure_competitor_offsets(&blac, Microarch::Atom, Competitor::Eigen, Some(&offs));
        let _ = writeln!(
            out,
            "{:>8} {:>16.3} {:>16.3} {:>16.3}",
            n,
            mv.flops_per_cycle(),
            mp.flops_per_cycle(),
            eig.unwrap_or(0.0)
        );
    }
    out
}

/// Guided hill climbing vs the paper's random search on ARM1176, where the
/// paper observes random search visiting too little of the space.
fn ext_search() -> String {
    use lgen_core::{Autotuner, SearchStrategy};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== ext-search: search strategies on ARM1176 gemv 4×n =="
    );
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "n", "random3(cyc)", "guided(cyc)", "exhaust(cyc)", "gd-evals", "ex-evals"
    );
    for n in [24usize, 48, 96, 190] {
        let blac = paper::gemv(4, n);
        let cfg = CompileConfig::full(Microarch::Arm1176);
        let r = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Random(3))
            .tune(&blac, "k");
        let g = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Guided)
            .tune(&blac, "k");
        let e = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .tune(&blac, "k");
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>14} {:>14} {:>10} {:>10}",
            n,
            r.measurement.cycles,
            g.measurement.cycles,
            e.measurement.cycles,
            g.samples.len(),
            e.samples.len()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_cover_every_chapter5_artifact() {
        let ids = list();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate experiment ids");
        for required in [
            "table-2.1",
            "table-3.1",
            "table-3.2",
            "fig-5.1",
            "fig-5.2",
            "fig-5.3",
            "fig-5.4",
            "fig-5.5",
            "fig-5.6",
            "fig-5.7",
            "fig-5.8",
            "fig-5.9",
            "fig-5.10",
            "fig-5.11",
            "fig-5.12",
            "fig-5.13",
            "fig-5.14",
            "fig-5.15",
            "fig-5.16",
            "fig-5.17",
            "fig-5.18",
            "fig-5.19",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn tables_render() {
        let t = run("table-2.1").unwrap();
        assert!(t.contains("total: 18"));
        let t = run("table-3.1").unwrap();
        assert!(t.contains("Intel Atom"));
        assert!(t.contains("occupies both ports"));
        let t = run("table-3.2").unwrap();
        assert!(t.contains("mmHaddPs"));
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("fig-99").is_none());
    }
}
