//! Measurement drivers: one point = one (BLAC, competitor, core) triple.

use crate::series::{Figure, Series};
use lgen_baselines::{compile_baseline, Competitor};
use lgen_core::{compile, measure_blac, Autotuner, CompileConfig, Variant};
use lgen_isa::Microarch;
use lgen_ll::Blac;

/// Repetitions for the median (the simulator is deterministic, so 3 ≡ 15).
pub(crate) const REPS: usize = 3;

/// Measures an LGen variant on a BLAC: autotunes (the paper's random
/// search with sample size 10, §5.1.5, which takes every kernel of an
/// input with at most 10 distinct kernels) and returns flops/cycle of the
/// best kernel.
pub fn measure_lgen(blac: &Blac, arch: Microarch, variant: Variant) -> f64 {
    let cfg = CompileConfig::variant(arch, variant);
    let tuned = Autotuner::new(cfg).tune(blac, "lgen");
    tuned.measurement.flops_per_cycle()
}

/// Measures an LGen variant without autotuning, at explicit per-parameter
/// float offsets (the Fig. 5.9 misalignment protocol).
pub(crate) fn measure_lgen_offsets(
    blac: &Blac,
    arch: Microarch,
    cfg: &CompileConfig,
    offsets: &[usize],
) -> f64 {
    let kernel = compile(blac, "lgen", cfg);
    measure_blac(blac, &kernel, arch, offsets, REPS)
        .expect("lgen kernel must execute")
        .flops_per_cycle()
}

/// Measures a competitor; `None` when it is unavailable on the platform or
/// does not cover the BLAC.
pub fn measure_competitor(blac: &Blac, arch: Microarch, comp: Competitor) -> Option<f64> {
    measure_competitor_offsets(blac, arch, comp, None)
}

/// [`measure_competitor`] at explicit float offsets.
pub fn measure_competitor_offsets(
    blac: &Blac,
    arch: Microarch,
    comp: Competitor,
    offsets: Option<&[usize]>,
) -> Option<f64> {
    let kernel = compile_baseline(blac, comp, arch)?;
    let zeros = vec![0usize; blac.operands.len()];
    let offs = offsets.unwrap_or(&zeros);
    Some(
        measure_blac(blac, &kernel, arch, offs, REPS)
            .expect("baseline kernel must execute")
            .flops_per_cycle(),
    )
}

/// Builds a figure by sweeping `ns` and measuring a set of LGen variants
/// plus all available competitors.
pub(crate) struct SeriesBuilder<'a> {
    arch: Microarch,
    blac_of: Box<dyn Fn(usize) -> Blac + 'a>,
    variants: Vec<Variant>,
    competitors: Vec<Competitor>,
}

impl<'a> SeriesBuilder<'a> {
    /// A builder for `arch` with the BLAC-per-x generator.
    pub fn new(arch: Microarch, blac_of: impl Fn(usize) -> Blac + 'a) -> Self {
        SeriesBuilder {
            arch,
            blac_of: Box::new(blac_of),
            variants: vec![Variant::Full, Variant::Base],
            competitors: Competitor::ALL.to_vec(),
        }
    }

    /// Selects the LGen variants to plot (default: Full and Base).
    #[must_use]
    pub(crate) fn variants(mut self, v: &[Variant]) -> Self {
        self.variants = v.to_vec();
        self
    }

    /// Selects the competitors to plot (default: all available).
    #[must_use]
    pub(crate) fn competitors(mut self, c: &[Competitor]) -> Self {
        self.competitors = c.to_vec();
        self
    }

    /// Runs the sweep and assembles the figure.
    pub fn run(self, id: &str, title: &str, ns: &[usize]) -> Figure {
        let mut fig = Figure::new(id, title, "n");
        for v in &self.variants {
            fig.series.push(Series::new(v.label()));
        }
        for c in &self.competitors {
            fig.series.push(Series::new(c.label()));
        }
        for &n in ns {
            let blac = (self.blac_of)(n);
            let mut col = 0;
            for v in &self.variants {
                let fc = measure_lgen(&blac, self.arch, *v);
                fig.series[col].points.push((n, Some(fc)));
                col += 1;
            }
            for c in &self.competitors {
                let fc = measure_competitor(&blac, self.arch, *c);
                fig.series[col].points.push((n, fc));
                col += 1;
            }
        }
        fig
    }
}

/// The size sweeps used throughout Chapter 5, shortened to keep runtimes
/// reasonable while preserving the paper's ranges and the mod-4 structure
/// (alignment ripple, prime-tile-count dips).
pub mod sweeps {
    /// Long-dimension sweep for panels (the paper plots 2…1190).
    pub(crate) fn panel() -> Vec<usize> {
        vec![
            2, 5, 8, 16, 23, 36, 64, 101, 128, 254, 361, 512, 695, 893, 1024, 1190,
        ]
    }

    /// Short panel sweep for expensive kernels (the paper plots 2…946).
    pub(crate) fn panel_short() -> Vec<usize> {
        vec![2, 6, 12, 24, 48, 96, 190, 380, 574, 710, 946]
    }

    /// Micro-BLAC sizes (the paper plots 2…10).
    pub(crate) fn micro() -> Vec<usize> {
        (2..=10).collect()
    }

    /// Varying-shape sweep (the paper plots 2…100 for 30×n).
    pub(crate) fn varying() -> Vec<usize> {
        vec![2, 9, 16, 23, 30, 37, 44, 58, 72, 86, 100]
    }

    /// Vector-length sweep for axpy (the paper plots 2…3782).
    pub(crate) fn vector() -> Vec<usize> {
        vec![16, 64, 256, 542, 1082, 2162, 3242, 3782, 4400]
    }

    /// Leftover-heavy sweep (the paper plots 2…24).
    pub fn leftover() -> Vec<usize> {
        (2..=24).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgen_ll::paper;

    #[test]
    fn lgen_beats_base_and_competitors_on_atom_mvm_panel() {
        // The headline claim (Fig. 5.1a): LGen-Full wins on 4×n MVM.
        let blac = paper::mvm(4, 64);
        let full = measure_lgen(&blac, Microarch::Atom, Variant::Full);
        let base = measure_lgen(&blac, Microarch::Atom, Variant::Base);
        assert!(full > base, "Full {full} must beat Base {base}");
        for comp in Competitor::ALL {
            if let Some(fc) = measure_competitor(&blac, Microarch::Atom, comp) {
                assert!(
                    full > fc,
                    "LGen-Full {full} must beat {} {fc}",
                    comp.label()
                );
            }
        }
    }

    #[test]
    fn series_builder_produces_full_grid() {
        let fig = SeriesBuilder::new(Microarch::Atom, |n| paper::mvm(4, n))
            .variants(&[Variant::Full])
            .competitors(&[Competitor::Mkl, Competitor::Eigen])
            .run("t", "t", &[8, 16]);
        assert_eq!(fig.series.len(), 3);
        assert!(fig.series.iter().all(|s| s.points.len() == 2));
        assert!(fig.series("LGen-Full").unwrap().peak() > 0.0);
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::sweeps;

    #[test]
    fn sweeps_are_sorted_and_cover_the_paper_ranges() {
        for (name, s, max) in [
            ("panel", sweeps::panel(), 1190),
            ("panel_short", sweeps::panel_short(), 946),
            ("micro", sweeps::micro(), 10),
            ("varying", sweeps::varying(), 100),
            ("vector", sweeps::vector(), 3782),
            ("leftover", sweeps::leftover(), 24),
        ] {
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{name} not increasing");
            assert!(*s.last().unwrap() >= max, "{name} misses the paper's range");
            assert!(s[0] <= 16, "{name} misses small sizes");
        }
        // The panel sweeps include the prime-tile dip points of §5.2.1.
        assert!(sweeps::panel().contains(&695));
        assert!(sweeps::panel().contains(&893));
        // And both n mod 4 classes (the alignment ripple).
        assert!(sweeps::panel().iter().any(|n| n % 4 == 0));
        assert!(sweeps::panel().iter().any(|n| n % 4 != 0));
    }
}
