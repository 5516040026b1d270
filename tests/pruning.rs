//! Model-guided pruning, end to end: the static predictor may only ever
//! save simulations, never change answers.
//!
//! Three layers of evidence:
//! 1. A property: `topk:inf` keeps every candidate, so it cuts nothing
//!    and is the unpruned search, byte-identical to `off` for random
//!    BLACs, across thread counts.
//! 2. A fixture: on the paper's four BLACs × the four evaluated
//!    microarchitectures, pruning to `topk:3` of the 4 to 6 distinct
//!    kernels reproduces the exhaustive search's winner quality exactly.
//! 3. The model's quality: over the *fully* measured space, its
//!    predicted ranking agrees with the simulator's (Spearman ≥ 0.7),
//!    and its dynamic-energy prediction lands within a constant factor
//!    of the simulator's [`Measurement::dyn_energy_pj`]. A pruned search
//!    reports the same correlation over what it measured, and nothing
//!    reads it back.

use lgen::analysis::analyze_kernel;
use lgen::core::{spearman, PrunePolicy, SearchStrategy};
use lgen::ll::blac::Blac;
use lgen::ll::paper;
use lgen::prelude::*;
use proptest::prelude::*;

/// The paper's evaluated kernel suite (§5.1: within-register BLACs).
fn paper_suite() -> Vec<(&'static str, Blac)> {
    vec![
        ("axpy", paper::axpy(64)),
        ("mvm", paper::mvm(4, 64)),
        ("gemv", paper::gemv(4, 64)),
        ("gemm", paper::gemm(4, 4, 16)),
    ]
}

fn tuner(arch: Microarch, prune: PrunePolicy) -> Autotuner {
    Autotuner::new(CompileConfig::full(arch))
        .with_strategy(SearchStrategy::Exhaustive)
        .with_prune(prune)
}

#[test]
fn pruned_tuning_reproduces_the_exhaustive_winner_on_the_paper_suite() {
    // Every input has 4 to 6 distinct kernels, so `topk:3` leaves some
    // of them unmeasured on every one.
    let k = 3;
    for arch in Microarch::EVALUATED {
        for (name, blac) in paper_suite() {
            let full = tuner(arch, PrunePolicy::Off).tune(&blac, name);
            let pruned = tuner(arch, PrunePolicy::TopK(k)).tune(&blac, name);
            // Winner parity on the objective: candidates can tie in
            // measured cycles, so the *decision* may differ while the
            // kernel quality must not.
            assert_eq!(
                pruned.measurement.cycles, full.measurement.cycles,
                "{name} on {arch}: pruned winner lost cycles"
            );
            assert!(
                pruned.samples.len() < full.samples.len(),
                "{name} on {arch}: pruning measured the whole space"
            );
            assert!(
                pruned.pruned > 0,
                "{name} on {arch}: nothing was pruned at topk:{k}"
            );
        }
    }
}

#[test]
fn predicted_ranking_correlates_with_the_simulator() {
    // The correlation study behind the ranked cut: measure *every*
    // candidate and rank-correlate against the static prediction. The
    // model earns its keep only if the agreement is strong on the
    // kernels and machines the paper evaluates.
    for arch in Microarch::EVALUATED {
        for (name, blac) in paper_suite() {
            let offsets = vec![0usize; blac.operands.len()];
            let mut predicted = Vec::new();
            let mut measured = Vec::new();
            for unroll in Autotuner::search_space() {
                let cfg = CompileConfig::full(arch).with_unroll(unroll);
                let kernel = compile(&blac, name, &cfg);
                let cost = analyze_kernel(&kernel, arch);
                let m = measure_blac(&blac, &kernel, arch, &offsets, 1).unwrap();
                predicted.push(cost.predicted_cycles() as u128);
                measured.push(m.cycles as u128);
            }
            // A `None` correlation (every candidate equally fast, or
            // predicted so) carries no ranking signal to contradict.
            if let Some(rho) = spearman(&predicted, &measured) {
                assert!(
                    rho >= 0.7,
                    "{name} on {arch}: predicted-vs-measured Spearman {rho:.3} < 0.7"
                );
            }
        }
    }
}

#[test]
fn predicted_energy_tracks_simulated_dynamic_energy() {
    // The static model and the simulator price the same instruction
    // stream from the same per-op tables; they diverge only where the
    // trace does (version dispatch, cache effects). Within-register
    // kernels must agree within 2x in both directions.
    for arch in Microarch::EVALUATED {
        for (name, blac) in paper_suite() {
            let cfg = CompileConfig::full(arch);
            let kernel = compile(&blac, name, &cfg);
            let cost = analyze_kernel(&kernel, arch);
            let offsets = vec![0usize; blac.operands.len()];
            let m = measure_blac(&blac, &kernel, arch, &offsets, 1).unwrap();
            let (pred, sim) = (cost.energy_pj as f64, m.dyn_energy_pj as f64);
            assert!(pred > 0.0 && sim > 0.0, "{name} on {arch}: zero energy");
            let ratio = pred / sim;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{name} on {arch}: predicted {pred} pJ vs simulated dynamic {sim} pJ"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `topk:inf` keeps every candidate, so there is nothing to cut: it
    /// scores nothing and must be *byte-identical* to `off`, the
    /// correlation report included, for any BLAC and any thread count.
    #[test]
    fn topk_inf_equals_off_for_random_blacs(
        m in 1usize..5,
        n in 1usize..33,
        threads in 1usize..5,
        pick in 0usize..4,
    ) {
        let arch = Microarch::EVALUATED[pick];
        let blac = paper::gemv(m, n);
        let off = tuner(arch, PrunePolicy::Off).with_threads(threads).tune(&blac, "k");
        let inf = tuner(arch, PrunePolicy::TopK(usize::MAX))
            .with_threads(threads)
            .tune(&blac, "k");
        prop_assert_eq!(off.unroll, inf.unroll);
        prop_assert_eq!(off.samples, inf.samples);
        prop_assert_eq!(off.measurement, inf.measurement);
        prop_assert_eq!(off.kernel, inf.kernel);
        prop_assert_eq!(inf.pruned, 0);
        prop_assert_eq!(off.rank_correlation, inf.rank_correlation);
    }
}
