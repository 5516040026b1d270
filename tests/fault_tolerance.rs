//! Fault tolerance of the autotuning stack: every injected failure mode
//! (panic, hang past the deadline, corrupt C-IR) degrades the search
//! instead of aborting it, failures are reported with reasons, corrupt
//! candidates never reach the kernel cache, and — the acceptance bar —
//! the winner under faults equals the failure-free winner restricted to
//! the surviving candidates, for any thread count.

use lgen::cir::passes::UnrollPolicy;
use lgen::core::{
    Autotuner, FailReason, FaultPlan, KernelCache, SearchStrategy, TuneError, UnrollChoice,
};
use lgen::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn exhaustive(cfg: CompileConfig) -> Autotuner {
    Autotuner::new(cfg).with_strategy(SearchStrategy::Exhaustive)
}

/// `n` when the compile memo serves `cfg`'s compiles, 0 when verification
/// (`LGEN_VERIFY`, which ci.sh sets for this suite) keeps them out of it.
/// The candidates are the distinct kernels either way.
fn memo_count(cfg: &CompileConfig, n: u64) -> u64 {
    n * u64::from(cfg.verify == VerifyLevel::Off)
}

/// gemv 4x48 on ARM1176: its 18 unroll policies make 8 kernels, so fault
/// indices up to 7 name a candidate.
fn gemv_4x48() -> (Blac, CompileConfig) {
    (
        lgen::ll::paper::gemv(4, 48),
        CompileConfig::full(Microarch::Arm1176),
    )
}

/// The candidates of a clean exhaustive tune of `blac`, in candidate
/// order: each one's decision and cycles.
fn candidates(blac: &Blac, cfg: &CompileConfig) -> Vec<(UnrollPolicy, u64)> {
    exhaustive(cfg.clone()).tune(blac, "k").samples
}

#[test]
fn injected_panics_degrade_and_are_counted() {
    let (blac, cfg) = gemv_4x48();
    let kernels = candidates(&blac, &cfg).len();
    let cache = Arc::new(KernelCache::new());
    let tuned = exhaustive(cfg.clone())
        .with_cache(cache.clone())
        .with_threads(4)
        .with_faults(FaultPlan::none().panic_at(1).panic_at(4).panic_at(7))
        .tune(&blac, "k");
    assert_eq!(kernels, 8);
    assert_eq!(tuned.samples.len(), kernels - 3);
    assert_eq!(tuned.panicked(), 3);
    assert_eq!(tuned.failures.len(), 3);
    assert_eq!(cache.stats().tune_panics, 3);
    assert!(tuned
        .failures
        .iter()
        .all(|f| matches!(f.reason, FailReason::Panicked(_))));
    // The failure summary is the line lgenc prints and CI greps.
    let summary = tuned.failure_summary().unwrap();
    assert!(summary.contains("3 candidate(s) failed"), "{summary}");
    assert!(summary.contains("3 panicked"), "{summary}");
}

#[test]
fn corrupt_candidates_are_rejected_and_never_cached() {
    let (blac, cfg) = mvm_4x24();
    let cache = Arc::new(KernelCache::new());
    let tuned = exhaustive(cfg.clone())
        .with_cache(cache.clone())
        .with_faults(FaultPlan::none().corrupt_at(0).corrupt_at(2))
        .tune(&blac, "k");
    assert_eq!(tuned.rejected, 2, "both corrupt candidates verify-rejected");
    assert_eq!(tuned.samples.len(), 1);
    assert_eq!(cache.stats().verify_rejects, 2);
    // Corrupt candidates compile *outside* the cache: only the clean
    // candidates went through it, one compile each (with the memo, only
    // candidate 1 of mvm 4x24's 3 kernels).
    let compiles = cache.pass_stats().compiles();
    assert_eq!(compiles, 1);
    assert_eq!(cache.stats().memo_misses, memo_count(&cfg, 1));
    // Re-tuning without faults serves the clean candidates from the cache
    // and compiles the two missing ones fresh — and they now win/verify
    // like any other candidate, proving no corrupt kernel was cached.
    let again = exhaustive(cfg.clone())
        .with_cache(cache.clone())
        .tune(&blac, "k");
    assert_eq!(again.rejected, 0);
    assert_eq!(again.samples.len(), 3);
    assert_eq!(cache.pass_stats().compiles(), 3);
    let stats = cache.stats();
    let memo = (stats.memo_misses, stats.memo_hits, stats.hits);
    assert_eq!(memo, (memo_count(&cfg, 3), 0, 1));
    assert!(lgen::cir::verify_kernel(&again.kernel).is_empty());
}

#[test]
fn hang_past_deadline_times_out_and_search_continues() {
    let blac = lgen::ll::paper::axpy(32);
    let cfg = CompileConfig::full(Microarch::Atom);
    let kernels = candidates(&blac, &cfg).len();
    let cache = Arc::new(KernelCache::new());
    let tuned = exhaustive(cfg)
        .with_cache(cache.clone())
        .with_threads(2)
        .with_deadline(Duration::from_millis(60))
        .with_faults(FaultPlan::none().hang_at(2, Duration::from_secs(10)))
        .tune(&blac, "k");
    assert_eq!(tuned.timed_out(), 1, "the hung candidate was abandoned");
    assert_eq!(tuned.samples.len(), kernels - 1);
    assert_eq!(cache.stats().tune_timeouts, 1);
    assert!(tuned
        .failures
        .iter()
        .all(|f| matches!(f.reason, FailReason::TimedOut)));
}

#[test]
fn mixed_faults_report_every_reason() {
    // The acceptance scenario: k of n candidates fail across all three
    // modes; tune completes, reports k failures with reasons, and returns
    // the best survivor.
    let (blac, cfg) = gemv_4x48();
    let clean = candidates(&blac, &cfg);
    let cache = Arc::new(KernelCache::new());
    let tuned = exhaustive(cfg.clone())
        .with_cache(cache.clone())
        .with_threads(3)
        .with_deadline(Duration::from_millis(60))
        .with_faults(
            FaultPlan::none()
                .panic_at(1)
                .corrupt_at(3)
                .hang_at(5, Duration::from_secs(10)),
        )
        .tune(&blac, "k");
    assert_eq!(tuned.failures.len(), 3);
    assert_eq!(tuned.panicked(), 1);
    assert_eq!(tuned.rejected, 1);
    assert_eq!(tuned.timed_out(), 1);
    assert_eq!(tuned.samples.len(), clean.len() - 3);
    let stats = cache.stats();
    assert_eq!(
        (stats.tune_panics, stats.verify_rejects, stats.tune_timeouts),
        (1, 1, 1)
    );
    // Best survivor: the clean winner restricted to non-faulted indices.
    let expected = clean
        .iter()
        .enumerate()
        .filter(|(i, _)| ![1usize, 3, 5].contains(i))
        .min_by_key(|(_, (_, cycles))| *cycles)
        .map(|(_, (u, _))| *u)
        .unwrap();
    assert_eq!(tuned.unroll, expected);
}

#[test]
fn all_failed_is_a_typed_error_not_a_panic() {
    let blac = lgen::ll::paper::axpy(8);
    let cfg = CompileConfig::full(Microarch::Atom);
    let kernels = candidates(&blac, &cfg).len();
    let mut plan = FaultPlan::none();
    for i in 0..Autotuner::search_space().len() {
        plan = plan.panic_at(i);
    }
    let err = exhaustive(cfg)
        .with_threads(2)
        .with_faults(plan)
        .try_tune(&blac, "k")
        .expect_err("every candidate panicked");
    let TuneError::AllCandidatesFailed {
        attempted,
        failures,
    } = &err;
    assert_eq!(*attempted, kernels);
    assert_eq!(failures.len(), *attempted);
    let msg = err.to_string();
    assert!(msg.contains("panicked"), "{msg}");
}

/// The Kalman predict step: two fused statements, so its candidates are
/// per-statement genomes.
fn kalman_predict() -> Program {
    parse_program(
        "F = matrix(4, 4)\nB = matrix(4, 2)\nu = vector(2)\nx = vector(4)\n\
         x_next = vector(4)\nP = matrix(4, 4) symmetric\nQ = matrix(4, 4) symmetric\n\
         P_next = matrix(4, 4)\n\
         x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;",
    )
    .unwrap()
}

#[test]
fn program_tunes_contain_faulted_genomes() {
    // A panic on a diagonal genome and corrupt C-IR on a mixed one are
    // recorded against their genomes; the survivors still pick the clean
    // winner restricted to them.
    let program = kalman_predict();
    let cfg = CompileConfig::full(Microarch::Atom);
    let cache = Arc::new(KernelCache::new());
    let clean = exhaustive(cfg.clone())
        .try_tune_program(&program, "kp")
        .unwrap();
    let mixed = |g: &[UnrollPolicy]| g.iter().any(|&p| p != g[0]);
    let panicked = 1;
    let corrupt = clean.samples.iter().position(|(g, _)| mixed(g));
    let corrupt = corrupt.expect("a mixed genome makes a kernel of its own");
    assert!(!mixed(&clean.samples[panicked].0));
    let tuned = exhaustive(cfg)
        .with_cache(cache.clone())
        .with_threads(2)
        .with_faults(FaultPlan::none().panic_at(panicked).corrupt_at(corrupt))
        .try_tune_program(&program, "kp")
        .expect("the survivors win");
    assert_eq!(tuned.failures.len(), 2);
    assert!(matches!(tuned.failures[0].reason, FailReason::Panicked(_)));
    assert!(matches!(tuned.failures[1].reason, FailReason::Rejected(_)));
    for (failure, i) in tuned.failures.iter().zip([panicked, corrupt]) {
        let genome = UnrollChoice::Statements(clean.samples[i].0.clone());
        assert_eq!(failure.unroll, genome);
    }
    let stats = cache.stats();
    assert_eq!((stats.tune_panics, stats.verify_rejects), (1, 1));
    let survivors: Vec<_> = clean
        .samples
        .iter()
        .enumerate()
        .filter(|(i, _)| ![panicked, corrupt].contains(i))
        .map(|(_, s)| s.clone())
        .collect();
    assert_eq!(tuned.samples, survivors);
    let expected = survivors.iter().min_by_key(|(_, cycles)| *cycles).unwrap();
    assert_eq!(
        (&tuned.policies, tuned.measurement.cycles),
        (&expected.0, expected.1)
    );
    assert!(tuned.failure_summary().unwrap().contains("1 panicked"));
}

#[test]
fn program_tune_losing_every_genome_is_a_typed_error() {
    let program = kalman_predict();
    let cfg = CompileConfig::full(Microarch::Atom);
    let genomes = exhaustive(cfg.clone())
        .try_tune_program(&program, "kp")
        .unwrap()
        .samples
        .len();
    let mut plan = FaultPlan::none();
    for i in 0..genomes {
        plan = plan.panic_at(i);
    }
    let err = exhaustive(cfg)
        .with_threads(2)
        .with_faults(plan)
        .try_tune_program(&program, "kp")
        .expect_err("every genome panicked");
    let TuneError::AllCandidatesFailed {
        attempted,
        failures,
    } = &err;
    assert_eq!((*attempted, failures.len()), (genomes, genomes));
    assert!(err.to_string().contains("panicked"), "{err}");
}

#[test]
fn tune_many_degrades_per_entry() {
    // A batch tunes entry by entry on one tuner: fault indices address
    // each entry's own candidate list, so a plan that faults the whole
    // space fails every entry with a typed error, and a one-panic plan
    // costs every entry exactly that candidate.
    let jobs = [lgen::ll::paper::gemv(4, 16), lgen::ll::paper::axpy(8)];
    let cfg = CompileConfig::full(Microarch::Atom);
    let space = Autotuner::search_space().len();
    let mut plan = FaultPlan::none();
    for i in 0..space {
        plan = plan.panic_at(i);
    }
    let doomed = exhaustive(cfg.clone()).with_threads(4).with_faults(plan);
    assert!(jobs.iter().all(|blac| doomed.try_tune(blac, "k").is_err()));

    let partial = exhaustive(cfg.clone())
        .with_threads(4)
        .with_faults(FaultPlan::none().panic_at(0));
    for blac in &jobs {
        let kernels = candidates(blac, &cfg).len();
        let tuned = partial
            .try_tune(blac, "k")
            .expect("one panic per entry is survivable");
        assert_eq!(tuned.panicked(), 1);
        assert_eq!(tuned.samples.len(), kernels - 1);
    }
}

#[test]
fn exhausted_budget_skips_candidates_deterministically() {
    let blac = lgen::ll::paper::axpy(16);
    let cfg = CompileConfig::full(Microarch::Atom);
    // A zero budget is spent before any candidate starts: everything is
    // skipped and the typed error reports only timeouts.
    let err = exhaustive(cfg.clone())
        .with_threads(4)
        .with_budget(Duration::ZERO)
        .try_tune(&blac, "k")
        .expect_err("zero budget starts nothing");
    assert!(err
        .failures()
        .iter()
        .all(|f| matches!(f.reason, FailReason::TimedOut)));
    // A generous budget changes nothing.
    let tuned = exhaustive(cfg.clone())
        .with_budget(Duration::from_secs(600))
        .tune(&blac, "k");
    assert_eq!(tuned.samples, candidates(&blac, &cfg));
    assert!(tuned.failures.is_empty());
}

/// mvm 4x24 on Atom: its 18 unroll policies make 3 kernels.
fn mvm_4x24() -> (Blac, CompileConfig) {
    (
        lgen::ll::paper::mvm(4, 24),
        CompileConfig::full(Microarch::Atom),
    )
}

#[test]
fn a_faulted_candidate_fails_alone() {
    // Panics injected at 1 and 5 fail those two candidates only: every
    // other candidate keeps the sample of the clean run, and the failures
    // name the two candidates' decisions.
    let (blac, cfg) = gemv_4x48();
    let clean = candidates(&blac, &cfg);
    let cache = Arc::new(KernelCache::new());
    let tuned = exhaustive(cfg.clone())
        .with_cache(cache.clone())
        .with_threads(2)
        .with_faults(FaultPlan::none().panic_at(1).panic_at(5))
        .tune(&blac, "k");
    let survivors: Vec<_> = (0..clean.len())
        .filter(|i| ![1, 5].contains(i))
        .map(|i| clean[i])
        .collect();
    assert_eq!(tuned.samples, survivors);
    let failed: Vec<_> = tuned.failures.iter().map(|f| f.unroll.clone()).collect();
    assert_eq!(failed, [1, 5].map(|i| UnrollChoice::Kernel(clean[i].0)));
    assert_eq!(tuned.panicked(), 2);
    // One compile and one evaluation per surviving candidate; the faulted
    // ones panicked before compiling.
    let stats = cache.stats();
    let n = survivors.len() as u64;
    assert_eq!((cache.pass_stats().compiles(), stats.evaluations), (n, n));
    assert_eq!(stats.memo_misses, memo_count(&cfg, n));
    assert_eq!(stats.tune_panics, 2);
}

#[test]
fn a_zero_deadline_times_out_every_candidate_on_its_own() {
    // Every job overruns a zero deadline, so each candidate reports its
    // own timeout.
    let (blac, cfg) = mvm_4x24();
    let clean = candidates(&blac, &cfg);
    let cache = Arc::new(KernelCache::new());
    let err = exhaustive(cfg)
        .with_cache(cache.clone())
        .with_threads(2)
        .with_deadline(Duration::ZERO)
        .try_tune(&blac, "k")
        .expect_err("no candidate beats a zero deadline");
    let TuneError::AllCandidatesFailed {
        attempted,
        failures,
    } = &err;
    assert_eq!(*attempted, clean.len());
    let timed_out: Vec<_> = failures
        .iter()
        .filter(|f| matches!(f.reason, FailReason::TimedOut))
        .map(|f| f.unroll.clone())
        .collect();
    let all: Vec<_> = clean
        .iter()
        .map(|&(u, _)| UnrollChoice::Kernel(u))
        .collect();
    assert_eq!(timed_out, all);
    assert_eq!(cache.stats().tune_timeouts, clean.len() as u64);
}

#[test]
fn a_spent_budget_times_out_the_unstarted_candidates() {
    // On one worker, candidates 0 and 1 evaluate, then candidate 2 hangs
    // past the whole-search budget before it evaluates. The budget is
    // then spent: 2 finishes, and every later candidate, never started,
    // times out.
    let (blac, cfg) = gemv_4x48();
    let clean = candidates(&blac, &cfg);
    let tuned = exhaustive(cfg.clone())
        .with_cache(Arc::new(KernelCache::new()))
        .with_budget(Duration::from_secs(1))
        .with_faults(FaultPlan::none().hang_at(2, Duration::from_secs(2)))
        .tune(&blac, "k");
    assert_eq!(tuned.samples, clean[..3]);
    let timed_out: Vec<_> = tuned
        .failures
        .iter()
        .filter(|f| matches!(f.reason, FailReason::TimedOut))
        .map(|f| f.unroll.clone())
        .collect();
    let rest: Vec<_> = clean[3..]
        .iter()
        .map(|&(u, _)| UnrollChoice::Kernel(u))
        .collect();
    assert_eq!(timed_out, rest);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Determinism under faults: for random BLAC shapes, a random
    /// injected-failure subset, and any thread count, the faulted search
    /// returns exactly the failure-free winner restricted to the
    /// surviving candidates.
    #[test]
    fn faulted_winner_equals_clean_winner_over_survivors(
        m in 2usize..5,
        n in 8usize..25,
        mask in any::<u32>(),
        threads in 1usize..5,
    ) {
        let blac = lgen::ll::paper::gemv(m, n);
        let cfg = CompileConfig::full(Microarch::Atom);
        let clean = exhaustive(cfg.clone()).with_threads(threads).tune(&blac, "k");
        let space = clean.samples.len();
        // Fault every index whose mask bit is set, but keep at least one
        // survivor so the search has a winner.
        let mut faulted: Vec<usize> =
            (0..space).filter(|i| mask >> (i % 32) & 1 == 1).collect();
        if faulted.len() == space {
            faulted.pop();
        }
        let mut plan = FaultPlan::none();
        for &i in &faulted {
            plan = plan.panic_at(i);
        }

        let tuned = exhaustive(cfg)
            .with_threads(threads)
            .with_faults(plan)
            .tune(&blac, "k");

        prop_assert_eq!(tuned.failures.len(), faulted.len());
        prop_assert_eq!(tuned.samples.len(), space - faulted.len());
        // Expected winner: first-best (strict <) among surviving samples
        // of the clean run — the tuner's own reduction rule.
        let expected = clean
            .samples
            .iter()
            .enumerate()
            .filter(|(i, _)| !faulted.contains(i))
            .min_by_key(|(_, (_, cycles))| *cycles)
            .map(|(_, (u, c))| (*u, *c))
            .unwrap();
        prop_assert_eq!((tuned.unroll, tuned.measurement.cycles), expected);
    }
}
