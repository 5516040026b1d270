//! The autotuning feedback loop (Fig. 2.1, §5.1.5): the one tuner for
//! single BLACs and whole programs.
//!
//! LGen generates several code versions per BLAC, executes them on the
//! target device (here the `lgen-machine` simulator), and keeps the
//! fastest. A candidate is an unrolling decision ([`UnrollChoice`]) plus
//! the C-IR schedule it compiles under. [`Autotuner::try_tune`] searches
//! one policy for a whole BLAC kernel: the unrolling/outer-tiling decision
//! of §2.1.2, whose `Factor` policy skips non-dividing trip counts (the
//! "leftovers in at most one level" restriction).
//! [`Autotuner::try_tune_program`] searches *genomes*, one policy per fused
//! statement (SLinGen's programs on top of the BLAC layer): the diagonal of
//! the BLAC space, then seeded mixed genomes. Everything after the
//! candidate list is shared. The paper's "random search over the search
//! space with sample size 10" is the default strategy, and
//! [`Autotuner::with_pipeline_search`] crosses the decisions with legal
//! [`PassPipeline`] variants.
//!
//! Candidates (compile → validate → measure, through one [`Evaluator`]
//! per tune) fan out over the persistent worker pool ([`crate::pool`]),
//! which claims the first candidate of every distinct kernel before any
//! candidate that repeats one. Every stage is deterministic, results are
//! collected in candidate order, and the reduction keeps the *first* best
//! under a strict `<` — so the winner is byte-identical for any thread
//! count. A shared [`KernelCache`] dedups compilation across candidates,
//! tunes, and batch jobs; its memo and the tuner's evaluation memo are
//! single-flight, so every width compiles and evaluates each distinct
//! kernel once.
//!
//! **Fault tolerance.** Every evaluation is isolated
//! ([`crate::pool::run_outcomes`]): a panicking candidate is contained, a
//! hanging one is abandoned at its deadline, a verifier-rejected one is
//! skipped. Each failure is recorded ([`CandidateFailure`], the cache's
//! `--cache-stats` counters) and the search goes on; only an
//! all-candidates-failed search is an error ([`TuneError`]). Deadlines
//! and the whole-search [`TuneBudget`] are opt-in; without them the
//! search stays deterministic. The env-gated [`FaultPlan`]
//! (`LGEN_FAULTS`) injects failures to keep this path tested.
//!
//! **Model-guided pruning.** With a [`PrunePolicy`] other than `Off`, the
//! tuner ranks every candidate with the static cost predictor
//! (`lgen-analysis`; no execution) and simulates only the best few (§6's
//! "heuristics to prune the search space"). The Spearman correlation
//! between predicted and measured scores audits the model; below the
//! audit threshold the search widens toward full measurement.

use crate::cache::{CompileOutcome, KernelCache};
use crate::config::CompileConfig;
use crate::evaluate::Evaluator;
use crate::exec::tolerance;
use crate::fault::{corrupt_kernel, FaultKind, FaultPlan};
use crate::memo::{CompileMemo, Flights, OptKey};
use crate::pipeline::{compile_with, memo_lowering};
use crate::pool::{run_outcomes, JobOutcome};
use lgen_analysis::{analyze_kernel, StaticCost};
use lgen_cir::passes::{PassPipeline, UnrollPolicy};
use lgen_cir::{verify_kernel, Kernel, VerifyFailure};
use lgen_ll::{Blac, Program};
use lgen_machine::Measurement;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the autotuner minimizes (§6 future work: "introduction of
/// energy-related metrics in the autotuning feedback loop").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Objective {
    /// Fastest kernel (the paper's default).
    Cycles,
    /// Least energy per invocation.
    Energy,
    /// Minimum energy-delay product.
    EnergyDelay,
}

impl Objective {
    fn score(self, m: &Measurement) -> u128 {
        match self {
            Objective::Cycles => m.cycles as u128,
            Objective::Energy => m.energy_pj as u128,
            Objective::EnergyDelay => m.energy_delay(),
        }
    }
}

/// How the search space is explored (§6 future work: random search visits
/// too little of large spaces — "LGen could possibly make use of heuristics
/// to prune the search space and/or direct the search").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SearchStrategy {
    /// Uniform random sample of the given size (the paper's method,
    /// sample size 10 in §5.1.5).
    Random(usize),
    /// Every candidate (the space is small enough to enumerate).
    Exhaustive,
    /// Greedy hill climbing from the default decision: evaluates the
    /// current point's neighbours in the ordered space and moves while it
    /// improves — fewer evaluations than exhaustive, better coverage than
    /// a small random sample. A program climbs its diagonal genomes.
    Guided,
}

/// A candidate's unrolling decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnrollChoice {
    /// One policy for the whole kernel (a BLAC tune).
    Kernel(UnrollPolicy),
    /// One policy per fused statement (a program tune's genome).
    Statements(Vec<UnrollPolicy>),
}

impl UnrollChoice {
    /// The policy of a BLAC tune's decision.
    fn policy(self) -> UnrollPolicy {
        let UnrollChoice::Kernel(u) = self else {
            unreachable!("a BLAC tune has kernel-wide decisions")
        };
        u
    }

    /// The genome of a program tune's decision.
    fn genome(self) -> Vec<UnrollPolicy> {
        let UnrollChoice::Statements(g) = self else {
            unreachable!("a program tune has per-statement decisions")
        };
        g
    }
}

impl fmt::Display for UnrollChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnrollChoice::Kernel(u) => write!(f, "{u:?}"),
            UnrollChoice::Statements(g) => write!(f, "{g:?}"),
        }
    }
}

/// One point of the (possibly pipeline-extended) search space: an
/// unrolling decision plus the schedule to run it under (`None` = the
/// tuner config's own pipeline).
type Candidate = (UnrollChoice, Option<PassPipeline>);

/// One evaluated candidate: its kernel and measurement.
type Eval = (Arc<Kernel>, Measurement);

/// Per-search evaluation memo: validated-and-measured results keyed by the
/// kernel's allocation identity plus the program's fingerprint. The shared
/// [`KernelCache`]'s compile memo returns the *same* `Arc` for candidates
/// whose unroll decisions collapse to one kernel — kernel-wide policies
/// and per-statement genomes alike — so a sweep over N decisions with K
/// distinct kernels validates and measures K times, not N. Sound because
/// every evaluation stage is deterministic (a stored result pins its
/// `Arc`, and a waiter holds its own, so an address is never reused by a
/// different allocation while it is a live key), and value-neutral: a memo
/// hit returns bit-identical results, keeping the tuner's any-thread-count
/// determinism. Single-flight, so a worker that reaches a kernel another
/// worker is evaluating waits for that result instead of redoing it.
type EvalMemo = Flights<(usize, u64), Eval>;

/// The program under tuning (a BLAC as its one-statement program — the
/// form every candidate compiles and is cached as), its kernel name and
/// fingerprint, and the evaluator holding its validation data and
/// reference result, all built once per tune.
struct Subject {
    program: Program,
    name: String,
    fingerprint: u64,
    evaluator: Evaluator,
}

impl Subject {
    fn new(program: Program, name: &str) -> Arc<Subject> {
        Arc::new(Subject {
            name: name.to_string(),
            fingerprint: program.fingerprint(),
            evaluator: Evaluator::new(&program),
            program,
        })
    }
}

/// Time limits for a tuning run: both knobs are opt-in (`None` = no
/// limit, the deterministic default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TuneBudget {
    /// Per-candidate deadline: a candidate still evaluating when it
    /// expires is abandoned and recorded as timed out.
    pub deadline: Option<Duration>,
    /// Whole-search budget: once spent, workers stop claiming candidates;
    /// the unstarted remainder is recorded as timed out and the best
    /// *surviving* kernel wins. (For [`Autotuner::tune_many`] the budget
    /// spans the whole batch.)
    pub total: Option<Duration>,
}

/// How many candidates survive static ranking into full simulation.
///
/// Parsed from the `--prune=` CLI syntax: `off`, `topk:N` (`topk:inf`
/// keeps everything, useful for parity testing), or `frac:F` with
/// `0 < F <= 1`. At least one candidate always survives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PrunePolicy {
    /// Measure every candidate (the default; the paper's exhaustive or
    /// random search, unchanged).
    Off,
    /// Measure the statically best `N` candidates.
    TopK(usize),
    /// Measure the statically best `ceil(F * n)` of `n` candidates.
    Frac(f64),
}

impl PrunePolicy {
    /// Is this policy a no-op?
    pub fn is_off(self) -> bool {
        matches!(self, PrunePolicy::Off)
    }

    /// How many of `n` candidates survive into measurement.
    pub fn survivors(self, n: usize) -> usize {
        match self {
            PrunePolicy::Off => n,
            PrunePolicy::TopK(k) => k.clamp(1, n.max(1)).min(n),
            PrunePolicy::Frac(f) => {
                let k = (f * n as f64).ceil() as usize;
                k.clamp(1, n.max(1)).min(n)
            }
        }
    }
}

impl FromStr for PrunePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "off" {
            return Ok(PrunePolicy::Off);
        }
        if let Some(k) = s.strip_prefix("topk:") {
            if k == "inf" || k == "∞" {
                return Ok(PrunePolicy::TopK(usize::MAX));
            }
            return match k.parse::<usize>() {
                Ok(k) if k >= 1 => Ok(PrunePolicy::TopK(k)),
                _ => Err(format!(
                    "invalid top-k count '{k}' (want an integer >= 1 or 'inf')"
                )),
            };
        }
        if let Some(fr) = s.strip_prefix("frac:") {
            return match fr.parse::<f64>() {
                Ok(f) if f > 0.0 && f <= 1.0 => Ok(PrunePolicy::Frac(f)),
                _ => Err(format!("invalid fraction '{fr}' (want 0 < F <= 1)")),
            };
        }
        Err(format!(
            "unknown prune policy '{s}' (want off, topk:N, or frac:F)"
        ))
    }
}

impl fmt::Display for PrunePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrunePolicy::Off => write!(f, "off"),
            PrunePolicy::TopK(k) if *k == usize::MAX => write!(f, "topk:inf"),
            PrunePolicy::TopK(k) => write!(f, "topk:{k}"),
            PrunePolicy::Frac(fr) => write!(f, "frac:{fr}"),
        }
    }
}

/// Why one candidate dropped out of the search.
#[derive(Clone, Debug)]
pub enum FailReason {
    /// Static verification rejected its kernel (corrupt C-IR).
    Rejected(VerifyFailure),
    /// Its evaluation panicked (contained by the worker pool).
    Panicked(String),
    /// It exceeded the per-candidate deadline, or was never started
    /// because the search budget was already spent.
    TimedOut,
}

impl fmt::Display for FailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailReason::Rejected(v) => write!(f, "verify-rejected: {v}"),
            FailReason::Panicked(msg) => write!(f, "panicked: {msg}"),
            FailReason::TimedOut => write!(f, "timed out"),
        }
    }
}

/// A candidate the search survived: which point failed and why.
#[derive(Clone, Debug)]
pub struct CandidateFailure {
    /// The candidate's unrolling decision.
    pub unroll: UnrollChoice,
    /// Its schedule, when pass-order search assigned one.
    pub pipeline: Option<PassPipeline>,
    /// What went wrong.
    pub reason: FailReason,
}

impl fmt::Display for CandidateFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "candidate {} {}", self.unroll, self.reason)
    }
}

/// The search could not produce any kernel: every candidate failed.
#[derive(Clone, Debug)]
pub enum TuneError {
    /// No candidate survived evaluation; the failures say why.
    AllCandidatesFailed {
        /// How many candidates the strategy attempted.
        attempted: usize,
        /// Every failure, in candidate order.
        failures: Vec<CandidateFailure>,
    },
}

impl TuneError {
    /// The per-candidate failures behind the error.
    pub fn failures(&self) -> &[CandidateFailure] {
        match self {
            TuneError::AllCandidatesFailed { failures, .. } => failures,
        }
    }
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let TuneError::AllCandidatesFailed {
            attempted,
            failures,
        } = self;
        let (r, p, t) = count_reasons(failures);
        write!(
            f,
            "all {attempted} tuning candidate(s) failed \
             ({r} verify-rejected, {p} panicked, {t} timed out)"
        )?;
        if let Some(first) = failures.first() {
            write!(f, "; first: {first}")?;
        }
        Ok(())
    }
}

impl std::error::Error for TuneError {}

/// Counts `(rejected, panicked, timed_out)` over a failure list.
fn count_reasons(failures: &[CandidateFailure]) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for fail in failures {
        match fail.reason {
            FailReason::Rejected(_) => counts.0 += 1,
            FailReason::Panicked(_) => counts.1 += 1,
            FailReason::TimedOut => counts.2 += 1,
        }
    }
    counts
}

/// A one-line degradation summary, or `None` if nothing failed.
fn failure_summary(failures: &[CandidateFailure]) -> Option<String> {
    if failures.is_empty() {
        return None;
    }
    let (r, p, t) = count_reasons(failures);
    Some(format!(
        "{} candidate(s) failed: {r} verify-rejected, {p} panicked, {t} timed out",
        failures.len()
    ))
}

/// Result of an autotuning run.
#[derive(Clone, Debug)]
pub struct TunedKernel {
    /// The fastest validated kernel.
    pub kernel: Kernel,
    /// Its measurement.
    pub measurement: Measurement,
    /// The winning unroll decision.
    pub unroll: UnrollPolicy,
    /// The schedule that produced the winner (the config's own pipeline
    /// unless pass-order search found a better one).
    pub pipeline: PassPipeline,
    /// `(candidate, median cycles)` for every sampled point (with
    /// pass-order search, one entry per `(unroll, pipeline)` pair).
    /// Failed candidates are excluded — see [`failures`](Self::failures).
    pub samples: Vec<(UnrollPolicy, u64)>,
    /// Candidates excluded because they failed static verification
    /// (`cfg.verify` enabled) — never measured, never eligible to win.
    pub rejected: usize,
    /// Every candidate the search survived, with its reason — the
    /// graceful-degradation record ([`rejected`](Self::rejected) counts
    /// the `Rejected` subset).
    pub failures: Vec<CandidateFailure>,
    /// Candidates the static cost model pruned away (ranked too low to be
    /// worth simulating). Zero unless a [`PrunePolicy`] was set.
    pub pruned: usize,
    /// Spearman rank correlation between the static model's scores and
    /// the measured objective over the candidates that *were* measured.
    /// `None` for an unpruned search, when fewer than two candidates were
    /// measured, or when either ranking is constant — the model-audit
    /// signal behind graceful widening.
    pub rank_correlation: Option<f64>,
}

impl TunedKernel {
    /// Candidates whose evaluation panicked.
    pub fn panicked(&self) -> usize {
        count_reasons(&self.failures).1
    }

    /// Candidates abandoned at a deadline or skipped by the budget.
    pub fn timed_out(&self) -> usize {
        count_reasons(&self.failures).2
    }

    /// A one-line degradation summary, or `None` if nothing failed.
    pub fn failure_summary(&self) -> Option<String> {
        failure_summary(&self.failures)
    }
}

/// Result of a program tuning run. The fields shared with [`TunedKernel`]
/// mean the same.
#[derive(Clone, Debug)]
pub struct TunedProgram {
    /// The fastest validated kernel.
    pub kernel: Kernel,
    /// The program after cross-statement fusion.
    pub fused: Program,
    /// Number of producer→consumer substitutions performed.
    pub fusions: usize,
    /// Its measurement.
    pub measurement: Measurement,
    /// The winning genome: one unroll policy per fused statement.
    pub policies: Vec<UnrollPolicy>,
    /// The schedule that produced the winner.
    pub pipeline: PassPipeline,
    /// `(genome, median cycles)` for every measured candidate.
    pub samples: Vec<(Vec<UnrollPolicy>, u64)>,
    /// Every candidate the search survived, with its reason.
    pub failures: Vec<CandidateFailure>,
    /// Candidates the static cost model pruned from the measured set.
    pub pruned: usize,
    /// The pruning audit's rank correlation (`None` when unpruned).
    pub rank_correlation: Option<f64>,
}

impl TunedProgram {
    /// A one-line degradation summary, or `None` if nothing failed.
    pub fn failure_summary(&self) -> Option<String> {
        failure_summary(&self.failures)
    }
}

/// What one search found, before [`Autotuner::try_tune`] or
/// [`Autotuner::try_tune_program`] shapes it into its result.
struct Search {
    kernel: Arc<Kernel>,
    measurement: Measurement,
    unroll: UnrollChoice,
    pipeline: PassPipeline,
    samples: Vec<(UnrollChoice, u64)>,
    failures: Vec<CandidateFailure>,
    pruned: usize,
    rank_correlation: Option<f64>,
}

impl From<Search> for TunedKernel {
    fn from(s: Search) -> TunedKernel {
        TunedKernel {
            kernel: Arc::unwrap_or_clone(s.kernel),
            measurement: s.measurement,
            unroll: s.unroll.policy(),
            pipeline: s.pipeline,
            samples: s
                .samples
                .into_iter()
                .map(|(u, c)| (u.policy(), c))
                .collect(),
            rejected: count_reasons(&s.failures).0,
            failures: s.failures,
            pruned: s.pruned,
            rank_correlation: s.rank_correlation,
        }
    }
}

/// The autotuner: searches unrolling decisions (kernel-wide for a BLAC,
/// per fused statement for a program), optionally crossed with pass-order
/// variants.
#[derive(Clone, Debug)]
pub struct Autotuner {
    cfg: CompileConfig,
    strategy: SearchStrategy,
    objective: Objective,
    seed: u64,
    threads: usize,
    cache: Option<Arc<KernelCache>>,
    /// Pass schedules to search over; empty = unrolling-only search under
    /// the config's own pipeline.
    pipelines: Vec<PassPipeline>,
    /// Mixed genomes a program tune samples beyond the diagonal.
    mixed_samples: usize,
    budget: TuneBudget,
    faults: FaultPlan,
    prune: PrunePolicy,
    /// Minimum predicted-vs-measured Spearman correlation before the
    /// pruned search widens toward full measurement.
    audit_threshold: f64,
}

impl Autotuner {
    /// Autotuner with the paper's defaults: random search, sample size 10,
    /// minimizing cycles; a program tune adds 16 mixed genomes to the
    /// diagonal. Runs single-threaded and uncached; see
    /// [`Self::with_threads`] and [`Self::with_cache`]. Fault injection is
    /// read from `LGEN_FAULTS` (none when unset), like `LGEN_VERIFY`.
    pub fn new(cfg: CompileConfig) -> Self {
        Autotuner {
            cfg,
            strategy: SearchStrategy::Random(10),
            objective: Objective::Cycles,
            seed: 0x5EED,
            threads: 1,
            cache: None,
            pipelines: Vec::new(),
            mixed_samples: 16,
            budget: TuneBudget::default(),
            faults: FaultPlan::from_env(),
            prune: PrunePolicy::Off,
            audit_threshold: 0.5,
        }
    }

    /// Sets the model-guided pruning policy: rank all candidates with the
    /// static cost predictor, simulate only the best
    /// [`survivors`](PrunePolicy::survivors), and widen toward full
    /// measurement whenever the predicted-vs-measured rank correlation
    /// drops below the audit threshold.
    #[must_use]
    pub fn with_prune(mut self, prune: PrunePolicy) -> Self {
        self.prune = prune;
        self
    }

    /// Sets the Spearman-correlation floor below which a pruned search
    /// stops trusting the static model and widens (default `0.5`).
    #[must_use]
    pub fn with_audit_threshold(mut self, threshold: f64) -> Self {
        self.audit_threshold = threshold;
        self
    }

    /// Sets the worker-pool width for candidate evaluation (`0` = one per
    /// available core). The tuning result is identical for every width.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Shares a kernel cache: candidates already compiled (by earlier
    /// tunes, batch jobs, or plain [`compile`](crate::compile) calls
    /// through the cache) skip the pipeline.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<KernelCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the random-search sample size.
    #[must_use]
    pub fn with_sample_size(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.strategy = SearchStrategy::Random(n);
        self
    }

    /// Overrides the search strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the tuning objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Overrides the RNG seed (the search is deterministic per seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides how many mixed (non-diagonal) genomes a program tune
    /// samples (default 16).
    #[must_use]
    pub fn with_mixed_samples(mut self, n: usize) -> Self {
        self.mixed_samples = n;
        self
    }

    /// Sets a per-candidate deadline: a candidate still compiling,
    /// validating, or measuring when it expires is abandoned and counted
    /// as timed out instead of stalling the search.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.budget.deadline = Some(deadline);
        self
    }

    /// Sets a whole-search time budget: once spent, no further candidate
    /// is started and the best kernel found so far wins.
    #[must_use]
    pub fn with_budget(mut self, total: Duration) -> Self {
        self.budget.total = Some(total);
        self
    }

    /// Overrides the fault-injection plan (normally read from
    /// `LGEN_FAULTS`). Fault indices address the candidate list the
    /// strategy evaluates: for `Exhaustive`/`Random` the sampled list in
    /// order; for `Guided` (and per-BLAC entries of
    /// [`tune_many`](Self::tune_many)) the position in
    /// [`search_space`](Self::search_space).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables pass-order search: the unrolling decisions are crossed
    /// with [`Self::pipeline_space`] built from the config's own schedule,
    /// and each candidate compiles under its own [`PassPipeline`].
    #[must_use]
    pub fn with_pipeline_search(mut self) -> Self {
        self.pipelines = Self::pipeline_space(&self.cfg.pipeline);
        self
    }

    /// The candidate unrolling decisions, ordered: no unrolling, then full
    /// unrolling by rising trip-count threshold, then factor unrolling by
    /// rising factor. Guided search climbs along this order.
    pub fn search_space() -> Vec<UnrollPolicy> {
        let mut space = vec![UnrollPolicy::None];
        space.extend(
            [2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128]
                .map(|max_trip| UnrollPolicy::Full { max_trip }),
        );
        space.extend([2, 3, 4, 6, 8].map(|factor| UnrollPolicy::Factor { factor }));
        space
    }

    /// Legal schedule variants derived from a base pipeline: the base
    /// itself, fixpoint cleanup (`repeat(copyprop,dce)`), an extra
    /// copy-propagation round before scalar replacement, a double cleanup
    /// tail, and a scalar-replacement-dropped schedule. Variants keep the
    /// base's `align` decision (it changes semantics-visible alignment
    /// assumptions, not just code shape), and duplicates of the base are
    /// removed.
    pub fn pipeline_space(base: &PassPipeline) -> Vec<PassPipeline> {
        let tail = if base.contains("align") { ",align" } else { "" };
        let specs = [
            format!("unroll,scalrep,repeat(copyprop,dce){tail}"),
            format!("unroll,copyprop,scalrep,copyprop,dce{tail}"),
            format!("unroll,scalrep,copyprop,dce,copyprop,dce{tail}"),
            format!("unroll,copyprop,dce{tail}"),
        ];
        let mut space = vec![base.clone()];
        for spec in specs {
            let p = PassPipeline::parse(&spec).expect("pipeline_space specs are legal");
            if !space.contains(&p) {
                space.push(p);
            }
        }
        space
    }

    /// A program tune's decisions for a fused form of `statements`
    /// statements: the diagonal of [`Self::search_space`] (every statement
    /// under one policy), then seeded mixed genomes, deduplicated. A
    /// one-statement program gets exactly the diagonal.
    fn genomes(&self, statements: usize) -> Vec<UnrollChoice> {
        let space = Self::search_space();
        let mut genomes: Vec<Vec<UnrollPolicy>> =
            space.iter().map(|&p| vec![p; statements]).collect();
        if statements > 1 {
            let mut rng = StdRng::seed_from_u64(self.seed);
            for _ in 0..self.mixed_samples {
                let g: Vec<UnrollPolicy> = (0..statements)
                    .map(|_| space[rng.gen_range(0..space.len())])
                    .collect();
                if !genomes.contains(&g) {
                    genomes.push(g);
                }
            }
        }
        genomes.into_iter().map(UnrollChoice::Statements).collect()
    }

    /// The candidate list the configured strategy will evaluate: the
    /// decisions (crossed with the schedule space when pass-order search
    /// is on), whole for `Exhaustive`, a seeded shuffle prefix for
    /// `Random`.
    fn candidates(&self, unrolls: Vec<UnrollChoice>) -> Vec<Candidate> {
        let mut space: Vec<Candidate> = if self.pipelines.is_empty() {
            unrolls.into_iter().map(|u| (u, None)).collect()
        } else {
            unrolls
                .into_iter()
                .flat_map(|u| {
                    self.pipelines
                        .iter()
                        .map(move |p| (u.clone(), Some(p.clone())))
                })
                .collect()
        };
        match self.strategy {
            SearchStrategy::Exhaustive | SearchStrategy::Guided => space,
            SearchStrategy::Random(sample_size) => {
                let mut rng = StdRng::seed_from_u64(self.seed);
                space.shuffle(&mut rng);
                space.truncate(sample_size);
                space
            }
        }
    }

    /// The config a candidate compiles under — its schedule, and a
    /// kernel-wide decision as the unroll policy — and its genome, if it
    /// has one.
    fn candidate_cfg<'c>(
        &self,
        candidate: &'c Candidate,
    ) -> (CompileConfig, Option<&'c [UnrollPolicy]>) {
        let mut cfg = self.cfg.clone();
        if let Some(p) = &candidate.1 {
            cfg.pipeline = p.clone();
        }
        let genome = match &candidate.0 {
            UnrollChoice::Kernel(u) => {
                cfg.unroll = *u;
                None
            }
            UnrollChoice::Statements(g) => Some(g.as_slice()),
        };
        (cfg, genome)
    }

    /// Compiles a candidate under [`Self::candidate_cfg`]: through `cache`
    /// when given (reporting which tier served it), else directly.
    fn compile(
        &self,
        subject: &Subject,
        candidate: &Candidate,
        cache: Option<&KernelCache>,
    ) -> Result<(Arc<Kernel>, Option<CompileOutcome>), VerifyFailure> {
        let (program, name) = (&subject.program, subject.name.as_str());
        let (cfg, genome) = self.candidate_cfg(candidate);
        match cache {
            Some(cache) => cache
                .try_get_or_compile_program_outcome(program, name, &cfg, genome)
                .map(|(k, outcome)| (k, Some(outcome))),
            None => Ok((
                compile_with(program, name, &cfg, genome, None, None, None)?.kernel,
                None,
            )),
        }
    }

    /// Evaluates one candidate: compile (through the shared cache when one
    /// is attached), statically verify when `cfg.verify` is enabled,
    /// validate against the reference (§5.1.4) in a run that also warms
    /// the simulated cache, measure once on that cache. Fully
    /// deterministic: safe to run from any worker thread. Returns `Err`
    /// when the candidate fails verification — the tuner skips it instead
    /// of measuring garbage.
    ///
    /// `index` addresses the fault plan; `deadline` (set by the isolating
    /// pool) is checked cooperatively so an already-abandoned evaluation
    /// stops before doing cacheable work.
    ///
    /// # Panics
    ///
    /// Panics on an injected panic fault, an expired deadline, or a
    /// candidate that fails numeric validation — all contained by
    /// [`crate::pool::run_outcomes`] when called from the tuner.
    fn evaluate(
        &self,
        subject: &Subject,
        index: usize,
        candidate: &Candidate,
        deadline: Option<Instant>,
        memo: &EvalMemo,
    ) -> Result<Eval, VerifyFailure> {
        let mut span = lgen_telemetry::span("candidate");
        if span.is_recording() {
            span.attr("kernel", subject.name.as_str());
            span.attr("index", index);
            span.attr("unroll", candidate.0.to_string());
            if let Some(p) = &candidate.1 {
                span.attr("pipeline", p.to_spec());
            }
        }
        lgen_telemetry::metric_counter!("lgen.tune.candidates").inc();
        // Outcome tagging: `ok`/`rejected` on return; a panicking or
        // deadline-abandoned candidate unwinds through the guard, which
        // marks the span `panicked=true` on drop.
        let result = self.evaluate_body(subject, index, candidate, deadline, memo, &mut span);
        if span.is_recording() {
            span.attr("outcome", if result.is_ok() { "ok" } else { "rejected" });
        }
        result
    }

    /// The compile → verify → validate → measure chain behind the
    /// telemetry shell of [`evaluate`](Self::evaluate).
    fn evaluate_body(
        &self,
        subject: &Subject,
        index: usize,
        candidate: &Candidate,
        deadline: Option<Instant>,
        memo: &EvalMemo,
        span: &mut lgen_telemetry::SpanGuard<'_>,
    ) -> Result<Eval, VerifyFailure> {
        let mut corrupt = false;
        match self.faults.kind(index) {
            Some(FaultKind::Panic) => panic!("injected fault: candidate {index} panicked"),
            Some(FaultKind::Hang(delay)) => std::thread::sleep(delay),
            Some(FaultKind::CorruptIr) => corrupt = true,
            None => {}
        }
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        if expired() {
            // The pool already recorded this candidate as timed out; bail
            // before compiling (and caching) work nobody will collect.
            panic!("candidate {index} abandoned at its deadline");
        }
        let kernel = if corrupt {
            // Injected corrupt C-IR compiles *outside* the shared cache:
            // a corrupt kernel must never be able to poison it.
            let mut k = Arc::unwrap_or_clone(self.compile(subject, candidate, None)?.0);
            corrupt_kernel(&mut k);
            Arc::new(k)
        } else {
            let (kernel, outcome) = self.compile(subject, candidate, self.cache.as_deref())?;
            if let (true, Some(outcome)) = (span.is_recording(), outcome) {
                let hit = outcome.is_cache_hit();
                span.attr("cache", if hit { "hit" } else { "miss" });
            }
            kernel
        };
        // A candidate whose compile collapsed to an already-evaluated
        // kernel (same `Arc` via the cache's compile memo) reuses that
        // evaluation wholesale — verify, numeric validation, and
        // measurement are all deterministic functions of (program,
        // kernel), and only fully successful evaluations are memoized.
        // Injected corrupt kernels are never memoized.
        if corrupt {
            return self.validate_and_measure(subject, index, candidate, kernel, deadline, true);
        }
        let memo_key = (Arc::as_ptr(&kernel) as usize, subject.fingerprint);
        let (eval, ran) = memo.get_or_fill(memo_key, || {
            self.validate_and_measure(subject, index, candidate, kernel, deadline, false)
        })?;
        if !ran && span.is_recording() {
            span.attr("eval", "memo");
        }
        Ok(eval)
    }

    /// Verification (when enabled, or for an injected corrupt kernel),
    /// numeric validation and measurement of one compiled candidate.
    fn validate_and_measure(
        &self,
        subject: &Subject,
        index: usize,
        candidate: &Candidate,
        kernel: Arc<Kernel>,
        deadline: Option<Instant>,
        corrupt: bool,
    ) -> Result<Eval, VerifyFailure> {
        // Re-check cache-served kernels too: a seeded/stale entry must not
        // slip past the verification gate just because it skipped the
        // pipeline's boundary checks.
        if self.cfg.verify.is_enabled() || corrupt {
            let diagnostics = verify_kernel(&kernel);
            if !diagnostics.is_empty() {
                if let Some(cache) = &self.cache {
                    cache.record_verify_reject();
                }
                return Err(VerifyFailure {
                    pass: "autotune-candidate",
                    diagnostics,
                });
            }
        }
        let run = subject
            .evaluator
            .validate(&kernel, self.cfg.arch)
            .unwrap_or_else(|e| panic!("candidate failed to execute: {e}"));
        let diff = run.diff();
        assert!(
            diff < tolerance(subject.program.flops()),
            "candidate {} numerically wrong: {diff}",
            candidate.0
        );
        if deadline.is_some_and(|d| Instant::now() >= d) {
            panic!("candidate {index} abandoned at its deadline");
        }
        let m = run.measure().expect("measurement");
        if let Some(cache) = &self.cache {
            cache.record_evaluation();
        }
        Ok((kernel, m))
    }

    /// The order in which the pool claims `jobs`: the first job of every
    /// distinct kernel, then the jobs that repeat one, each group in job
    /// order. A kernel's identity is its compile memo key, computed from
    /// the memoized lowering without running the pass pipeline, so the
    /// workers start on different kernels instead of waiting on one.
    /// Without a cache, for configs the memo does not serve, or if the
    /// lowering panics (every job then fails on its own), the order is the
    /// job order.
    fn claim_order(&self, jobs: &[(Arc<Subject>, usize, Candidate)]) -> Vec<usize> {
        let in_order = || (0..jobs.len()).collect();
        let memoized = self
            .cache
            .as_deref()
            .filter(|_| CompileMemo::eligible(&self.cfg));
        let Some(cache) = memoized else {
            return in_order();
        };
        let (stats, memo) = (Some(cache.pass_stats()), cache.memo());
        let grouped = catch_unwind(AssertUnwindSafe(|| {
            let mut lowered: Option<(&Arc<Subject>, _)> = None;
            let mut seen: HashSet<OptKey> = HashSet::new();
            let (mut leaders, mut followers) = (Vec::new(), Vec::new());
            for (i, (subject, _, candidate)) in jobs.iter().enumerate() {
                if !lowered
                    .as_ref()
                    .is_some_and(|(s, _)| Arc::ptr_eq(s, subject))
                {
                    let (program, name) = (&subject.program, subject.name.as_str());
                    let entry = memo_lowering(program, name, &self.cfg, stats, memo);
                    lowered = Some((subject, entry));
                }
                let (_, entry) = lowered.as_ref().expect("set above");
                let (cfg, genome) = self.candidate_cfg(candidate);
                if seen.insert(OptKey::for_program(entry, &cfg, genome)) {
                    leaders.push(i);
                } else {
                    followers.push(i);
                }
            }
            leaders.extend(followers);
            leaders
        }));
        grouped.unwrap_or_else(|_| in_order())
    }

    /// Evaluates `(subject, fault index, candidate)` jobs on the isolating
    /// worker pool: panics contained, per-candidate deadline enforced,
    /// claims made in [`Self::claim_order`] and stopped once the budget
    /// (counted from `start`) is spent, so a spent budget skips the end of
    /// that order. Outcomes are in job order.
    fn eval_outcomes(
        &self,
        jobs: Vec<(Arc<Subject>, usize, Candidate)>,
        start: Instant,
        memo: &Arc<EvalMemo>,
    ) -> Vec<JobOutcome<Eval>> {
        let order = self.claim_order(&jobs);
        let ctx = Arc::new(self.clone());
        let jobs = Arc::new(jobs);
        let memo = memo.clone();
        let total = self.budget.total;
        let stop = move || total.is_some_and(|b| start.elapsed() >= b);
        run_outcomes(
            order,
            self.threads,
            self.budget.deadline,
            stop,
            Arc::new(move |i: usize, deadline| {
                let (subject, index, candidate) = &jobs[i];
                ctx.evaluate(subject, *index, candidate, deadline, &memo)
            }),
        )
    }

    /// Records one failed candidate: bumps the attached cache's counters
    /// (verify rejections were already counted at the cache layer) and
    /// appends the reason to `failures`.
    fn record_failure(
        &self,
        failures: &mut Vec<CandidateFailure>,
        candidate: &Candidate,
        reason: FailReason,
    ) {
        // The cache's counters mirror into the metrics registry.
        match (&reason, &self.cache) {
            (FailReason::Panicked(_), Some(cache)) => cache.record_tune_panic(),
            (FailReason::Panicked(_), None) => {
                lgen_telemetry::metric_counter!("lgen.tune.panics").inc()
            }
            (FailReason::TimedOut, Some(cache)) => cache.record_tune_timeout(),
            (FailReason::TimedOut, None) => {
                lgen_telemetry::metric_counter!("lgen.tune.timeouts").inc()
            }
            (FailReason::Rejected(_), _) => {}
        }
        failures.push(CandidateFailure {
            unroll: candidate.0.clone(),
            pipeline: candidate.1.clone(),
            reason,
        });
    }

    /// Reduces evaluated candidates to the winner, scanning in candidate
    /// order with a strict `<`: the first best wins, independent of which
    /// worker finished when. Failed candidates are recorded and excluded
    /// from `samples`; a `None` slot is a candidate the static model
    /// pruned away — never measured, not a failure, and never eligible to
    /// win.
    ///
    /// # Errors
    ///
    /// [`TuneError::AllCandidatesFailed`] if no candidate survived.
    fn reduce(
        &self,
        candidates: &[Candidate],
        slots: impl IntoIterator<Item = Option<JobOutcome<Eval>>>,
        rank_correlation: Option<f64>,
    ) -> Result<Search, TuneError> {
        let mut evaluated: Vec<(&Candidate, Arc<Kernel>, Measurement)> = Vec::new();
        let mut failures = Vec::new();
        let mut pruned = 0usize;
        let mut attempted = 0usize;
        for (c, slot) in candidates.iter().zip(slots) {
            let Some(outcome) = slot else {
                pruned += 1;
                continue;
            };
            attempted += 1;
            match outcome_to_result(outcome) {
                Ok((k, m)) => evaluated.push((c, k, m)),
                Err(reason) => self.record_failure(&mut failures, c, reason),
            }
        }
        if evaluated.is_empty() {
            return Err(TuneError::AllCandidatesFailed {
                attempted,
                failures,
            });
        }
        let samples = evaluated
            .iter()
            .map(|(c, _, m)| (c.0.clone(), m.cycles))
            .collect();
        let mut best = 0;
        for i in 1..evaluated.len() {
            if self.objective.score(&evaluated[i].2) < self.objective.score(&evaluated[best].2) {
                best = i;
            }
        }
        let (candidate, kernel, measurement) = evaluated.swap_remove(best);
        Ok(Search {
            kernel,
            measurement,
            unroll: candidate.0.clone(),
            pipeline: candidate
                .1
                .clone()
                .unwrap_or_else(|| self.cfg.pipeline.clone()),
            samples,
            failures,
            pruned,
            rank_correlation,
        })
    }

    /// The static analogue of [`Objective::score`]: ranks candidates by
    /// the model's [`StaticCost`] without executing anything.
    fn static_score(&self, cost: &StaticCost) -> u128 {
        match self.objective {
            Objective::Cycles => cost.predicted_cycles() as u128,
            Objective::Energy => cost.energy_pj as u128,
            Objective::EnergyDelay => cost.energy_delay(),
        }
    }

    /// Statically scores every candidate: compile (through the shared
    /// cache when one is attached — the measurement pass then rides the
    /// same memoized kernels) and run the `lgen-analysis` predictor once
    /// per distinct kernel. Candidates whose compiles collapse to one
    /// kernel (the same `Arc`, via the compile memo) share its score; the
    /// map pins its `Arc`s, as [`EvalMemo`] does, so an address is never
    /// reused while it is a key. A candidate whose compile fails or whose
    /// analysis panics scores `0` — the *best* score — so it is always
    /// measured and its real failure recorded by the normal evaluation
    /// path, keeping parity with the unpruned search.
    fn static_scores(&self, subject: &Subject, candidates: &[Candidate]) -> Vec<u128> {
        let mut scored: HashMap<usize, (Arc<Kernel>, u128)> = HashMap::new();
        candidates
            .iter()
            .map(|candidate| {
                catch_unwind(AssertUnwindSafe(|| {
                    let cache = self.cache.as_deref();
                    let (kernel, _) = self.compile(subject, candidate, cache).ok()?;
                    let key = Arc::as_ptr(&kernel) as usize;
                    if let Some(&(_, score)) = scored.get(&key) {
                        return Some(score);
                    }
                    let score = self.static_score(&analyze_kernel(&kernel, self.cfg.arch));
                    scored.insert(key, (kernel, score));
                    Some(score)
                }))
                .ok()
                .flatten()
                .unwrap_or(0)
            })
            .collect()
    }

    /// Model-guided search (§6: "heuristics to prune the search space"):
    /// rank every candidate with the static predictor, simulate only the
    /// top [`PrunePolicy::survivors`], and audit the model by Spearman-
    /// correlating predictions against measurements. While the audit is
    /// unhealthy (correlation below the threshold) and budget remains,
    /// the measured set widens — doubling — toward full measurement, so a
    /// bad model costs tuning throughput, never the winner's quality.
    ///
    /// Deterministic for any thread count: the ranking is a pure function
    /// of the candidates, each tranche is evaluated in ascending candidate
    /// order, and the reduction scans in candidate order. `topk:inf` puts
    /// everything in the first tranche, making the result byte-identical
    /// to the unpruned search.
    fn tune_pruned(
        &self,
        subject: &Arc<Subject>,
        candidates: &[Candidate],
        start: Instant,
        memo: &Arc<EvalMemo>,
    ) -> Result<Search, TuneError> {
        let n = candidates.len();
        let scores = self.static_scores(subject, candidates);
        // Stable static ranking: model score first, candidate index as the
        // deterministic tie-break.
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_by_key(|&i| (scores[i], i));
        let mut slots: Vec<Option<JobOutcome<Eval>>> = (0..n).map(|_| None).collect();
        let mut taken = 0usize;
        let mut tranche = self.prune.survivors(n);
        let budget_spent = || self.budget.total.is_some_and(|b| start.elapsed() >= b);
        let correlation = loop {
            let mut batch: Vec<usize> = ranked[taken..(taken + tranche).min(n)].to_vec();
            taken += batch.len();
            batch.sort_unstable();
            let jobs = batch
                .iter()
                .map(|&i| (subject.clone(), i, candidates[i].clone()));
            let outcomes = self.eval_outcomes(jobs.collect(), start, memo);
            for (&i, outcome) in batch.iter().zip(outcomes) {
                slots[i] = Some(outcome);
            }
            let measured: Vec<(u128, u128)> = slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Some(JobOutcome::Ok((_, m))) => Some((scores[i], self.objective.score(m))),
                    _ => None,
                })
                .collect();
            let rho = spearman(
                &measured.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
                &measured.iter().map(|&(_, m)| m).collect::<Vec<_>>(),
            );
            // A degenerate audit (one survivor, constant ranks) cannot
            // contradict the model, so it counts as healthy; an empty
            // measured set (every survivor failed) cannot pick a winner,
            // so it widens.
            let healthy = !measured.is_empty() && rho.is_none_or(|r| r >= self.audit_threshold);
            if taken >= n || healthy || budget_spent() {
                break rho;
            }
            tranche = tranche.saturating_mul(2);
        };
        let pruned = slots.iter().filter(|s| s.is_none()).count();
        match &self.cache {
            Some(cache) => cache.record_tune_pruned(pruned as u64),
            None => {
                lgen_telemetry::metric_counter!("lgen.tune.candidates_pruned").add(pruned as u64)
            }
        }
        if let Some(rho) = correlation {
            // Gauges are integral; store the audit in milli-units (ρ·1000).
            lgen_telemetry::gauge("lgen.tune.rank_correlation_milli").set((rho * 1000.0) as i64);
        }
        self.reduce(candidates, slots, correlation)
    }

    /// Searches `unrolls` for `program` per the configured strategy,
    /// objective and pruning: `Guided` climbs the first
    /// [`search_space`](Self::search_space) positions, the other
    /// strategies evaluate [`candidates`](Self::candidates) on the
    /// isolating worker pool. Records the `tune` span and
    /// `lgen.tune.wall_us`.
    fn search(
        &self,
        program: Program,
        name: &str,
        unrolls: Vec<UnrollChoice>,
    ) -> Result<Search, TuneError> {
        let t = Instant::now();
        let mut span = lgen_telemetry::span("tune");
        if span.is_recording() {
            span.attr("kernel", name);
        }
        let subject = Subject::new(program, name);
        let result = if self.strategy == SearchStrategy::Guided {
            let climbed = &unrolls[..Self::search_space().len()];
            self.tune_guided_over_pipelines(&subject, climbed)
        } else {
            let candidates = self.candidates(unrolls);
            let memo = Arc::new(EvalMemo::new());
            if self.prune.is_off() {
                let jobs = candidates.iter().enumerate();
                let jobs = jobs.map(|(i, c)| (subject.clone(), i, c.clone())).collect();
                let outcomes = self.eval_outcomes(jobs, Instant::now(), &memo);
                self.reduce(&candidates, outcomes.into_iter().map(Some), None)
            } else {
                self.tune_pruned(&subject, &candidates, Instant::now(), &memo)
            }
        };
        lgen_telemetry::metric_histogram!("lgen.tune.wall_us")
            .record(t.elapsed().as_micros() as u64);
        if span.is_recording() {
            span.attr("ok", result.is_ok());
        }
        result
    }

    /// Tunes `blac` per the configured strategy and objective, returning
    /// the best surviving kernel. Candidates are evaluated on the
    /// isolating worker pool; without a deadline/budget the result is
    /// identical for any thread count.
    ///
    /// # Errors
    ///
    /// [`TuneError::AllCandidatesFailed`] if every candidate panicked,
    /// timed out, or was verify-rejected.
    pub fn try_tune(&self, blac: &Blac, name: &str) -> Result<TunedKernel, TuneError> {
        let unrolls = Self::search_space().into_iter().map(UnrollChoice::Kernel);
        self.search(Program::from(blac), name, unrolls.collect())
            .map(TunedKernel::from)
    }

    /// [`try_tune`](Self::try_tune) that panics when every candidate
    /// failed (historically the only failure mode surfaced).
    ///
    /// # Panics
    ///
    /// Panics on [`TuneError`].
    pub fn tune(&self, blac: &Blac, name: &str) -> TunedKernel {
        self.try_tune(blac, name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Tunes `program` jointly: §5.1.5's feedback loop with the candidate
    /// widened from one unroll decision to one per fused statement (see
    /// [`lgen_sigma::fuse_program`]). Everything else — strategy,
    /// objective, pruning, isolation, deadlines, faults — is
    /// [`try_tune`](Self::try_tune)'s; a one-statement program searches
    /// the same policies as its BLAC, each as a one-policy genome.
    ///
    /// # Errors
    ///
    /// [`TuneError::AllCandidatesFailed`] if every candidate panicked,
    /// timed out, or was verify-rejected.
    ///
    /// # Panics
    ///
    /// Panics if the program does not validate.
    pub fn try_tune_program(
        &self,
        program: &Program,
        name: &str,
    ) -> Result<TunedProgram, TuneError> {
        let (fused, fusions) = lgen_sigma::fuse_program(program);
        let genomes = self.genomes(fused.statements.len());
        let s = self.search(program.clone(), name, genomes)?;
        Ok(TunedProgram {
            kernel: Arc::unwrap_or_clone(s.kernel),
            fused,
            fusions,
            measurement: s.measurement,
            policies: s.unroll.genome(),
            pipeline: s.pipeline,
            samples: s
                .samples
                .into_iter()
                .map(|(u, c)| (u.genome(), c))
                .collect(),
            failures: s.failures,
            pruned: s.pruned,
            rank_correlation: s.rank_correlation,
        })
    }

    /// Tunes a batch of BLACs over one worker pool (and one cache, when
    /// attached). For `Exhaustive`/`Random` the whole
    /// `(BLAC, candidate)` grid is flattened into a single job list so the
    /// pool stays saturated across kernels; `Guided` is inherently
    /// sequential per BLAC and falls back to per-BLAC tuning. Results are
    /// in job order and identical to calling [`Self::tune`] per entry
    /// (fault indices address each BLAC's candidate list, and the search
    /// budget spans the whole batch).
    ///
    /// # Errors
    ///
    /// One [`TuneError`] per entry whose candidates all failed; surviving
    /// entries still tune.
    pub fn try_tune_many(&self, jobs: &[(Blac, String)]) -> Vec<Result<TunedKernel, TuneError>> {
        // Guided search is inherently sequential per BLAC; pruned search
        // ranks and widens per BLAC — both fall back to per-entry tuning.
        if self.strategy == SearchStrategy::Guided || !self.prune.is_off() {
            return jobs
                .iter()
                .map(|(blac, name)| self.try_tune(blac, name))
                .collect();
        }
        let start = Instant::now();
        let mut span = lgen_telemetry::span("tune_many");
        if span.is_recording() {
            span.attr("jobs", jobs.len());
        }
        let unrolls = Self::search_space().into_iter().map(UnrollChoice::Kernel);
        let candidates = self.candidates(unrolls.collect());
        let per = candidates.len();
        let mut grid = Vec::with_capacity(jobs.len() * per);
        for (blac, name) in jobs {
            let subject = Subject::new(Program::from(blac), name);
            for (i, c) in candidates.iter().enumerate() {
                grid.push((subject.clone(), i, c.clone()));
            }
        }
        let memo = Arc::new(EvalMemo::new());
        let mut outcomes = self.eval_outcomes(grid, start, &memo).into_iter();
        let results: Vec<Result<TunedKernel, TuneError>> = jobs
            .iter()
            .map(|_| {
                let slots = outcomes.by_ref().take(per).map(Some);
                self.reduce(&candidates, slots, None).map(TunedKernel::from)
            })
            .collect();
        lgen_telemetry::metric_histogram!("lgen.tune.wall_us")
            .record(start.elapsed().as_micros() as u64);
        drop(span);
        results
    }

    /// [`try_tune_many`](Self::try_tune_many) that panics if any entry
    /// lost every candidate.
    ///
    /// # Panics
    ///
    /// Panics on the first [`TuneError`].
    pub fn tune_many(&self, jobs: &[(Blac, String)]) -> Vec<TunedKernel> {
        self.try_tune_many(jobs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    /// Guided search across schedules: one hill climb over `space` per
    /// candidate pipeline (just the config's own when pass-order search
    /// is off), keeping the first best under a strict `<`. The winner
    /// aggregates the failures of every climb.
    fn tune_guided_over_pipelines(
        &self,
        subject: &Arc<Subject>,
        space: &[UnrollChoice],
    ) -> Result<Search, TuneError> {
        let start = Instant::now();
        let memo = Arc::new(EvalMemo::new());
        let pipelines: Vec<Option<&PassPipeline>> = if self.pipelines.is_empty() {
            vec![None]
        } else {
            self.pipelines.iter().map(Some).collect()
        };
        let mut best: Option<Search> = None;
        let mut all_failures = Vec::new();
        let mut attempted = 0;
        for p in pipelines {
            match self.tune_guided(subject, space, p, start, &memo) {
                Ok(t) => {
                    all_failures.extend(t.failures.iter().cloned());
                    if best
                        .as_ref()
                        .is_none_or(|b| t.measurement.cycles < b.measurement.cycles)
                    {
                        best = Some(t);
                    }
                }
                Err(TuneError::AllCandidatesFailed {
                    attempted: a,
                    failures,
                }) => {
                    attempted += a;
                    all_failures.extend(failures);
                }
            }
        }
        match best {
            Some(mut t) => {
                t.failures = all_failures;
                Ok(t)
            }
            None => Err(TuneError::AllCandidatesFailed {
                attempted,
                failures: all_failures,
            }),
        }
    }

    /// Guided search: probe a few structurally diverse seeds (no unrolling,
    /// a mid-size full unroll, the maximal full unroll, the maximal factor
    /// unroll), then hill-climb from the best seed. `space` runs parallel
    /// to [`search_space`](Self::search_space). The seed probes run on
    /// the worker pool; the climb itself is inherently sequential but
    /// evaluates both neighbours of the current point in parallel. Fault
    /// indices address positions in `space`.
    fn tune_guided(
        &self,
        subject: &Arc<Subject>,
        space: &[UnrollChoice],
        pipeline: Option<&PassPipeline>,
        start: Instant,
        memo: &Arc<EvalMemo>,
    ) -> Result<Search, TuneError> {
        let cand = |i: usize| (space[i].clone(), pipeline.cloned());
        let eval = |indices: &[usize]| {
            let jobs = indices.iter().map(|&i| (subject.clone(), i, cand(i)));
            self.eval_outcomes(jobs.collect(), start, memo)
        };
        let mut samples = Vec::new();
        let mut failures = Vec::new();
        let mut attempted = 0usize;
        let mut evaluated = vec![false; space.len()];
        // Seed indices are derived from the space's structure so the probe
        // set stays meaningful if the space grows.
        let fulls: Vec<usize> = Self::search_space()
            .iter()
            .enumerate()
            .filter(|(_, u)| matches!(u, UnrollPolicy::Full { .. }))
            .map(|(i, _)| i)
            .collect();
        let mut seeds = vec![
            0,                      // UnrollPolicy::None
            fulls[fulls.len() / 2], // a mid-size full unroll
            *fulls.last().unwrap(), // the largest full unroll
            space.len() - 1,        // the largest factor unroll
        ];
        seeds.dedup();
        for &si in &seeds {
            evaluated[si] = true;
        }
        attempted += seeds.len();
        let probes = eval(&seeds);
        let mut idx = seeds[0];
        let mut best: Option<Eval> = None;
        for (&si, probe) in seeds.iter().zip(probes) {
            let (k, m) = match outcome_to_result(probe) {
                Ok(r) => r,
                Err(reason) => {
                    self.record_failure(&mut failures, &cand(si), reason);
                    continue;
                }
            };
            samples.push((space[si].clone(), m.cycles));
            if best
                .as_ref()
                .is_none_or(|(_, bm)| self.objective.score(&m) < self.objective.score(bm))
            {
                best = Some((k, m));
                idx = si;
            }
        }
        let Some((mut best_k, mut best_m)) = best else {
            return Err(TuneError::AllCandidatesFailed {
                attempted,
                failures,
            });
        };
        loop {
            let neighbours: Vec<usize> = [idx.wrapping_sub(1), idx + 1]
                .into_iter()
                .filter(|&n| n < space.len() && !evaluated[n])
                .collect();
            for &n in &neighbours {
                evaluated[n] = true;
            }
            let evals = eval(&neighbours);
            let mut improved = false;
            for (&next, eval) in neighbours.iter().zip(evals) {
                let (k, m) = match outcome_to_result(eval) {
                    Ok(r) => r,
                    Err(reason) => {
                        self.record_failure(&mut failures, &cand(next), reason);
                        continue;
                    }
                };
                samples.push((space[next].clone(), m.cycles));
                if self.objective.score(&m) < self.objective.score(&best_m) {
                    best_k = k;
                    best_m = m;
                    idx = next;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        let unroll = samples
            .iter()
            .find(|(_, c)| *c == best_m.cycles)
            .map(|(u, _)| u.clone())
            .expect("best was sampled");
        Ok(Search {
            kernel: best_k,
            measurement: best_m,
            unroll,
            pipeline: pipeline
                .cloned()
                .unwrap_or_else(|| self.cfg.pipeline.clone()),
            samples,
            failures,
            pruned: 0,
            rank_correlation: None,
        })
    }
}

/// Splits a [`JobOutcome`] into success or a [`FailReason`].
fn outcome_to_result(outcome: JobOutcome<Eval>) -> Result<Eval, FailReason> {
    match outcome {
        JobOutcome::Ok(eval) => Ok(eval),
        JobOutcome::Rejected(v) => Err(FailReason::Rejected(v)),
        JobOutcome::Panicked(msg) => Err(FailReason::Panicked(msg)),
        JobOutcome::TimedOut => Err(FailReason::TimedOut),
    }
}

/// Average ranks (1-based) with ties sharing their mean rank — the
/// fractional-rank convention Spearman's ρ is defined over.
fn ranks(values: &[u128]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| values[i]);
    let mut out = vec![0.0; n];
    let mut lo = 0;
    while lo < n {
        let mut hi = lo;
        while hi + 1 < n && values[order[hi + 1]] == values[order[lo]] {
            hi += 1;
        }
        let mean = (lo + hi) as f64 / 2.0 + 1.0;
        for &i in &order[lo..=hi] {
            out[i] = mean;
        }
        lo = hi + 1;
    }
    out
}

/// Spearman rank correlation between two paired score lists: Pearson
/// correlation over their fractional ranks. `None` when fewer than two
/// pairs exist or either side is constant (correlation is undefined —
/// there is no ranking to agree or disagree with).
pub fn spearman(xs: &[u128], ys: &[u128]) -> Option<f64> {
    let n = xs.len();
    if n < 2 || n != ys.len() {
        return None;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let mean = (n + 1) as f64 / 2.0;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let (dx, dy) = (rx[i] - mean, ry[i] - mean);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::measure_blac;
    use crate::pipeline::compile;
    use lgen_cir::VerifyLevel;
    use lgen_isa::Microarch;
    use lgen_ll::{paper, parse_program};

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
    fn exhaustive_search_is_at_least_as_good_as_random() {
        let blac = paper::gemv(4, 48);
        let cfg = CompileConfig::full(Microarch::Arm1176);
        let rand3 = Autotuner::new(cfg.clone())
            .with_sample_size(3)
            .tune(&blac, "k");
        let exh = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .tune(&blac, "k");
        assert!(exh.measurement.cycles <= rand3.measurement.cycles);
        assert_eq!(exh.samples.len(), Autotuner::search_space().len());
    }

    #[test]
    fn search_space_supports_large_samples() {
        // The paper's sample size is 10; the expanded space keeps larger
        // samples (≥16) meaningful for the parallel tuner.
        let space = Autotuner::search_space();
        assert!(space.len() >= 16, "space has only {} points", space.len());
        let unique: std::collections::HashSet<_> = space.iter().collect();
        assert_eq!(unique.len(), space.len(), "duplicate candidates");
    }

    #[test]
    fn guided_search_converges_with_fewer_evaluations_than_exhaustive() {
        let blac = paper::gemv(4, 64);
        let cfg = CompileConfig::full(Microarch::Arm1176);
        let guided = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Guided)
            .tune(&blac, "k");
        let exh = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .tune(&blac, "k");
        assert!(guided.samples.len() < exh.samples.len());
        // Hill climbing must never end on a worse point than its start.
        let start_cycles = guided.samples[0].1;
        assert!(guided.measurement.cycles <= start_cycles);
    }

    #[test]
    fn energy_objective_selects_by_energy() {
        let blac = paper::mmm(4, 16, 4);
        let cfg = CompileConfig::full(Microarch::CortexA8);
        let by_energy = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Exhaustive)
            .with_objective(Objective::Energy)
            .tune(&blac, "k");
        let by_cycles = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .with_objective(Objective::Cycles)
            .tune(&blac, "k");
        assert!(by_energy.measurement.energy_pj <= by_cycles.measurement.energy_pj);
        assert!(by_cycles.measurement.cycles <= by_energy.measurement.cycles);
        assert!(by_energy.measurement.energy_pj > 0);
    }

    #[test]
    fn tuning_never_loses_to_the_default() {
        let blac = paper::mvm(4, 64);
        let cfg = CompileConfig::full(Microarch::Atom);
        let tuned = Autotuner::new(cfg.clone())
            .with_sample_size(9)
            .tune(&blac, "mvm");
        let default_kernel = compile(&blac, "mvm", &cfg);
        let default_m =
            measure_blac(&blac, &default_kernel, Microarch::Atom, &[0, 0, 0], 3).unwrap();
        assert!(tuned.measurement.cycles <= default_m.cycles);
        assert_eq!(tuned.samples.len(), 9);
        // Without pass-order search, the winner reports the config's own
        // schedule.
        assert_eq!(tuned.pipeline, cfg.pipeline);
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let blac = paper::mmm(4, 8, 4);
        let cfg = CompileConfig::full(Microarch::CortexA9);
        let a = Autotuner::new(cfg.clone())
            .with_sample_size(4)
            .with_seed(7)
            .tune(&blac, "k");
        let b = Autotuner::new(cfg)
            .with_sample_size(4)
            .with_seed(7)
            .tune(&blac, "k");
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.unroll, b.unroll);
    }

    #[test]
    fn small_sample_visits_fewer_points() {
        let blac = paper::axpy(64);
        let cfg = CompileConfig::full(Microarch::CortexA8);
        let t = Autotuner::new(cfg).with_sample_size(2).tune(&blac, "k");
        assert_eq!(t.samples.len(), 2);
    }

    #[test]
    fn winner_is_identical_for_any_thread_count() {
        // The determinism guarantee: 1 thread and 8 threads pick
        // byte-identical winners over a GEMV/GEMM suite, samples included,
        // and 1, 2 and 8 threads over the Kalman program's genomes.
        let suite = [paper::gemv(4, 32), paper::gemm(4, 8, 8), paper::mvm(4, 48)];
        let cfg = CompileConfig::full(Microarch::Atom);
        let tuner = |threads| {
            Autotuner::new(cfg.clone())
                .with_sample_size(16)
                .with_threads(threads)
        };
        for blac in &suite {
            let seq = tuner(1).tune(blac, "k");
            let par = tuner(8).tune(blac, "k");
            assert_eq!(seq.unroll, par.unroll);
            assert_eq!(seq.samples, par.samples);
            assert_eq!(seq.measurement, par.measurement);
            assert_eq!(seq.kernel, par.kernel, "winning kernels must be identical");
        }
        let program = kalman_predict();
        let seq = tuner(1).try_tune_program(&program, "kp").unwrap();
        assert_eq!(seq.samples.len(), 16);
        for threads in [2, 8] {
            let par = tuner(threads).try_tune_program(&program, "kp").unwrap();
            assert_eq!(seq.policies, par.policies, "{threads} threads");
            assert_eq!(seq.samples, par.samples, "{threads} threads");
            assert_eq!(seq.measurement, par.measurement, "{threads} threads");
            assert_eq!(seq.kernel, par.kernel, "{threads} threads");
        }
    }

    #[test]
    fn guided_search_is_thread_count_invariant() {
        let blac = paper::gemv(4, 64);
        let cfg = CompileConfig::full(Microarch::Atom);
        let seq = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Guided)
            .with_threads(1)
            .tune(&blac, "k");
        let par = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Guided)
            .with_threads(4)
            .tune(&blac, "k");
        assert_eq!(seq.unroll, par.unroll);
        assert_eq!(seq.samples, par.samples);
        assert_eq!(seq.kernel, par.kernel);
    }

    #[test]
    fn tune_many_matches_per_blac_tune() {
        let jobs = vec![
            (paper::gemv(4, 24), "gemv".to_string()),
            (paper::gemm(4, 4, 8), "gemm".to_string()),
        ];
        let cfg = CompileConfig::full(Microarch::CortexA9);
        let tuner = Autotuner::new(cfg).with_sample_size(6).with_threads(4);
        let batch = tuner.tune_many(&jobs);
        assert_eq!(batch.len(), 2);
        for ((blac, name), got) in jobs.iter().zip(&batch) {
            let solo = tuner.tune(blac, name);
            assert_eq!(solo.unroll, got.unroll);
            assert_eq!(solo.samples, got.samples);
            assert_eq!(solo.kernel, got.kernel);
        }
    }

    #[test]
    fn shared_cache_dedups_candidate_compiles() {
        let blac = paper::mvm(4, 32);
        let cfg = CompileConfig::full(Microarch::Atom);
        let cache = Arc::new(KernelCache::new());
        let tuner = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .with_cache(cache.clone());
        let first = tuner.tune(&blac, "k");
        let compiles_after_first = cache.pass_stats().compiles();
        assert_eq!(compiles_after_first, Autotuner::search_space().len() as u64);
        // Re-tuning the same BLAC is served entirely from the cache.
        let second = tuner.tune(&blac, "k");
        assert_eq!(cache.pass_stats().compiles(), compiles_after_first);
        assert_eq!(first.unroll, second.unroll);
        assert_eq!(first.kernel, second.kernel);
        assert!(cache.stats().hits >= Autotuner::search_space().len() as u64);
    }

    #[test]
    fn pipeline_space_derives_legal_variants() {
        let full = Autotuner::pipeline_space(&PassPipeline::standard());
        assert!(full.len() >= 4);
        assert_eq!(full[0], PassPipeline::standard());
        assert!(full.iter().all(|p| p.contains("align")));
        let base = Autotuner::pipeline_space(&PassPipeline::standard().without("align"));
        assert!(base.iter().all(|p| !p.contains("align")));
        // All variants are distinct.
        for (i, p) in full.iter().enumerate() {
            assert!(!full[i + 1..].contains(p), "duplicate schedule {p}");
        }
    }

    #[test]
    fn pipeline_search_crosses_schedules_with_unrolls() {
        let blac = paper::gemv(4, 24);
        let cfg = CompileConfig::full(Microarch::Atom);
        let tuner = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Exhaustive)
            .with_pipeline_search()
            .with_threads(4);
        let tuned = tuner.tune(&blac, "k");
        let n_pipelines = Autotuner::pipeline_space(&cfg.pipeline).len();
        assert_eq!(
            tuned.samples.len(),
            Autotuner::search_space().len() * n_pipelines
        );
        assert!(Autotuner::pipeline_space(&cfg.pipeline).contains(&tuned.pipeline));
        // Pass-order search can only improve on unrolling-only search.
        let plain = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .tune(&blac, "k");
        assert!(tuned.measurement.cycles <= plain.measurement.cycles);
    }

    #[test]
    fn pipeline_search_is_deterministic_and_verified() {
        // Acceptance: pass-order search end-to-end under paranoid
        // verification, identical across runs and thread counts.
        let blac = paper::gemm(4, 8, 4);
        let cfg = CompileConfig::full(Microarch::Atom).with_verify(VerifyLevel::EveryPass);
        let a = Autotuner::new(cfg.clone())
            .with_sample_size(8)
            .with_seed(13)
            .with_pipeline_search()
            .with_threads(1)
            .tune(&blac, "k");
        let b = Autotuner::new(cfg)
            .with_sample_size(8)
            .with_seed(13)
            .with_pipeline_search()
            .with_threads(4)
            .tune(&blac, "k");
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.unroll, b.unroll);
        assert_eq!(a.pipeline, b.pipeline);
        assert_eq!(a.kernel, b.kernel);
        assert_eq!(a.rejected, 0, "no candidate may fail verification");
        assert!(a.failures.is_empty());
    }

    #[test]
    fn injected_panic_degrades_instead_of_aborting() {
        let blac = paper::gemv(4, 16);
        let cfg = CompileConfig::full(Microarch::Atom);
        let tuned = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Exhaustive)
            .with_faults(FaultPlan::none().panic_at(0).panic_at(2))
            .tune(&blac, "k");
        let space = Autotuner::search_space().len();
        assert_eq!(tuned.samples.len(), space - 2);
        assert_eq!(tuned.panicked(), 2);
        assert_eq!(tuned.rejected, 0);
        // The clean run over the surviving candidates picks the same
        // winner.
        let clean = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .tune(&blac, "k");
        let expected = clean
            .samples
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 0 && *i != 2)
            .min_by_key(|(_, (_, cycles))| *cycles)
            .map(|(_, (u, _))| *u)
            .unwrap();
        assert_eq!(tuned.unroll, expected);
    }

    #[test]
    fn all_candidates_failed_is_a_typed_error() {
        let blac = paper::axpy(16);
        let cfg = CompileConfig::full(Microarch::Atom);
        let mut plan = FaultPlan::none();
        for i in 0..Autotuner::search_space().len() {
            plan = plan.panic_at(i);
        }
        let err = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .with_faults(plan)
            .try_tune(&blac, "k")
            .expect_err("no survivor");
        let TuneError::AllCandidatesFailed {
            attempted,
            failures,
        } = &err;
        assert_eq!(*attempted, Autotuner::search_space().len());
        assert_eq!(failures.len(), *attempted);
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn prune_policy_parses_and_round_trips() {
        assert_eq!("off".parse::<PrunePolicy>().unwrap(), PrunePolicy::Off);
        assert_eq!(
            "topk:4".parse::<PrunePolicy>().unwrap(),
            PrunePolicy::TopK(4)
        );
        assert_eq!(
            "topk:inf".parse::<PrunePolicy>().unwrap(),
            PrunePolicy::TopK(usize::MAX)
        );
        assert_eq!(
            "frac:0.25".parse::<PrunePolicy>().unwrap(),
            PrunePolicy::Frac(0.25)
        );
        for bad in [
            "", "on", "topk:", "topk:0", "topk:-1", "frac:0", "frac:1.5", "frac:x",
        ] {
            assert!(bad.parse::<PrunePolicy>().is_err(), "accepted {bad:?}");
        }
        for p in [
            PrunePolicy::Off,
            PrunePolicy::TopK(7),
            PrunePolicy::TopK(usize::MAX),
        ] {
            assert_eq!(p.to_string().parse::<PrunePolicy>().unwrap(), p);
        }
        // At least one candidate always survives; never more than exist.
        assert_eq!(PrunePolicy::TopK(4).survivors(18), 4);
        assert_eq!(PrunePolicy::TopK(99).survivors(18), 18);
        assert_eq!(PrunePolicy::Frac(0.25).survivors(18), 5);
        assert_eq!(PrunePolicy::Frac(0.001).survivors(18), 1);
        assert_eq!(PrunePolicy::Off.survivors(18), 18);
    }

    #[test]
    fn spearman_matches_hand_computed_cases() {
        // Perfect agreement, perfect inversion, and the tie convention.
        assert_eq!(spearman(&[1, 2, 3, 4], &[10, 20, 30, 40]), Some(1.0));
        assert_eq!(spearman(&[1, 2, 3, 4], &[40, 30, 20, 10]), Some(-1.0));
        assert_eq!(spearman(&[5, 5, 5], &[1, 2, 3]), None); // constant side
        assert_eq!(spearman(&[1], &[1]), None); // too short
        let rho = spearman(&[1, 2, 2, 4], &[1, 2, 3, 4]).unwrap();
        assert!(rho > 0.9 && rho < 1.0, "ties average: {rho}");
    }

    #[test]
    fn topk_inf_is_byte_identical_to_off() {
        // Everything survives the first tranche, so the pruned path must
        // reproduce the unpruned search exactly — winner, samples, counts.
        let blac = paper::gemv(4, 48);
        let cfg = CompileConfig::full(Microarch::Atom);
        let base = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .with_threads(4);
        let off = base.clone().tune(&blac, "k");
        let inf = base
            .clone()
            .with_prune(PrunePolicy::TopK(usize::MAX))
            .tune(&blac, "k");
        assert_eq!(off.unroll, inf.unroll);
        assert_eq!(off.samples, inf.samples);
        assert_eq!(off.measurement, inf.measurement);
        assert_eq!(off.kernel, inf.kernel);
        assert_eq!(inf.pruned, 0);
        assert!(inf.rank_correlation.is_some());

        // The same parity for a program's genomes.
        let program = kalman_predict();
        let off = base.clone().try_tune_program(&program, "kp").unwrap();
        let inf = base
            .with_prune(PrunePolicy::TopK(usize::MAX))
            .try_tune_program(&program, "kp")
            .unwrap();
        assert_eq!(off.policies, inf.policies);
        assert_eq!(off.samples, inf.samples);
        assert_eq!(off.measurement, inf.measurement);
        assert_eq!(off.kernel, inf.kernel);
        assert_eq!(inf.pruned, 0);
        assert!(off.rank_correlation.is_none(), "no audit without pruning");
        assert!(inf.rank_correlation.is_some());
    }

    #[test]
    fn pruned_search_reproduces_the_exhaustive_winner() {
        // topk:4 of 18 candidates (~22%) must still find the same winner
        // the full simulation sweep finds, and report what it skipped.
        let suite = [paper::axpy(32), paper::gemv(4, 32), paper::mvm(4, 48)];
        let cfg = CompileConfig::full(Microarch::Atom);
        for blac in &suite {
            let base = Autotuner::new(cfg.clone()).with_strategy(SearchStrategy::Exhaustive);
            let full = base.clone().tune(blac, "k");
            let pruned = base.with_prune(PrunePolicy::TopK(4)).tune(blac, "k");
            assert_eq!(pruned.unroll, full.unroll);
            assert_eq!(pruned.measurement, full.measurement);
            assert!(
                pruned.pruned > 0,
                "a healthy model should have skipped candidates"
            );
            assert!(pruned.samples.len() < full.samples.len());
        }
    }

    #[test]
    fn static_scores_match_each_candidates_own_analysis() {
        // Scoring analyzes each distinct kernel once, through the shared
        // cache; every candidate must still score what its own uncached
        // compile scores, for BLAC policies and program genomes alike.
        let cfg = CompileConfig::full(Microarch::CortexA9);
        let tuner = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .with_prune(PrunePolicy::TopK(4))
            .with_cache(Arc::new(KernelCache::new()));
        let kalman = kalman_predict();
        let statements = lgen_sigma::fuse_program(&kalman).0.statements.len();
        let policies = Autotuner::search_space()
            .into_iter()
            .map(UnrollChoice::Kernel);
        let subjects = [
            (
                Subject::new(Program::from(&paper::gemv(4, 32)), "gemv"),
                policies.collect(),
            ),
            (Subject::new(kalman, "kalman"), tuner.genomes(statements)),
        ];
        for (subject, unrolls) in subjects {
            let candidates = tuner.candidates(unrolls);
            let scores = tuner.static_scores(&subject, &candidates);
            assert_eq!(scores.len(), candidates.len());
            for (candidate, &score) in candidates.iter().zip(&scores) {
                let (kernel, _) = tuner.compile(&subject, candidate, None).unwrap();
                let own = tuner.static_score(&analyze_kernel(&kernel, Microarch::CortexA9));
                assert_eq!(score, own, "{}: {}", subject.name, candidate.0);
            }
        }
    }

    #[test]
    fn pruned_search_is_thread_count_invariant() {
        let blac = paper::gemv(4, 32);
        let cfg = CompileConfig::full(Microarch::Atom);
        let base = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .with_prune(PrunePolicy::TopK(4));
        let seq = base.clone().with_threads(1).tune(&blac, "k");
        let par = base.with_threads(8).tune(&blac, "k");
        assert_eq!(seq.unroll, par.unroll);
        assert_eq!(seq.samples, par.samples);
        assert_eq!(seq.pruned, par.pruned);
        assert_eq!(seq.rank_correlation, par.rank_correlation);
    }

    #[test]
    fn hostile_audit_threshold_widens_to_full_measurement() {
        // An unattainable audit threshold (> 1) keeps the search widening
        // until every candidate is measured — the graceful-degradation
        // path: a distrusted model can cost throughput, never the winner.
        // (GEMV with ten survivors: the statically best candidates are
        // the full-unroll family — eight policies collapsing to one
        // kernel and one cycle count — so a smaller tranche measures an
        // all-tie set whose undefined ρ cannot contradict the model and
        // legitimately stops early. Ten survivors mix in distinct
        // kernels, define ρ, and fail the impossible threshold.)
        let blac = paper::gemv(4, 48);
        let cfg = CompileConfig::full(Microarch::Atom);
        let base = Autotuner::new(cfg).with_strategy(SearchStrategy::Exhaustive);
        let full = base.clone().tune(&blac, "k");
        let widened = base
            .clone()
            .with_prune(PrunePolicy::TopK(10))
            .with_audit_threshold(2.0)
            .tune(&blac, "k");
        assert_eq!(widened.pruned, 0);
        assert_eq!(widened.samples, full.samples);
        assert_eq!(widened.unroll, full.unroll);

        // A pruned program tune widens the same way: the default
        // threshold trusts the model and skips genomes, the hostile one
        // ends at full measurement. (Kalman on Atom: the statically best
        // genomes measure one cycle count up to the 24th, so ρ is defined
        // only from a tranche of 24 on.)
        let program = kalman_predict();
        let full = base.clone().try_tune_program(&program, "kp").unwrap();
        let pruned = base.clone().with_prune(PrunePolicy::TopK(24));
        let trusted = pruned.clone().try_tune_program(&program, "kp").unwrap();
        assert!(trusted.pruned > 0);
        let widened = pruned
            .with_audit_threshold(2.0)
            .try_tune_program(&program, "kp")
            .unwrap();
        assert_eq!(widened.pruned, 0);
        assert_eq!(widened.samples, full.samples);
        assert_eq!(widened.policies, full.policies);
    }
}
