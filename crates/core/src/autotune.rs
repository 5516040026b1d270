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
//! **Distinct kernels.** Many decisions make the same kernel (18 unroll
//! policies make about 3 kernels of a typical BLAC), so a candidate is a
//! distinct kernel, not a decision. Before its first round a search lowers
//! the subject once, through the shared [`KernelCache`]'s compile memo or
//! a tune-local one, and keys every decision by the memo's key, which
//! needs no pass pipeline. The candidate list holds the distinct keys in
//! first-occurrence order, each under its first decision, which is the one
//! reported. Verification does not change a kernel, so it does not change
//! the list; under peeling or alignment versioning, which the memo does
//! not serve, every decision is its own candidate. The strategies then act
//! on this list: a random sample of `n` is exhaustive whenever there are
//! at most `n` kernels.
//!
//! **One loop.** A search evaluates its candidate list in *rounds*: the
//! strategy names the next batch of candidate indices from the outcomes
//! so far, and the search ends when it names none or the [`TuneBudget`]
//! total is spent. Exhaustive and random search are one round;
//! model-guided pruning is one ranked round; guided search is seed probes,
//! then neighbour rounds, one hill climb per schedule. Each round
//! (compile → validate → measure, through one [`Evaluator`] per tune) fans
//! out over the persistent worker pool ([`crate::pool`]) as one job per
//! candidate. One reduction then records every failure and keeps the
//! *first* best under a strict `<`, scanning candidate order (a guided
//! search's visit order). Every stage is deterministic and every round a
//! function of earlier outcomes, so the winner is byte-identical for any
//! thread count.
//!
//! **Fault tolerance.** Every evaluation is isolated
//! ([`crate::pool::run_outcomes`]): a panicking candidate is contained, a
//! hanging one is abandoned at its deadline, a verifier-rejected one is
//! skipped. Each failure is recorded on its candidate
//! ([`CandidateFailure`], the cache's `--cache-stats` counters) and the
//! search goes on; only an
//! all-candidates-failed search is an error ([`TuneError`]). Deadlines
//! and the whole-search [`TuneBudget`] are opt-in; without them the
//! search stays deterministic. The env-gated [`FaultPlan`]
//! (`LGEN_FAULTS`) injects failures to keep this path tested.
//!
//! **Model-guided pruning.** With a [`PrunePolicy`] other than `Off`, the
//! tuner ranks every candidate with the static cost predictor
//! (`lgen-analysis`; no execution) and simulates only the best few (§6's
//! "heuristics to prune the search space"): one ranked cut, made once.
//! The Spearman correlation between the survivors' predicted and measured
//! scores is reported afterwards; it never steers the search.

use crate::cache::{CompileOutcome, KernelCache};
use crate::config::CompileConfig;
use crate::evaluate::Evaluator;
use crate::exec::tolerance;
use crate::fault::{corrupt_kernel, FaultKind, FaultPlan};
use crate::memo::{CompileMemo, OptKey};
use crate::pipeline::{compile_with, memo_lowering};
use crate::pool::{run_outcomes, JobOutcome};
use lgen_analysis::{analyze_kernel, StaticCost};
use lgen_cir::passes::{PassPipeline, UnrollPolicy};
use lgen_cir::{verify_kernel, Kernel, VerifyFailure, VerifyLevel};
use lgen_ll::{Blac, Program};
use lgen_machine::Measurement;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
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
    /// Greedy hill climbing: probes a few structurally diverse seeds,
    /// then evaluates the best point's neighbours in the ordered space and
    /// moves while it improves — fewer evaluations than exhaustive, better
    /// coverage than a small random sample. A program climbs its diagonal
    /// genomes; pass-order search climbs once per schedule.
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

/// The program under tuning (a BLAC as its one-statement program — the
/// form every candidate compiles and is cached as), its kernel name, the
/// evaluator holding its validation data and reference result, and the
/// compile memo of a tune without a cache, all built once per tune.
struct Subject {
    program: Program,
    name: String,
    evaluator: Evaluator,
    memo: Option<CompileMemo>,
}

impl Subject {
    fn new(program: Program, name: &str, memo: Option<CompileMemo>) -> Arc<Subject> {
        Arc::new(Subject {
            name: name.to_string(),
            evaluator: Evaluator::new(&program),
            program,
            memo,
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
    /// Whole-search budget: once spent, workers stop claiming candidates
    /// and the search starts no further round. Every unstarted candidate
    /// of the current round is recorded as timed out, and the best
    /// *surviving* kernel wins.
    pub total: Option<Duration>,
}

/// How many candidates survive static ranking into full simulation.
///
/// Parsed from the `--prune=` CLI syntax: `off`, `topk:N` (`topk:inf`
/// keeps everything, so it is the unpruned search), or `frac:F` with
/// `0 < F <= 1`. At least one candidate always survives. Candidates are
/// a tune's distinct kernels, not its decisions, so `N` and `F` count
/// kernels: `topk:4` prunes nothing on an input with at most 4 kernels,
/// and `frac:0.3` of 3 kernels measures one.
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
    /// `(unroll, median cycles)` for every evaluated kernel, under its
    /// first decision (with pass-order search, one entry per distinct
    /// `(unroll, pipeline)` kernel).
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
    /// the measured objective over the candidates that *were* measured: a
    /// report on the model's quality, computed after the search. `None`
    /// when nothing was cut (an unpruned search, or a policy that keeps
    /// every candidate), when fewer than two candidates were measured, or
    /// when either ranking is constant.
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
    /// The pruned search's rank correlation (`None` when nothing was
    /// cut).
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
        }
    }

    /// Sets the model-guided pruning policy: rank all candidates with the
    /// static cost predictor and simulate only the best
    /// [`survivors`](PrunePolicy::survivors). A policy that keeps every
    /// candidate scores nothing and is the unpruned search. `Guided`
    /// search ignores pruning.
    #[must_use]
    pub fn with_prune(mut self, prune: PrunePolicy) -> Self {
        self.prune = prune;
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

    /// Overrides the search strategy.
    ///
    /// # Panics
    ///
    /// Panics on `Random(0)`: a search samples at least one candidate.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        assert!(
            strategy != SearchStrategy::Random(0),
            "a random search samples at least one candidate"
        );
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
    /// `LGEN_FAULTS`). Fault indices address the candidate list, for
    /// every strategy: the distinct kernels of the decisions (a BLAC's are
    /// [`search_space`](Self::search_space)), crossed with
    /// [`pipeline_space`](Self::pipeline_space) under pass-order search,
    /// in first-occurrence order; for `Random` the sampled ones, in that
    /// order. Under peeling or alignment versioning, which the compile
    /// memo does not serve, every decision is a candidate, and index
    /// `decision * schedules + schedule` names it.
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

    /// The candidate list the configured strategy will evaluate, and for
    /// each decision (crossed with the schedule space when pass-order
    /// search is on) the index of its kernel in the list before sampling.
    /// The list holds the distinct kernels in first-occurrence order,
    /// each under its first decision: whole for `Exhaustive` and `Guided`,
    /// a seeded sample of them for `Random`, kept in list order so that a
    /// sample of every kernel is the exhaustive search.
    ///
    /// A kernel's identity is its compile memo key, computed from the
    /// subject's one memoized lowering without running the pass pipeline.
    /// Verification is off in the key: it checks a kernel without changing
    /// it. Under peeling or alignment versioning, which the memo does not
    /// serve, or if the lowering panics (every candidate then fails on its
    /// own), every decision is its own candidate.
    fn candidates(
        &self,
        subject: &Subject,
        unrolls: Vec<UnrollChoice>,
    ) -> (Vec<Candidate>, Vec<usize>) {
        let schedules: Vec<Option<PassPipeline>> = match self.pipelines.as_slice() {
            [] => vec![None],
            pipelines => pipelines.iter().cloned().map(Some).collect(),
        };
        let space: Vec<Candidate> = unrolls
            .into_iter()
            .flat_map(|u| schedules.iter().map(move |p| (u.clone(), p.clone())))
            .collect();
        let key_cfg = self.cfg.clone().with_verify(VerifyLevel::Off);
        let memo = match &self.cache {
            _ if !CompileMemo::eligible(&key_cfg) => None,
            Some(c) if CompileMemo::eligible(&self.cfg) => Some((c.memo(), Some(c.pass_stats()))),
            _ => subject.memo.as_ref().map(|memo| (memo, None)),
        };
        let keys = memo.and_then(|(memo, stats)| {
            catch_unwind(AssertUnwindSafe(|| {
                let (program, name) = (&subject.program, subject.name.as_str());
                let entry = memo_lowering(program, name, &key_cfg, stats, memo);
                let key = |candidate| {
                    let (cfg, genome) = self.candidate_cfg(candidate);
                    Ok(OptKey::for_program(&entry, &cfg, genome))
                };
                space.iter().map(key).collect::<Vec<_>>()
            }))
            .ok()
        });
        // Without keys every decision is a kernel of its own.
        let keys = keys.unwrap_or_else(|| (0..space.len()).map(Err).collect());
        let (mut first, mut distinct) = (HashMap::new(), Vec::new());
        let kernel_of = space
            .into_iter()
            .zip(keys)
            .map(|(candidate, key)| {
                *first.entry(key).or_insert_with(|| {
                    distinct.push(candidate);
                    distinct.len() - 1
                })
            })
            .collect();
        if let SearchStrategy::Random(sample_size) = self.strategy {
            let mut keep: Vec<usize> = (0..distinct.len()).collect();
            keep.shuffle(&mut StdRng::seed_from_u64(self.seed));
            keep.truncate(sample_size);
            keep.sort_unstable();
            distinct = keep.into_iter().map(|i| distinct[i].clone()).collect();
        }
        (distinct, kernel_of)
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
    /// when given (reporting which tier served it), else through the
    /// subject's own memo, if it has one.
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
            None => {
                let memo = subject.memo.as_ref();
                Ok((
                    compile_with(program, name, &cfg, genome, None, None, memo)?.kernel,
                    None,
                ))
            }
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
        let result = self.evaluate_body(subject, index, candidate, deadline, &mut span);
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
        if expired() {
            panic!("candidate {index} abandoned at its deadline");
        }
        let m = run.measure().expect("measurement");
        if let Some(cache) = &self.cache {
            cache.record_evaluation();
        }
        Ok((kernel, m))
    }

    /// Evaluates the `batch` of candidate indices on the isolating worker
    /// pool: panics contained, per-candidate deadline enforced, and no job
    /// started once the budget (counted from `start`) is spent. Outcomes
    /// are in batch order.
    fn eval_outcomes(
        &self,
        subject: &Arc<Subject>,
        candidates: &Arc<Vec<Candidate>>,
        batch: &[usize],
        start: Instant,
    ) -> Vec<JobOutcome<Eval>> {
        let ctx = Arc::new(self.clone());
        let (subject, candidates) = (subject.clone(), candidates.clone());
        let batch: Arc<[usize]> = batch.into();
        let total = self.budget.total;
        let stop = move || total.is_some_and(|b| start.elapsed() >= b);
        run_outcomes(
            (0..batch.len()).collect(),
            self.threads,
            self.budget.deadline,
            stop,
            Arc::new(move |j: usize, deadline| {
                let i = batch[j];
                ctx.evaluate(&subject, i, &candidates[i], deadline)
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

    /// Reduces the evaluated candidates to the winner, scanning `order`
    /// (every evaluated candidate index: candidate order, or a guided
    /// search's visit order) with a strict `<`, so the first best wins
    /// independent of which worker finished when. Records every failure
    /// and excludes it from `samples`; a candidate outside `order` was
    /// never evaluated and is neither a sample nor a failure.
    ///
    /// # Errors
    ///
    /// [`TuneError::AllCandidatesFailed`] if no candidate survived.
    fn reduce(
        &self,
        candidates: &[Candidate],
        mut slots: Vec<Option<JobOutcome<Eval>>>,
        order: &[usize],
        pruned: usize,
        rank_correlation: Option<f64>,
    ) -> Result<Search, TuneError> {
        let mut evaluated: Vec<(&Candidate, Arc<Kernel>, Measurement)> = Vec::new();
        let mut failures = Vec::new();
        for &i in order {
            let c = &candidates[i];
            let reason = match slots[i].take().expect("an evaluated candidate") {
                JobOutcome::Ok((k, m)) => {
                    evaluated.push((c, k, m));
                    continue;
                }
                JobOutcome::Rejected(v) => FailReason::Rejected(v),
                JobOutcome::Panicked(msg) => FailReason::Panicked(msg),
                JobOutcome::TimedOut => FailReason::TimedOut,
            };
            self.record_failure(&mut failures, c, reason);
        }
        if evaluated.is_empty() {
            return Err(TuneError::AllCandidatesFailed {
                attempted: order.len(),
                failures,
            });
        }
        let samples = evaluated
            .iter()
            .map(|(c, _, m)| (c.0.clone(), m.cycles))
            .collect();
        // `min_by_key` keeps the first of equal minima.
        let best = (0..evaluated.len()).min_by_key(|&i| self.objective.score(&evaluated[i].2));
        let (candidate, kernel, measurement) = evaluated.swap_remove(best.expect("a survivor"));
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

    /// Statically scores every candidate on the worker pool, at the
    /// tuner's width: compile (through the shared cache or the subject's
    /// memo — the measurement pass then rides the same memoized kernels)
    /// and run the `lgen-analysis` predictor. Scores are indexed by
    /// candidate, so they do not depend on the width. A candidate whose
    /// compile fails or whose analysis panics scores `0` — the *best*
    /// score — so it is always measured and its real failure recorded by
    /// the normal evaluation path, keeping parity with the unpruned
    /// search.
    fn static_scores(&self, subject: &Arc<Subject>, candidates: &Arc<Vec<Candidate>>) -> Vec<u128> {
        let ctx = Arc::new(self.clone());
        let (subject, list) = (subject.clone(), candidates.clone());
        let outcomes = run_outcomes(
            (0..list.len()).collect(),
            self.threads,
            None,
            || false,
            Arc::new(move |i: usize, _| {
                let cache = ctx.cache.as_deref();
                Ok(match ctx.compile(&subject, &list[i], cache) {
                    Ok((kernel, _)) => ctx.static_score(&analyze_kernel(&kernel, ctx.cfg.arch)),
                    Err(_) => 0,
                })
            }),
        );
        let score = |outcome| match outcome {
            JobOutcome::Ok(score) => score,
            _ => 0,
        };
        outcomes.into_iter().map(score).collect()
    }

    /// The feedback loop behind every tune: builds the candidate list of
    /// distinct kernels ([`candidates`](Self::candidates)), evaluates the
    /// strategy's rounds ([`Rounds`]) on the isolating worker pool until
    /// the strategy has no next round or the search budget is spent, and
    /// [`reduce`](Self::reduce)s what was evaluated. Records the `tune`
    /// span and `lgen.tune.wall_us`.
    fn search(
        &self,
        program: Program,
        name: &str,
        mut unrolls: Vec<UnrollChoice>,
    ) -> Result<Search, TuneError> {
        let start = Instant::now();
        let mut span = lgen_telemetry::span("tune");
        if span.is_recording() {
            span.attr("kernel", name);
        }
        // A tune-local memo keys the candidates whenever the cache's cannot.
        let local = self.cache.is_none() || !CompileMemo::eligible(&self.cfg);
        let subject = Subject::new(program, name, local.then(CompileMemo::new));
        if self.strategy == SearchStrategy::Guided {
            // A guided search climbs the ordered space; a program's
            // mixed genomes have no place in that order.
            unrolls.truncate(Self::search_space().len());
        }
        let (candidates, kernel_of) = self.candidates(&subject, unrolls);
        let candidates = Arc::new(candidates);
        let (mut rounds, scores) = Rounds::new(self, &subject, &candidates, &kernel_of);
        let mut slots: Vec<Option<JobOutcome<Eval>>> = candidates.iter().map(|_| None).collect();
        let mut visited = Vec::new();
        let mut round = rounds.next(self, &slots, &[]);
        loop {
            let outcomes = self.eval_outcomes(&subject, &candidates, &round, start);
            for (&i, outcome) in round.iter().zip(outcomes) {
                slots[i] = Some(outcome);
            }
            visited.extend_from_slice(&round);
            round = rounds.next(self, &slots, &round);
            if round.is_empty() || self.budget.total.is_some_and(|b| start.elapsed() >= b) {
                break;
            }
        }
        if !matches!(rounds, Rounds::Guided { .. }) {
            visited.sort_unstable();
        }
        let (mut pruned, mut rho) = (0, None);
        if let Some(scores) = scores {
            pruned = candidates.len() - visited.len();
            match &self.cache {
                Some(cache) => cache.record_tune_pruned(pruned as u64),
                None => lgen_telemetry::metric_counter!("lgen.tune.candidates_pruned")
                    .add(pruned as u64),
            }
            // The model's report: how well it ranked what was measured.
            let (predicted, measured): (Vec<u128>, Vec<u128>) = visited
                .iter()
                .filter_map(|&i| match &slots[i] {
                    Some(JobOutcome::Ok((_, m))) => Some((scores[i], self.objective.score(m))),
                    _ => None,
                })
                .unzip();
            rho = spearman(&predicted, &measured);
        }
        if let Some(rho) = rho {
            // Gauges are integral; store ρ in milli-units (ρ·1000).
            lgen_telemetry::gauge("lgen.tune.rank_correlation_milli").set((rho * 1000.0) as i64);
        }
        let result = self.reduce(&candidates, slots, &visited, pruned, rho);
        lgen_telemetry::metric_histogram!("lgen.tune.wall_us")
            .record(start.elapsed().as_micros() as u64);
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
}

/// A search strategy as a sequence of rounds over the candidate list,
/// each the next batch to evaluate given every outcome so far; an empty
/// round ends the search. Every round is a deterministic function of the
/// candidates and the outcomes, so the search is identical for any thread
/// count.
enum Rounds {
    /// Every candidate in one round (`Exhaustive`, `Random`).
    All,
    /// Model-guided pruning (§6: "heuristics to prune the search space"):
    /// one round of the statically best [`PrunePolicy::survivors`], made
    /// only when they are fewer than the candidates. The search goes down
    /// the ranking only while nothing has been measured (every survivor
    /// failed), in tranches of `survivors`, then twice the previous one.
    ///
    /// The cut is a heuristic: the exhaustive winner is lost whenever the
    /// model ranks it outside the survivors (ROADMAP item 2 replaces the
    /// cut with bound-based pruning that keeps it). `topk:4` kept it in
    /// all 120 `paper_families()` tunes (at most 6 kernels each) and in
    /// all 317 pruned tunes of the seed-1 benchmark `tune` pool; ranking
    /// the 18 policies instead of their kernels, it lost 8 and 13.
    Pruned {
        /// Candidate indices, statically best first (index breaks ties).
        ranked: Vec<usize>,
        /// How many of `ranked` have been evaluated.
        taken: usize,
    },
    /// Greedy hill climbing, one climb per schedule in turn over that
    /// schedule's distinct kernels in decision order: probe the kernels of
    /// structurally diverse seed decisions, then the unevaluated
    /// neighbours of the climb's best along that order while they improve
    /// on it.
    Guided {
        /// The climbs still to run, the next one last: each climb's
        /// candidates in decision order and its seed candidates.
        climbs: Vec<(Vec<usize>, Vec<usize>)>,
        /// The current climb's candidates in decision order.
        axis: Vec<usize>,
        /// The current climb's best so far: candidate index and score.
        best: Option<(usize, u128)>,
    },
}

impl Rounds {
    /// The configured strategy, before its first round, with each
    /// candidate's static score when it prunes. `kernel_of` maps each
    /// decision of the unsampled space to its candidate.
    fn new(
        tuner: &Autotuner,
        subject: &Arc<Subject>,
        candidates: &Arc<Vec<Candidate>>,
        kernel_of: &[usize],
    ) -> (Rounds, Option<Vec<u128>>) {
        if tuner.strategy == SearchStrategy::Guided {
            let schedules = tuner.pipelines.len().max(1);
            let width = kernel_of.len() / schedules;
            let fulls: Vec<usize> = Autotuner::search_space()
                .iter()
                .enumerate()
                .filter(|(_, u)| matches!(u, UnrollPolicy::Full { .. }))
                .map(|(i, _)| i)
                .collect();
            // No unrolling, a mid-size full unroll, the largest full
            // unroll and the largest factor unroll, derived from the
            // space's structure so the probes stay meaningful if it grows.
            let seeds = [0, fulls[fulls.len() / 2], fulls[fulls.len() - 1], width - 1];
            // A kernel's first decision comes first in the space, so
            // candidate order is decision order.
            let kernels = |positions: &[usize], s: usize| {
                let mut kernels: Vec<usize> = positions
                    .iter()
                    .map(|p| kernel_of[p * schedules + s])
                    .collect();
                kernels.sort_unstable();
                kernels.dedup();
                kernels
            };
            let every: Vec<usize> = (0..width).collect();
            let climbs = (0..schedules)
                .rev()
                .map(|s| (kernels(&every, s), kernels(&seeds, s)))
                .collect();
            let guided = Rounds::Guided {
                climbs,
                axis: Vec::new(),
                best: None,
            };
            return (guided, None);
        }
        let n = candidates.len();
        if tuner.prune.survivors(n) >= n {
            // Nothing to cut: the unpruned search, which scores nothing.
            return (Rounds::All, None);
        }
        let scores = tuner.static_scores(subject, candidates);
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_by_key(|&i| (scores[i], i));
        (Rounds::Pruned { ranked, taken: 0 }, Some(scores))
    }

    /// The round after `last`, given every outcome so far (`None` = not
    /// evaluated); empty when the strategy is done.
    fn next(
        &mut self,
        tuner: &Autotuner,
        slots: &[Option<JobOutcome<Eval>>],
        last: &[usize],
    ) -> Vec<usize> {
        let score = |i: usize| match &slots[i] {
            Some(JobOutcome::Ok((_, m))) => Some(tuner.objective.score(m)),
            _ => None,
        };
        let unevaluated = |i: &usize| slots[*i].is_none();
        match self {
            Rounds::All => (0..slots.len()).filter(unevaluated).collect(),
            Rounds::Pruned { ranked, taken } => {
                let n = ranked.len();
                // A measured candidate ends the search: it can pick a
                // winner. (Every earlier round measured nothing.)
                if *taken == n || last.iter().any(|&i| score(i).is_some()) {
                    return Vec::new();
                }
                // Tranches of `survivors`, then twice the previous one.
                let end = (2 * *taken + tuner.prune.survivors(n)).min(n);
                let mut tranche = ranked[*taken..end].to_vec();
                *taken = end;
                tranche.sort_unstable();
                tranche
            }
            Rounds::Guided { climbs, axis, best } => {
                // The first best in visit order under a strict `<`; a
                // round that moves it continues the climb from there.
                let mut moved = false;
                for &i in last {
                    if let Some(s) = score(i) {
                        if best.is_none_or(|(_, b)| s < b) {
                            *best = Some((i, s));
                            moved = true;
                        }
                    }
                }
                if let (true, Some((at, _))) = (moved, *best) {
                    let p = axis.iter().position(|&i| i == at).expect("on the climb");
                    let neighbours: Vec<usize> = [p.wrapping_sub(1), p + 1]
                        .into_iter()
                        .filter_map(|q| axis.get(q).copied())
                        .filter(unevaluated)
                        .collect();
                    if !neighbours.is_empty() {
                        return neighbours;
                    }
                }
                // The next climb starts with its seeds.
                *best = None;
                let Some((next, seeds)) = climbs.pop() else {
                    return Vec::new();
                };
                *axis = next;
                seeds
            }
        }
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
            .with_strategy(SearchStrategy::Random(3))
            .tune(&blac, "k");
        let exh = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .tune(&blac, "k");
        assert!(exh.measurement.cycles <= rand3.measurement.cycles);
        // One sample per distinct kernel: the 18 policies make 8 here.
        assert_eq!(exh.samples.len(), 8);
        assert_eq!(rand3.samples.len(), 3);
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

    /// Under a non-cycle objective, two candidates can tie on cycles but
    /// not on the objective; the reported unroll is the winner's own.
    #[test]
    fn guided_energy_search_reports_the_winners_unroll() {
        let blac = paper::madd(3, 3);
        let cfg = CompileConfig::full(Microarch::CortexA8);
        let tuned = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Guided)
            .with_objective(Objective::Energy)
            .tune(&blac, "k");
        let recompiled = compile(&blac, "k", &cfg.with_unroll(tuned.unroll));
        assert!(
            recompiled == tuned.kernel,
            "unroll {:?} does not recompile to the winner",
            tuned.unroll
        );
    }

    #[test]
    fn tuning_never_loses_to_the_default() {
        let blac = paper::mvm(4, 64);
        let cfg = CompileConfig::full(Microarch::Atom);
        let tuned = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Random(9))
            .tune(&blac, "mvm");
        let default_kernel = compile(&blac, "mvm", &cfg);
        let default_m =
            measure_blac(&blac, &default_kernel, Microarch::Atom, &[0, 0, 0], 3).unwrap();
        assert!(tuned.measurement.cycles <= default_m.cycles);
        // The policies make 4 kernels, so a sample of 9 takes them all.
        assert_eq!(tuned.samples.len(), 4);
        // Without pass-order search, the winner reports the config's own
        // schedule.
        assert_eq!(tuned.pipeline, cfg.pipeline);
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let blac = paper::mmm(4, 8, 4);
        let cfg = CompileConfig::full(Microarch::CortexA9);
        let a = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Random(4))
            .with_seed(7)
            .tune(&blac, "k");
        let b = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Random(4))
            .with_seed(7)
            .tune(&blac, "k");
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.unroll, b.unroll);
    }

    #[test]
    fn small_sample_visits_fewer_points() {
        let blac = paper::axpy(64);
        let cfg = CompileConfig::full(Microarch::CortexA8);
        let t = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Random(2))
            .tune(&blac, "k");
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
                .with_strategy(SearchStrategy::Random(16))
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
        // The 33 genomes make 5 kernels, and the sample of 16 takes them
        // all.
        assert_eq!(seq.samples.len(), 5);
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
    fn guided_pass_order_search_keeps_every_climbs_samples() {
        // One climb per schedule, each probing at least its three distinct
        // seeds: every evaluated (unroll, schedule) pair is a sample or a
        // failure, whichever climb it belongs to.
        let cfg = CompileConfig::full(Microarch::Atom);
        let tuned = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Guided)
            .with_pipeline_search()
            .tune(&paper::gemm(4, 8, 8), "k");
        let schedules = Autotuner::pipeline_space(&cfg.pipeline).len();
        assert!(tuned.samples.len() + tuned.failures.len() >= 3 * schedules);
    }

    #[test]
    fn shared_cache_dedups_candidate_compiles() {
        // The 18 policies make 3 distinct kernels of mvm 4x32 on Atom: the
        // tune compiles, optimizes and evaluates each of them once, under
        // its first policy, and the other policies never reach the cache.
        let blac = paper::mvm(4, 32);
        let cfg = CompileConfig::full(Microarch::Atom);
        let cache = Arc::new(KernelCache::new());
        let tuner = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .with_cache(cache.clone());
        let first = tuner.tune(&blac, "k");
        let stats = cache.stats();
        assert_eq!(cache.pass_stats().compiles(), 3);
        assert_eq!((stats.memo_misses, stats.evaluations), (3, 3));
        assert_eq!((stats.hits, stats.misses, stats.memo_hits), (0, 3, 0));
        assert_eq!(first.samples.len(), 3);
        // Re-tuning the same BLAC is served entirely from the cache: one
        // hit per distinct kernel.
        let second = tuner.tune(&blac, "k");
        assert_eq!(cache.pass_stats().compiles(), 3);
        assert_eq!(cache.stats().hits, 3);
        assert_eq!(first.unroll, second.unroll);
        assert_eq!(first.kernel, second.kernel);
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
        // Every schedule makes 3 kernels of the policies.
        let n_pipelines = Autotuner::pipeline_space(&cfg.pipeline).len();
        assert_eq!(tuned.samples.len(), 3 * n_pipelines);
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
            .with_strategy(SearchStrategy::Random(8))
            .with_seed(13)
            .with_pipeline_search()
            .with_threads(1)
            .tune(&blac, "k");
        let b = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Random(8))
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
        let blac = paper::gemv(4, 48);
        let cfg = CompileConfig::full(Microarch::Arm1176);
        let tuned = Autotuner::new(cfg.clone())
            .with_strategy(SearchStrategy::Exhaustive)
            .with_faults(FaultPlan::none().panic_at(0).panic_at(2))
            .tune(&blac, "k");
        // The clean run over the surviving candidates picks the same
        // winner.
        let clean = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .tune(&blac, "k");
        assert_eq!(tuned.samples.len(), clean.samples.len() - 2);
        assert_eq!(tuned.panicked(), 2);
        assert_eq!(tuned.rejected, 0);
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
        let exhaustive = Autotuner::new(cfg).with_strategy(SearchStrategy::Exhaustive);
        let kernels = exhaustive.tune(&blac, "k").samples.len();
        let err = exhaustive
            .with_faults(plan)
            .try_tune(&blac, "k")
            .expect_err("no survivor");
        let TuneError::AllCandidatesFailed {
            attempted,
            failures,
        } = &err;
        assert_eq!(*attempted, kernels);
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
        // Everything survives, so nothing is cut and the search is the
        // unpruned one exactly — winner, samples, counts, correlation.
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
        assert_eq!(inf.rank_correlation, off.rank_correlation);

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
        assert_eq!(inf.rank_correlation, off.rank_correlation);
    }

    #[test]
    fn pruned_search_reproduces_the_exhaustive_winner() {
        // topk:2 of 3 or 4 kernels must still find the same winner the
        // full simulation sweep finds, and report what it skipped.
        let suite = [paper::axpy(32), paper::gemv(4, 32), paper::mvm(4, 48)];
        let cfg = CompileConfig::full(Microarch::Atom);
        for blac in &suite {
            let base = Autotuner::new(cfg.clone()).with_strategy(SearchStrategy::Exhaustive);
            let full = base.clone().tune(blac, "k");
            let pruned = base.with_prune(PrunePolicy::TopK(2)).tune(blac, "k");
            assert_eq!(pruned.unroll, full.unroll);
            assert_eq!(pruned.measurement, full.measurement);
            assert!(pruned.pruned > 0, "topk:2 should have skipped candidates");
            assert!(pruned.samples.len() < full.samples.len());
        }
    }

    #[test]
    fn static_scores_match_each_candidates_own_analysis() {
        // Scoring compiles through the shared cache; every candidate must
        // still score what its own uncached compile scores, for BLAC
        // policies and program genomes alike.
        let cfg = CompileConfig::full(Microarch::CortexA9);
        let tuner = Autotuner::new(cfg)
            .with_strategy(SearchStrategy::Exhaustive)
            .with_prune(PrunePolicy::TopK(4))
            .with_cache(Arc::new(KernelCache::new()));
        let kalman = kalman_predict();
        let statements = lgen_sigma::fuse_program(&kalman).0.statements.len();
        let subjects = [
            (
                Subject::new(Program::from(&paper::gemv(4, 32)), "gemv", None),
                policies(),
            ),
            (
                Subject::new(kalman, "kalman", None),
                tuner.genomes(statements),
            ),
        ];
        for (subject, unrolls) in subjects {
            let candidates = Arc::new(tuner.candidates(&subject, unrolls).0);
            let scores = tuner.static_scores(&subject, &candidates);
            assert_eq!(scores.len(), candidates.len());
            for (candidate, &score) in candidates.iter().zip(&scores) {
                let (kernel, _) = tuner.compile(&subject, candidate, None).unwrap();
                let own = tuner.static_score(&analyze_kernel(&kernel, Microarch::CortexA9));
                assert_eq!(score, own, "{}: {}", subject.name, candidate.0);
            }
        }
    }

    /// A BLAC tune's decisions.
    fn policies() -> Vec<UnrollChoice> {
        let policies = Autotuner::search_space().into_iter();
        policies.map(UnrollChoice::Kernel).collect()
    }

    #[test]
    fn no_two_candidates_share_a_kernel() {
        // For the strategies of the `tune_strategies` digest, with and
        // without a cache, on BLACs and on a program: the candidate lists
        // agree, and no two candidates share a compile memo key (computed
        // here from a memo of its own). Policies and genomes do collapse,
        // so each list is shorter than its decisions.
        let cfg = CompileConfig::full(Microarch::CortexA9);
        let tuner = |strategy| Autotuner::new(cfg.clone()).with_strategy(strategy);
        use SearchStrategy::{Exhaustive, Guided, Random};
        let settings = [
            tuner(Random(10)),
            tuner(Exhaustive),
            tuner(Guided),
            tuner(Guided).with_pipeline_search(),
            tuner(Exhaustive).with_pipeline_search(),
            tuner(Random(30)).with_pipeline_search(),
        ];
        let kalman = kalman_predict();
        let statements = lgen_sigma::fuse_program(&kalman).0.statements.len();
        let programs = [
            (Program::from(&paper::gemv(4, 32)), policies()),
            (Program::from(&paper::mmm(4, 8, 4)), policies()),
            (kalman, tuner(Exhaustive).genomes(statements)),
        ];
        for setting in settings {
            let cached = setting.clone().with_cache(Arc::new(KernelCache::new()));
            for (program, unrolls) in &programs {
                let subject = Subject::new(program.clone(), "k", None);
                let (list, _) = cached.candidates(&subject, unrolls.clone());
                let own = Subject::new(program.clone(), "k", Some(CompileMemo::new()));
                let (uncached, _) = setting.candidates(&own, unrolls.clone());
                assert_eq!(list, uncached, "{:?}", setting.strategy);
                let memo = CompileMemo::new();
                let entry = memo_lowering(program, "k", &cfg, None, &memo);
                let mut keys = std::collections::HashSet::new();
                for candidate in &list {
                    let (cfg, genome) = setting.candidate_cfg(candidate);
                    let key = OptKey::for_program(&entry, &cfg, genome);
                    assert!(keys.insert(key), "{:?}: {}", setting.strategy, candidate.0);
                }
                let decisions = unrolls.len() * setting.pipelines.len().max(1);
                assert!(list.len() < decisions, "{:?}", setting.strategy);
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
    fn pruned_search_goes_down_the_ranking_when_every_survivor_fails() {
        // mvm 4x32 on Atom makes 3 kernels. `topk:1` measures the
        // statically best; when it panics, nothing is measured, so the
        // next tranche (2) takes the other two and the best of them wins.
        let blac = paper::mvm(4, 32);
        let base = Autotuner::new(CompileConfig::full(Microarch::Atom))
            .with_strategy(SearchStrategy::Exhaustive);
        let full = base.clone().tune(&blac, "k");
        assert_eq!(full.samples.len(), 3);
        let pruned = base.with_prune(PrunePolicy::TopK(1));
        let subject = Subject::new(Program::from(&blac), "k", Some(CompileMemo::new()));
        let candidates = Arc::new(pruned.candidates(&subject, policies()).0);
        let scores = pruned.static_scores(&subject, &candidates);
        let best = (0..scores.len()).min_by_key(|&i| (scores[i], i)).unwrap();
        let tuned = pruned
            .with_faults(FaultPlan::none().panic_at(best))
            .tune(&blac, "k");
        assert_eq!(tuned.panicked(), 1);
        assert_eq!(tuned.failures.len(), 1);
        assert_eq!(tuned.pruned, 0);
        assert_eq!(tuned.samples.len(), 2);
        let (unroll, cycles) = (0..full.samples.len())
            .filter(|&i| i != best)
            .map(|i| full.samples[i])
            .min_by_key(|&(_, cycles)| cycles)
            .unwrap();
        assert_eq!((tuned.unroll, tuned.measurement.cycles), (unroll, cycles));
    }
}
