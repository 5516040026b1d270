//! Cross-candidate subtree memoization for the compile pipeline.
//!
//! The [`KernelCache`](crate::cache::KernelCache) keys on the exact
//! `(program, name, config, genome)` identity, so a tuning sweep over N
//! unrolling policies is N distinct cache entries — yet most of the work
//! behind those entries is shared: every candidate lowers the *same*
//! program through fusion and Σ-LL codegen, and many unrolling policies
//! make the *same* per-loop decisions (e.g. `Full {{ max_trip: 48 }}` and
//! `Full {{ max_trip: 64 }}` are indistinguishable on a kernel whose loops
//! all trip ≤ 48). This module memoizes the two expensive stages
//! underneath the exact cache:
//!
//! 1. **Lowering** ([`CompileMemo::program_lowered_for`]): one fusion +
//!    Σ-LL codegen per `(program, name, isa, mvm, specialized leftovers)`
//!    point — a BLAC enters as its one-statement program — shared by
//!    every unroll policy, genome and pass schedule. The lowered kernel's
//!    body is fingerprinted through the C-IR [`Arena`] (a canonical
//!    pre-order walk that resolves interned expressions and maps), giving
//!    the structural half of the optimization key.
//! 2. **Optimization** ([`OptKey`]): the pass pipeline's output is keyed
//!    by *(structural fingerprint × pipeline fingerprint × unroll
//!    signature)*. The unroll signature ([`UnrollSig`]) is the per-loop
//!    decision vector the policy — or, for a per-statement genome, each
//!    statement's policy on its own range — would take on the lowered
//!    body: the collapsing step that lets a sweep over 18 policies, or
//!    over a program's genomes, optimize each distinct decision vector
//!    once.
//!
//! **Invalidation.** There is none, by construction: both memo levels key
//! on complete, exact inputs (the program is compared structurally, the
//! schedule by its spec string, the unroll axis by its decision vector),
//! and entries are never evicted for the cache's lifetime — identical keys
//! always denote identical outputs because the pipeline is deterministic.
//! Fingerprints only *accelerate* the key; the exact fields ride along so
//! a 64-bit collision cannot alias two entries.
//!
//! **Concurrency.** Both levels are single-flight: per key, one thread
//! lowers or optimizes while the others wait for it and then share its
//! `Arc`, so a pool of tuning workers runs the pipeline once per distinct
//! kernel, as one worker does. Only successes are stored; a compile that
//! fails or panics leaves its key empty for the next caller.
//!
//! **Soundness of the decision vector.** The unroll pass works bottom-up
//! and decides each loop solely from its own trip count; full unrolling
//! substitutes the body (creating no loops) and factor widening rewrites
//! the loop in place after its body was processed. Two policies with equal
//! decision vectors therefore produce identical kernels. The collapse is
//! only applied when `unroll` appears at most once at the schedule's top
//! level — under `repeat(...)` (or listed twice) a later run sees loops
//! the lowered body does not have, so the signature degrades to the exact
//! policy (still memoizing, just without cross-policy sharing).
//!
//! **Soundness for genomes.** A per-statement genome is the same argument
//! applied range by range. The memoized lowering carries the statement
//! ranges, which partition its top-level body, and a genome compile runs
//! the ordinary bottom-up unroll on each range under that range's policy
//! before the rest of the schedule — which has every `unroll` step
//! removed, so no later run sees the unrolled body. Each range's decision
//! vector therefore determines that range's unrolled instructions, and the
//! concatenation over the ranges (which splits back uniquely, since every
//! range of one lowering has a fixed loop count) determines the kernel
//! the schedule starts from. Genomes with equal concatenations share one
//! entry whatever the schedule; they never share one with a kernel-wide
//! policy, whose unroll runs at its place in the schedule.
//!
//! Eligibility ([`CompileMemo::eligible`]) excludes peeling and alignment
//! versioning (multi-body compiles around the schedule) and any enabled
//! verification level (verification must observe every compile it was
//! asked to observe). Hits and misses are surfaced as the
//! `cir.memo_hits` / `cir.memo_misses` telemetry counters and as rows of
//! `lgenc --cache-stats`.

use crate::config::CompileConfig;
use lgen_cir::arena::trip_count;
use lgen_cir::passes::{PassPipeline, PipelineStep, UnrollDecision, UnrollPolicy};
use lgen_cir::VerifyFailure;
use lgen_cir::{Arena, Inst, Kernel, VerifyLevel};
use lgen_isa::VectorIsa;
use lgen_ll::Program;
use lgen_sigma::{MvmStrategy, ProgramKernel};
use lgen_telemetry::metric_counter;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A map of single-flight cells. The first caller of a key fills its
/// cell while later callers of that key wait for it and then share the
/// value, so racing workers never compute one key twice. Cells store only
/// successes: after a fill that fails or panics (the cell's lock does not
/// poison), the next waiter fills the cell itself.
pub(crate) struct Flights<K, V> {
    cells: Mutex<HashMap<K, Arc<Mutex<Option<V>>>>>,
    filled: AtomicUsize,
}

impl<K: Eq + Hash, V: Clone> Flights<K, V> {
    pub(crate) fn new() -> Self {
        Flights {
            cells: Mutex::new(HashMap::new()),
            filled: AtomicUsize::new(0),
        }
    }

    /// The value for `key`, running `fill` when the cell is empty, and
    /// whether this call filled it.
    pub(crate) fn get_or_fill<E>(
        &self,
        key: K,
        fill: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let cell = self.cells.lock().entry(key).or_default().clone();
        let mut value = cell.lock();
        if let Some(v) = &*value {
            return Ok((v.clone(), false));
        }
        let v = fill()?;
        *value = Some(v.clone());
        self.filled.fetch_add(1, Ordering::Relaxed);
        Ok((v, true))
    }

    /// Cells filled so far.
    pub(crate) fn len(&self) -> usize {
        self.filled.load(Ordering::Relaxed)
    }
}

/// Everything fusion and Σ-LL codegen read: the program (a BLAC enters as
/// its one-statement form), the kernel name (baked into the emitted C),
/// and the codegen-relevant config fields. The unroll policy, the
/// per-statement genome and the pass schedule deliberately do **not**
/// appear — that is the sharing.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ProgramLowerKey {
    program: Program,
    name: String,
    isa: VectorIsa,
    mvm: MvmStrategy,
    specialized_leftovers: bool,
}

/// A memoized lowering: the fused, unoptimized [`ProgramKernel`], its
/// dense identity within this memo, and the structural fingerprint of its
/// body.
#[derive(Clone)]
pub struct ProgramLoweredEntry {
    /// The lowered (unoptimized) program kernel, shared by every genome
    /// and schedule.
    pub pk: Arc<ProgramKernel>,
    /// Dense id unique within the owning memo (exactness anchor for
    /// [`OptKey`]; fingerprints alone could collide).
    pub id: u64,
    /// Structural fingerprint of the body: canonical pre-order FNV-1a over
    /// the arena form, mixed with name/array/metadata hashes.
    pub fp: u64,
}

/// The unroll axis of an [`OptKey`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum UnrollSig {
    /// Per-loop decision vector in post-order (the pass is bottom-up) —
    /// collapses policies that act identically on this body.
    Decisions(Vec<UnrollDecision>),
    /// The exact policy, used when the schedule runs `unroll` more than
    /// once or inside `repeat(...)`: later runs see loops the lowered
    /// body does not have, so per-loop collapsing would be unsound.
    Policy(UnrollPolicy),
    /// A joint per-statement unroll genome (whole-program tuning): the
    /// post-order decision vector of each statement range under that
    /// statement's policy, concatenated in range order — collapses genomes
    /// that act identically on this body. A variant of its own, because a
    /// genome unrolls before the schedule and a kernel-wide policy at its
    /// place in it, so equal decisions need not mean equal kernels.
    Genome(Vec<UnrollDecision>),
}

/// Identity of one optimized kernel: which lowering, which schedule, and
/// what the unroll pass would do. The fingerprints are the documented
/// (structural × pipeline) key; `lowered` and `spec` are the exact fields
/// that make a fingerprint collision harmless.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OptKey {
    lowered: u64,
    kernel_fp: u64,
    pipeline_fp: u64,
    spec: String,
    unroll: UnrollSig,
}

impl OptKey {
    /// The optimization key `cfg` (and the optional joint per-statement
    /// genome) induces on a memoized lowering. With a genome the unroll
    /// axis is the per-range decision vector ([`UnrollSig::Genome`]: the
    /// decisions each statement's policy takes on its own range of the
    /// lowered body, which the genome compile unrolls independently);
    /// without one it is the whole-kernel decision signature.
    ///
    /// # Panics
    ///
    /// If the genome does not hold one policy per statement range.
    pub fn for_program(
        entry: &ProgramLoweredEntry,
        cfg: &CompileConfig,
        policies: Option<&[UnrollPolicy]>,
    ) -> OptKey {
        OptKey {
            lowered: entry.id,
            kernel_fp: entry.fp,
            pipeline_fp: cfg.pipeline.fingerprint(),
            spec: cfg.pipeline.to_spec(),
            unroll: match policies {
                Some(genome) => genome_signature(&entry.pk, genome),
                None => unroll_signature(&cfg.pipeline, cfg.unroll, entry.pk.kernel.body()),
            },
        }
    }
}

/// The two-level memo. Owned by a [`KernelCache`](crate::cache::KernelCache)
/// (not process-global: per-pass accounting and tests rely on cache-scoped
/// counters), shared by every compile routed through that cache.
pub struct CompileMemo {
    lowered: Flights<ProgramLowerKey, ProgramLoweredEntry>,
    optimized: Flights<OptKey, Arc<Kernel>>,
    /// Id source for lowerings ([`OptKey::lowered`]).
    next_id: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for CompileMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl CompileMemo {
    /// An empty memo. Registers the `cir.memo_hits` / `cir.memo_misses`
    /// counters up front so metrics dumps always show them.
    pub fn new() -> Self {
        lgen_telemetry::counter("cir.memo_hits");
        lgen_telemetry::counter("cir.memo_misses");
        CompileMemo {
            lowered: Flights::new(),
            optimized: Flights::new(),
            next_id: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether the memoized compile path may serve `cfg`. Peeling and
    /// alignment versioning compile multiple bodies around the schedule,
    /// and any enabled verification level must observe every compile —
    /// those configs compile without the memo.
    pub fn eligible(cfg: &CompileConfig) -> bool {
        !cfg.peeling && !cfg.alignment_versioning && cfg.verify == VerifyLevel::Off
    }

    /// The memoized lowering for `(program, name, cfg)`, running `build`
    /// (fusion + Σ-LL codegen) on a miss; shared by every unroll policy,
    /// per-statement genome and pass schedule. Single-flight: a thread
    /// that asks for a lowering another thread is building waits for it.
    pub fn program_lowered_for(
        &self,
        program: &Program,
        name: &str,
        cfg: &CompileConfig,
        build: impl FnOnce() -> ProgramKernel,
    ) -> ProgramLoweredEntry {
        let key = ProgramLowerKey {
            program: program.clone(),
            name: name.to_string(),
            isa: cfg.arch.vector_isa(),
            mvm: cfg.mvm,
            specialized_leftovers: cfg.specialized_leftovers,
        };
        let Ok((entry, _)) = self.lowered.get_or_fill(key, || {
            let pk = Arc::new(build());
            let fp = kernel_fingerprint(&pk.kernel);
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            Ok::<_, std::convert::Infallible>(ProgramLoweredEntry { pk, id, fp })
        });
        entry
    }

    /// The optimized kernel for `key`, running `optimize` (the pass
    /// pipeline) when no kernel is stored; counts a memo miss when it runs
    /// and a hit otherwise. Single-flight: a thread that asks for a key
    /// another thread is optimizing waits and shares its kernel. A failed
    /// or panicking `optimize` stores nothing.
    pub fn optimized_or_run(
        &self,
        key: OptKey,
        optimize: impl FnOnce() -> Result<Kernel, VerifyFailure>,
    ) -> Result<Arc<Kernel>, VerifyFailure> {
        let (kernel, ran) = self.optimized.get_or_fill(key, || {
            self.misses.fetch_add(1, Ordering::Relaxed);
            metric_counter!("cir.memo_misses").inc();
            optimize().map(Arc::new)
        })?;
        if !ran {
            self.hits.fetch_add(1, Ordering::Relaxed);
            metric_counter!("cir.memo_hits").inc();
        }
        Ok(kernel)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Distinct `(lowerings, optimized kernels)` resident.
    pub fn entries(&self) -> (usize, usize) {
        (self.lowered.len(), self.optimized.len())
    }
}

impl std::fmt::Debug for CompileMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        let (lowered, optimized) = self.entries();
        f.debug_struct("CompileMemo")
            .field("hits", &hits)
            .field("misses", &misses)
            .field("lowered", &lowered)
            .field("optimized", &optimized)
            .finish()
    }
}

/// Structural fingerprint of a lowered kernel: the arena's canonical
/// pre-order FNV-1a over the body, mixed with the name, array table, and
/// scalar metadata (none of which live in the body but all of which the
/// unparser and passes read).
fn kernel_fingerprint(kernel: &Kernel) -> u64 {
    let (arena, root) = Arena::from_body(kernel.body());
    let mut fp = arena.fingerprint(root);
    let mix = |fp: &mut u64, v: u64| {
        *fp ^= v;
        *fp = fp.wrapping_mul(0x100_0000_01b3);
    };
    for b in kernel.name.bytes() {
        mix(&mut fp, b as u64);
    }
    for a in &kernel.arrays {
        for b in a.name.bytes() {
            mix(&mut fp, b as u64);
        }
        mix(&mut fp, a.len as u64);
        mix(&mut fp, a.kind as u64);
    }
    mix(&mut fp, kernel.nreg as u64);
    mix(&mut fp, kernel.nvars as u64);
    mix(&mut fp, kernel.flops);
    fp
}

/// The unroll axis of the optimization key: what `policy` would do to
/// every loop of `body` (see [`UnrollSig`] for when the collapse applies).
pub fn unroll_signature(pipeline: &PassPipeline, policy: UnrollPolicy, body: &[Inst]) -> UnrollSig {
    if !pipeline.contains("unroll") {
        // The policy is never consulted: every policy shares one entry.
        return UnrollSig::Decisions(Vec::new());
    }
    if !single_top_level_unroll(pipeline) {
        return UnrollSig::Policy(policy);
    }
    let mut decisions = Vec::new();
    collect_decisions(body, policy, &mut decisions);
    UnrollSig::Decisions(decisions)
}

/// The unroll axis of a per-statement genome: each statement range's
/// decisions under its own policy, concatenated (see [`UnrollSig::Genome`]).
fn genome_signature(pk: &ProgramKernel, genome: &[UnrollPolicy]) -> UnrollSig {
    assert_eq!(
        genome.len(),
        pk.stmt_ranges.len(),
        "one unroll policy per statement range"
    );
    let body = pk.kernel.body();
    let mut decisions = Vec::new();
    for (range, &policy) in pk.stmt_ranges.iter().zip(genome) {
        collect_decisions(&body[range.clone()], policy, &mut decisions);
    }
    UnrollSig::Genome(decisions)
}

/// Whether `unroll` appears at most once, directly at the top level (the
/// precondition for per-loop decision collapsing).
fn single_top_level_unroll(pipeline: &PassPipeline) -> bool {
    let mut seen = 0usize;
    for step in pipeline.steps() {
        match step {
            PipelineStep::Pass(name) => {
                if *name == "unroll" {
                    seen += 1;
                }
            }
            PipelineStep::Repeat(inner) => {
                if steps_contain_unroll(inner) {
                    return false;
                }
            }
        }
    }
    seen <= 1
}

fn steps_contain_unroll(steps: &[PipelineStep]) -> bool {
    steps.iter().any(|s| match s {
        PipelineStep::Pass(name) => *name == "unroll",
        PipelineStep::Repeat(inner) => steps_contain_unroll(inner),
    })
}

/// Post-order walk matching the pass's bottom-up processing order.
fn collect_decisions(body: &[Inst], policy: UnrollPolicy, out: &mut Vec<UnrollDecision>) {
    for inst in body {
        if let Inst::Loop {
            start,
            end,
            step,
            body,
            ..
        } = inst
        {
            collect_decisions(body, policy, out);
            out.push(policy.decide(trip_count(*start, *end, *step)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;
    use lgen_isa::Microarch;
    use lgen_ll::paper;

    fn full_cfg() -> CompileConfig {
        CompileConfig::full(Microarch::Atom)
    }

    #[test]
    fn equivalent_unroll_policies_share_a_signature() {
        let blac = paper::gemv(4, 12);
        let cfg = full_cfg();
        let k = compile(&blac, "k", &cfg.clone().with_passes(PassPipeline::empty()));
        // Every loop in a 4x12 GEMV trips ≤ 12, so these thresholds are
        // indistinguishable…
        let a = unroll_signature(&cfg.pipeline, UnrollPolicy::Full { max_trip: 64 }, k.body());
        let b = unroll_signature(
            &cfg.pipeline,
            UnrollPolicy::Full { max_trip: 128 },
            k.body(),
        );
        assert_eq!(a, b);
        // …while `None` differs.
        let none = unroll_signature(&cfg.pipeline, UnrollPolicy::None, k.body());
        assert_ne!(a, none);
    }

    #[test]
    fn repeat_schedules_fall_back_to_the_exact_policy() {
        let p = PassPipeline::parse("repeat(unroll,dce)").unwrap();
        let sig = unroll_signature(&p, UnrollPolicy::Full { max_trip: 8 }, &[]);
        assert_eq!(sig, UnrollSig::Policy(UnrollPolicy::Full { max_trip: 8 }));
        // A single top-level unroll collapses normally.
        let p = PassPipeline::parse("unroll,repeat(copyprop,dce)").unwrap();
        let sig = unroll_signature(&p, UnrollPolicy::Full { max_trip: 8 }, &[]);
        assert!(matches!(sig, UnrollSig::Decisions(_)));
    }

    #[test]
    fn eligibility_excludes_verifying_and_versioning_configs() {
        assert!(CompileMemo::eligible(&full_cfg()));
        assert!(!CompileMemo::eligible(&full_cfg().with_versioning()));
        assert!(!CompileMemo::eligible(&full_cfg().with_peeling()));
        assert!(!CompileMemo::eligible(
            &full_cfg().with_verify(VerifyLevel::Boundaries)
        ));
    }

    #[test]
    fn memoized_sweep_matches_the_reference_path_and_shares_subtrees() {
        use crate::autotune::Autotuner;
        use crate::cache::KernelCache;
        let blac = paper::gemv(4, 12);
        let cache = KernelCache::new();
        for u in Autotuner::search_space() {
            let cfg = full_cfg().with_unroll(u);
            let memoized = cache.get_or_compile(&blac, "k", &cfg);
            let reference = compile(&blac, "k", &cfg);
            assert_eq!(*memoized, reference, "memoized output diverged at {u:?}");
        }
        let (hits, misses) = cache.memo().stats();
        assert!(hits > 0, "a sweep must share optimized subtrees");
        assert!(misses >= 1);
        assert_eq!(hits + misses, Autotuner::search_space().len() as u64);
        // Equivalent policies share the same allocation, not just equal IR.
        let a = cache.get_or_compile(
            &blac,
            "k2",
            &full_cfg().with_unroll(UnrollPolicy::Full { max_trip: 64 }),
        );
        let b = cache.get_or_compile(
            &blac,
            "k2",
            &full_cfg().with_unroll(UnrollPolicy::Full { max_trip: 128 }),
        );
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn lowering_is_shared_across_policies() {
        let memo = CompileMemo::new();
        let program = Program::from(&paper::axpy(16));
        let a = memo.program_lowered_for(&program, "k", &full_cfg(), || {
            let opts = lgen_sigma::CodegenOptions::full(Microarch::Atom.vector_isa());
            lgen_sigma::compile_program(&program, "k", &opts)
        });
        let b = memo.program_lowered_for(
            &program,
            "k",
            &full_cfg().with_unroll(UnrollPolicy::Full { max_trip: 4 }),
            || panic!("second lowering must be memoized"),
        );
        assert!(Arc::ptr_eq(&a.pk, &b.pk));
        assert_eq!(a.id, b.id);
        assert_eq!(a.fp, b.fp);
    }
}
