//! A concurrent, content-addressed kernel cache.
//!
//! The autotuning feedback loop (Fig. 2.1, §5.1.5) is dominated by
//! redundant recompilation: every candidate re-runs the whole
//! LL → Σ-LL → C-IR pipeline, and the same `(program, config)` point is
//! compiled again whenever the tuner resamples it, a benchmark reruns, or
//! alignment versioning builds near-identical bodies. This module
//! memoizes finished kernels behind a sharded map so repeated compiles are
//! served in O(key hash) instead of O(pipeline).
//!
//! **Key derivation.** A kernel is fully determined by the *structure* of
//! its program (operand table, structure annotations, temporaries and
//! statement list — [`Program`] hashes structurally; a [`Blac`] is keyed
//! as its one-statement program, so BLAC and program lookups of the same
//! computation share one entry), the kernel name (baked into the emitted
//! C), the [`CompileConfig`] (every field changes generated code; the
//! unrolling decision the autotuner varies is part of it, and so is the
//! [`PassPipeline`](lgen_cir::PassPipeline), so two schedules of the same
//! program are distinct entries), and the optional joint per-statement
//! unroll genome. The map keys on that full [`ProgramCacheKey`], so a hit
//! is exact by construction.
//!
//! **Concurrency.** The map is split into [`SHARDS`] independently locked
//! shards; the autotuner's worker pool hits disjoint shards with high
//! probability. Compilation happens *outside* the shard lock, so a slow
//! pipeline never blocks unrelated lookups. Two threads that miss the
//! same cold key both compile it, but through the [`CompileMemo`], whose
//! single-flight cells run the pipeline once for both (for
//! [`CompileMemo::eligible`] configs); the first insert wins and both
//! return the same `Arc`.

use crate::config::CompileConfig;
use crate::memo::CompileMemo;
use crate::persist::{stable_fingerprint, DiskCache, DiskStats};
use crate::pipeline::compile_with;
use lgen_cir::passes::{PassStats, UnrollPolicy};
use lgen_cir::{Kernel, VerifyFailure};
use lgen_ll::{Blac, Program};
use lgen_telemetry::metric_counter;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked shards (power of two).
pub const SHARDS: usize = 16;

/// The exact identity of a compiled kernel: the program (a BLAC enters as
/// its one-statement form), the kernel name, the config, and the optional
/// joint per-statement unroll genome (one policy per fused statement;
/// `None` = `cfg.unroll` applied kernel-wide).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ProgramCacheKey {
    /// The program, compared structurally (operand table, structure
    /// annotations, and statement list included).
    pub program: Program,
    /// Kernel (C function) name.
    pub name: String,
    /// The full compile configuration.
    pub cfg: CompileConfig,
    /// Joint per-statement unroll genome, if the caller tunes one.
    pub policies: Option<Vec<UnrollPolicy>>,
}

/// Monotonic counters describing cache behaviour; cheap to read at any
/// time (used by `lgenc --cache-stats` and the benchmarks, and the hook
/// point for future observability work).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Kernels inserted (≤ misses; racing duplicates are not inserted).
    pub inserts: u64,
    /// Cold lookups that lost the insert race for their exact key to a
    /// concurrent lookup of the same key; they return the winner's `Arc`.
    /// For [`CompileMemo::eligible`] configs the loser waited on the
    /// memo's single-flight cell instead of running the pipeline again.
    pub races: u64,
    /// Candidates rejected because they failed static verification
    /// (never inserted — see [`KernelCache::try_get_or_compile`] and the
    /// autotuner's final verification gate).
    pub verify_rejects: u64,
    /// Tuning candidates whose evaluation panicked (contained by the
    /// fault-tolerant pool; nothing is cached for them).
    pub tune_panics: u64,
    /// Tuning candidates abandoned at their deadline or skipped once the
    /// search budget was spent.
    pub tune_timeouts: u64,
    /// Tuning candidates never measured because the static cost model
    /// ranked them out of the survivor set (`--prune`); they were still
    /// compiled (cheap, memoized) for the ranking itself.
    pub tune_pruned: u64,
    /// Compiles served by the cross-candidate subtree memo (the
    /// `cir.memo_hits` counter): the exact cache key missed, but an
    /// equivalent candidate had already lowered and optimized the same
    /// subtree.
    pub memo_hits: u64,
    /// Memo lookups that ran the pass pipeline for real
    /// (`cir.memo_misses`).
    pub memo_misses: u64,
    /// Tuning candidates whose validation and measurement actually ran;
    /// candidates served from the tuner's evaluation memo do not count.
    pub evaluations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.hits + self.misses;
        let rate = if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        };
        write!(
            f,
            "{} hits / {} misses ({rate:.1}% hit rate), {} entries",
            self.hits, self.misses, self.entries
        )?;
        if self.verify_rejects > 0 {
            write!(f, ", {} verify-rejected", self.verify_rejects)?;
        }
        if self.tune_panics > 0 {
            write!(f, ", {} candidate panic(s)", self.tune_panics)?;
        }
        if self.tune_timeouts > 0 {
            write!(f, ", {} candidate timeout(s)", self.tune_timeouts)?;
        }
        if self.tune_pruned > 0 {
            write!(f, ", {} candidate(s) pruned", self.tune_pruned)?;
        }
        if self.evaluations > 0 {
            write!(f, ", {} evaluations", self.evaluations)?;
        }
        if self.memo_hits + self.memo_misses > 0 {
            write!(
                f,
                ", memo {} hits / {} misses",
                self.memo_hits, self.memo_misses
            )?;
        }
        Ok(())
    }
}

/// Which tier served a compile request; returned by
/// [`KernelCache::try_get_or_compile_program_outcome`] so callers (the
/// autotuners' candidate spans, the compile service's per-request spans
/// and hit-rate accounting) can distinguish the three costs without
/// racing on counter deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileOutcome {
    /// Served from the in-memory map (O(hash)).
    Memory,
    /// Missed memory, loaded and verified from the persistent
    /// [`DiskCache`] (O(read + decode)); now resident in memory too.
    Disk,
    /// Missed everywhere; the pipeline ran (and the result was spilled to
    /// disk when a [`DiskCache`] is attached).
    Compiled,
}

impl CompileOutcome {
    /// Whether the request was served without running the pipeline.
    pub fn is_cache_hit(self) -> bool {
        !matches!(self, CompileOutcome::Compiled)
    }
}

/// A concurrent map from [`ProgramCacheKey`] to the compiled kernel.
pub struct KernelCache {
    shards: Vec<Mutex<HashMap<ProgramCacheKey, Arc<Kernel>>>>,
    /// Optional persistent tier consulted on memory misses and filled on
    /// fresh compiles (see [`KernelCache::with_disk`]).
    disk: Option<Arc<DiskCache>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    races: AtomicU64,
    verify_rejects: AtomicU64,
    tune_panics: AtomicU64,
    tune_timeouts: AtomicU64,
    tune_pruned: AtomicU64,
    evaluations: AtomicU64,
    stages: PassStats,
    memo: CompileMemo,
}

impl Default for KernelCache {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelCache {
    /// An empty cache.
    pub fn new() -> Self {
        // Register the mirrored registry counters up front: a metrics dump
        // always shows them (at zero if nothing happened), so consumers of
        // `lgenc --metrics` can rely on the keys existing.
        for name in [
            "lgen.cache.hits",
            "lgen.cache.misses",
            "lgen.cache.inserts",
            "lgen.cache.races",
            "lgen.cache.verify_rejects",
            "lgen.tune.panics",
            "lgen.tune.timeouts",
            "lgen.tune.candidates_pruned",
        ] {
            lgen_telemetry::counter(name);
        }
        KernelCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            disk: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            races: AtomicU64::new(0),
            verify_rejects: AtomicU64::new(0),
            tune_panics: AtomicU64::new(0),
            tune_timeouts: AtomicU64::new(0),
            tune_pruned: AtomicU64::new(0),
            evaluations: AtomicU64::new(0),
            stages: PassStats::new(),
            memo: CompileMemo::new(),
        }
    }

    /// Attaches a persistent on-disk tier: memory misses consult `disk`
    /// before compiling, and fresh compiles are spilled to it, so a
    /// restarted process warm-starts from the directory. The disk tier is
    /// strictly behind the memory map — a disk hit is promoted into
    /// memory and later lookups never touch the file again.
    pub fn with_disk(mut self, disk: Arc<DiskCache>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The attached persistent tier, if any.
    pub fn disk(&self) -> Option<&Arc<DiskCache>> {
        self.disk.as_ref()
    }

    /// Behaviour counters of the attached persistent tier, if any.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|d| d.stats())
    }

    fn shard(&self, key: &ProgramCacheKey) -> &Mutex<HashMap<ProgramCacheKey, Arc<Kernel>>> {
        let mut h = std::hash::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize & (SHARDS - 1)]
    }

    /// Looks up a kernel without compiling. Counts a hit or a miss.
    pub fn get(&self, key: &ProgramCacheKey) -> Option<Arc<Kernel>> {
        let found = self.shard(key).lock().get(key).cloned();
        match &found {
            Some(_) => self.record_hit(),
            None => self.record_miss(),
        };
        found
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        metric_counter!("lgen.cache.hits").inc();
    }

    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        metric_counter!("lgen.cache.misses").inc();
    }

    /// Returns the cached kernel for `(blac, name, cfg)`, compiling and
    /// inserting it on a miss. Compilation runs outside the shard lock.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.verify` is enabled and compilation fails
    /// verification; use [`try_get_or_compile`](Self::try_get_or_compile)
    /// to handle that case.
    pub fn get_or_compile(&self, blac: &Blac, name: &str, cfg: &CompileConfig) -> Arc<Kernel> {
        self.try_get_or_compile(blac, name, cfg)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`get_or_compile`](Self::get_or_compile) that reports verification
    /// failures instead of panicking. The BLAC is looked up as its
    /// one-statement program, so this shares entries with
    /// [`try_get_or_compile_program`](Self::try_get_or_compile_program).
    pub fn try_get_or_compile(
        &self,
        blac: &Blac,
        name: &str,
        cfg: &CompileConfig,
    ) -> Result<Arc<Kernel>, VerifyFailure> {
        self.lookup(ProgramCacheKey {
            program: Program::from(blac),
            name: name.to_string(),
            cfg: cfg.clone(),
            policies: None,
        })
        .map(|(k, _)| k)
    }

    /// Returns the cached kernel for a whole program, compiling and
    /// inserting it on a miss (`policies` is the optional joint
    /// per-statement unroll genome).
    ///
    /// # Panics
    ///
    /// Panics if the program does not validate or compilation fails
    /// verification.
    pub fn get_or_compile_program(
        &self,
        program: &Program,
        name: &str,
        cfg: &CompileConfig,
        policies: Option<&[UnrollPolicy]>,
    ) -> Arc<Kernel> {
        self.try_get_or_compile_program(program, name, cfg, policies)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`get_or_compile_program`](Self::get_or_compile_program) that
    /// reports verification failures instead of panicking. A kernel that
    /// fails verification is *not* inserted (the failure is not cached —
    /// every retry re-checks) and is counted in
    /// [`CacheStats::verify_rejects`].
    pub fn try_get_or_compile_program(
        &self,
        program: &Program,
        name: &str,
        cfg: &CompileConfig,
        policies: Option<&[UnrollPolicy]>,
    ) -> Result<Arc<Kernel>, VerifyFailure> {
        self.try_get_or_compile_program_outcome(program, name, cfg, policies)
            .map(|(k, _)| k)
    }

    /// [`try_get_or_compile_program`](Self::try_get_or_compile_program)
    /// that reports which tier served the kernel ([`CompileOutcome`]); the
    /// autotuners' per-candidate `cache=hit|miss` tags and the compile
    /// service's hit-rate accounting are built on this.
    pub fn try_get_or_compile_program_outcome(
        &self,
        program: &Program,
        name: &str,
        cfg: &CompileConfig,
        policies: Option<&[UnrollPolicy]>,
    ) -> Result<(Arc<Kernel>, CompileOutcome), VerifyFailure> {
        self.lookup(ProgramCacheKey {
            program: program.clone(),
            name: name.to_string(),
            cfg: cfg.clone(),
            policies: policies.map(|p| p.to_vec()),
        })
    }

    /// The one lookup: memory, then the persistent tier, then a compile
    /// through the cross-candidate memo (for [`CompileMemo::eligible`]
    /// configs — the exact key missed, but the lowering and often the
    /// optimized kernel may be shared with an equivalent candidate, and
    /// the returned `Arc` is then the *same allocation* across all of
    /// them, which the autotuner's evaluation dedup relies on).
    fn lookup(&self, key: ProgramCacheKey) -> Result<(Arc<Kernel>, CompileOutcome), VerifyFailure> {
        if let Some(k) = self.shard(&key).lock().get(&key) {
            self.record_hit();
            return Ok((k.clone(), CompileOutcome::Memory));
        }
        self.record_miss();
        // Consult the persistent tier before paying for the pipeline; a
        // verified disk entry is promoted into the memory map.
        let disk_id = self
            .disk
            .as_ref()
            .map(|d| (d.clone(), stable_fingerprint(&key), format!("{key:?}")));
        if let Some((disk, fp, desc)) = &disk_id {
            if let Some(kernel) = disk.load(*fp, desc) {
                let k = self.promote(key, Arc::new(kernel));
                return Ok((k, CompileOutcome::Disk));
            }
        }
        let compiled = compile_with(
            &key.program,
            &key.name,
            &key.cfg,
            key.policies.as_deref(),
            Some(&self.stages),
            None,
            Some(&self.memo),
        );
        let kernel = match compiled {
            Ok(c) => c.kernel,
            Err(e) => {
                self.record_verify_reject();
                return Err(e);
            }
        };
        if let Some((disk, fp, desc)) = &disk_id {
            disk.store(*fp, desc, &kernel);
        }
        Ok((self.promote(key, kernel), CompileOutcome::Compiled))
    }

    /// Installs a kernel for `key`, deferring to a racing insert (both
    /// kernels are identical; everyone shares the incumbent `Arc`).
    fn promote(&self, key: ProgramCacheKey, kernel: Arc<Kernel>) -> Arc<Kernel> {
        let mut shard = self.shard(&key).lock();
        match shard.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                // Another thread compiled the same point concurrently;
                // everyone shares its (identical) kernel.
                self.races.fetch_add(1, Ordering::Relaxed);
                metric_counter!("lgen.cache.races").inc();
                e.get().clone()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                metric_counter!("lgen.cache.inserts").inc();
                e.insert(kernel).clone()
            }
        }
    }

    /// Inserts a pre-built kernel under an explicit key, replacing any
    /// resident entry. Used to seed a cache with externally produced
    /// kernels (and, in tests, to plant corrupt candidates that exercise
    /// the autotuner's verification gate).
    pub fn insert(&self, key: ProgramCacheKey, kernel: Arc<Kernel>) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        metric_counter!("lgen.cache.inserts").inc();
        self.shard(&key).lock().insert(key, kernel);
    }

    /// Counts a verification rejection decided outside the cache (the
    /// autotuner re-verifies even cache-served kernels before measuring).
    pub fn record_verify_reject(&self) {
        self.verify_rejects.fetch_add(1, Ordering::Relaxed);
        metric_counter!("lgen.cache.verify_rejects").inc();
    }

    /// Counts a tuning candidate whose evaluation panicked (contained by
    /// the fault-tolerant pool).
    pub fn record_tune_panic(&self) {
        self.tune_panics.fetch_add(1, Ordering::Relaxed);
        metric_counter!("lgen.tune.panics").inc();
    }

    /// Counts a tuning candidate abandoned at its deadline or skipped by
    /// an exhausted search budget.
    pub fn record_tune_timeout(&self) {
        self.tune_timeouts.fetch_add(1, Ordering::Relaxed);
        metric_counter!("lgen.tune.timeouts").inc();
    }

    /// Counts `n` tuning candidates the static cost model pruned from the
    /// measured set (`--prune`); they never reached validation or the
    /// simulator.
    pub fn record_tune_pruned(&self, n: u64) {
        self.tune_pruned.fetch_add(n, Ordering::Relaxed);
        metric_counter!("lgen.tune.candidates_pruned").add(n);
    }

    /// Counts a tuning candidate whose validation and measurement ran
    /// (not served from the tuner's evaluation memo).
    pub(crate) fn record_evaluation(&self) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of resident kernels.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Snapshot of the behaviour counters.
    pub fn stats(&self) -> CacheStats {
        let (memo_hits, memo_misses) = self.memo.stats();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            races: self.races.load(Ordering::Relaxed),
            verify_rejects: self.verify_rejects.load(Ordering::Relaxed),
            tune_panics: self.tune_panics.load(Ordering::Relaxed),
            tune_timeouts: self.tune_timeouts.load(Ordering::Relaxed),
            tune_pruned: self.tune_pruned.load(Ordering::Relaxed),
            memo_hits,
            memo_misses,
            evaluations: self.evaluations.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// The cross-candidate compile memo behind this cache (lowering and
    /// optimized-subtree sharing for [`CompileMemo::eligible`] configs).
    pub fn memo(&self) -> &CompileMemo {
        &self.memo
    }

    /// Per-pass dynamic counters for compiles this cache performed: one
    /// row per pass actually run (plus `codegen`), in first-run order.
    pub fn pass_stats(&self) -> &PassStats {
        &self.stages
    }

    /// One coherent snapshot of the behaviour counters *and* the per-pass
    /// timing rows, read back-to-back so `--cache-stats` cannot show a
    /// counter total and a pass table from different moments of a running
    /// `tune_many`.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            stats: self.stats(),
            passes: self.stages.rows(),
            compiles: self.stages.compiles(),
        }
    }
}

/// A single-moment view of a [`KernelCache`]: behaviour counters plus the
/// per-pass timing table, captured together by [`KernelCache::snapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Behaviour counters.
    pub stats: CacheStats,
    /// `(pass name, cumulative nanoseconds, runs)` rows in first-run order.
    pub passes: Vec<(String, u64, u64)>,
    /// Full pipeline runs behind those rows.
    pub compiles: u64,
}

impl fmt::Display for CacheSnapshot {
    /// Renders through the telemetry summary formatter: the counter line,
    /// then each pass row as a pseudo-span so the output shape matches
    /// `--trace-out`'s tree summary.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cache: {}", self.stats)?;
        writeln!(f, "compiles: {}", self.compiles)?;
        writeln!(
            f,
            "memo: {} hits / {} misses",
            self.stats.memo_hits, self.stats.memo_misses
        )?;
        let spans: Vec<lgen_telemetry::SpanRecord> = self
            .passes
            .iter()
            .enumerate()
            .map(|(i, (name, ns, runs))| lgen_telemetry::SpanRecord {
                id: i as u64 + 1,
                parent: None,
                name: name.clone(),
                start_us: 0,
                dur_us: ns / 1_000,
                tid: 0,
                attrs: vec![("runs".to_string(), runs.to_string())],
            })
            .collect();
        f.write_str(&lgen_telemetry::summary_tree(&spans))
    }
}

impl fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgen_isa::Microarch;
    use lgen_ll::paper;

    #[test]
    fn second_compile_is_a_hit_with_identical_kernel() {
        let cache = KernelCache::new();
        let blac = paper::gemv(4, 12);
        let cfg = CompileConfig::full(Microarch::Atom);
        let cold = cache.get_or_compile(&blac, "k", &cfg);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (0, 1, 1, 1));
        let warm = cache.get_or_compile(&blac, "k", &cfg);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        assert!(
            Arc::ptr_eq(&cold, &warm),
            "warm hit must share the cold kernel"
        );
        assert_eq!(*cold, *warm);
        // The pipeline ran exactly once.
        assert_eq!(cache.pass_stats().compiles(), 1);
    }

    #[test]
    fn distinct_configs_and_names_do_not_collide() {
        let cache = KernelCache::new();
        let blac = paper::axpy(16);
        let full = CompileConfig::full(Microarch::Atom);
        let base = CompileConfig::base(Microarch::Atom);
        let a = cache.get_or_compile(&blac, "k", &full);
        let b = cache.get_or_compile(&blac, "k", &base);
        let c = cache.get_or_compile(&blac, "other", &full);
        assert_ne!(*a, *b, "different configs must compile different kernels");
        assert_eq!(c.name, "other");
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn structurally_equal_blacs_share_an_entry() {
        let cache = KernelCache::new();
        let cfg = CompileConfig::full(Microarch::CortexA8);
        let a = cache.get_or_compile(&paper::gemm(4, 8, 4), "k", &cfg);
        let b = cache.get_or_compile(&paper::gemm(4, 8, 4), "k", &cfg);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 1);
        // A different size is a different structure.
        let _ = cache.get_or_compile(&paper::gemm(4, 8, 8), "k", &cfg);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn concurrent_compiles_of_one_point_share_a_kernel() {
        let cache = KernelCache::new();
        let blac = paper::mvm(4, 32);
        let cfg = CompileConfig::full(Microarch::Atom);
        let kernels: Vec<Arc<Kernel>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.get_or_compile(&blac, "k", &cfg)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for k in &kernels[1..] {
            assert!(Arc::ptr_eq(&kernels[0], k));
        }
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.hits + s.misses, 4);
        assert_eq!(s.inserts, 1);
    }

    #[test]
    fn tagged_lookup_reports_hit_and_miss() {
        let cache = KernelCache::new();
        let program = Program::from(&paper::axpy(8));
        let cfg = CompileConfig::full(Microarch::Atom);
        let (cold, o) = cache
            .try_get_or_compile_program_outcome(&program, "k", &cfg, None)
            .unwrap();
        assert!(!o.is_cache_hit());
        let (warm, o) = cache
            .try_get_or_compile_program_outcome(&program, "k", &cfg, None)
            .unwrap();
        assert!(o.is_cache_hit());
        assert!(Arc::ptr_eq(&cold, &warm));
    }

    #[test]
    fn a_blac_and_its_one_statement_program_share_an_entry() {
        let cache = KernelCache::new();
        let blac = paper::gemv(4, 8);
        let cfg = CompileConfig::full(Microarch::Atom);
        let via_blac = cache.try_get_or_compile(&blac, "k", &cfg).unwrap();
        let via_program = cache
            .try_get_or_compile_program(&Program::from(&blac), "k", &cfg, None)
            .unwrap();
        assert!(Arc::ptr_eq(&via_blac, &via_program));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 1, 1));
    }

    #[test]
    fn snapshot_is_coherent_and_prints_pass_rows() {
        let cache = KernelCache::new();
        let blac = paper::gemv(4, 8);
        let cfg = CompileConfig::full(Microarch::Atom);
        cache.get_or_compile(&blac, "k", &cfg);
        cache.get_or_compile(&blac, "k", &cfg);
        let snap = cache.snapshot();
        assert_eq!((snap.stats.hits, snap.stats.misses), (1, 1));
        assert_eq!(snap.compiles, 1);
        let names: Vec<&str> = snap.passes.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["codegen", "unroll", "scalrep", "copyprop", "dce", "align"]
        );
        let text = snap.to_string();
        assert!(text.contains("1 hits / 1 misses"), "{text}");
        assert!(text.contains("codegen"), "{text}");
        assert!(text.contains("runs=1"), "{text}");
    }

    #[test]
    fn cache_counters_mirror_into_the_metrics_registry() {
        let before = lgen_telemetry::counter("lgen.cache.hits").get();
        let cache = KernelCache::new();
        let blac = paper::axpy(12);
        let cfg = CompileConfig::full(Microarch::Atom);
        cache.get_or_compile(&blac, "k", &cfg);
        cache.get_or_compile(&blac, "k", &cfg);
        assert!(lgen_telemetry::counter("lgen.cache.hits").get() > before);
    }

    #[test]
    fn disk_tier_survives_a_cache_restart() {
        let dir = std::env::temp_dir().join(format!("lgen-cache-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gemv = Program::from(&paper::gemv(4, 8));
        let program =
            lgen_ll::parse_program("A = matrix(4, 8)\nx = vector(8)\ny = vector(4)\ny = A * x;")
                .unwrap();
        let cfg = CompileConfig::full(Microarch::Atom);

        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let cache = KernelCache::new().with_disk(disk.clone());
        let (cold, o) = cache
            .try_get_or_compile_program_outcome(&gemv, "k", &cfg, None)
            .unwrap();
        assert_eq!(o, CompileOutcome::Compiled);
        assert!(!o.is_cache_hit());
        let (_, o) = cache
            .try_get_or_compile_program_outcome(&program, "p", &cfg, None)
            .unwrap();
        assert_eq!(o, CompileOutcome::Compiled);
        assert_eq!(disk.stats().persisted, 2);
        let (_, o) = cache
            .try_get_or_compile_program_outcome(&gemv, "k", &cfg, None)
            .unwrap();
        assert_eq!(o, CompileOutcome::Memory, "second lookup stays in memory");

        // "Restart": a fresh in-memory cache over the same directory must
        // warm-start from disk, then keep the promoted entry in memory.
        let disk2 = Arc::new(DiskCache::open(&dir).unwrap());
        let cache2 = KernelCache::new().with_disk(disk2.clone());
        let (warm, o) = cache2
            .try_get_or_compile_program_outcome(&gemv, "k", &cfg, None)
            .unwrap();
        assert_eq!(o, CompileOutcome::Disk);
        assert!(o.is_cache_hit());
        assert_eq!(*cold, *warm, "disk round-trip must preserve the kernel");
        let (_, o) = cache2
            .try_get_or_compile_program_outcome(&program, "p", &cfg, None)
            .unwrap();
        assert_eq!(o, CompileOutcome::Disk);
        let (_, o) = cache2
            .try_get_or_compile_program_outcome(&gemv, "k", &cfg, None)
            .unwrap();
        assert_eq!(o, CompileOutcome::Memory);
        assert_eq!(cache2.disk_stats().unwrap().hits, 2);
        assert_eq!(
            cache2.pass_stats().compiles(),
            0,
            "warm start compiles nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_display_is_informative() {
        let cache = KernelCache::new();
        let blac = paper::axpy(8);
        let cfg = CompileConfig::full(Microarch::Atom);
        cache.get_or_compile(&blac, "k", &cfg);
        cache.get_or_compile(&blac, "k", &cfg);
        let text = cache.stats().to_string();
        assert!(text.contains("1 hits / 1 misses"), "{text}");
        assert!(text.contains("50.0% hit rate"), "{text}");
    }
}
