//! The pass manager: the C-IR optimization schedule as data.
//!
//! The code-level optimizations of §2.1.4/§3.1/§3.2 make up one schedule,
//! and that schedule is a [`PassPipeline`] *value*: buildable from a spec
//! string such as
//!
//! ```text
//! unroll,scalrep,repeat(copyprop,dce),align
//! ```
//!
//! serializable back to that string ([`PassPipeline::to_spec`]), stably
//! fingerprintable for cache keys ([`PassPipeline::fingerprint`]), and
//! runnable ([`PassPipeline::run`]). A run applies every pass as a linear
//! index sweep over the kernel's own arena ([`crate::arena`]); callers
//! with stages of their own around the schedule (the per-statement unroll
//! genome) run them through [`PassCtx::stage`] too. One step loop owns
//! the machinery around each pass:
//!
//! * **per-pass wall-clock accounting** into a telemetry span and a
//!   dynamic [`PassStats`] table (one row per pass actually run, in
//!   first-run order);
//! * **fixpoint combinators** — [`PipelineStep::Repeat`] reruns its body
//!   until no pass reports a change (capped at [`MAX_FIXPOINT_ITERS`]);
//! * **observers** — when a [`PassTrace`] sink (`--print-after-all`) or
//!   [`VerifyLevel::EveryPass`] is set, the kernel is snapshotted and
//!   verified under the pass's name after every pass. Pipeline
//!   *boundary* checks remain the caller's, so failure attribution
//!   matches the compile pipeline's stages.

use super::UnrollPolicy;
use crate::arena::{self, Arena, BlockId};
use crate::ir::{ArrayDecl, Kernel};
use crate::unparse::unparse;
use crate::verify::{verify_stage, VerifyFailure, VerifyLevel};
use lgen_isa::VectorIsa;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Iteration cap for [`PipelineStep::Repeat`]: a repeat block that has not
/// reached a fixpoint after this many rounds stops anyway (every pass is a
/// semantics preserver, so stopping early is always sound).
pub(crate) const MAX_FIXPOINT_ITERS: usize = 8;

/// Shared context a pipeline run threads through every pass.
///
/// The pipeline spec is pure *ordering* data; pass parameters that the
/// autotuner searches independently (the unrolling decision) or that are
/// fixed per compilation (the target ISA, the verification level) live
/// here instead of in the spec.
#[derive(Clone, Copy, Debug)]
pub struct PassCtx<'a> {
    /// Unrolling decision for the `unroll` pass.
    pub unroll: UnrollPolicy,
    /// Verification between passes: at [`VerifyLevel::EveryPass`] the
    /// manager re-verifies the kernel after every pass execution (interior
    /// checks; boundary checks are the caller's).
    pub verify: VerifyLevel,
    /// Target ISA, used to render [`PassTrace`] snapshots.
    pub isa: VectorIsa,
    /// Per-pass wall-clock accounting sink.
    pub stats: Option<&'a PassStats>,
    /// `--print-after-all` snapshot sink.
    pub trace: Option<&'a PassTrace>,
}

impl PassCtx<'_> {
    /// A context with the given unrolling decision and everything else
    /// off: no verification, scalar ISA for traces, no sinks.
    pub fn new(unroll: UnrollPolicy) -> Self {
        PassCtx {
            unroll,
            verify: VerifyLevel::Off,
            isa: VectorIsa::Scalar,
            stats: None,
            trace: None,
        }
    }

    /// Applies stage `name` to the body of the unversioned `kernel`:
    /// `apply` runs on the body's arena under a telemetry span with its
    /// time added to `stats`, and then the trace sink records the kernel
    /// and [`VerifyLevel::EveryPass`] verifies it, failures naming `name`.
    /// Returns `apply`'s verdict on whether the IR changed.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has alignment versions.
    pub fn stage(
        &self,
        name: &'static str,
        kernel: &mut Kernel,
        apply: impl FnOnce(&mut Arena, BlockId, &[ArrayDecl]) -> bool,
    ) -> Result<bool, VerifyFailure> {
        assert_eq!(kernel.versions.len(), 1, "kernel has alignment versions");
        let mut span = lgen_telemetry::span(name);
        let t = Instant::now();
        let body = &mut kernel.versions[0];
        let changed = apply(&mut body.arena, body.root, &kernel.arrays);
        let ns = t.elapsed().as_nanos() as u64;
        if span.is_recording() {
            span.attr("pass_ns", ns);
            span.attr("changed", changed);
        }
        drop(span);
        if let Some(stats) = self.stats {
            stats.record(name, ns);
        }
        if let Some(trace) = self.trace {
            trace.record(name, kernel, self.isa);
        }
        verify_stage(name, kernel, self.verify, false)?;
        Ok(changed)
    }
}

/// Every schedulable pass by canonical spec-string name, in canonical
/// order.
pub const PASS_NAMES: [&str; 5] = ["unroll", "scalrep", "copyprop", "dce", "align"];

/// Resolves a spec-string name (canonical or alias) to its canonical name.
/// Aliases accept the hyphenated long names the verifier stages use.
pub(crate) fn pass_by_name(name: &str) -> Option<&'static str> {
    let canonical = match name {
        "scalar-replacement" => "scalrep",
        "copy-prop" => "copyprop",
        "alignment" => "align",
        other => other,
    };
    PASS_NAMES.into_iter().find(|&p| p == canonical)
}

/// One step of a [`PassPipeline`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PipelineStep {
    /// Run a pass once (a canonical name from [`PASS_NAMES`]).
    Pass(&'static str),
    /// Run the inner steps repeatedly until none of them changes the
    /// kernel (capped at `MAX_FIXPOINT_ITERS` rounds).
    Repeat(Vec<PipelineStep>),
}

/// Error parsing a pipeline spec string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PipelineSpecError {
    /// Human-readable description of what was wrong.
    pub message: String,
}

impl fmt::Display for PipelineSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pass pipeline spec: {}", self.message)
    }
}

impl std::error::Error for PipelineSpecError {}

/// An optimization schedule as a value: an ordered list of
/// [`PipelineStep`]s.
///
/// Equality, hashing, and [`fingerprint`](Self::fingerprint) are all
/// structural, so a pipeline can serve as (part of) a kernel-cache key;
/// [`to_spec`](Self::to_spec)/[`parse`](Self::parse) round-trip exactly.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PassPipeline {
    steps: Vec<PipelineStep>,
}

impl Default for PassPipeline {
    fn default() -> Self {
        Self::standard()
    }
}

impl PassPipeline {
    /// The standard LGen schedule: `unroll,scalrep,copyprop,dce,align`.
    pub fn standard() -> Self {
        PassPipeline {
            steps: PASS_NAMES.map(PipelineStep::Pass).into(),
        }
    }

    /// A pipeline that runs nothing.
    pub fn empty() -> Self {
        PassPipeline { steps: Vec::new() }
    }

    /// Whether the pipeline has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The top-level steps.
    pub fn steps(&self) -> &[PipelineStep] {
        &self.steps
    }

    /// Parses a spec string: comma-separated pass names (canonical or
    /// alias) and `repeat(...)` groups, nestable. The empty string is the
    /// empty pipeline.
    pub fn parse(spec: &str) -> Result<Self, PipelineSpecError> {
        let mut tokens = tokenize(spec)?;
        tokens.reverse(); // pop() from the front
        let steps = parse_steps(&mut tokens, false)?;
        if let Some(t) = tokens.pop() {
            return Err(PipelineSpecError {
                message: format!("unexpected `{t}` after end of pipeline"),
            });
        }
        Ok(PassPipeline { steps })
    }

    /// Serializes back to the canonical spec string
    /// (`parse(p.to_spec()) == p`).
    pub fn to_spec(&self) -> String {
        fn write_steps(steps: &[PipelineStep], out: &mut String) {
            for (i, step) in steps.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match step {
                    PipelineStep::Pass(name) => out.push_str(name),
                    PipelineStep::Repeat(inner) => {
                        out.push_str("repeat(");
                        write_steps(inner, out);
                        out.push(')');
                    }
                }
            }
        }
        let mut out = String::new();
        write_steps(&self.steps, &mut out);
        out
    }

    /// A stable 64-bit fingerprint of the schedule (FNV-1a over the
    /// canonical spec), usable in content-addressed cache keys across
    /// processes.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_spec().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Whether the pipeline schedules `name` anywhere (aliases accepted,
    /// repeat groups included).
    pub fn contains(&self, name: &str) -> bool {
        fn search(steps: &[PipelineStep], name: &str) -> bool {
            steps.iter().any(|s| match s {
                PipelineStep::Pass(n) => *n == name,
                PipelineStep::Repeat(inner) => search(inner, name),
            })
        }
        pass_by_name(name).is_some_and(|n| search(&self.steps, n))
    }

    /// A copy with every occurrence of `name` removed (repeat groups that
    /// become empty are dropped). Unknown names remove nothing.
    #[must_use]
    pub fn without(&self, name: &str) -> Self {
        let Some(canonical) = pass_by_name(name) else {
            return self.clone();
        };
        fn filter(steps: &[PipelineStep], name: &str) -> Vec<PipelineStep> {
            steps
                .iter()
                .filter_map(|s| match s {
                    PipelineStep::Pass(n) if *n == name => None,
                    PipelineStep::Pass(n) => Some(PipelineStep::Pass(n)),
                    PipelineStep::Repeat(inner) => {
                        let inner = filter(inner, name);
                        (!inner.is_empty()).then_some(PipelineStep::Repeat(inner))
                    }
                })
                .collect()
        }
        PassPipeline {
            steps: filter(&self.steps, canonical),
        }
    }

    /// Runs the schedule on an unversioned kernel, in place on its arena:
    /// times every pass into `ctx.stats`, drives `repeat(...)` fixpoints,
    /// and hands the kernel to the observers (`ctx.trace`,
    /// [`VerifyLevel::EveryPass`]) after every pass.
    ///
    /// Boundary verification (the codegen input and the final kernel) is
    /// deliberately left to the caller so its failure attribution matches
    /// the surrounding driver stages.
    pub fn run(&self, kernel: &mut Kernel, ctx: &PassCtx) -> Result<(), VerifyFailure> {
        run_steps(&self.steps, kernel, ctx).map(drop)
    }
}

impl fmt::Display for PassPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_spec())
    }
}

impl FromStr for PassPipeline {
    type Err = PipelineSpecError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Applies pass `name` to the body at `root`; returns whether it changed.
fn apply_pass(
    name: &str,
    a: &mut Arena,
    root: BlockId,
    arrays: &[ArrayDecl],
    policy: UnrollPolicy,
) -> bool {
    match name {
        "unroll" => arena::unroll_block(a, root, policy),
        "scalrep" => arena::scalar_replacement_block(a, root, arrays),
        "copyprop" => arena::copy_prop_block(a, root),
        "dce" => arena::dce_block(a, root, arrays),
        "align" => arena::align_block(a, root, &vec![Some(0); arrays.len()]),
        other => unreachable!("unknown pass `{other}`"),
    }
}

/// The one step loop: executes `steps` in order, each pass a
/// [`PassCtx::stage`]; returns whether anything changed.
fn run_steps(
    steps: &[PipelineStep],
    kernel: &mut Kernel,
    ctx: &PassCtx,
) -> Result<bool, VerifyFailure> {
    let mut changed_any = false;
    for step in steps {
        match step {
            PipelineStep::Pass(name) => {
                changed_any |= ctx.stage(name, kernel, |a, root, arrays| {
                    apply_pass(name, a, root, arrays, ctx.unroll)
                })?;
            }
            PipelineStep::Repeat(inner) => {
                for _ in 0..MAX_FIXPOINT_ITERS {
                    let changed = run_steps(inner, kernel, ctx)?;
                    changed_any |= changed;
                    if !changed {
                        break;
                    }
                }
            }
        }
    }
    Ok(changed_any)
}

/// Spec tokens: pass names, `repeat`, `(`, `)`, `,`.
fn tokenize(spec: &str) -> Result<Vec<String>, PipelineSpecError> {
    let mut tokens = Vec::new();
    let mut word = String::new();
    for c in spec.chars() {
        match c {
            '(' | ')' | ',' => {
                if !word.is_empty() {
                    tokens.push(std::mem::take(&mut word));
                }
                tokens.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !word.is_empty() {
                    tokens.push(std::mem::take(&mut word));
                }
            }
            c if c.is_ascii_alphanumeric() || c == '-' || c == '_' => word.push(c),
            c => {
                return Err(PipelineSpecError {
                    message: format!("unexpected character `{c}`"),
                })
            }
        }
    }
    if !word.is_empty() {
        tokens.push(word);
    }
    Ok(tokens)
}

/// Parses a comma-separated step list from a reversed token stack; stops
/// at `)` (consuming it) when `in_group`.
fn parse_steps(
    tokens: &mut Vec<String>,
    in_group: bool,
) -> Result<Vec<PipelineStep>, PipelineSpecError> {
    let mut steps = Vec::new();
    loop {
        match tokens.pop() {
            None if in_group => {
                return Err(PipelineSpecError {
                    message: "unclosed `repeat(`".into(),
                })
            }
            None => return Ok(steps),
            Some(t) if t == ")" && in_group => {
                if steps.is_empty() {
                    return Err(PipelineSpecError {
                        message: "`repeat()` must contain at least one pass".into(),
                    });
                }
                return Ok(steps);
            }
            Some(t) if t == "repeat" => {
                match tokens.pop() {
                    Some(p) if p == "(" => {}
                    _ => {
                        return Err(PipelineSpecError {
                            message: "`repeat` must be followed by `(`".into(),
                        })
                    }
                }
                steps.push(PipelineStep::Repeat(parse_steps(tokens, true)?));
                expect_separator(tokens, in_group)?;
            }
            Some(t) if t == "," || t == "(" || t == ")" => {
                return Err(PipelineSpecError {
                    message: format!("unexpected `{t}`"),
                })
            }
            Some(name) => {
                let pass = pass_by_name(&name).ok_or_else(|| PipelineSpecError {
                    message: format!("unknown pass `{name}` (known: {})", PASS_NAMES.join(", ")),
                })?;
                steps.push(PipelineStep::Pass(pass));
                expect_separator(tokens, in_group)?;
            }
        }
        // expect_separator consumed a `,`; loop for the next step. A `)` or
        // end-of-input was pushed back and handled above.
    }
}

/// After a step: consume `,`, or push back a group-closing `)`, or accept
/// end of input.
fn expect_separator(tokens: &mut Vec<String>, in_group: bool) -> Result<(), PipelineSpecError> {
    match tokens.pop() {
        None if !in_group => Ok(()),
        None => Err(PipelineSpecError {
            message: "unclosed `repeat(`".into(),
        }),
        Some(t) if t == "," => Ok(()),
        Some(t) if t == ")" && in_group => {
            tokens.push(t);
            Ok(())
        }
        Some(t) => Err(PipelineSpecError {
            message: format!("expected `,` but found `{t}`"),
        }),
    }
}

/// Cumulative per-pass wall-clock accounting: one dynamic row per pass
/// actually run (plus driver-recorded stages such as `codegen`), in
/// first-run order. Shared by reference across worker threads; rows are
/// totals, not a trace.
#[derive(Debug, Default)]
pub struct PassStats {
    rows: Mutex<Vec<PassStatsRow>>,
    compiles: AtomicU64,
}

#[derive(Debug, Clone)]
struct PassStatsRow {
    name: String,
    ns: u64,
    runs: u64,
}

impl PassStats {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one run of `name` taking `ns` nanoseconds.
    ///
    /// Stats/trace locks swallow poisoning: a panicking candidate sharing
    /// this `PassStats` with a long-running service must cost at most its
    /// own request, never wedge later compiles on a poisoned lock (the
    /// guarded state is append-only rows, safe to read after any panic).
    pub fn record(&self, name: &str, ns: u64) {
        let mut rows = self
            .rows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match rows.iter_mut().find(|r| r.name == name) {
            Some(row) => {
                row.ns += ns;
                row.runs += 1;
            }
            None => rows.push(PassStatsRow {
                name: name.to_string(),
                ns,
                runs: 1,
            }),
        }
    }

    /// Counts one full pipeline run.
    pub fn record_compile(&self) {
        self.compiles.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of full pipeline runs recorded.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// `(pass name, cumulative nanoseconds, runs)` rows in first-run
    /// order — one row per pass actually run.
    pub fn rows(&self) -> Vec<(String, u64, u64)> {
        self.rows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|r| (r.name.clone(), r.ns, r.runs))
            .collect()
    }
}

/// `--print-after-all` sink: the IR (as C-with-intrinsics text) after each
/// recorded stage, in execution order.
#[derive(Debug, Default)]
pub struct PassTrace {
    snaps: Mutex<Vec<(String, String)>>,
}

impl PassTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the kernel as it stands after `stage`.
    pub fn record(&self, stage: &str, kernel: &Kernel, isa: VectorIsa) {
        self.snaps
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((stage.to_string(), unparse(kernel, isa)));
    }

    /// `(stage, rendered IR)` snapshots in execution order.
    pub fn snapshots(&self) -> Vec<(String, String)> {
        self.snaps
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_resolves_aliases() {
        let spec = "unroll,scalrep,repeat(copyprop,dce),align";
        let p = PassPipeline::parse(spec).unwrap();
        assert_eq!(p.to_spec(), spec);
        assert_eq!(PassPipeline::parse(&p.to_spec()).unwrap(), p);
        // Aliases canonicalize.
        let long =
            PassPipeline::parse("unroll, scalar-replacement, repeat(copy-prop, dce), alignment")
                .unwrap();
        assert_eq!(long, p);
        // Standard order matches the issue's default spec.
        assert_eq!(
            PassPipeline::standard().to_spec(),
            "unroll,scalrep,copyprop,dce,align"
        );
        assert_eq!(
            PassPipeline::parse("unroll,scalrep,copyprop,dce,align").unwrap(),
            PassPipeline::standard()
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "unroll,,dce",
            "nosuchpass",
            "repeat(unroll",
            "repeat()",
            "repeat",
            "unroll)",
            "unroll dce",
            "unroll,repeat(dce))",
            "unroll;dce",
        ] {
            assert!(PassPipeline::parse(bad).is_err(), "`{bad}` must not parse");
        }
        let err = PassPipeline::parse("nosuchpass").unwrap_err();
        assert!(err.to_string().contains("unknown pass"), "{err}");
        assert!(err.to_string().contains("scalrep"), "{err}");
    }

    #[test]
    fn empty_spec_is_the_empty_pipeline() {
        let p = PassPipeline::parse("").unwrap();
        assert!(p.is_empty());
        assert_eq!(p.to_spec(), "");
        assert_eq!(p, PassPipeline::empty());
    }

    #[test]
    fn fingerprints_are_stable_and_spec_sensitive() {
        let a = PassPipeline::standard();
        assert_eq!(a.fingerprint(), PassPipeline::standard().fingerprint());
        let b = a.without("align");
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = PassPipeline::parse("unroll,scalrep,repeat(copyprop,dce),align").unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // The fingerprint is content-addressed: independent of process
        // state (spot-check the FNV of the standard spec).
        assert_eq!(a.fingerprint(), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in "unroll,scalrep,copyprop,dce,align".bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        });
    }

    #[test]
    fn contains_and_without_descend_into_repeats() {
        let p = PassPipeline::parse("unroll,repeat(copyprop,dce),align").unwrap();
        assert!(p.contains("dce"));
        assert!(p.contains("alignment")); // alias
        assert!(!p.contains("scalrep"));
        let no_dce = p.without("dce");
        assert_eq!(no_dce.to_spec(), "unroll,repeat(copyprop),align");
        let no_align = p.without("alignment");
        assert_eq!(no_align.to_spec(), "unroll,repeat(copyprop,dce)");
        // Removing every pass of a repeat drops the group entirely.
        let gutted = p.without("copyprop").without("dce");
        assert_eq!(gutted.to_spec(), "unroll,align");
        // Unknown names are a no-op.
        assert_eq!(p.without("nosuchpass"), p);
    }

    #[test]
    fn registry_knows_every_standard_pass() {
        for name in ["unroll", "scalrep", "copyprop", "dce", "align"] {
            assert_eq!(pass_by_name(name), Some(name), "`{name}` not registered");
        }
        assert!(pass_by_name("nosuchpass").is_none());
        assert_eq!(PASS_NAMES.len(), 5);
    }
}
