//! Deterministic fault injection for the tuning stack.
//!
//! A tuner is only as good as its ability to survive bad candidates: a
//! panicking measurement, a hung simulator run, or a corrupt kernel must
//! degrade the search, not abort it. This module provides the test
//! harness that *proves* that: a [`FaultPlan`] deterministically makes
//! chosen candidates panic, hang, or produce corrupt C-IR, keyed by the
//! candidate's index in the tuner's list of distinct kernels — the same
//! index the worker pool uses, so injection is identical for any width.
//!
//! Like static verification (`LGEN_VERIFY`), injection is env-gated:
//! `LGEN_FAULTS="panic@1,corrupt@2,hang@3:250ms"` makes candidate 1
//! panic, candidate 2 compile to out-of-bounds C-IR, and candidate 3
//! stall for 250 ms before evaluating. CI drives `lgenc --tune` under
//! such a plan and greps the failure summary, keeping the degradation
//! path wired end to end.

use lgen_cir::{AInst, Kernel};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// What a fault does to the candidate it targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The evaluation panics before compiling anything.
    Panic,
    /// The evaluation stalls for the given duration before proceeding —
    /// a candidate that hangs past its deadline (or is merely
    /// pathologically slow when no deadline is set).
    Hang(Duration),
    /// Compilation succeeds but the kernel's C-IR is corrupted (an
    /// out-of-bounds load), so static verification rejects it — and the
    /// numeric check traps it when verification is off. Corrupt
    /// candidates compile outside the shared
    /// [`KernelCache`](crate::cache::KernelCache), so they can never
    /// poison it.
    CorruptIr,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Hang(d) => write!(f, "hang({d:?})"),
            FaultKind::CorruptIr => write!(f, "corrupt"),
        }
    }
}

/// A deterministic per-candidate fault schedule (empty = no injection).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, FaultKind>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects any fault at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of candidates the plan targets.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Makes candidate `index` panic.
    #[must_use]
    pub fn panic_at(mut self, index: usize) -> Self {
        self.faults.insert(index, FaultKind::Panic);
        self
    }

    /// Makes candidate `index` stall for `delay` before evaluating.
    #[must_use]
    pub fn hang_at(mut self, index: usize, delay: Duration) -> Self {
        self.faults.insert(index, FaultKind::Hang(delay));
        self
    }

    /// Makes candidate `index` compile to corrupt C-IR.
    #[must_use]
    pub fn corrupt_at(mut self, index: usize) -> Self {
        self.faults.insert(index, FaultKind::CorruptIr);
        self
    }

    /// The fault (if any) scheduled for candidate `index`.
    pub fn kind(&self, index: usize) -> Option<FaultKind> {
        self.faults.get(&index).copied()
    }

    /// Indices the plan targets, ascending.
    pub fn targets(&self) -> impl Iterator<Item = usize> + '_ {
        self.faults.keys().copied()
    }

    /// Reads the `LGEN_FAULTS` environment variable. The grammar is a
    /// comma-separated list of `panic@<i>`, `corrupt@<i>`, and
    /// `hang@<i>[:<ms>ms|<s>s]` entries (hang defaults to one second).
    /// Unset or empty means no injection; a malformed entry is ignored
    /// (fault injection must never break a production run).
    pub fn from_env() -> Self {
        match std::env::var("LGEN_FAULTS") {
            Ok(spec) => Self::parse(&spec),
            Err(_) => FaultPlan::default(),
        }
    }

    /// Parses the `LGEN_FAULTS` grammar (see [`from_env`](Self::from_env)).
    pub fn parse(spec: &str) -> Self {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let Some((kind, rest)) = entry.split_once('@') else {
                continue;
            };
            match kind {
                "panic" => {
                    if let Ok(i) = rest.parse() {
                        plan = plan.panic_at(i);
                    }
                }
                "corrupt" => {
                    if let Ok(i) = rest.parse() {
                        plan = plan.corrupt_at(i);
                    }
                }
                "hang" => {
                    let (idx, delay) = match rest.split_once(':') {
                        Some((i, d)) => (i, parse_duration(d)),
                        None => (rest, Some(Duration::from_secs(1))),
                    };
                    if let (Ok(i), Some(d)) = (idx.parse(), delay) {
                        plan = plan.hang_at(i, d);
                    }
                }
                _ => {}
            }
        }
        plan
    }
}

/// Parses `<n>ms`, `<n>s`, or a bare integer (milliseconds). Shared with
/// `lgenc`'s `--tune-deadline`/`--tune-budget` flags.
pub fn parse_duration(s: &str) -> Option<Duration> {
    let s = s.trim();
    if let Some(ms) = s.strip_suffix("ms") {
        return ms.trim().parse().ok().map(Duration::from_millis);
    }
    if let Some(secs) = s.strip_suffix('s') {
        return secs.trim().parse().ok().map(Duration::from_secs);
    }
    s.parse().ok().map(Duration::from_millis)
}

/// Corrupts a compiled kernel in place so that static verification
/// rejects it: the first generic load's address is pushed far out of
/// bounds (the same mutation the verifier's own coverage tests use).
/// Falls back to corrupting the declared length of the first array if the
/// kernel contains no load at all.
pub(crate) fn corrupt_kernel(kernel: &mut Kernel) {
    for version in &mut kernel.versions {
        let mut first_load = None;
        version.arena.visit(version.root, &mut |id, inst| {
            if first_load.is_none() && matches!(inst, AInst::GLoad { .. }) {
                first_load = Some(id);
            }
        });
        if let Some(id) = first_load {
            version.arena.offset_access(id, 1_000_000);
            return;
        }
    }
    if let Some(a) = kernel.arrays.first_mut() {
        a.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompileConfig;
    use crate::pipeline::compile;
    use lgen_cir::verify_kernel;
    use lgen_isa::Microarch;
    use lgen_ll::paper;

    #[test]
    fn parse_round_trips_the_ci_grammar() {
        let plan = FaultPlan::parse("panic@1, corrupt@3,hang@5:250ms,hang@7");
        assert_eq!(plan.kind(1), Some(FaultKind::Panic));
        assert_eq!(plan.kind(3), Some(FaultKind::CorruptIr));
        assert_eq!(
            plan.kind(5),
            Some(FaultKind::Hang(Duration::from_millis(250)))
        );
        assert_eq!(plan.kind(7), Some(FaultKind::Hang(Duration::from_secs(1))));
        assert_eq!(plan.kind(0), None);
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn malformed_entries_are_ignored() {
        let plan = FaultPlan::parse("panic@x,boom@2,hang@1:abc,,corrupt@2");
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.kind(2), Some(FaultKind::CorruptIr));
        assert!(FaultPlan::parse("").is_empty());
    }

    #[test]
    fn parse_duration_accepts_ms_s_and_bare_integers() {
        assert_eq!(parse_duration("250ms"), Some(Duration::from_millis(250)));
        assert_eq!(parse_duration("2s"), Some(Duration::from_secs(2)));
        assert_eq!(parse_duration("40"), Some(Duration::from_millis(40)));
        assert_eq!(parse_duration("nope"), None);
        assert_eq!(parse_duration(""), None);
    }

    #[test]
    fn corrupt_kernel_fails_verification() {
        let blac = paper::gemv(4, 12);
        let mut kernel = compile(&blac, "k", &CompileConfig::full(Microarch::Atom));
        assert!(verify_kernel(&kernel).is_empty(), "clean kernel verifies");
        corrupt_kernel(&mut kernel);
        assert!(
            !verify_kernel(&kernel).is_empty(),
            "corrupted kernel must fail verification"
        );
    }
}
