//! Verifier diagnostics with a stable text rendering.
//!
//! Every report from [`crate::verify`] is a [`Diagnostic`]: which check
//! fired, where (kernel version + flat pre-order instruction index), and
//! the structured payload that triggered it — the array, the register,
//! and/or the abstract value of the offending index expression. The
//! `Display` format is stable so diagnostics can be snapshotted in golden
//! tests and printed by `lgenc --verify`.

use crate::ir::{ArrayId, VReg};
use lgen_absint::interval::Bound;
use lgen_absint::{AbstractDomain, Congruence, Interval, IntervalCongruence};
use std::fmt;

/// Which verifier check produced a diagnostic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Check {
    /// A register (or one of its lanes) is read before any instruction
    /// defines it.
    UseBeforeDef,
    /// A load/store may touch an index outside the array (plus the
    /// interpreter's safety padding).
    OutOfBounds,
    /// Vector-width/lane inconsistency: an operation names a lane outside
    /// `[0, 2ν)` or reads lanes its operands never defined.
    LaneConsistency,
    /// A surviving load from a local array reads elements no store may have
    /// written (e.g. scalar replacement forwarded the store away but left
    /// the load behind).
    LocalDataflow,
    /// Malformed kernel structure: non-positive loop step, missing
    /// fallback version, an address over an unbound loop variable, …
    Structure,
}

impl Check {
    /// Short stable code used in the rendered diagnostic.
    pub fn code(self) -> &'static str {
        match self {
            Check::UseBeforeDef => "use-before-def",
            Check::OutOfBounds => "oob",
            Check::LaneConsistency => "lane",
            Check::LocalDataflow => "local-dataflow",
            Check::Structure => "structure",
        }
    }
}

/// A single verifier report.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// The check that fired.
    pub check: Check,
    /// Kernel version index the instruction lives in.
    pub version: usize,
    /// Flat pre-order instruction index within the version (loop headers
    /// count as one instruction, then their body).
    pub inst: usize,
    /// Short opcode description of the offending instruction.
    pub opcode: String,
    /// Human-readable explanation with the triggering values inlined.
    pub detail: String,
    /// The array involved, if any.
    pub array: Option<ArrayId>,
    /// The register involved, if any.
    pub reg: Option<VReg>,
    /// The abstract index value that triggered the report, if any.
    pub value: Option<IntervalCongruence>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}] v{} #{} ({}): {}",
            self.check.code(),
            self.version,
            self.inst,
            self.opcode,
            self.detail
        )
    }
}

/// Renders a batch of diagnostics, one per line, in instruction order.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Renders an abstract value as `c+mZ in [lo, hi]` (ASCII, stable). Used in
/// diagnostic details so the report shows exactly what the analysis knew.
pub(crate) fn render_value(v: &IntervalCongruence) -> String {
    if v.is_bottom() {
        return "bottom".into();
    }
    let con = match v.congruence() {
        Congruence::Bottom => "bottom".into(),
        Congruence::Class { c, m: 0 } => format!("{c}"),
        Congruence::Class { c, m } => format!("{c}+{m}Z"),
    };
    let bound = |b: Option<Bound>| match b {
        Some(Bound::Finite(x)) => format!("{x}"),
        Some(Bound::NegInf) => "-inf".into(),
        Some(Bound::PosInf) => "+inf".into(),
        None => "?".into(),
    };
    match v.interval() {
        Interval::Bottom => "bottom".into(),
        iv => format!("{} in [{}, {}]", con, bound(iv.lo()), bound(iv.hi())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_stable() {
        let d = Diagnostic {
            check: Check::OutOfBounds,
            version: 0,
            inst: 3,
            opcode: "GStore".into(),
            detail: "store to `y` index 8+4Z in [8, 16] exceeds len 4 (+4 pad)".into(),
            array: Some(ArrayId(1)),
            reg: None,
            value: Some(IntervalCongruence::constant(8)),
        };
        assert_eq!(
            d.to_string(),
            "error[oob] v0 #3 (GStore): store to `y` index 8+4Z in [8, 16] exceeds len 4 (+4 pad)"
        );
        assert_eq!(render(&[d.clone(), d]).lines().count(), 2);
    }

    #[test]
    fn value_rendering() {
        assert_eq!(
            render_value(&IntervalCongruence::constant(7)),
            "7 in [7, 7]"
        );
        assert_eq!(render_value(&IntervalCongruence::bottom()), "bottom");
        let v = IntervalCongruence::new(Interval::range(0, 12), Congruence::modulo(0, 4));
        assert_eq!(render_value(&v), "0+4Z in [0, 12]");
        let top = IntervalCongruence::top();
        assert_eq!(render_value(&top), "0+1Z in [-inf, +inf]");
    }
}
