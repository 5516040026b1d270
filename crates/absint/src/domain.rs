//! The abstract-domain interface.
//!
//! An abstract domain is a complete lattice `(L', ⊑, ⊓, ⊔)` connected to the
//! concrete domain `P(Z)` by a Galois connection `(α, γ)` (paper §2.3.2).
//! Every domain in this crate exposes the lattice operators together with
//! abstract transfer functions for the two arithmetic operators that occur in
//! LGen-generated address expressions: addition and multiplication.

use std::fmt::Debug;

/// A complete lattice with abstract semantics for `+` and `*` over integers.
///
/// Implementations must be *sound*: for all abstract values `a`, `b` and all
/// concrete `x ∈ γ(a)`, `y ∈ γ(b)`, it must hold that `x + y ∈ γ(a.add(b))`
/// and `x * y ∈ γ(a.mul(b))`. The property tests in each domain module check
/// this on randomly drawn concretizations.
///
/// # Example
///
/// ```
/// use lgen_absint::AbstractDomain;
/// use lgen_absint::interval::Interval;
///
/// let a = Interval::constant(3);
/// let b = Interval::range(0, 4);
/// assert_eq!(a.add(&b), Interval::range(3, 7));
/// ```
pub trait AbstractDomain: Clone + PartialEq + Eq + Debug {
    /// The least element `⊥` (empty concretization).
    fn bottom() -> Self;

    /// The greatest element `⊤` (concretization is all of `Z`).
    fn top() -> Self;

    /// The abstraction of the singleton set `{c}` (i.e. `α({c})`).
    fn constant(c: i64) -> Self;

    /// Whether this value is `⊥`.
    fn is_bottom(&self) -> bool {
        *self == Self::bottom()
    }

    /// Whether this value is `⊤`.
    fn is_top(&self) -> bool {
        *self == Self::top()
    }

    /// The partial order `⊑`.
    fn le(&self, other: &Self) -> bool;

    /// Least upper bound `⊔`.
    fn join(&self, other: &Self) -> Self;

    /// Greatest lower bound `⊓`.
    fn meet(&self, other: &Self) -> Self;

    /// Abstract addition.
    fn add(&self, other: &Self) -> Self;

    /// Abstract multiplication.
    fn mul(&self, other: &Self) -> Self;

    /// Membership test for the concretization: `v ∈ γ(self)`.
    ///
    /// Used by tests to validate soundness; it is not part of the analysis
    /// itself.
    fn gamma_contains(&self, v: i64) -> bool;

    /// Widening operator `∇`.
    ///
    /// Defaults to [`join`](Self::join), which is a valid widening for
    /// finite-height domains (Congruence). The Interval domain
    /// overrides this with the classic unstable-bound-to-infinity widening so
    /// that fixpoint iteration terminates quickly on long loops.
    fn widen(&self, other: &Self) -> Self {
        self.join(other)
    }
}

/// Checks the three Galois-connection-derived lattice laws on a triple of
/// values; used by the property tests of each domain.
///
/// Returns an error string naming the violated law, if any.
#[cfg(test)]
pub(crate) fn check_lattice_laws<D: AbstractDomain>(a: &D, b: &D, c: &D) -> Result<(), String> {
    // join is an upper bound
    if !a.le(&a.join(b)) || !b.le(&a.join(b)) {
        return Err(format!("join not an upper bound for {a:?} {b:?}"));
    }
    // meet is a lower bound
    if !a.meet(b).le(a) || !a.meet(b).le(b) {
        return Err(format!("meet not a lower bound for {a:?} {b:?}"));
    }
    // bottom/top extremes
    if !D::bottom().le(a) || !a.le(&D::top()) {
        return Err(format!("bottom/top law violated for {a:?}"));
    }
    // join monotone w.r.t. le (weak check via associativity-ish sample)
    let ab = a.join(b);
    if !ab.le(&ab.join(c)) {
        return Err(format!("join monotonicity violated for {a:?} {b:?} {c:?}"));
    }
    Ok(())
}
