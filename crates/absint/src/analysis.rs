//! Loop-index fixpoints and affine address evaluation (§2.3.2, §3.2.2).
//!
//! LGen's generated code has the fixed shape of the paper's Listing 3.1: a
//! nest of `for` loops with *constant* bounds and steps, whose index
//! variables are the only variables occurring in memory-address expressions,
//! and every address is an affine combination `a0*ind0 + … + a(L-1)*ind(L-1)
//! + a`. This module provides:
//!
//! * [`LoopSpec`] / [`AffineExpr`] — the program model,
//! * [`loop_index_value`] — the abstract value of a loop's index variable in
//!   the reduced Interval×Congruence product at the loop body (the fixpoint
//!   of the paper's loop semantics `env' = env ⊔ ((env + step) ⊓ [start,
//!   end-1])`, with reduction applied at every step),
//! * [`eval_affine`] — evaluation of an affine address against per-variable
//!   abstract values, which the alignment-detection pass and the C-IR
//!   verifier in `lgen-cir` run on every address.

use crate::congruence::Congruence;
use crate::domain::AbstractDomain;
use crate::interval::Interval;
use crate::reduced::IntervalCongruence;

/// Identifier of a loop index variable, assigned in nesting order
/// (outermost first).
pub type VarId = usize;

/// A counted loop `for var = start; var < end; var += step`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopSpec {
    /// Human-readable name (used in diagnostics and the C unparser).
    pub name: String,
    /// Initial value.
    pub start: i64,
    /// Exclusive upper bound.
    pub end: i64,
    /// Increment (must be positive).
    pub step: i64,
}

impl LoopSpec {
    /// Creates a loop specification.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn new(name: &str, start: i64, end: i64, step: i64) -> Self {
        assert!(step > 0, "loop step must be positive, got {step}");
        LoopSpec {
            name: name.to_string(),
            start,
            end,
            step,
        }
    }

    /// Number of iterations the loop executes.
    pub fn trip_count(&self) -> i64 {
        if self.end <= self.start {
            0
        } else {
            (self.end - self.start + self.step - 1) / self.step
        }
    }
}

/// An affine integer expression `Σ aᵢ·varᵢ + c` over loop index variables.
///
/// Terms are kept **normalized**: sorted by variable id, at most one term
/// per variable, and no zero coefficients. Structurally equal expressions
/// therefore compare (and hash, and fingerprint) equal no matter in which
/// order they were built — the invariant the C-IR arena's expression
/// interning relies on.
#[derive(Clone, Debug, PartialEq, Eq, Default, Hash)]
pub struct AffineExpr {
    /// Coefficient–variable pairs, sorted by variable id, coefficients
    /// nonzero, variables distinct.
    pub terms: Vec<(i64, VarId)>,
    /// The constant term.
    pub constant: i64,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression `1·var`.
    pub fn var(v: VarId) -> Self {
        AffineExpr {
            terms: vec![(1, v)],
            constant: 0,
        }
    }

    /// The expression `coeff·var` (the zero expression when `coeff == 0`).
    pub fn scaled(coeff: i64, v: VarId) -> Self {
        AffineExpr {
            terms: if coeff == 0 {
                Vec::new()
            } else {
                vec![(coeff, v)]
            },
            constant: 0,
        }
    }

    /// Adds another affine expression, merging coefficients.
    #[must_use]
    pub fn plus(&self, other: &AffineExpr) -> Self {
        let mut out = self.clone();
        for &(c, v) in &other.terms {
            out.add_term(c, v);
        }
        out.constant += other.constant;
        out
    }

    /// Adds `coeff·var`, merging with an existing term for `var` and
    /// keeping the term list sorted by variable id.
    pub(crate) fn add_term(&mut self, coeff: i64, v: VarId) {
        match self.terms.binary_search_by_key(&v, |t| t.1) {
            Ok(i) => {
                self.terms[i].0 += coeff;
                if self.terms[i].0 == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) => {
                if coeff != 0 {
                    self.terms.insert(i, (coeff, v));
                }
            }
        }
    }

    /// Restores the normalization invariant on an expression whose terms
    /// were assembled out of order (sorts, merges duplicates, drops zero
    /// coefficients). Constructors and `add_term` already
    /// maintain the invariant; this is for code that fills `terms` by hand.
    pub fn normalize(&mut self) {
        if self.is_normalized() {
            return;
        }
        self.terms.sort_by_key(|t| t.1);
        let mut out: Vec<(i64, VarId)> = Vec::with_capacity(self.terms.len());
        for &(c, v) in &self.terms {
            match out.last_mut() {
                Some(last) if last.1 == v => last.0 += c,
                _ => out.push((c, v)),
            }
        }
        out.retain(|t| t.0 != 0);
        self.terms = out;
    }

    /// Whether the normalization invariant holds (sorted, distinct,
    /// nonzero coefficients).
    pub(crate) fn is_normalized(&self) -> bool {
        self.terms.iter().all(|t| t.0 != 0) && self.terms.windows(2).all(|w| w[0].1 < w[1].1)
    }

    /// Adds a constant offset.
    #[must_use]
    pub fn offset(&self, c: i64) -> Self {
        let mut out = self.clone();
        out.constant += c;
        out
    }

    /// Multiplies the whole expression by a constant.
    #[must_use]
    pub fn scale(&self, k: i64) -> Self {
        AffineExpr {
            terms: self
                .terms
                .iter()
                .filter(|t| t.0 * k != 0)
                .map(|&(c, v)| (c * k, v))
                .collect(),
            constant: self.constant * k,
        }
    }
}

/// Iterations after which the solver switches from exact Kleene iteration to
/// widening followed by a narrowing step. The narrowing recovers the exact
/// bounds for LGen loops (constant bounds), so precision is unaffected.
const WIDEN_AFTER: usize = 64;

/// Computes the fixpoint abstract value of a loop's index variable at the
/// loop body, following the iteration in the proof of the paper's
/// Theorem 3.5.
pub fn loop_index_value(spec: &LoopSpec) -> IntervalCongruence {
    if spec.trip_count() == 0 {
        // The body never executes; the environment there stays ⊥.
        return IntervalCongruence::bottom();
    }
    let bounds =
        IntervalCongruence::new(Interval::range(spec.start, spec.end - 1), Congruence::top());
    let step = IntervalCongruence::constant(spec.step);
    let init = IntervalCongruence::constant(spec.start);
    let next = |env: &IntervalCongruence| init.join(&env.add(&step).meet(&bounds));

    let mut env = init;
    for it in 0.. {
        let n = next(&env);
        if n == env {
            return env;
        }
        env = if it < WIDEN_AFTER { n } else { env.widen(&n) };
        if it >= WIDEN_AFTER {
            // One descending (narrowing) iteration restores exact bounds.
            let narrowed = next(&env);
            if next(&narrowed) == narrowed {
                return narrowed;
            }
            env = narrowed;
        }
    }
    unreachable!("fixpoint iteration always terminates via widening")
}

/// Evaluates the affine expression `constant + Σ coeff·var` over `terms` in
/// any abstract domain, resolving each variable through `value_of`.
///
/// The expression comes as its parts rather than an [`AffineExpr`], so
/// interned representations evaluate without building one: the
/// alignment-detection pass and the C-IR verifier in `lgen-cir` both run
/// every address through this function against a map from loop variables
/// to [`loop_index_value`] fixpoints. Unbound variables are the caller's
/// concern: return [`AbstractDomain::top`] for them to stay sound.
pub fn eval_affine<D: AbstractDomain>(
    constant: i64,
    terms: &[(i64, VarId)],
    mut value_of: impl FnMut(VarId) -> D,
) -> D {
    let mut acc = D::constant(constant);
    for &(coeff, v) in terms {
        acc = acc.add(&D::constant(coeff).mul(&value_of(v)));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::AbstractDomain;
    use crate::interval::Interval;
    use proptest::prelude::*;

    /// Evaluates `e` in a nest whose variables are numbered like `loops`
    /// (outermost first), each bound to its loop's index fixpoint.
    fn eval_in_nest(loops: &[LoopSpec], e: &AffineExpr) -> IntervalCongruence {
        let values: Vec<IntervalCongruence> = loops.iter().map(loop_index_value).collect();
        eval_affine(e.constant, &e.terms, |v| values[v])
    }

    /// The paper's Listing 3.2: `for k in (0..8).step_by(13)` — taken once,
    /// so the reduced product must collapse `k` to the singleton 0.
    #[test]
    fn listing_3_2_loop_taken_once() {
        let v = loop_index_value(&LoopSpec::new("k", 0, 8, 13));
        assert_eq!(v.interval(), Interval::constant(0));
        assert_eq!(v.congruence(), Congruence::constant(0));
        assert!(v.divisible_by(4));
    }

    /// Pure Congruence analysis of the same loop is imprecise (0 + 13Z),
    /// demonstrating why the reduced product is needed.
    #[test]
    fn congruence_alone_is_imprecise_on_listing_3_2() {
        // Simulate the congruence-only iteration by projecting.
        let spec = LoopSpec::new("k", 0, 8, 13);
        let mut env = Congruence::constant(spec.start);
        loop {
            let next = env.join(&env.add(&Congruence::constant(spec.step)));
            if next == env {
                break;
            }
            env = next;
        }
        assert_eq!(env, Congruence::modulo(0, 13));
        assert!(!env.divisible_by(4));
    }

    #[test]
    fn multi_iteration_loop() {
        let v = loop_index_value(&LoopSpec::new("i", 0, 16, 4));
        assert_eq!(v.interval(), Interval::range(0, 12));
        assert_eq!(v.congruence(), Congruence::modulo(0, 4));
    }

    #[test]
    fn non_zero_start() {
        let v = loop_index_value(&LoopSpec::new("i", 3, 20, 5));
        assert_eq!(v.interval(), Interval::range(3, 18));
        assert_eq!(v.congruence(), Congruence::modulo(3, 5));
    }

    #[test]
    fn zero_trip_loop_is_bottom() {
        let v = loop_index_value(&LoopSpec::new("i", 8, 8, 4));
        assert!(v.is_bottom());
    }

    #[test]
    fn long_loop_uses_widening_but_stays_precise() {
        let v = loop_index_value(&LoopSpec::new("i", 0, 1_000_000, 4));
        assert_eq!(v.interval(), Interval::range(0, 999_996));
        assert_eq!(v.congruence(), Congruence::modulo(0, 4));
    }

    #[test]
    fn affine_evaluation() {
        let nest = [LoopSpec::new("i", 0, 12, 4), LoopSpec::new("j", 0, 4, 1)];
        let (i, j) = (0, 1);
        // 16*i + 4*j is always divisible by 4.
        let e = AffineExpr::scaled(16, i).plus(&AffineExpr::scaled(4, j));
        assert!(eval_in_nest(&nest, &e).divisible_by(4));
        // 16*i + j is not.
        let e = AffineExpr::scaled(16, i).plus(&AffineExpr::var(j));
        assert!(!eval_in_nest(&nest, &e).divisible_by(4));
        // but 16*i + j + 4 - j ... constant folding via plus/scale:
        let e = AffineExpr::var(j)
            .plus(&AffineExpr::var(j).scale(-1))
            .offset(8);
        assert_eq!(eval_in_nest(&nest, &e), IntervalCongruence::constant(8));
    }

    proptest! {
        /// Soundness of the loop fixpoint: every concrete index value the
        /// loop produces is in the concretization of the abstract value.
        #[test]
        fn loop_fixpoint_sound(start in -20i64..20, extent in 1i64..60, step in 1i64..9) {
            let spec = LoopSpec::new("i", start, start + extent, step);
            let v = loop_index_value(&spec);
            let mut k = start;
            while k < start + extent {
                prop_assert!(v.gamma_contains(k), "missing {k} in {v:?} for {spec:?}");
                k += step;
            }
        }

        /// Preciseness on the LGen shape (Theorem 3.5 specialized to one
        /// loop): the congruence half is exactly start + stepZ (more than
        /// one iteration) or the singleton (single iteration).
        #[test]
        fn loop_fixpoint_precise(start in 0i64..20, extent in 1i64..60, step in 1i64..9) {
            let spec = LoopSpec::new("i", start, start + extent, step);
            let v = loop_index_value(&spec);
            if spec.trip_count() == 1 {
                prop_assert_eq!(v.congruence(), Congruence::constant(start));
            } else {
                prop_assert_eq!(v.congruence(), Congruence::modulo(start, step));
                let last = start + (spec.trip_count() - 1) * step;
                prop_assert_eq!(v.interval(), Interval::range(start, last));
            }
        }

        /// Theorem 3.5 for full nests: for every N, if every dynamically
        /// reached address is divisible by N then the analysis proves it.
        #[test]
        fn preciseness_theorem_3_5(
            l0 in (0i64..3, 1i64..20, 1i64..5),
            l1 in (0i64..3, 1i64..20, 1i64..5),
            a0 in 0i64..6, a1 in 0i64..6, c in 0i64..8, n in 1i64..9,
        ) {
            let s0 = LoopSpec::new("i0", l0.0, l0.0 + l0.1, l0.2);
            let s1 = LoopSpec::new("i1", l1.0, l1.0 + l1.1, l1.2);
            let (v0, v1) = (0, 1);
            let addr = AffineExpr::scaled(a0, v0)
                .plus(&AffineExpr::scaled(a1, v1))
                .offset(c);
            // Concrete check: is every reached address divisible by n?
            let mut all_divisible = true;
            let mut i = s0.start;
            while i < s0.end {
                let mut j = s1.start;
                while j < s1.end {
                    if (a0 * i + a1 * j + c) % n != 0 {
                        all_divisible = false;
                    }
                    j += s1.step;
                }
                i += s0.step;
            }
            let detected = eval_in_nest(&[s0.clone(), s1.clone()], &addr).divisible_by(n);
            // Soundness: detected ⇒ all_divisible. Preciseness: all ⇒ detected.
            prop_assert_eq!(detected, all_divisible,
                "addr {}*i0+{}*i1+{}, n={}, loops {:?} {:?}", a0, a1, c, n, s0, s1);
        }

        /// Normalization: the same multiset of terms added in any order
        /// yields structurally equal (and normalized) expressions, and
        /// `plus` is commutative on the representation, not just the value.
        #[test]
        fn affine_terms_are_order_insensitive(
            mut terms in proptest::collection::vec((-8i64..9, 0usize..6), 0..10),
            c in -100i64..100,
            rot in 0usize..10,
        ) {
            let mut a = AffineExpr::constant(c);
            for &(coeff, v) in &terms {
                a.add_term(coeff, v);
            }
            let rot = rot % terms.len().max(1);
            terms.rotate_left(rot);
            terms.reverse();
            let mut b = AffineExpr::constant(c);
            for &(coeff, v) in &terms {
                b.add_term(coeff, v);
            }
            prop_assert_eq!(&a, &b);
            prop_assert!(a.is_normalized(), "{:?}", a);
            // plus() commutes representationally.
            let sum1 = a.plus(&b);
            let sum2 = b.plus(&a);
            prop_assert_eq!(&sum1, &sum2);
            prop_assert!(sum1.is_normalized());
            // normalize() on a hand-shuffled representation agrees.
            let mut shuffled = AffineExpr { terms: terms.iter().map(|&(c, v)| (c, v)).collect(), constant: c };
            shuffled.terms.push((0, 99));
            shuffled.normalize();
            prop_assert_eq!(&shuffled, &a);
        }
    }
}
