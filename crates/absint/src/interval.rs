//! The Interval domain of Fig. 2.6 with the operators of Table 2.7.

use crate::domain::AbstractDomain;

/// An interval endpoint: `-∞`, a finite integer, or `+∞`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Bound {
    /// `-∞`.
    NegInf,
    /// A finite value.
    Finite(i64),
    /// `+∞`.
    PosInf,
}

impl Bound {
    fn add(self, other: Bound) -> Bound {
        use Bound::*;
        match (self, other) {
            (NegInf, PosInf) | (PosInf, NegInf) => {
                unreachable!("adding opposite infinities never occurs: lower+lower, upper+upper")
            }
            (NegInf, _) | (_, NegInf) => NegInf,
            (PosInf, _) | (_, PosInf) => PosInf,
            (Finite(a), Finite(b)) => Finite(a.saturating_add(b)),
        }
    }

    fn mul(self, other: Bound) -> Bound {
        use Bound::*;
        match (self, other) {
            (Finite(a), Finite(b)) => Finite(a.saturating_mul(b)),
            (Finite(0), _) | (_, Finite(0)) => Finite(0),
            (a, b) => {
                let a_neg = matches!(a, NegInf) || matches!(a, Finite(x) if x < 0);
                let b_neg = matches!(b, NegInf) || matches!(b, Finite(x) if x < 0);
                if a_neg == b_neg {
                    PosInf
                } else {
                    NegInf
                }
            }
        }
    }
}

/// An element of the Interval lattice: `⊥` or `[lo, hi]` with
/// `lo ∈ Z ∪ {-∞}`, `hi ∈ Z ∪ {+∞}`, `lo ≤ hi`.
///
/// # Example
///
/// ```
/// use lgen_absint::interval::Interval;
/// use lgen_absint::AbstractDomain;
///
/// let i = Interval::range(1, 5).meet(&Interval::range(3, 9));
/// assert_eq!(i, Interval::range(3, 5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Interval {
    /// `⊥` — empty.
    Bottom,
    /// A non-empty interval `[lo, hi]`.
    Range(Bound, Bound),
}

impl Interval {
    /// The finite interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(lo: i64, hi: i64) -> Self {
        assert!(
            lo <= hi,
            "empty interval [{lo}, {hi}]; use Interval::bottom()"
        );
        Interval::Range(Bound::Finite(lo), Bound::Finite(hi))
    }

    /// The interval `[lo, +∞]`.
    pub(crate) fn at_least(lo: i64) -> Self {
        Interval::Range(Bound::Finite(lo), Bound::PosInf)
    }

    /// The interval `[-∞, hi]`.
    pub(crate) fn at_most(hi: i64) -> Self {
        Interval::Range(Bound::NegInf, Bound::Finite(hi))
    }

    /// The lower bound, if this is not `⊥`.
    pub fn lo(&self) -> Option<Bound> {
        match self {
            Interval::Bottom => None,
            Interval::Range(lo, _) => Some(*lo),
        }
    }

    /// The upper bound, if this is not `⊥`.
    pub fn hi(&self) -> Option<Bound> {
        match self {
            Interval::Bottom => None,
            Interval::Range(_, hi) => Some(*hi),
        }
    }
}

impl AbstractDomain for Interval {
    fn bottom() -> Self {
        Interval::Bottom
    }

    fn top() -> Self {
        Interval::Range(Bound::NegInf, Bound::PosInf)
    }

    fn constant(c: i64) -> Self {
        Interval::range(c, c)
    }

    // Table 2.7: [a1,a2] ⊑ [b1,b2] ⟺ a1 ≥ b1 ∧ a2 ≤ b2.
    fn le(&self, other: &Self) -> bool {
        match (self, other) {
            (Interval::Bottom, _) => true,
            (_, Interval::Bottom) => false,
            (Interval::Range(a1, a2), Interval::Range(b1, b2)) => a1 >= b1 && a2 <= b2,
        }
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Bottom, x) | (x, Interval::Bottom) => *x,
            (Interval::Range(a1, a2), Interval::Range(b1, b2)) => {
                Interval::Range(*a1.min(b1), *a2.max(b2))
            }
        }
    }

    fn meet(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Bottom, _) | (_, Interval::Bottom) => Interval::Bottom,
            (Interval::Range(a1, a2), Interval::Range(b1, b2)) => {
                let lo = *a1.max(b1);
                let hi = *a2.min(b2);
                if lo <= hi {
                    Interval::Range(lo, hi)
                } else {
                    Interval::Bottom
                }
            }
        }
    }

    fn add(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Bottom, _) | (_, Interval::Bottom) => Interval::Bottom,
            (Interval::Range(a1, a2), Interval::Range(b1, b2)) => {
                Interval::Range(a1.add(*b1), a2.add(*b2))
            }
        }
    }

    fn mul(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Bottom, _) | (_, Interval::Bottom) => Interval::Bottom,
            (Interval::Range(a1, a2), Interval::Range(b1, b2)) => {
                let products = [a1.mul(*b1), a1.mul(*b2), a2.mul(*b1), a2.mul(*b2)];
                Interval::Range(
                    *products.iter().min().expect("non-empty"),
                    *products.iter().max().expect("non-empty"),
                )
            }
        }
    }

    fn gamma_contains(&self, v: i64) -> bool {
        match self {
            Interval::Bottom => false,
            Interval::Range(lo, hi) => Bound::Finite(v) >= *lo && Bound::Finite(v) <= *hi,
        }
    }

    /// Classic interval widening: unstable bounds jump to infinity.
    fn widen(&self, other: &Self) -> Self {
        match (self, other) {
            (Interval::Bottom, x) | (x, Interval::Bottom) => *x,
            (Interval::Range(a1, a2), Interval::Range(b1, b2)) => {
                let lo = if b1 < a1 { Bound::NegInf } else { *a1 };
                let hi = if b2 > a2 { Bound::PosInf } else { *a2 };
                Interval::Range(lo, hi)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::check_lattice_laws;
    use proptest::prelude::*;

    #[test]
    fn table_2_7_examples() {
        // ⊑
        assert!(Interval::range(2, 3).le(&Interval::range(1, 4)));
        assert!(!Interval::range(0, 3).le(&Interval::range(1, 4)));
        // ⊔
        assert_eq!(
            Interval::range(0, 2).join(&Interval::range(5, 7)),
            Interval::range(0, 7)
        );
        // ⊓ non-overlapping is ⊥
        assert_eq!(
            Interval::range(0, 2).meet(&Interval::range(5, 7)),
            Interval::Bottom
        );
        // +
        assert_eq!(
            Interval::range(1, 2).add(&Interval::range(10, 20)),
            Interval::range(11, 22)
        );
        // *
        assert_eq!(
            Interval::range(-2, 3).mul(&Interval::range(4, 5)),
            Interval::range(-10, 15)
        );
    }

    #[test]
    fn infinite_bounds() {
        let i = Interval::at_least(0);
        assert!(i.le(&Interval::top()));
        assert_eq!(i.add(&Interval::constant(4)), Interval::at_least(4));
        assert_eq!(Interval::at_most(10).meet(&i), Interval::range(0, 10));
    }

    #[test]
    fn widening_stabilizes() {
        let mut x = Interval::range(0, 0);
        let next = x.add(&Interval::constant(1));
        x = x.widen(&x.join(&next));
        assert_eq!(x, Interval::Range(Bound::Finite(0), Bound::PosInf));
        // A second widening round is a fixpoint.
        let next = x.add(&Interval::constant(1));
        assert_eq!(x.widen(&x.join(&next)), x);
    }

    fn arb_interval() -> impl Strategy<Value = Interval> {
        prop_oneof![
            Just(Interval::Bottom),
            Just(Interval::top()),
            (-100i64..100).prop_map(Interval::constant),
            (-100i64..100, 0i64..100).prop_map(|(lo, w)| Interval::range(lo, lo + w)),
            (-100i64..100).prop_map(Interval::at_least),
            (-100i64..100).prop_map(Interval::at_most),
        ]
    }

    proptest! {
        #[test]
        fn lattice_laws(a in arb_interval(), b in arb_interval(), c in arb_interval()) {
            check_lattice_laws(&a, &b, &c).unwrap();
        }

        #[test]
        fn add_sound(x in -50i64..50, y in -50i64..50, wa in 0i64..10, wb in 0i64..10) {
            let a = Interval::range(x, x + wa);
            let b = Interval::range(y, y + wb);
            for vx in x..=x + wa {
                for vy in y..=y + wb {
                    prop_assert!(a.add(&b).gamma_contains(vx + vy));
                    prop_assert!(a.mul(&b).gamma_contains(vx * vy));
                }
            }
        }

        #[test]
        fn join_contains_both(x in -50i64..50, y in -50i64..50, wa in 0i64..10, wb in 0i64..10) {
            let a = Interval::range(x, x + wa);
            let b = Interval::range(y, y + wb);
            let j = a.join(&b);
            for v in x..=x + wa {
                prop_assert!(j.gamma_contains(v));
            }
            for v in y..=y + wb {
                prop_assert!(j.gamma_contains(v));
            }
        }
    }
}
