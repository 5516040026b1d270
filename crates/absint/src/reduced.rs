//! The reduced product of the Interval and Congruence domains (§2.3.3–2.3.4).
//!
//! This is the abstract domain used by LGen's alignment detection. The
//! reduction function `red` of §2.3.4 (due to Granger) lets information flow
//! between the two halves: the Interval half detects loops that are taken
//! only once, and that knowledge collapses the Congruence half to a
//! singleton, which is exactly what makes the analysis of the paper's
//! Listing 3.2 precise.

use crate::congruence::Congruence;
use crate::domain::AbstractDomain;
use crate::interval::{Bound, Interval};

/// Euclidean modulus with non-negative result.
fn emod(a: i64, m: i64) -> i64 {
    let m = m.abs();
    ((a % m) + m) % m
}

/// `R(c + mZ, a)`: the smallest `n ≥ a` with `n ∈ c + mZ` (paper §2.3.4).
pub(crate) fn r_bound(con: &Congruence, a: i64) -> i64 {
    match con {
        Congruence::Bottom => panic!("R is undefined on ⊥"),
        Congruence::Class { c, m } => {
            if *m == 0 {
                *c
            } else {
                a + emod(c - a, *m)
            }
        }
    }
}

/// `L(c + mZ, b)`: the greatest `n ≤ b` with `n ∈ c + mZ` (paper §2.3.4).
pub(crate) fn l_bound(con: &Congruence, b: i64) -> i64 {
    match con {
        Congruence::Bottom => panic!("L is undefined on ⊥"),
        Congruence::Class { c, m } => {
            if *m == 0 {
                *c
            } else {
                b - emod(b - c, *m)
            }
        }
    }
}

/// An element of the reduced product `Interval × Congruence`.
///
/// All lattice and transfer operations apply the pointwise operation and
/// then the reduction function, so values held by the analysis are always in
/// reduced (most precise) form.
///
/// # Example
///
/// The paper's worked examples of `red`:
///
/// ```
/// use lgen_absint::{Interval, Congruence, IntervalCongruence};
/// use lgen_absint::AbstractDomain;
///
/// // red([1,5], 0+2Z) = ([2,4], 0+2Z)
/// let v = IntervalCongruence::new(Interval::range(1, 5), Congruence::modulo(0, 2));
/// assert_eq!(v.interval(), Interval::range(2, 4));
/// // red([0,3], 4+0Z) = ⊥
/// let v = IntervalCongruence::new(Interval::range(0, 3), Congruence::constant(4));
/// assert!(v.is_bottom());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct IntervalCongruence {
    interval: Interval,
    congruence: Congruence,
}

impl IntervalCongruence {
    /// Builds a reduced-product value from its halves, applying `red`.
    pub fn new(interval: Interval, congruence: Congruence) -> Self {
        reduce(IntervalCongruence {
            interval,
            congruence,
        })
    }

    /// The Interval half.
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// The Congruence half.
    pub fn congruence(&self) -> Congruence {
        self.congruence
    }

    /// Whether every concrete value is divisible by `n` — the §3.2.2
    /// alignment criterion `E⟦A⟧ ⊑ 0 + nZ` evaluated on the Congruence half.
    pub fn divisible_by(&self, n: i64) -> bool {
        self.is_bottom() || self.congruence.divisible_by(n)
    }
}

/// The reduction function `red` of §2.3.4 (case analysis evaluated top-down,
/// exactly as in the paper).
fn reduce(v: IntervalCongruence) -> IntervalCongruence {
    let bottom = IntervalCongruence {
        interval: Interval::Bottom,
        congruence: Congruence::Bottom,
    };
    // Case 1: either half is ⊥.
    let (i, con) = (v.interval, v.congruence);
    if i.is_bottom() || con.is_bottom() {
        return bottom;
    }
    // Case 2/3: congruence is a singleton c + 0Z.
    if let Congruence::Class { c, m: 0 } = con {
        return if i.gamma_contains(c) {
            IntervalCongruence {
                interval: Interval::constant(c),
                congruence: Congruence::constant(c),
            }
        } else {
            bottom
        };
    }
    match (i.lo(), i.hi()) {
        (Some(Bound::Finite(a)), Some(Bound::Finite(b))) => {
            let r = r_bound(&con, a);
            let l = l_bound(&con, b);
            if r > l {
                bottom
            } else if r == l {
                IntervalCongruence {
                    interval: Interval::constant(r),
                    congruence: Congruence::constant(r),
                }
            } else {
                IntervalCongruence {
                    interval: Interval::range(r, l),
                    congruence: con,
                }
            }
        }
        (Some(Bound::Finite(a)), Some(Bound::PosInf)) => IntervalCongruence {
            interval: Interval::at_least(r_bound(&con, a)),
            congruence: con,
        },
        (Some(Bound::NegInf), Some(Bound::Finite(b))) => IntervalCongruence {
            interval: Interval::at_most(l_bound(&con, b)),
            congruence: con,
        },
        _ => v,
    }
}

impl AbstractDomain for IntervalCongruence {
    fn bottom() -> Self {
        IntervalCongruence {
            interval: Interval::Bottom,
            congruence: Congruence::Bottom,
        }
    }

    fn top() -> Self {
        IntervalCongruence {
            interval: Interval::top(),
            congruence: Congruence::top(),
        }
    }

    fn constant(c: i64) -> Self {
        IntervalCongruence {
            interval: Interval::constant(c),
            congruence: Congruence::constant(c),
        }
    }

    fn is_bottom(&self) -> bool {
        self.interval.is_bottom() || self.congruence.is_bottom()
    }

    fn le(&self, other: &Self) -> bool {
        if self.is_bottom() {
            return true;
        }
        self.interval.le(&other.interval) && self.congruence.le(&other.congruence)
    }

    fn join(&self, other: &Self) -> Self {
        if self.is_bottom() {
            return *other;
        }
        if other.is_bottom() {
            return *self;
        }
        reduce(IntervalCongruence {
            interval: self.interval.join(&other.interval),
            congruence: self.congruence.join(&other.congruence),
        })
    }

    fn meet(&self, other: &Self) -> Self {
        reduce(IntervalCongruence {
            interval: self.interval.meet(&other.interval),
            congruence: self.congruence.meet(&other.congruence),
        })
    }

    fn add(&self, other: &Self) -> Self {
        if self.is_bottom() || other.is_bottom() {
            return Self::bottom();
        }
        reduce(IntervalCongruence {
            interval: self.interval.add(&other.interval),
            congruence: self.congruence.add(&other.congruence),
        })
    }

    fn mul(&self, other: &Self) -> Self {
        if self.is_bottom() || other.is_bottom() {
            return Self::bottom();
        }
        reduce(IntervalCongruence {
            interval: self.interval.mul(&other.interval),
            congruence: self.congruence.mul(&other.congruence),
        })
    }

    fn gamma_contains(&self, v: i64) -> bool {
        self.interval.gamma_contains(v) && self.congruence.gamma_contains(v)
    }

    fn widen(&self, other: &Self) -> Self {
        if self.is_bottom() {
            return *other;
        }
        if other.is_bottom() {
            return *self;
        }
        // Widen the interval half; join the (finite-height) congruence half.
        // No reduction after widening — reducing a widened value can reverse
        // the extrapolation and prevent termination.
        IntervalCongruence {
            interval: self.interval.widen(&other.interval),
            congruence: self.congruence.join(&other.congruence),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// All five worked examples of `red` from §2.3.4.
    #[test]
    fn paper_reduction_examples() {
        // red([0,3], 4 + 0Z) = (⊥, ⊥)
        let v = IntervalCongruence::new(Interval::range(0, 3), Congruence::constant(4));
        assert!(v.is_bottom());
        // red([0,3], 4 + 5Z) = (⊥, ⊥)   (the only members ... ,-1, 4, 9,.. miss [0,3])
        let v = IntervalCongruence::new(Interval::range(0, 3), Congruence::modulo(4, 5));
        assert!(v.is_bottom());
        // red([0,0], 0 + 8Z) = ([0,0], 0 + 0Z)
        let v = IntervalCongruence::new(Interval::range(0, 0), Congruence::modulo(0, 8));
        assert_eq!(v.interval(), Interval::constant(0));
        assert_eq!(v.congruence(), Congruence::constant(0));
        // red([-1,1], 0 + 0Z) = ([0,0], 0 + 0Z)
        let v = IntervalCongruence::new(Interval::range(-1, 1), Congruence::constant(0));
        assert_eq!(v.interval(), Interval::constant(0));
        assert_eq!(v.congruence(), Congruence::constant(0));
        // red([1,5], 0 + 2Z) = ([2,4], 0 + 2Z)
        let v = IntervalCongruence::new(Interval::range(1, 5), Congruence::modulo(0, 2));
        assert_eq!(v.interval(), Interval::range(2, 4));
        assert_eq!(v.congruence(), Congruence::modulo(0, 2));
    }

    #[test]
    fn r_and_l_helpers() {
        // R(1 + 4Z, 3) = 5; L(1 + 4Z, 3) = 1
        assert_eq!(r_bound(&Congruence::modulo(1, 4), 3), 5);
        assert_eq!(l_bound(&Congruence::modulo(1, 4), 3), 1);
        // On members they are the identity.
        assert_eq!(r_bound(&Congruence::modulo(1, 4), 5), 5);
        assert_eq!(l_bound(&Congruence::modulo(1, 4), 5), 5);
    }

    #[test]
    fn reduction_validity_properties() {
        // red(a) ⊑ a and γ(red(a)) = γ(a) on a grid of cases.
        for lo in -6i64..6 {
            for w in 0i64..6 {
                for c in 0i64..4 {
                    for m in 0i64..5 {
                        let i = Interval::range(lo, lo + w);
                        let con = Congruence::modulo(c, m);
                        let raw = IntervalCongruence {
                            interval: i,
                            congruence: con,
                        };
                        let red = IntervalCongruence::new(i, con);
                        assert!(red.le(&raw), "red not decreasing: {raw:?} -> {red:?}");
                        for v in lo - 2..=lo + w + 2 {
                            assert_eq!(
                                raw.gamma_contains(v),
                                red.gamma_contains(v),
                                "γ changed by red at {v}: {raw:?} -> {red:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn add_sound(x in -30i64..30, m1 in 0i64..8, y in -30i64..30, m2 in 0i64..8,
                     k1 in 0i64..4, k2 in 0i64..4) {
            let a = IntervalCongruence::new(
                Interval::range(x, x + 4 * m1.max(1)),
                Congruence::modulo(x, m1),
            );
            let b = IntervalCongruence::new(
                Interval::range(y, y + 4 * m2.max(1)),
                Congruence::modulo(y, m2),
            );
            let vx = x + k1 * m1;
            let vy = y + k2 * m2;
            if a.gamma_contains(vx) && b.gamma_contains(vy) {
                prop_assert!(a.add(&b).gamma_contains(vx + vy));
                prop_assert!(a.mul(&b).gamma_contains(vx * vy));
                prop_assert!(a.join(&b).gamma_contains(vx));
                prop_assert!(a.join(&b).gamma_contains(vy));
            }
        }
    }
}
