//! The Congruence domain of Fig. 2.7 with the operators of Table 2.8.
//!
//! An element `c + mZ` abstracts the set `{c + km | k ∈ Z}`. The modulus
//! `m = 0` denotes the singleton `{c}`; `m = 1` is `⊤` (all of `Z`).

use crate::domain::AbstractDomain;

/// Greatest common divisor (non-negative; `gcd(0, 0) = 0`).
pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    a
}

/// Least common multiple (non-negative; `lcm(x, 0) = 0`).
pub(crate) fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        0
    } else {
        (a / gcd(a, b)).abs().saturating_mul(b.abs())
    }
}

/// Euclidean modulus: result in `[0, |m|)` for `m != 0`.
fn emod(a: i64, m: i64) -> i64 {
    let m = m.abs();
    ((a % m) + m) % m
}

/// An element of the Congruence lattice: `⊥` or a normalized class `c + mZ`.
///
/// Normalization keeps `0 ≤ c < m` when `m > 0`; `m = 0` means singleton.
///
/// # Example
///
/// ```
/// use lgen_absint::congruence::Congruence;
/// use lgen_absint::AbstractDomain;
///
/// let even = Congruence::modulo(0, 2);
/// let odd = Congruence::modulo(1, 2);
/// assert_eq!(even.add(&odd), odd);
/// assert_eq!(even.join(&odd), Congruence::top()); // 0 + 1Z
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Congruence {
    /// `⊥` — empty.
    Bottom,
    /// Normalized class `c + mZ`.
    Class {
        /// The residue `c` (with `0 ≤ c < m` when `m > 0`).
        c: i64,
        /// The modulus `m ≥ 0` (`0` means singleton `{c}`).
        m: i64,
    },
}

impl Congruence {
    /// The normalized class `c + mZ`.
    pub fn modulo(c: i64, m: i64) -> Self {
        let m = m.abs();
        if m == 0 {
            Congruence::Class { c, m: 0 }
        } else {
            Congruence::Class { c: emod(c, m), m }
        }
    }

    /// Whether every concrete value in this class is divisible by `n`
    /// (i.e. `self ⊑ 0 + nZ`) — the paper's §3.2.2 alignment criterion.
    pub fn divisible_by(&self, n: i64) -> bool {
        self.le(&Congruence::modulo(0, n))
    }
}

impl AbstractDomain for Congruence {
    fn bottom() -> Self {
        Congruence::Bottom
    }

    fn top() -> Self {
        Congruence::Class { c: 0, m: 1 }
    }

    fn constant(c: i64) -> Self {
        Congruence::Class { c, m: 0 }
    }

    // Table 2.8: (c1 + m1 Z) ⊑ (c2 + m2 Z) ⟺ m2 | c1 − c2 ∧ m2 | m1.
    fn le(&self, other: &Self) -> bool {
        match (self, other) {
            (Congruence::Bottom, _) => true,
            (_, Congruence::Bottom) => false,
            (Congruence::Class { c: c1, m: m1 }, Congruence::Class { c: c2, m: m2 }) => {
                let divides = |d: i64, x: i64| {
                    if d == 0 {
                        x == 0
                    } else {
                        x % d == 0
                    }
                };
                divides(*m2, c1 - c2) && divides(*m2, *m1)
            }
        }
    }

    // Table 2.8: join is c1 + gcd(m1, m2, c1 − c2) Z.
    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (Congruence::Bottom, x) | (x, Congruence::Bottom) => *x,
            (Congruence::Class { c: c1, m: m1 }, Congruence::Class { c: c2, m: m2 }) => {
                Congruence::modulo(*c1, gcd(gcd(*m1, *m2), c1 - c2))
            }
        }
    }

    // Table 2.8: meet is ⊥ if gcd(m1, m2) ∤ (c1 − c2), otherwise
    // x + lcm(m1, m2) Z with x in the intersection (found via CRT).
    fn meet(&self, other: &Self) -> Self {
        match (self, other) {
            (Congruence::Bottom, _) | (_, Congruence::Bottom) => Congruence::Bottom,
            (Congruence::Class { c: c1, m: m1 }, Congruence::Class { c: c2, m: m2 }) => {
                let (c1, m1, c2, m2) = (*c1, *m1, *c2, *m2);
                match (m1, m2) {
                    (0, 0) => {
                        if c1 == c2 {
                            Congruence::constant(c1)
                        } else {
                            Congruence::Bottom
                        }
                    }
                    (0, _) => {
                        if emod(c1 - c2, m2) == 0 {
                            Congruence::constant(c1)
                        } else {
                            Congruence::Bottom
                        }
                    }
                    (_, 0) => Congruence::modulo(c2, m2).meet(&Congruence::modulo(c1, m1)),
                    _ => {
                        let g = gcd(m1, m2);
                        if (c1 - c2) % g != 0 {
                            Congruence::Bottom
                        } else {
                            // CRT: find x ≡ c1 (mod m1), x ≡ c2 (mod m2).
                            let l = lcm(m1, m2);
                            // Extended Euclid on (m1, m2): m1*p + m2*q = g.
                            let (p, _q) = extended_gcd(m1, m2);
                            let diff = (c2 - c1) / g;
                            let x = c1 + m1 * emod(p.wrapping_mul(diff), m2 / g);
                            Congruence::modulo(x, l)
                        }
                    }
                }
            }
        }
    }

    // Table 2.8: (c1 + m1 Z) + (c2 + m2 Z) = (c1 + c2) + gcd(m1, m2) Z.
    fn add(&self, other: &Self) -> Self {
        match (self, other) {
            (Congruence::Bottom, _) | (_, Congruence::Bottom) => Congruence::Bottom,
            (Congruence::Class { c: c1, m: m1 }, Congruence::Class { c: c2, m: m2 }) => {
                Congruence::modulo(c1 + c2, gcd(*m1, *m2))
            }
        }
    }

    // Table 2.8: (c1 + m1 Z) * (c2 + m2 Z) = c1 c2 + gcd(c1 m2, m1 c2, m1 m2) Z.
    fn mul(&self, other: &Self) -> Self {
        match (self, other) {
            (Congruence::Bottom, _) | (_, Congruence::Bottom) => Congruence::Bottom,
            (Congruence::Class { c: c1, m: m1 }, Congruence::Class { c: c2, m: m2 }) => {
                Congruence::modulo(
                    c1.saturating_mul(*c2),
                    gcd(
                        gcd(c1.saturating_mul(*m2), m1.saturating_mul(*c2)),
                        m1.saturating_mul(*m2),
                    ),
                )
            }
        }
    }

    fn gamma_contains(&self, v: i64) -> bool {
        match self {
            Congruence::Bottom => false,
            Congruence::Class { c, m } => {
                if *m == 0 {
                    v == *c
                } else {
                    emod(v - c, *m) == 0
                }
            }
        }
    }
}

/// Extended Euclid: returns `(p, q)` with `a*p + b*q = gcd(a, b)`.
fn extended_gcd(a: i64, b: i64) -> (i64, i64) {
    if b == 0 {
        (a.signum(), 0)
    } else {
        let (p, q) = extended_gcd(b, a % b);
        (q, p - (a / b) * q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::check_lattice_laws;
    use proptest::prelude::*;

    #[test]
    fn normalization() {
        assert_eq!(Congruence::modulo(7, 4), Congruence::modulo(3, 4));
        assert_eq!(Congruence::modulo(-1, 4), Congruence::modulo(3, 4));
        assert_eq!(Congruence::modulo(5, -3), Congruence::modulo(2, 3));
    }

    #[test]
    fn lattice_structure_fig_2_7() {
        // 0 + 4Z ⊑ 0 + 2Z ⊑ 0 + 1Z
        assert!(Congruence::modulo(0, 4).le(&Congruence::modulo(0, 2)));
        assert!(Congruence::modulo(0, 2).le(&Congruence::top()));
        assert!(!Congruence::modulo(0, 2).le(&Congruence::modulo(0, 4)));
        // singletons below their class
        assert!(Congruence::constant(2).le(&Congruence::modulo(2, 4)));
        assert!(!Congruence::constant(1).le(&Congruence::modulo(2, 4)));
    }

    #[test]
    fn join_per_table_2_8() {
        // {0} ⊔ {13} = 0 + 13Z
        assert_eq!(
            Congruence::constant(0).join(&Congruence::constant(13)),
            Congruence::modulo(0, 13)
        );
        assert_eq!(
            Congruence::modulo(0, 4).join(&Congruence::modulo(2, 4)),
            Congruence::modulo(0, 2)
        );
    }

    #[test]
    fn meet_crt() {
        // x ≡ 1 (mod 4) ∧ x ≡ 2 (mod 3) → x ≡ 5 (mod 12)
        let m = Congruence::modulo(1, 4).meet(&Congruence::modulo(2, 3));
        assert_eq!(m, Congruence::modulo(5, 12));
        // incompatible
        assert_eq!(
            Congruence::modulo(0, 2).meet(&Congruence::modulo(1, 2)),
            Congruence::Bottom
        );
    }

    #[test]
    fn arithmetic_per_table_2_8() {
        assert_eq!(
            Congruence::modulo(1, 4).add(&Congruence::modulo(2, 6)),
            Congruence::modulo(3, 2)
        );
        // constant times class scales both parts: 3 * (1 + 4Z) = 3 + 12Z
        assert_eq!(
            Congruence::constant(3).mul(&Congruence::modulo(1, 4)),
            Congruence::modulo(3, 12)
        );
    }

    #[test]
    fn divisibility_criterion() {
        assert!(Congruence::modulo(0, 8).divisible_by(4));
        assert!(Congruence::constant(12).divisible_by(4));
        assert!(!Congruence::modulo(2, 8).divisible_by(4));
        assert!(!Congruence::top().divisible_by(4));
    }

    fn arb_congruence() -> impl Strategy<Value = Congruence> {
        prop_oneof![
            Just(Congruence::Bottom),
            (-50i64..50).prop_map(Congruence::constant),
            (-50i64..50, 1i64..16).prop_map(|(c, m)| Congruence::modulo(c, m)),
        ]
    }

    proptest! {
        #[test]
        fn lattice_laws(a in arb_congruence(), b in arb_congruence(), c in arb_congruence()) {
            check_lattice_laws(&a, &b, &c).unwrap();
        }

        #[test]
        fn add_mul_sound(c1 in -20i64..20, m1 in 0i64..10, c2 in -20i64..20, m2 in 0i64..10,
                         k1 in -3i64..3, k2 in -3i64..3) {
            let a = Congruence::modulo(c1, m1);
            let b = Congruence::modulo(c2, m2);
            let x = c1 + k1 * m1;
            let y = c2 + k2 * m2;
            prop_assert!(a.gamma_contains(x));
            prop_assert!(b.gamma_contains(y));
            prop_assert!(a.add(&b).gamma_contains(x + y), "add {a:?} {b:?} {x} {y}");
            prop_assert!(a.mul(&b).gamma_contains(x * y), "mul {a:?} {b:?} {x} {y}");
        }

        #[test]
        fn meet_is_intersection(c1 in 0i64..12, m1 in 1i64..8, c2 in 0i64..12, m2 in 1i64..8,
                                v in -60i64..60) {
            let a = Congruence::modulo(c1, m1);
            let b = Congruence::modulo(c2, m2);
            let m = a.meet(&b);
            prop_assert_eq!(
                m.gamma_contains(v),
                a.gamma_contains(v) && b.gamma_contains(v),
                "meet({:?},{:?})={:?} at {}", a, b, m, v
            );
        }
    }
}
