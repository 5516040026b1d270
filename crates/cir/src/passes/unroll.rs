//! Loop unrolling: the policy the `unroll` pass
//! ([`crate::arena::unroll_block`]) applies.
//!
//! LGen "typically unrolls inner loops" (§2.1.2): full unrolling of small
//! trip counts exposes straight-line codelet chains to scalar replacement
//! and lets alignment detection see constant addresses; partial unrolling
//! trades instruction-cache pressure for instruction-level parallelism.
//! The unroll decision is part of the autotuning search space.

/// Unrolling policy applied to every loop in a body (innermost included).
///
/// `Hash` so the policy can be part of the kernel-cache key.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum UnrollPolicy {
    /// Leave loops as written.
    None,
    /// Fully unroll every loop whose trip count is at most `max_trip`.
    Full {
        /// Trip-count threshold.
        max_trip: usize,
    },
    /// Unroll by `factor` when the trip count divides evenly; loops with
    /// trip count ≤ `factor` are fully unrolled.
    Factor {
        /// Unroll factor (≥ 2).
        factor: usize,
    },
}

/// What the unroll pass does to one loop, decided solely from its trip
/// count (the pass works bottom-up, so a loop's decision never depends
/// on what happened to its body).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnrollDecision {
    /// Loop kept as written.
    Leave,
    /// Loop fully unrolled.
    Full,
    /// Loop widened by the factor (body repeated, step multiplied).
    Widen(usize),
}

impl UnrollPolicy {
    /// The decision this policy takes on a loop of `trips` iterations —
    /// the one rule behind the unroll pass and the compile memo's unroll
    /// signature.
    pub fn decide(self, trips: usize) -> UnrollDecision {
        match self {
            UnrollPolicy::None => UnrollDecision::Leave,
            UnrollPolicy::Full { max_trip } if trips <= max_trip => UnrollDecision::Full,
            UnrollPolicy::Full { .. } => UnrollDecision::Leave,
            UnrollPolicy::Factor { factor } if trips <= factor => UnrollDecision::Full,
            UnrollPolicy::Factor { factor } if factor >= 2 && trips.is_multiple_of(factor) => {
                UnrollDecision::Widen(factor)
            }
            UnrollPolicy::Factor { .. } => UnrollDecision::Leave,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::on_tree::unroll;
    use crate::ir::{ArrayId, Inst};
    use crate::map::MemMap;
    use lgen_absint::AffineExpr;

    fn load_at(addr: AffineExpr) -> Inst {
        Inst::GLoad {
            dst: 0,
            arr: ArrayId(0),
            addr,
            map: MemMap::horizontal(4),
            aligned: false,
        }
    }

    fn simple_loop(start: i64, end: i64, step: i64) -> Inst {
        Inst::Loop {
            var: 0,
            name: "i".into(),
            start,
            end,
            step,
            body: vec![load_at(AffineExpr::var(0))],
        }
    }

    #[test]
    fn full_unroll_substitutes_constants() {
        let out = unroll(
            vec![simple_loop(0, 12, 4)],
            UnrollPolicy::Full { max_trip: 8 },
        );
        assert_eq!(out.len(), 3);
        let addrs: Vec<i64> = out
            .iter()
            .map(|i| match i {
                Inst::GLoad { addr, .. } => {
                    assert!(addr.terms.is_empty());
                    addr.constant
                }
                _ => panic!("expected load"),
            })
            .collect();
        assert_eq!(addrs, vec![0, 4, 8]);
    }

    #[test]
    fn full_unroll_respects_threshold() {
        let out = unroll(
            vec![simple_loop(0, 400, 4)],
            UnrollPolicy::Full { max_trip: 8 },
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Inst::Loop { .. }));
    }

    #[test]
    fn factor_unroll_widens_step() {
        let out = unroll(
            vec![simple_loop(0, 32, 4)],
            UnrollPolicy::Factor { factor: 2 },
        );
        let Inst::Loop { step, body, .. } = &out[0] else {
            panic!()
        };
        assert_eq!(*step, 8);
        assert_eq!(body.len(), 2);
        let Inst::GLoad { addr, .. } = &body[1] else {
            panic!()
        };
        // Second copy accesses var + 4.
        assert_eq!(addr.constant, 4);
        assert_eq!(addr.terms, vec![(1, 0)]);
    }

    #[test]
    fn factor_unroll_skips_nondividing_trip_counts() {
        let out = unroll(
            vec![simple_loop(0, 12, 4)],
            UnrollPolicy::Factor { factor: 2 },
        );
        // 3 trips, not divisible by 2, but 3 > 2 → untouched.
        let Inst::Loop { step, body, .. } = &out[0] else {
            panic!()
        };
        assert_eq!(*step, 4);
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn nested_loops_unroll_bottom_up() {
        let inner = simple_loop(0, 8, 4);
        let outer = Inst::Loop {
            var: 1,
            name: "j".into(),
            start: 0,
            end: 100,
            step: 1,
            body: vec![inner],
        };
        let out = unroll(vec![outer], UnrollPolicy::Full { max_trip: 4 });
        // Outer survives (100 trips), inner fully unrolled inside it.
        let Inst::Loop { body, .. } = &out[0] else {
            panic!()
        };
        assert_eq!(body.len(), 2);
        assert!(body.iter().all(|i| matches!(i, Inst::GLoad { .. })));
    }
}
