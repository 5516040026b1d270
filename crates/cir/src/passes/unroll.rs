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
    use crate::arena::test_util::{insts_in, push_insts};
    use crate::arena::{unroll_block, AInst, Arena, BlockId};
    use crate::ir::ArrayId;
    use crate::map::MemMap;
    use lgen_absint::AffineExpr;

    fn load_at(a: &mut Arena, addr: AffineExpr) -> AInst {
        AInst::GLoad {
            dst: 0,
            arr: ArrayId(0),
            addr: a.intern_expr(&addr),
            map: a.intern_map(&MemMap::horizontal(4)),
            aligned: false,
        }
    }

    fn simple_loop(a: &mut Arena, start: i64, end: i64, step: i64) -> AInst {
        let load = load_at(a, AffineExpr::var(0));
        AInst::Loop {
            var: 0,
            name: a.intern_sym("i"),
            start,
            end,
            step,
            body: push_insts(a, &[load]),
        }
    }

    /// Unrolls a body of one `simple_loop(start, end, step)`; returns the
    /// arena and the unrolled root block.
    fn unroll_loop(start: i64, end: i64, step: i64, policy: UnrollPolicy) -> (Arena, BlockId) {
        let mut a = Arena::default();
        let l = simple_loop(&mut a, start, end, step);
        let root = push_insts(&mut a, &[l]);
        unroll_block(&mut a, root, policy);
        (a, root)
    }

    /// The `(constant, terms)` address of a load.
    fn addr_of(a: &Arena, inst: AInst) -> (i64, Vec<(i64, usize)>) {
        let AInst::GLoad { addr, .. } = inst else {
            panic!("expected load, got {inst:?}")
        };
        (a.exprs.constant(addr), a.exprs.terms(addr).to_vec())
    }

    #[test]
    fn full_unroll_substitutes_constants() {
        let (a, root) = unroll_loop(0, 12, 4, UnrollPolicy::Full { max_trip: 8 });
        let out = insts_in(&a, root);
        let addrs: Vec<_> = out.iter().map(|&i| addr_of(&a, i)).collect();
        assert_eq!(addrs, vec![(0, vec![]), (4, vec![]), (8, vec![])]);
    }

    #[test]
    fn full_unroll_respects_threshold() {
        let (a, root) = unroll_loop(0, 400, 4, UnrollPolicy::Full { max_trip: 8 });
        let out = insts_in(&a, root);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], AInst::Loop { .. }));
    }

    #[test]
    fn factor_unroll_widens_step() {
        let (a, root) = unroll_loop(0, 32, 4, UnrollPolicy::Factor { factor: 2 });
        let AInst::Loop { step, body, .. } = insts_in(&a, root)[0] else {
            panic!()
        };
        assert_eq!(step, 8);
        let body = insts_in(&a, body);
        assert_eq!(body.len(), 2);
        // Second copy accesses var + 4.
        assert_eq!(addr_of(&a, body[1]), (4, vec![(1, 0)]));
    }

    #[test]
    fn factor_unroll_skips_nondividing_trip_counts() {
        let (a, root) = unroll_loop(0, 12, 4, UnrollPolicy::Factor { factor: 2 });
        // 3 trips, not divisible by 2, but 3 > 2 → untouched.
        let AInst::Loop { step, body, .. } = insts_in(&a, root)[0] else {
            panic!()
        };
        assert_eq!(step, 4);
        assert_eq!(a.block(body).len(), 1);
    }

    #[test]
    fn nested_loops_unroll_bottom_up() {
        let mut a = Arena::default();
        let inner = simple_loop(&mut a, 0, 8, 4);
        let outer = AInst::Loop {
            var: 1,
            name: a.intern_sym("j"),
            start: 0,
            end: 100,
            step: 1,
            body: push_insts(&mut a, &[inner]),
        };
        let root = push_insts(&mut a, &[outer]);
        unroll_block(&mut a, root, UnrollPolicy::Full { max_trip: 4 });
        // Outer survives (100 trips), inner fully unrolled inside it.
        let AInst::Loop { body, .. } = insts_in(&a, root)[0] else {
            panic!()
        };
        let body = insts_in(&a, body);
        assert_eq!(body.len(), 2);
        assert!(body.iter().all(|i| matches!(i, AInst::GLoad { .. })));
    }
}
