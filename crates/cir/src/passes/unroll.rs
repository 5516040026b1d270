//! Loop unrolling.
//!
//! LGen "typically unrolls inner loops" (§2.1.2): full unrolling of small
//! trip counts exposes straight-line codelet chains to scalar replacement
//! and lets alignment detection see constant addresses; partial unrolling
//! trades instruction-cache pressure for instruction-level parallelism.
//! The unroll decision is part of the autotuning search space.

use crate::arena::trip_count;
use crate::ir::Inst;
use lgen_absint::{AffineExpr, VarId};

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
    /// the one rule behind the tree and arena unroll passes and the
    /// compile memo's unroll signature.
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

/// Substitutes `var := value` in an affine expression.
fn subst_expr(e: &AffineExpr, var: VarId, value: i64) -> AffineExpr {
    let mut out = AffineExpr {
        terms: Vec::with_capacity(e.terms.len()),
        constant: e.constant,
    };
    for &(c, v) in &e.terms {
        if v == var {
            out.constant += c * value;
        } else {
            out.terms.push((c, v));
        }
    }
    out
}

/// Substitutes `var := value` throughout a block (recursively).
pub fn subst_block(insts: &[Inst], var: VarId, value: i64) -> Vec<Inst> {
    insts
        .iter()
        .map(|inst| match inst {
            Inst::GLoad {
                dst,
                arr,
                addr,
                map,
                aligned,
            } => Inst::GLoad {
                dst: *dst,
                arr: *arr,
                addr: subst_expr(addr, var, value),
                map: map.clone(),
                aligned: *aligned,
            },
            Inst::GStore {
                src,
                arr,
                addr,
                map,
                aligned,
            } => Inst::GStore {
                src: *src,
                arr: *arr,
                addr: subst_expr(addr, var, value),
                map: map.clone(),
                aligned: *aligned,
            },
            Inst::Loop {
                var: v,
                name,
                start,
                end,
                step,
                body,
            } => Inst::Loop {
                var: *v,
                name: name.clone(),
                start: *start,
                end: *end,
                step: *step,
                body: subst_block(body, var, value),
            },
            other => other.clone(),
        })
        .collect()
}

/// Applies `policy` to every loop in `insts`, bottom-up.
pub fn unroll(insts: Vec<Inst>, policy: UnrollPolicy) -> Vec<Inst> {
    insts
        .into_iter()
        .flat_map(|inst| unroll_inst(inst, policy))
        .collect()
}

fn unroll_inst(inst: Inst, policy: UnrollPolicy) -> Vec<Inst> {
    let Inst::Loop {
        var,
        name,
        start,
        end,
        step,
        body,
    } = inst
    else {
        return vec![inst];
    };
    let body = unroll(body, policy);
    match policy.decide(trip_count(start, end, step)) {
        UnrollDecision::Leave => vec![Inst::Loop {
            var,
            name,
            start,
            end,
            step,
            body,
        }],
        UnrollDecision::Full => {
            let mut out = Vec::new();
            let mut k = start;
            while k < end {
                out.extend(subst_block(&body, var, k));
                k += step;
            }
            out
        }
        UnrollDecision::Widen(factor) => {
            // Repeat the body `factor` times with offsets, widen the step.
            let mut widened = Vec::new();
            for u in 0..factor {
                widened.extend(body.iter().map(|i| shift_var(i, var, u as i64 * step)));
            }
            vec![Inst::Loop {
                var,
                name,
                start,
                end,
                step: step * factor as i64,
                body: widened,
            }]
        }
    }
}

/// Rewrites `var` to `var + delta` inside an instruction (for factor
/// unrolling).
fn shift_var(inst: &Inst, var: VarId, delta: i64) -> Inst {
    let shift_expr = |e: &AffineExpr| -> AffineExpr {
        let coeff: i64 = e.terms.iter().filter(|t| t.1 == var).map(|t| t.0).sum();
        e.offset(coeff * delta)
    };
    match inst {
        Inst::GLoad {
            dst,
            arr,
            addr,
            map,
            aligned,
        } => Inst::GLoad {
            dst: *dst,
            arr: *arr,
            addr: shift_expr(addr),
            map: map.clone(),
            aligned: *aligned,
        },
        Inst::GStore {
            src,
            arr,
            addr,
            map,
            aligned,
        } => Inst::GStore {
            src: *src,
            arr: *arr,
            addr: shift_expr(addr),
            map: map.clone(),
            aligned: *aligned,
        },
        Inst::Loop {
            var: v,
            name,
            start,
            end,
            step,
            body,
        } => Inst::Loop {
            var: *v,
            name: name.clone(),
            start: *start,
            end: *end,
            step: *step,
            body: body.iter().map(|i| shift_var(i, var, delta)).collect(),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ArrayId;
    use crate::map::MemMap;

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
