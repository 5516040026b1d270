//! Structural recognition of the paper's BLAC shapes.
//!
//! Libraries cover fixed interfaces: the paper maps each evaluated BLAC
//! onto one or more BLAS/IPP routines (§5.1.5). This module recognizes
//! those shapes in an arbitrary [`Blac`] so the competitor models know
//! which routine (sequence) to emit.

use lgen_ll::blac::{Blac, Expr, OperandId};

/// A recognized BLAC shape with its operand bindings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pattern {
    /// `y = Ax`.
    Mvm {
        /// Matrix operand.
        a: OperandId,
        /// Input vector.
        x: OperandId,
    },
    /// `C = AB`.
    Mmm {
        /// Left matrix.
        a: OperandId,
        /// Right matrix.
        b: OperandId,
    },
    /// `y = αx + y`.
    Axpy {
        /// Scalar.
        alpha: OperandId,
        /// Input vector.
        x: OperandId,
    },
    /// `y = αAx + βy`.
    Gemv {
        /// Scalars `(α, β)`.
        alpha: OperandId,
        /// β.
        beta: OperandId,
        /// Matrix.
        a: OperandId,
        /// Input vector.
        x: OperandId,
    },
    /// `C = αAB + βC`.
    Gemm {
        /// α.
        alpha: OperandId,
        /// β.
        beta: OperandId,
        /// Left matrix.
        a: OperandId,
        /// Right matrix.
        b: OperandId,
    },
    /// `y = αAx + βBx`.
    TwoGemv {
        /// α.
        alpha: OperandId,
        /// β.
        beta: OperandId,
        /// First matrix.
        a: OperandId,
        /// Second matrix.
        b: OperandId,
        /// Shared input vector.
        x: OperandId,
    },
    /// `α = xᵀAy`.
    Bilinear {
        /// Left vector.
        x: OperandId,
        /// Matrix.
        a: OperandId,
        /// Right vector.
        y: OperandId,
    },
    /// `C = α(A0 + A1)ᵀB + βC`.
    AddTGemm {
        /// α.
        alpha: OperandId,
        /// β.
        beta: OperandId,
        /// First summand.
        a0: OperandId,
        /// Second summand.
        a1: OperandId,
        /// Right matrix.
        b: OperandId,
    },
    /// `C = A + B`.
    Madd {
        /// Left.
        a: OperandId,
        /// Right.
        b: OperandId,
    },
    /// `C = Aᵀ`.
    Transpose {
        /// Input matrix.
        a: OperandId,
    },
}

fn as_ref(e: &Expr) -> Option<OperandId> {
    match e {
        Expr::Ref(id) => Some(*id),
        _ => None,
    }
}

/// `Mul(Ref(s), inner)` with `s` scalar.
fn as_scaled<'a>(blac: &Blac, e: &'a Expr) -> Option<(OperandId, &'a Expr)> {
    if let Expr::Mul(l, r) = e {
        if let Some(id) = as_ref(l) {
            if blac.dims(id).is_scalar() {
                return Some((id, r));
            }
        }
    }
    None
}

/// `Mul(Ref(a), Ref(x))` with matrix × column-vector shapes.
fn as_mvm(blac: &Blac, e: &Expr) -> Option<(OperandId, OperandId)> {
    if let Expr::Mul(l, r) = e {
        if let (Some(a), Some(x)) = (as_ref(l), as_ref(r)) {
            let (da, dx) = (blac.dims(a), blac.dims(x));
            if !da.is_scalar() && !da.is_vector() && dx.cols == 1 && dx.rows == da.cols {
                return Some((a, x));
            }
        }
    }
    None
}

/// Recognizes the paper's BLAC shapes; `None` for anything else.
pub(crate) fn classify(blac: &Blac) -> Option<Pattern> {
    let e = &blac.expr;
    let out = blac.output;
    let d_out = blac.dims(out);

    // C = Aᵀ
    if let Expr::Trans(inner) = e {
        if let Some(a) = as_ref(inner) {
            return Some(Pattern::Transpose { a });
        }
    }
    // C = A + B
    if let Expr::Add(l, r) = e {
        if let (Some(a), Some(b)) = (as_ref(l), as_ref(r)) {
            return Some(Pattern::Madd { a, b });
        }
    }
    // y = Ax / C = AB
    if let Some((a, x)) = as_mvm(blac, e) {
        return Some(Pattern::Mvm { a, x });
    }
    if let Expr::Mul(l, r) = e {
        if let (Some(a), Some(b)) = (as_ref(l), as_ref(r)) {
            let (da, db) = (blac.dims(a), blac.dims(b));
            if !da.is_scalar() && !db.is_scalar() && da.cols == db.rows {
                return Some(Pattern::Mmm { a, b });
            }
        }
    }
    // α = xᵀ (A y)
    if d_out.is_scalar() {
        if let Expr::Mul(l, r) = e {
            if let Expr::Trans(xt) = l.as_ref() {
                if let (Some(x), Some((a, y))) = (as_ref(xt), as_mvm(blac, r)) {
                    return Some(Pattern::Bilinear { x, a, y });
                }
            }
        }
    }
    // Sums of two scaled terms.
    if let Expr::Add(l, r) = e {
        let left = as_scaled(blac, l);
        let right = as_scaled(blac, r);
        if let (Some((alpha, li)), Some((beta, ri))) = (left, right) {
            // y = α(Ax) + βy
            if let (Some((a, x)), Some(yref)) = (as_mvm(blac, li), as_ref(ri)) {
                if yref == out {
                    return Some(Pattern::Gemv { alpha, beta, a, x });
                }
                // y = αAx + βBx with B a *vector*? No: handled below.
            }
            // y = α(Ax) + β(Bx)
            if let (Some((a, x1)), Some((b, x2))) = (as_mvm(blac, li), as_mvm(blac, ri)) {
                if x1 == x2 {
                    return Some(Pattern::TwoGemv {
                        alpha,
                        beta,
                        a,
                        b,
                        x: x1,
                    });
                }
            }
            // C = α(AB) + βC
            if let (Expr::Mul(al, ar), Some(cref)) = (li, as_ref(ri)) {
                if cref == out {
                    if let (Some(a), Some(b)) = (as_ref(al), as_ref(ar)) {
                        let (da, db) = (blac.dims(a), blac.dims(b));
                        if !da.is_scalar() && !db.is_scalar() && !da.is_vector() {
                            return Some(Pattern::Gemm { alpha, beta, a, b });
                        }
                    }
                    // C = α((A0+A1)ᵀ B) + βC
                    if let Expr::Trans(t) = al.as_ref() {
                        if let Expr::Add(a0e, a1e) = t.as_ref() {
                            if let (Some(a0), Some(a1), Some(b)) =
                                (as_ref(a0e), as_ref(a1e), as_ref(ar))
                            {
                                return Some(Pattern::AddTGemm {
                                    alpha,
                                    beta,
                                    a0,
                                    a1,
                                    b,
                                });
                            }
                        }
                    }
                }
            }
            // y = αx + βy degenerates to axpy-like; fall through.
        }
        // y = αx + y
        if let (Some((alpha, xi)), Some(yref)) = (as_scaled(blac, l), as_ref(r)) {
            if yref == out {
                if let Some(x) = as_ref(xi) {
                    if blac.dims(x).is_vector() {
                        return Some(Pattern::Axpy { alpha, x });
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgen_ll::paper;

    #[test]
    fn recognizes_the_whole_suite() {
        assert!(matches!(
            classify(&paper::mvm(4, 8)),
            Some(Pattern::Mvm { .. })
        ));
        assert!(matches!(
            classify(&paper::mmm(4, 8, 4)),
            Some(Pattern::Mmm { .. })
        ));
        assert!(matches!(
            classify(&paper::axpy(16)),
            Some(Pattern::Axpy { .. })
        ));
        assert!(matches!(
            classify(&paper::gemv(4, 8)),
            Some(Pattern::Gemv { .. })
        ));
        assert!(matches!(
            classify(&paper::gemm(4, 8, 4)),
            Some(Pattern::Gemm { .. })
        ));
        assert!(matches!(
            classify(&paper::two_gemv(4, 8)),
            Some(Pattern::TwoGemv { .. })
        ));
        assert!(matches!(
            classify(&paper::bilinear(4, 8)),
            Some(Pattern::Bilinear { .. })
        ));
        assert!(matches!(
            classify(&paper::addt_gemm(8, 4, 4)),
            Some(Pattern::AddTGemm { .. })
        ));
        assert!(matches!(
            classify(&paper::madd(4, 4)),
            Some(Pattern::Madd { .. })
        ));
        assert!(matches!(
            classify(&paper::transpose(4, 8)),
            Some(Pattern::Transpose { .. })
        ));
    }

    #[test]
    fn operand_bindings_are_correct() {
        let blac = paper::gemv(4, 8);
        let Some(Pattern::Gemv { alpha, beta, a, x }) = classify(&blac) else {
            panic!()
        };
        assert_eq!(blac.operands[alpha.0].name, "alpha");
        assert_eq!(blac.operands[beta.0].name, "beta");
        assert_eq!(blac.operands[a.0].name, "A");
        assert_eq!(blac.operands[x.0].name, "x");
    }

    #[test]
    fn unknown_shapes_are_rejected() {
        // y = (A + B)x is not in the library interface.
        use lgen_ll::BlacBuilder;
        let mut b = BlacBuilder::new();
        let a = b.matrix("A", 4, 8);
        let c = b.matrix("B", 4, 8);
        let x = b.col_vector("x", 8);
        let y = b.col_vector("y", 4);
        let expr = (b.handle(a) + b.handle(c)) * b.handle(x);
        let blac = b.define(y, expr).unwrap();
        assert_eq!(classify(&blac), None);
    }
}
