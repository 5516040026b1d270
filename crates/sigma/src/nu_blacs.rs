//! The 18 ν-BLACs of Table 2.1.
//!
//! A ν-BLAC is a codelet implementing one basic operator on ν-sized
//! operands held in registers: ν×ν matrices are 4 registers (one per row),
//! ν×1 and 1×ν vectors are single registers, scalars are broadcast
//! registers. The Loader/Storer codelets (generic loads/stores with packing
//! maps, in `lgen-cir`) move leftover tiles in and out of this register
//! form (§2.1.4).
//!
//! This module is the catalogue: [`NuBlacKind`] names each ν-BLAC and
//! [`Operator`] groups them into Table 2.1's rows. The code generator
//! ([`crate::codegen`]) emits the ν-BLAC shapes inline, in C-IR, so one
//! definition serves every ISA: the lane-FMA form lowers to `vmla_lane` on
//! NEON and to shuffle+mul+add on SSSE3, and the horizontal-add form lowers
//! to `_mm_hadd_ps` on SSSE3 and to `vpadd` pairs on NEON.

/// Identity of one of the 18 required ν-BLACs (Table 2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum NuBlacKind {
    /// ν×ν + ν×ν.
    AddMM,
    /// ν×1 + ν×1.
    AddVV,
    /// 1×ν + 1×ν.
    AddRR,
    /// scalar × scalar.
    SMulS,
    /// scalar × ν×ν.
    SMulM,
    /// scalar × ν×1.
    SMulV,
    /// scalar × 1×ν.
    SMulR,
    /// ν×ν × scalar.
    MSMul,
    /// ν×1 × scalar.
    VSMul,
    /// 1×ν × scalar.
    RSMul,
    /// ν×ν · ν×ν.
    MulMM,
    /// ν×ν · ν×1.
    MulMV,
    /// 1×ν · ν×ν.
    MulRM,
    /// ν×1 · 1×ν (outer product).
    MulVR,
    /// 1×ν · ν×1 (inner product).
    MulRV,
    /// (ν×ν)ᵀ.
    TransM,
    /// (ν×1)ᵀ.
    TransV,
    /// (1×ν)ᵀ.
    TransR,
}

/// The four LL operators of Table 2.1's grouping.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Operator {
    /// Matrix addition.
    Addition,
    /// Scalar multiplication.
    ScalarMultiplication,
    /// Matrix multiplication.
    MatrixMultiplication,
    /// Transposition.
    Transposition,
}

impl NuBlacKind {
    /// All 18 required ν-BLACs, in Table 2.1 order.
    pub fn all() -> [NuBlacKind; 18] {
        use NuBlacKind::*;
        [
            AddMM, AddVV, AddRR, SMulS, SMulM, SMulV, SMulR, MSMul, VSMul, RSMul, MulMM, MulMV,
            MulRM, MulVR, MulRV, TransM, TransV, TransR,
        ]
    }

    /// The operator row of Table 2.1 this ν-BLAC belongs to.
    pub fn operator(self) -> Operator {
        use NuBlacKind::*;
        match self {
            AddMM | AddVV | AddRR => Operator::Addition,
            SMulS | SMulM | SMulV | SMulR | MSMul | VSMul | RSMul => Operator::ScalarMultiplication,
            MulMM | MulMV | MulRM | MulVR | MulRV => Operator::MatrixMultiplication,
            TransM | TransV | TransR => Operator::Transposition,
        }
    }

    /// Codelet name.
    pub fn name(self) -> &'static str {
        use NuBlacKind::*;
        match self {
            AddMM => "blac_nu4_madd",
            AddVV => "blac_nu4_vadd",
            AddRR => "blac_nu4_radd",
            SMulS => "blac_nu4_ssmul",
            SMulM => "blac_nu4_smmul",
            SMulV => "blac_nu4_svmul",
            SMulR => "blac_nu4_srmul",
            MSMul => "blac_nu4_msmul",
            VSMul => "blac_nu4_vsmul",
            RSMul => "blac_nu4_rsmul",
            MulMM => "blac_nu4_mmm",
            MulMV => "blac_nu4_mvm",
            MulRM => "blac_nu4_rmm",
            MulVR => "blac_nu4_outer",
            MulRV => "blac_nu4_dot",
            TransM => "blac_nu4_mtrans",
            TransV => "blac_nu4_vtrans",
            TransR => "blac_nu4_rtrans",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_18_nu_blacs() {
        assert_eq!(NuBlacKind::all().len(), 18);
        let count = |op: Operator| {
            NuBlacKind::all()
                .iter()
                .filter(|k| k.operator() == op)
                .count()
        };
        // The Table 2.1 row counts: 3 + 7 + 5 + 3 = 18.
        assert_eq!(count(Operator::Addition), 3);
        assert_eq!(count(Operator::ScalarMultiplication), 7);
        assert_eq!(count(Operator::MatrixMultiplication), 5);
        assert_eq!(count(Operator::Transposition), 3);
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = NuBlacKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
    }
}
