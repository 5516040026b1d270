//! Unit tests of register copy propagation, the `copyprop` pass
//! ([`crate::arena::copy_prop_block`]).

#[cfg(test)]
mod tests {
    use crate::arena::on_tree::copyprop as prop_block;
    use crate::ir::{ArrayId, Inst, VArith, VMove, VReg, VWidth};
    use crate::map::MemMap;
    use lgen_absint::AffineExpr;

    fn mov(dst: VReg, a: VReg) -> Inst {
        Inst::Move {
            op: VMove::Mov,
            dst,
            a,
            b: 0,
        }
    }

    fn add(dst: VReg, a: VReg, b: VReg) -> Inst {
        Inst::Arith {
            op: VArith::Add(VWidth::Q),
            dst,
            a,
            b,
        }
    }

    #[test]
    fn uses_are_rewritten() {
        let out = prop_block(vec![mov(1, 0), add(2, 1, 1)]);
        assert_eq!(out[1], add(2, 0, 0));
    }

    #[test]
    fn chains_resolve_transitively() {
        let out = prop_block(vec![mov(1, 0), mov(2, 1), add(3, 2, 2)]);
        assert_eq!(out[2], add(3, 0, 0));
    }

    #[test]
    fn redefinition_kills_mapping() {
        let out = prop_block(vec![
            mov(1, 0),
            // 0 is redefined: the copy 1←0 must die.
            Inst::GLoad {
                dst: 0,
                arr: ArrayId(0),
                addr: AffineExpr::constant(0),
                map: MemMap::horizontal(4),
                aligned: false,
            },
            add(2, 1, 1),
        ]);
        // The use of 1 must NOT be rewritten to the redefined 0.
        assert_eq!(out[2], add(2, 1, 1));
    }

    #[test]
    fn store_sources_are_rewritten() {
        let out = prop_block(vec![
            mov(1, 0),
            Inst::GStore {
                src: 1,
                arr: ArrayId(0),
                addr: AffineExpr::constant(0),
                map: MemMap::horizontal(4),
                aligned: false,
            },
        ]);
        let Inst::GStore { src, .. } = out[1] else {
            panic!()
        };
        assert_eq!(src, 0);
    }
}
