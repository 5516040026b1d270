//! Unit tests of register copy propagation, the `copyprop` pass
//! ([`crate::arena::copy_prop_block`]).

#[cfg(test)]
mod tests {
    use crate::arena::test_util::{insts_in, push_insts};
    use crate::arena::{copy_prop_block, AInst, Arena};
    use crate::ir::{ArrayId, VArith, VMove, VReg, VWidth};
    use crate::map::MemMap;
    use lgen_absint::AffineExpr;

    fn mov(dst: VReg, a: VReg) -> AInst {
        AInst::Move {
            op: VMove::Mov,
            dst,
            a,
            b: 0,
        }
    }

    fn add(dst: VReg, a: VReg, b: VReg) -> AInst {
        AInst::Arith {
            op: VArith::Add(VWidth::Q),
            dst,
            a,
            b,
        }
    }

    /// A generic load (`store: false`) or store of `reg` at `x[0..4]`.
    fn access(a: &mut Arena, store: bool, reg: VReg) -> AInst {
        let addr = a.intern_expr(&AffineExpr::constant(0));
        let map = a.intern_map(&MemMap::horizontal(4));
        let arr = ArrayId(0);
        if store {
            AInst::GStore {
                src: reg,
                arr,
                addr,
                map,
                aligned: false,
            }
        } else {
            AInst::GLoad {
                dst: reg,
                arr,
                addr,
                map,
                aligned: false,
            }
        }
    }

    fn prop_block(mut a: Arena, insts: &[AInst]) -> Vec<AInst> {
        let root = push_insts(&mut a, insts);
        copy_prop_block(&mut a, root);
        insts_in(&a, root)
    }

    #[test]
    fn uses_are_rewritten() {
        let out = prop_block(Arena::default(), &[mov(1, 0), add(2, 1, 1)]);
        assert_eq!(out[1], add(2, 0, 0));
    }

    #[test]
    fn chains_resolve_transitively() {
        let out = prop_block(Arena::default(), &[mov(1, 0), mov(2, 1), add(3, 2, 2)]);
        assert_eq!(out[2], add(3, 0, 0));
    }

    #[test]
    fn redefinition_kills_mapping() {
        let mut a = Arena::default();
        // 0 is redefined: the copy 1←0 must die.
        let redefine = access(&mut a, false, 0);
        let out = prop_block(a, &[mov(1, 0), redefine, add(2, 1, 1)]);
        // The use of 1 must NOT be rewritten to the redefined 0.
        assert_eq!(out[2], add(2, 1, 1));
    }

    #[test]
    fn store_sources_are_rewritten() {
        let mut a = Arena::default();
        let store = access(&mut a, true, 1);
        let out = prop_block(a, &[mov(1, 0), store]);
        let AInst::GStore { src, .. } = out[1] else {
            panic!()
        };
        assert_eq!(src, 0);
    }
}
