//! Unit tests of dead-code elimination, the `dce` pass
//! ([`crate::arena::dce_block`]).

#[cfg(test)]
mod tests {
    use crate::arena::test_util::run_passes;
    use crate::arena::AInst;
    use crate::builder::KernelBuilder;
    use crate::ir::{VArith, VMove, VWidth};
    use crate::map::MemMap;
    use lgen_absint::AffineExpr;

    /// The full Fig. 2.3 → Fig. 2.4 pipeline: a chain through local arrays
    /// collapses to loads, arithmetic, and the final store.
    #[test]
    fn chain_through_locals_collapses() {
        // D = (A + B) + C on one 4-wide tile, chained via t0..t4.
        let mut b = KernelBuilder::new("chain");
        let a = b.input("A", 4);
        let bb = b.input("B", 4);
        let c = b.input("C", 4);
        let d = b.output("D", 4);
        let t = [
            b.local("t0", 4),
            b.local("t1", 4),
            b.local("t2", 4),
            b.local("t3", 4),
        ];
        let zero = AffineExpr::constant(0);
        let m = MemMap::horizontal(4);

        // Loader A → t0; Loader B → t1.
        let va = b.load(a, zero.clone(), m.clone());
        b.store(va, t[0], zero.clone(), m.clone());
        let vb = b.load(bb, zero.clone(), m.clone());
        b.store(vb, t[1], zero.clone(), m.clone());
        // + ν-BLAC: t2 = t0 + t1.
        let l0 = b.load(t[0], zero.clone(), m.clone());
        let l1 = b.load(t[1], zero.clone(), m.clone());
        let s0 = b.arith(VArith::Add(VWidth::Q), l0, l1);
        b.store(s0, t[2], zero.clone(), m.clone());
        // Loader C → t3.
        let vc = b.load(c, zero.clone(), m.clone());
        b.store(vc, t[3], zero.clone(), m.clone());
        // + ν-BLAC: load t2, t3, add, store D.
        let l2 = b.load(t[2], zero.clone(), m.clone());
        let l3 = b.load(t[3], zero.clone(), m.clone());
        let s1 = b.arith(VArith::Add(VWidth::Q), l2, l3);
        b.store(s1, d, zero.clone(), m.clone());
        let mut k = b.finish(8);
        let body = run_passes(&mut k, "scalrep,copyprop,dce");

        // Exactly: 3 loads (A, B, C), 2 adds, 1 store (D).
        let loads = body
            .iter()
            .filter(|i| matches!(i, AInst::GLoad { .. }))
            .count();
        let stores = body
            .iter()
            .filter(|i| matches!(i, AInst::GStore { .. }))
            .count();
        let adds = body
            .iter()
            .filter(|i| matches!(i, AInst::Arith { .. }))
            .count();
        let movs = body
            .iter()
            .filter(|i| matches!(i, AInst::Move { .. }))
            .count();
        assert_eq!((loads, stores, adds, movs), (3, 1, 2, 0), "body: {body:#?}");
    }

    #[test]
    fn dead_value_code_is_removed() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 4);
        let y = b.output("y", 4);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        let _dead = b.arith(VArith::Mul(VWidth::Q), v, v);
        let _dead2 = b.mov_op(VMove::Splat(0), v, 0);
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let mut k = b.finish(0);
        let body = run_passes(&mut k, "dce");
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn empty_loops_are_dropped() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 16);
        let y = b.output("y", 4);
        b.for_loop("i", 0, 16, 4, |b, i| {
            let _dead = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
        });
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let mut k = b.finish(0);
        let body = run_passes(&mut k, "dce");
        assert!(!body.iter().any(|i| matches!(i, AInst::Loop { .. })));
    }

    #[test]
    fn fma_accumulators_stay_live() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 4);
        let y = b.output("y", 4);
        let acc = b.zero();
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.arith_acc(VArith::Fma(VWidth::Q), acc, v, v);
        b.store(acc, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let mut k = b.finish(8);
        let body = run_passes(&mut k, "dce");
        assert_eq!(body.len(), 4, "zero, load, fma, store all live: {body:#?}");
    }
}
