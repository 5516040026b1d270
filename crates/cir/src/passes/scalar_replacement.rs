//! Unit tests of scalar replacement (§2.1.4, §3.1), the `scalrep` pass
//! ([`crate::arena::scalar_replacement_block`]).

#[cfg(test)]
mod tests {
    use crate::arena::test_util::run_passes;
    use crate::arena::AInst;
    use crate::builder::KernelBuilder;
    use crate::ir::{VArith, VMove, VWidth};
    use crate::map::MemMap;
    use lgen_absint::AffineExpr;
    use lgen_isa::{MOp, VectorIsa};

    /// Rebuilds the store→load chain of the paper's Fig. 3.1 and checks it
    /// collapses to a direct use.
    #[test]
    fn simple_store_load_forwards() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 4);
        let y = b.output("y", 4);
        let t = b.local("t0", 4);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(v, t, AffineExpr::constant(0), MemMap::horizontal(4));
        let w = b.load(t, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(w, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let mut k = b.finish(0);

        let body = run_passes(&mut k, "scalrep");
        let loads_from_local = body
            .iter()
            .filter(|i| matches!(i, AInst::GLoad { arr, .. } if arr.0 == 2))
            .count();
        assert_eq!(loads_from_local, 0, "local load must be forwarded");
        assert!(body
            .iter()
            .any(|i| matches!(i, AInst::Move { op: VMove::Mov, .. })));
    }

    /// The Fig. 3.4 scenario: 3-element store and 3-element load through a
    /// local, lowered *differently* on NEON, still forward because the
    /// generic footprints match. After copy-prop + DCE no shuffle remains.
    #[test]
    fn mismatched_generic_implementations_still_forward() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 3);
        let y = b.output("y", 3);
        let t = b.local("t0", 4);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(3));
        b.store(v, t, AffineExpr::constant(0), MemMap::horizontal(3));
        let w = b.load(t, AffineExpr::constant(0), MemMap::horizontal(3));
        let s = b.arith(VArith::Add(VWidth::Q), w, w);
        b.store(s, y, AffineExpr::constant(0), MemMap::horizontal(3));
        let mut k = b.finish(3);

        run_passes(&mut k, "scalrep,copyprop,dce");

        // No access to the local array survives.
        let mut local_accesses = 0;
        let body = k.body();
        body.arena.visit(body.root, &mut |_, i| match *i {
            AInst::GLoad { arr, .. } | AInst::GStore { arr, .. } if arr.0 == 2 => {
                local_accesses += 1
            }
            _ => {}
        });
        assert_eq!(local_accesses, 0);

        // And the NEON trace has no VsetLane from the forwarded load
        // (only the input load's zero-fill remains).
        let layout = crate::interp::MemLayout::aligned(&k);
        let mut xv = vec![1.0f32, 2.0, 3.0];
        let mut yv = vec![0.0f32; 3];
        let mut sink = lgen_isa::inst::CountingSink::new();
        crate::interp::run_kernel(
            &k,
            &mut [&mut xv, &mut yv],
            &layout,
            VectorIsa::Neon,
            &mut sink,
        )
        .unwrap();
        assert_eq!(yv, vec![2.0, 4.0, 6.0]);
        assert_eq!(sink.count(MOp::VstD), 1, "only the final store remains");
    }

    #[test]
    fn param_arrays_do_not_forward() {
        let mut b = KernelBuilder::new("t");
        let x = b.inout("x", 4);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(v, x, AffineExpr::constant(0), MemMap::horizontal(4));
        let w = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(w, x, AffineExpr::constant(0), MemMap::horizontal(4));
        let mut k = b.finish(0);
        let body = run_passes(&mut k, "scalrep");
        let loads = body
            .iter()
            .filter(|i| matches!(i, AInst::GLoad { .. }))
            .count();
        assert_eq!(loads, 2, "parameter accesses must not be forwarded");
    }

    #[test]
    fn different_footprints_do_not_forward() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 4);
        let y = b.output("y", 4);
        let t = b.local("t0", 8);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(v, t, AffineExpr::constant(0), MemMap::horizontal(4));
        // Load from a different offset of the local.
        let w = b.load(t, AffineExpr::constant(4), MemMap::horizontal(4));
        b.store(w, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let mut k = b.finish(0);
        let body = run_passes(&mut k, "scalrep");
        let local_loads = body
            .iter()
            .filter(|i| matches!(i, AInst::GLoad { arr, .. } if arr.0 == 2))
            .count();
        assert_eq!(local_loads, 1);
    }

    #[test]
    fn overlapping_store_invalidates() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let y = b.output("y", 4);
        let t = b.local("t0", 8);
        let v0 = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        let v1 = b.load(x, AffineExpr::constant(4), MemMap::horizontal(4));
        b.store(v0, t, AffineExpr::constant(0), MemMap::horizontal(4));
        // Overlapping store at offset 2 clobbers part of the first store.
        b.store(v1, t, AffineExpr::constant(2), MemMap::horizontal(4));
        let w = b.load(t, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(w, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let mut k = b.finish(0);
        let body = run_passes(&mut k, "scalrep");
        // The load must NOT be forwarded to v0.
        let forwarded = body
            .iter()
            .any(|i| matches!(i, AInst::Move { op: VMove::Mov, .. }));
        assert!(!forwarded, "overlapped store must invalidate forwarding");
    }

    /// Regression (found by the random-BLAC fuzzer): a store's source
    /// register redefined before the matching load must not forward —
    /// unrolled bodies reuse the same virtual registers.
    #[test]
    fn redefined_source_register_invalidates_forwarding() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let y = b.output("y", 4);
        let t = b.local("t0", 4);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(v, t, AffineExpr::constant(0), MemMap::horizontal(4));
        let redef = b.load(x, AffineExpr::constant(4), MemMap::horizontal(4));
        let w = b.load(t, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(w, y, AffineExpr::constant(0), MemMap::horizontal(4));
        let mut k = b.finish(0);
        // Redefine v (as a cloned unrolled body would): the third
        // instruction loads into `v` instead of a fresh register.
        let body = k.body_mut();
        let id = body.insts()[2];
        let AInst::GLoad { dst, .. } = &mut body.arena.insts[id.0 as usize] else {
            panic!("expected the redefining load");
        };
        assert_eq!(*dst, redef);
        *dst = v;
        let body = run_passes(&mut k, "scalrep");
        // The load of t0 must survive: forwarding from the stale register
        // would read x[4..8] instead of x[0..4].
        let local_loads = body
            .iter()
            .filter(|i| matches!(i, AInst::GLoad { arr, .. } if *arr == t))
            .count();
        assert_eq!(local_loads, 1, "stale forwarding detected: {body:#?}");
    }

    #[test]
    fn loop_boundary_invalidates() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 4);
        let y = b.output("y", 16);
        let t = b.local("t0", 4);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
        b.store(v, t, AffineExpr::constant(0), MemMap::horizontal(4));
        b.for_loop("i", 0, 16, 4, |b, i| {
            let w = b.load(t, AffineExpr::constant(0), MemMap::horizontal(4));
            b.store(w, y, AffineExpr::var(i), MemMap::horizontal(4));
        });
        let mut k = b.finish(0);
        let body = run_passes(&mut k, "scalrep");
        // Inside the loop, the load survives (conservatively).
        let AInst::Loop { body: inner, .. } = body[2] else {
            panic!()
        };
        let arena = &k.body().arena;
        let first = arena.block(inner)[0];
        assert!(matches!(arena.inst(first), AInst::GLoad { .. }));
    }
}
