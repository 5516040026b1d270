//! Alignment detection and alignment versioning (§3.2).
//!
//! Alignment detection ([`crate::arena::align_block`], the `align` pass)
//! runs the abstract interpretation of `lgen-absint` over the kernel's
//! loop nest and marks every 16-byte memory access whose address is
//! provably a multiple of ν floats, given assumptions about the base
//! alignment of each array. Lowering then uses aligned instructions for
//! marked accesses.
//!
//! Alignment versioning (§3.2.4) generates one code version per alignment
//! combination of the vector-accessed parameter arrays — `(N/l)^a + 1`
//! versions, each analyzed under its own assumption — combined by runtime
//! dispatch (Listing 3.3).

use crate::arena::{align_block, AInst};
use crate::ir::{Kernel, KernelVersion};

/// Number of float offsets per alignment class (ν for single precision with
/// 16-byte vectors).
pub const ALIGN_CLASSES: usize = 4;

/// The most arrays a kernel is versioned over: 3 arrays make 4^3 + 1 = 65
/// versions (Listing 3.3); 4^4 + 1 = 257 is past the paper's own
/// practical limit.
pub const MAX_VERSIONED_ARRAYS: usize = 3;

/// The parameter arrays alignment versioning dispatches on: those long
/// enough (length ≥ ν) to be vector-accessed. Short (scalar) parameters
/// are don't-care.
pub fn versioned_arrays(kernel: &Kernel) -> Vec<usize> {
    kernel
        .arrays
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind.is_param() && d.len >= ALIGN_CLASSES)
        .map(|(i, _)| i)
        .collect()
}

/// Whether [`version_for_alignment`] accepts `kernel`: it is not yet
/// versioned and has at most [`MAX_VERSIONED_ARRAYS`] versioned arrays.
pub fn can_version(kernel: &Kernel) -> bool {
    kernel.versions.len() == 1 && versioned_arrays(kernel).len() <= MAX_VERSIONED_ARRAYS
}

/// Generates the alignment-versioned form of a kernel (§3.2.4).
///
/// Every [`versioned_arrays`] entry is versioned over its 4 possible float
/// offsets. The result has `4^a + 1` versions: every combination, each
/// with alignment detection applied under its assumption, plus the
/// all-unaligned fallback. Each version is a copy of the body's arena
/// with alignment detection run under its assumption.
///
/// # Panics
///
/// Panics unless [`can_version`] holds: if the kernel is already
/// versioned, or if more than [`MAX_VERSIONED_ARRAYS`] arrays would be
/// versioned.
pub fn version_for_alignment(kernel: &Kernel) -> Kernel {
    assert_eq!(kernel.versions.len(), 1, "kernel is already versioned");
    let versioned = versioned_arrays(kernel);
    assert!(
        can_version(kernel),
        "refusing to version {} arrays (4^{} versions)",
        versioned.len(),
        versioned.len()
    );
    let params: Vec<usize> = (0..kernel.arrays.len())
        .filter(|&a| kernel.arrays[a].kind.is_param())
        .collect();
    let body = kernel.body();
    let render = |required_offsets, offsets: &[Option<usize>]| {
        let mut arena = body.arena.clone();
        align_block(&mut arena, body.root, offsets);
        KernelVersion {
            required_offsets,
            arena,
            root: body.root,
        }
    };

    let ncombos = ALIGN_CLASSES.pow(versioned.len() as u32);
    let mut versions = Vec::with_capacity(ncombos + 1);
    for combo in 0..ncombos {
        // Decode the combination into per-array offsets; arrays outside
        // the combination (locals, short parameters) sit at offset 0.
        let mut offsets = vec![Some(0); kernel.arrays.len()];
        let mut rem = combo;
        for &a in &versioned {
            offsets[a] = Some(rem % ALIGN_CLASSES);
            rem /= ALIGN_CLASSES;
        }
        let required = params
            .iter()
            .map(|&p| {
                if versioned.contains(&p) {
                    offsets[p]
                } else {
                    None
                }
            })
            .collect();
        versions.push(render(Some(required), &offsets));
    }
    // Unconditional fallback: everything unaligned.
    versions.push(render(None, &vec![None; kernel.arrays.len()]));

    Kernel {
        versions,
        ..kernel.clone()
    }
}

/// Counts aligned and total 16-byte accesses of one body (static), for
/// tests and diagnostics.
pub fn count_aligned(body: &KernelVersion) -> (usize, usize) {
    let (mut aligned, mut total) = (0, 0);
    body.arena.visit(body.root, &mut |_, inst| match *inst {
        AInst::GLoad {
            map, aligned: a, ..
        }
        | AInst::GStore {
            map, aligned: a, ..
        } if body.arena.maps.get(map).contiguous_bytes() == Some(16) => {
            total += 1;
            aligned += a as usize;
        }
        _ => {}
    });
    (aligned, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::unroll_block;
    use crate::builder::KernelBuilder;
    use crate::map::MemMap;
    use lgen_absint::AffineExpr;

    /// Alignment detection on `k`'s body with every base offset known.
    fn align_with(k: &mut Kernel, base_offsets: &[usize]) {
        let offsets: Vec<Option<usize>> = base_offsets.iter().map(|&o| Some(o)).collect();
        let body = k.body_mut();
        align_block(&mut body.arena, body.root, &offsets);
    }

    /// `for i in (0..16).step 4: load A+i` — all accesses aligned when the
    /// base is aligned, none when the base is off by one float.
    #[test]
    fn strided_loop_detection() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 16);
        let y = b.output("y", 16);
        b.for_loop("i", 0, 16, 4, |b, i| {
            let v = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            b.store(v, y, AffineExpr::var(i), MemMap::horizontal(4));
        });
        let mut k = b.finish(0);
        align_with(&mut k, &[0, 0]);
        assert_eq!(count_aligned(k.body()), (2, 2));
        align_with(&mut k, &[1, 0]);
        assert_eq!(count_aligned(k.body()), (1, 2));
    }

    /// The paper's Listing 3.2: a loop taken once with a non-multiple step —
    /// the reduced product proves alignment where Congruence alone cannot.
    #[test]
    fn listing_3_2_single_trip_loop() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("A", 16);
        let y = b.output("y", 16);
        b.for_loop("k", 0, 8, 13, |b, k| {
            let v = b.load(x, AffineExpr::var(k), MemMap::horizontal(4));
            b.store(v, y, AffineExpr::var(k), MemMap::horizontal(4));
        });
        let mut k = b.finish(0);
        align_with(&mut k, &[0, 0]);
        assert_eq!(count_aligned(k.body()), (2, 2));
    }

    /// Rows of a 4×n matrix with n mod 4 ≠ 0: only some rows are aligned —
    /// the mechanism behind the ripple in Fig. 5.1.
    #[test]
    fn row_alignment_depends_on_row_length() {
        // A is 4×6: row r starts at 6r → aligned only for r ∈ {0, 2}.
        let mut b = KernelBuilder::new("t");
        let a = b.input("A", 24);
        let y = b.output("y", 16);
        b.for_loop("r", 0, 4, 1, |b, r| {
            let v = b.load(a, AffineExpr::scaled(6, r), MemMap::horizontal(4));
            b.store(v, y, AffineExpr::scaled(4, r), MemMap::horizontal(4));
        });
        let mut k = b.finish(0);
        align_with(&mut k, &[0, 0]);
        // Statically the row load cannot be proven aligned (depends on r)…
        assert_eq!(count_aligned(k.body()), (1, 2));
        // …but after full unrolling, exactly the even rows are.
        let body = k.body_mut();
        let full = crate::passes::UnrollPolicy::Full { max_trip: 8 };
        unroll_block(&mut body.arena, body.root, full);
        align_with(&mut k, &[0, 0]);
        let (aligned, total) = count_aligned(k.body());
        assert_eq!(total, 8);
        assert_eq!(aligned, 2 + 4, "rows 0 and 2 of A, all 4 stores to y");
    }

    #[test]
    fn partial_maps_are_never_marked() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let y = b.output("y", 8);
        let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(3));
        b.store(v, y, AffineExpr::constant(0), MemMap::horizontal(2));
        let mut k = b.finish(0);
        align_with(&mut k, &[0, 0]);
        assert_eq!(count_aligned(k.body()), (0, 0));
    }

    #[test]
    fn versioning_produces_4_pow_a_plus_1() {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", 8);
        let _alpha = b.input("alpha", 1);
        let y = b.inout("y", 8);
        b.for_loop("i", 0, 8, 4, |b, i| {
            let v = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            let w = b.load(y, AffineExpr::var(i), MemMap::horizontal(4));
            let s = b.arith(crate::ir::VArith::Add(crate::ir::VWidth::Q), v, w);
            b.store(s, y, AffineExpr::var(i), MemMap::horizontal(4));
        });
        let k = b.finish(8);
        let vk = version_for_alignment(&k);
        // Two vector arrays (x, y) versioned; alpha is don't-care.
        assert_eq!(vk.versions.len(), 4 * 4 + 1);
        // The all-aligned version must mark all 3 accesses aligned.
        let v0 = vk
            .versions
            .iter()
            .find(|v| v.required_offsets == Some(vec![Some(0), None, Some(0)]))
            .expect("all-aligned combo");
        assert_eq!(count_aligned(v0), (3, 3));
        // The fallback marks none.
        let fb = vk.versions.last().unwrap();
        assert!(fb.required_offsets.is_none());
        assert_eq!(count_aligned(fb), (0, 3));
        // A mixed combo: x at offset 1 (never aligned), y at 0 (aligned).
        let vm = vk
            .versions
            .iter()
            .find(|v| v.required_offsets == Some(vec![Some(1), None, Some(0)]))
            .unwrap();
        assert_eq!(count_aligned(vm), (2, 3));
    }
}
