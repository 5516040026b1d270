//! A versioned binary codec for [`Kernel`]s.
//!
//! The compile service persists finished kernels in an on-disk cache so a
//! daemon restart does not recompile the world. Entries outlive the
//! process that wrote them, so the format is explicit about everything the
//! in-memory representation leaves to the compiler: integer widths are
//! fixed (little-endian), every enum is tagged, and the whole payload is
//! self-describing enough that [`decode_kernel`] can *reject* — never
//! misinterpret — bytes from a different format revision or a corrupted
//! file.
//!
//! **Integrity is layered.** This codec validates structure (tags in
//! range, lengths consistent, [`MemMap`] invariants re-checked through the
//! public constructors); the disk-cache layer on top adds a whole-payload
//! checksum and a key fingerprint so bit rot is caught before decoding is
//! attempted. A decode failure is an ordinary [`CodecError`], not a panic:
//! corrupt cache entries must be quarantined by the caller, not take the
//! daemon down.
//!
//! The encoding is deterministic: equal kernels produce identical bytes
//! (field order is fixed, each body is written as the program reachable
//! from its root with interned operands spelled out, maps in their
//! canonical lane order), which makes byte-level comparison a valid
//! cache-entry identity check. The decoder interns into a fresh arena and
//! allocates every id itself; no id is read from the bytes.

use crate::arena::{AInst, Arena, BlockId, ExprId};
use crate::ir::{ArrayDecl, ArrayKind, Kernel, KernelVersion, OverheadKind, VArith, VMove, VWidth};
use crate::map::MemMap;
use lgen_absint::AffineExpr;
use std::fmt;

/// Format revision; bump on any layout change so old entries are rejected
/// (and recompiled) instead of misread.
pub(crate) const CODEC_VERSION: u32 = 1;

/// Why a byte stream failed to decode back into a [`Kernel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the structure was complete.
    Truncated,
    /// A tag byte (enum discriminant) was out of range.
    BadTag(&'static str, u8),
    /// The version field names a revision this build does not read.
    BadVersion(u32),
    /// A length or invariant check failed (e.g. a [`MemMap`] with
    /// duplicate lanes).
    Invalid(&'static str),
    /// Trailing bytes followed a structurally complete kernel.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated kernel encoding"),
            CodecError::BadTag(what, tag) => write!(f, "bad {what} tag {tag}"),
            CodecError::BadVersion(v) => {
                write!(
                    f,
                    "kernel codec version {v} (this build reads {CODEC_VERSION})"
                )
            }
            CodecError::Invalid(what) => write!(f, "invalid {what}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after kernel"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes a kernel to the versioned binary format.
pub fn encode_kernel(kernel: &Kernel) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&CODEC_VERSION.to_le_bytes());
    put_str(&mut out, &kernel.name);
    put_len(&mut out, kernel.arrays.len());
    for a in &kernel.arrays {
        put_str(&mut out, &a.name);
        put_u64(&mut out, a.len as u64);
        out.push(match a.kind {
            ArrayKind::Input => 0,
            ArrayKind::Output => 1,
            ArrayKind::InOut => 2,
            ArrayKind::Local => 3,
        });
    }
    put_len(&mut out, kernel.versions.len());
    for v in &kernel.versions {
        match &v.required_offsets {
            None => out.push(0),
            Some(reqs) => {
                out.push(1);
                put_len(&mut out, reqs.len());
                for r in reqs {
                    match r {
                        None => out.push(0),
                        Some(off) => {
                            out.push(1);
                            put_u64(&mut out, *off as u64);
                        }
                    }
                }
            }
        }
        put_block(&mut out, &v.arena, v.root);
    }
    put_u64(&mut out, kernel.nreg as u64);
    put_u64(&mut out, kernel.nvars as u64);
    put_u64(&mut out, kernel.flops);
    out
}

/// Deserializes a kernel; rejects other versions, corrupt structure, and
/// trailing bytes.
pub fn decode_kernel(bytes: &[u8]) -> Result<Kernel, CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    let version = r.u32()?;
    if version != CODEC_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let name = r.string()?;
    let narrays = r.len()?;
    let mut arrays = Vec::with_capacity(narrays.min(1024));
    for _ in 0..narrays {
        let name = r.string()?;
        let len = r.u64()? as usize;
        let kind = match r.u8()? {
            0 => ArrayKind::Input,
            1 => ArrayKind::Output,
            2 => ArrayKind::InOut,
            3 => ArrayKind::Local,
            t => return Err(CodecError::BadTag("array kind", t)),
        };
        arrays.push(ArrayDecl { name, len, kind });
    }
    let nversions = r.len()?;
    if nversions == 0 {
        return Err(CodecError::Invalid("kernel with no versions"));
    }
    let mut versions = Vec::with_capacity(nversions.min(64));
    for _ in 0..nversions {
        let required_offsets = match r.u8()? {
            0 => None,
            1 => {
                let n = r.len()?;
                let mut reqs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    reqs.push(match r.u8()? {
                        0 => None,
                        1 => Some(r.u64()? as usize),
                        t => return Err(CodecError::BadTag("required offset", t)),
                    });
                }
                Some(reqs)
            }
            t => return Err(CodecError::BadTag("version requirements", t)),
        };
        let mut arena = Arena::default();
        let root = r.block(&mut arena)?;
        versions.push(KernelVersion {
            required_offsets,
            arena,
            root,
        });
    }
    let nreg = r.u64()? as u32;
    let nvars = r.u64()? as usize;
    let flops = r.u64()?;
    if r.pos != r.bytes.len() {
        return Err(CodecError::TrailingBytes(r.bytes.len() - r.pos));
    }
    Ok(Kernel {
        name,
        arrays,
        versions,
        nreg,
        nvars,
        flops,
    })
}

// ---- writer helpers ----

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_width(out: &mut Vec<u8>, w: VWidth) {
    out.push(match w {
        VWidth::S => 0,
        VWidth::D => 1,
        VWidth::Q => 2,
    });
}

fn put_affine(out: &mut Vec<u8>, arena: &Arena, e: ExprId) {
    let terms = arena.exprs.terms(e);
    put_len(out, terms.len());
    for &(coeff, var) in terms {
        put_i64(out, coeff);
        put_u64(out, var as u64);
    }
    put_i64(out, arena.exprs.constant(e));
}

fn put_map(out: &mut Vec<u8>, m: &MemMap) {
    out.push(m.is_broadcast() as u8);
    put_len(out, m.entries().len());
    for &(off, lane) in m.entries() {
        put_i64(out, off);
        out.push(lane);
    }
}

fn put_block(out: &mut Vec<u8>, arena: &Arena, block: BlockId) {
    put_len(out, arena.block(block).len());
    for &id in arena.block(block) {
        match arena.inst(id) {
            AInst::GLoad {
                dst,
                arr,
                addr,
                map,
                aligned,
            } => {
                out.push(0);
                put_u64(out, *dst as u64);
                put_u64(out, arr.0 as u64);
                put_affine(out, arena, *addr);
                put_map(out, arena.maps.get(*map));
                out.push(*aligned as u8);
            }
            AInst::GStore {
                src,
                arr,
                addr,
                map,
                aligned,
            } => {
                out.push(1);
                put_u64(out, *src as u64);
                put_u64(out, arr.0 as u64);
                put_affine(out, arena, *addr);
                put_map(out, arena.maps.get(*map));
                out.push(*aligned as u8);
            }
            AInst::Arith { op, dst, a, b } => {
                out.push(2);
                put_varith(out, *op);
                put_u64(out, *dst as u64);
                put_u64(out, *a as u64);
                put_u64(out, *b as u64);
            }
            AInst::Move { op, dst, a, b } => {
                out.push(3);
                put_vmove(out, *op);
                put_u64(out, *dst as u64);
                put_u64(out, *a as u64);
                put_u64(out, *b as u64);
            }
            AInst::Overhead { kind, count } => {
                out.push(4);
                out.push(match kind {
                    OverheadKind::Addr => 0,
                    OverheadKind::Branch => 1,
                    OverheadKind::Call => 2,
                });
                put_u64(out, *count as u64);
            }
            AInst::Loop {
                var,
                name,
                start,
                end,
                step,
                body,
            } => {
                out.push(5);
                put_u64(out, *var as u64);
                put_str(out, arena.syms.get(*name));
                put_i64(out, *start);
                put_i64(out, *end);
                put_i64(out, *step);
                put_block(out, arena, *body);
            }
        }
    }
}

/// Arith tags. Tag 1 is unused: it decodes to [`CodecError::BadTag`].
fn put_varith(out: &mut Vec<u8>, op: VArith) {
    match op {
        VArith::Add(w) => {
            out.push(0);
            put_width(out, w);
        }
        VArith::Mul(w) => {
            out.push(2);
            put_width(out, w);
        }
        VArith::Hadd => out.push(3),
        VArith::Fma(w) => {
            out.push(4);
            put_width(out, w);
        }
        VArith::MulLane(w, lane) => {
            out.push(5);
            put_width(out, w);
            out.push(lane);
        }
        VArith::FmaLane(w, lane) => {
            out.push(6);
            put_width(out, w);
            out.push(lane);
        }
        VArith::Pairwise => out.push(7),
    }
}

fn put_vmove(out: &mut Vec<u8>, op: VMove) {
    match op {
        VMove::Mov => out.push(0),
        VMove::Zero => out.push(1),
        VMove::Splat(lane) => {
            out.push(2);
            out.push(lane);
        }
        VMove::Shuf(sel) => {
            out.push(3);
            out.extend_from_slice(&sel);
        }
        VMove::SetLane(lane) => {
            out.push(4);
            out.push(lane);
        }
        VMove::GetLane(lane) => {
            out.push(5);
            out.push(lane);
        }
    }
}

// ---- reader ----

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        if self.bytes.len() - self.pos < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A length that must still be representable by the remaining input
    /// (every element is ≥ 1 byte), so a corrupted huge length cannot
    /// drive a pre-allocation or a long loop.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()? as usize;
        if n > self.bytes.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag("bool", t)),
        }
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("utf-8 string"))
    }

    fn width(&mut self) -> Result<VWidth, CodecError> {
        match self.u8()? {
            0 => Ok(VWidth::S),
            1 => Ok(VWidth::D),
            2 => Ok(VWidth::Q),
            t => Err(CodecError::BadTag("vector width", t)),
        }
    }

    fn affine(&mut self) -> Result<AffineExpr, CodecError> {
        let n = self.len()?;
        let mut terms = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let coeff = self.i64()?;
            let var = self.u64()? as usize;
            terms.push((coeff, var));
        }
        let constant = self.i64()?;
        // Re-normalize through the public API so decoded expressions obey
        // the sorted/nonzero/distinct invariant even if the bytes did not.
        let mut e = AffineExpr::constant(constant);
        for (coeff, var) in terms {
            e = e.plus(&AffineExpr::scaled(coeff, var));
        }
        Ok(e)
    }

    fn map(&mut self) -> Result<MemMap, CodecError> {
        let broadcast = self.bool()?;
        let n = self.len()?;
        if !(1..=4).contains(&n) {
            return Err(CodecError::Invalid("memory map lane count"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let off = self.i64()?;
            let lane = self.u8()?;
            entries.push((off, lane));
        }
        if broadcast {
            // The only broadcast constructor is `splat(n)`: offsets all 0,
            // lanes dense from 0.
            let expect: Vec<(i64, u8)> = (0..n).map(|i| (0, i as u8)).collect();
            if entries != expect {
                return Err(CodecError::Invalid("broadcast memory map"));
            }
            return Ok(MemMap::splat(n));
        }
        for w in entries.windows(2) {
            if w[0].1 >= w[1].1 {
                return Err(CodecError::Invalid("memory map lane order"));
            }
        }
        if entries.iter().any(|&(_, l)| l > 3) {
            return Err(CodecError::Invalid("memory map lane index"));
        }
        Ok(MemMap::from_entries(entries))
    }

    fn varith(&mut self) -> Result<VArith, CodecError> {
        Ok(match self.u8()? {
            0 => VArith::Add(self.width()?),
            2 => VArith::Mul(self.width()?),
            3 => VArith::Hadd,
            4 => VArith::Fma(self.width()?),
            5 => VArith::MulLane(self.width()?, self.u8()?),
            6 => VArith::FmaLane(self.width()?, self.u8()?),
            7 => VArith::Pairwise,
            t => return Err(CodecError::BadTag("arith op", t)),
        })
    }

    fn vmove(&mut self) -> Result<VMove, CodecError> {
        Ok(match self.u8()? {
            0 => VMove::Mov,
            1 => VMove::Zero,
            2 => VMove::Splat(self.u8()?),
            3 => VMove::Shuf(self.take(4)?.try_into().expect("4 bytes")),
            4 => VMove::SetLane(self.u8()?),
            5 => VMove::GetLane(self.u8()?),
            t => return Err(CodecError::BadTag("move op", t)),
        })
    }

    /// Decodes one block into `arena`, which allocates every id.
    fn block(&mut self, arena: &mut Arena) -> Result<BlockId, CodecError> {
        let n = self.len()?;
        let mut ids = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let inst = match self.u8()? {
                0 => AInst::GLoad {
                    dst: self.u64()? as u32,
                    arr: crate::ir::ArrayId(self.u64()? as usize),
                    addr: arena.intern_expr(&self.affine()?),
                    map: arena.intern_map(&self.map()?),
                    aligned: self.bool()?,
                },
                1 => AInst::GStore {
                    src: self.u64()? as u32,
                    arr: crate::ir::ArrayId(self.u64()? as usize),
                    addr: arena.intern_expr(&self.affine()?),
                    map: arena.intern_map(&self.map()?),
                    aligned: self.bool()?,
                },
                2 => AInst::Arith {
                    op: self.varith()?,
                    dst: self.u64()? as u32,
                    a: self.u64()? as u32,
                    b: self.u64()? as u32,
                },
                3 => AInst::Move {
                    op: self.vmove()?,
                    dst: self.u64()? as u32,
                    a: self.u64()? as u32,
                    b: self.u64()? as u32,
                },
                4 => AInst::Overhead {
                    kind: match self.u8()? {
                        0 => OverheadKind::Addr,
                        1 => OverheadKind::Branch,
                        2 => OverheadKind::Call,
                        t => return Err(CodecError::BadTag("overhead kind", t)),
                    },
                    count: self.u64()? as u16,
                },
                5 => AInst::Loop {
                    var: self.u64()? as usize,
                    name: arena.intern_sym(&self.string()?),
                    start: self.i64()?,
                    end: self.i64()?,
                    step: self.i64()?,
                    body: self.block(arena)?,
                },
                t => return Err(CodecError::BadTag("instruction", t)),
            };
            ids.push(arena.push(inst));
        }
        Ok(arena.push_block(ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::ArrayId;

    fn sample_kernel() -> Kernel {
        let mut b = KernelBuilder::new("roundtrip");
        let x = b.input("x", 8);
        let y = b.output("y", 8);
        let t = b.local("t0", 4);
        b.for_loop("i", 0, 8, 4, |b, i| {
            let vx = b.load(x, AffineExpr::var(i), MemMap::horizontal(4));
            let s = b.load(x, AffineExpr::var(i), MemMap::splat(2));
            let acc = b.zero();
            b.arith_acc(VArith::Fma(VWidth::Q), acc, vx, s);
            let sh = b.mov_op(VMove::Shuf([3, 2, 1, 0]), acc, acc);
            b.store(sh, t, AffineExpr::constant(0), MemMap::vertical(3, 4));
            b.store(
                sh,
                y,
                AffineExpr::var(i).plus(&AffineExpr::constant(2)),
                MemMap::from_entries(vec![(7, 0), (1, 2)]),
            );
        });
        b.overhead(OverheadKind::Branch, 3);
        let mut k = b.finish(128);
        // Exercise alignment versions too.
        let fallback = k.versions[0].clone();
        k.versions.insert(
            0,
            KernelVersion {
                required_offsets: Some(vec![Some(0), None]),
                ..fallback
            },
        );
        assert_eq!(k.param_ids(), vec![ArrayId(0), ArrayId(1)]);
        k
    }

    #[test]
    fn roundtrip_is_identity() {
        let k = sample_kernel();
        let bytes = encode_kernel(&k);
        let back = decode_kernel(&bytes).unwrap();
        assert_eq!(k, back);
        // Deterministic: encoding the decoded kernel gives identical bytes.
        assert_eq!(bytes, encode_kernel(&back));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = encode_kernel(&sample_kernel());
        bytes[0] = 0xff;
        assert!(matches!(
            decode_kernel(&bytes),
            Err(CodecError::BadVersion(_))
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let bytes = encode_kernel(&sample_kernel());
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_kernel(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(decode_kernel(&extended), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        let bytes = encode_kernel(&sample_kernel());
        // Flip every byte in turn: decoding must either fail cleanly or
        // produce *some* kernel — never panic (the disk cache's checksum
        // catches the silent-success case before this layer runs).
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x5a;
            let _ = decode_kernel(&corrupt);
        }
    }

    #[test]
    fn unused_arith_tag_is_rejected() {
        // Two kernels differing only in their arith op encode to bytes
        // differing only in the op's tag; tag 1 names no op.
        let kernel = |op| {
            let mut b = KernelBuilder::new("op");
            let x = b.input("x", 4);
            let y = b.output("y", 4);
            let v = b.load(x, AffineExpr::constant(0), MemMap::horizontal(4));
            let s = b.arith(op, v, v);
            b.store(s, y, AffineExpr::constant(0), MemMap::horizontal(4));
            encode_kernel(&b.finish(4))
        };
        let mut bytes = kernel(VArith::Add(VWidth::Q));
        let mul = kernel(VArith::Mul(VWidth::Q));
        let diff: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != mul[i]).collect();
        assert_eq!(diff.len(), 1);
        bytes[diff[0]] = 1;
        assert_eq!(
            decode_kernel(&bytes),
            Err(CodecError::BadTag("arith op", 1))
        );
    }

    /// An optimized body keeps the instructions its passes unlinked; the
    /// decoded kernel holds only the reachable program, interned in
    /// another order, and still equals it.
    #[test]
    fn optimized_kernels_roundtrip_without_their_dead_instructions() {
        let mut k = sample_kernel();
        k.versions.remove(0);
        let ctx = crate::passes::PassCtx::new(crate::passes::UnrollPolicy::Full { max_trip: 8 });
        crate::passes::PassPipeline::standard()
            .run(&mut k, &ctx)
            .unwrap();
        let back = decode_kernel(&encode_kernel(&k)).unwrap();
        assert_eq!(back, k);
        assert!(back.body().arena.insts.len() < k.body().arena.insts.len());
        // One changed alignment mark is a different program.
        let mut marked = back.clone();
        let body = marked.body_mut();
        let id = body.insts()[0];
        let AInst::GLoad { aligned, .. } = &mut body.arena.insts[id.0 as usize] else {
            panic!("expected a load first");
        };
        *aligned = !*aligned;
        assert_ne!(marked, k);
    }

    #[test]
    fn compiled_kernels_roundtrip() {
        // End-to-end shape: real kernels from the Σ-LL pipeline are
        // exercised by the lgen-core disk-cache tests; here a broadcast
        // map plus lane ops cover the remaining constructors.
        let k = sample_kernel();
        let bytes = encode_kernel(&k);
        let back = decode_kernel(&bytes).unwrap();
        assert_eq!(back.static_size(), k.static_size());
        assert_eq!(back.flops, 128);
    }
}
