//! The BLAC AST: operands, expressions, size inference, flop accounting.

use std::fmt;
use std::sync::Arc;

/// Matrix dimensions. Vectors are `n×1` or `1×n`; scalars are `1×1`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Dims {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Dims {
    /// Creates dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "dimensions must be positive: {rows}×{cols}"
        );
        Dims { rows, cols }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether this is empty (never true: dims are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether this is a 1×1 scalar.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Whether this is a vector (one dimension equals 1) but not a scalar.
    pub fn is_vector(&self) -> bool {
        !self.is_scalar() && (self.rows == 1 || self.cols == 1)
    }

    /// The transposed dimensions.
    pub fn t(&self) -> Dims {
        Dims {
            rows: self.cols,
            cols: self.rows,
        }
    }
}

impl fmt::Display for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.rows, self.cols)
    }
}

/// Identifier of an operand within a [`Blac`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct OperandId(pub usize);

/// Structure annotation of a matrix operand (SLinGen-style): a promise
/// about where the stored data is zero (or mirrored), which the code
/// generator may exploit by skipping structurally-zero regions.
///
/// Storage stays dense row-major in every case; the annotation constrains
/// the *values*: a `LowerTriangular` operand stores zeros above the
/// diagonal, a `Diagonal` one everywhere off the diagonal, and a
/// `Symmetric` one mirrors its strict triangles. Annotated operands must
/// be square.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum Structure {
    /// No structural promise (the only annotation valid on non-square
    /// operands, vectors, and scalars).
    #[default]
    General,
    /// Zero above the diagonal.
    LowerTriangular,
    /// Zero below the diagonal.
    UpperTriangular,
    /// `A[i][j] == A[j][i]`; no zero region, but the annotation is kept
    /// through transposition and cache keys.
    Symmetric,
    /// Zero off the diagonal.
    Diagonal,
}

impl Structure {
    /// The structure of the transposed matrix.
    pub fn transposed(self) -> Structure {
        match self {
            Structure::LowerTriangular => Structure::UpperTriangular,
            Structure::UpperTriangular => Structure::LowerTriangular,
            s => s,
        }
    }

    /// Whether element `(r, c)` is structurally zero.
    pub(crate) fn is_zero_at(self, r: usize, c: usize) -> bool {
        match self {
            Structure::LowerTriangular => c > r,
            Structure::UpperTriangular => c < r,
            Structure::Diagonal => r != c,
            Structure::General | Structure::Symmetric => false,
        }
    }

    /// Whether the annotation requires a square operand.
    pub(crate) fn requires_square(self) -> bool {
        self != Structure::General
    }

    /// The half-open column range that may hold non-zeros in rows
    /// `row_lo..row_hi` of an `·×n` matrix — the contraction support a
    /// structured left operand contributes to a product. `General` and
    /// `Symmetric` matrices support every column.
    pub fn col_support(self, row_lo: usize, row_hi: usize, n: usize) -> (usize, usize) {
        match self {
            Structure::LowerTriangular => (0, row_hi.min(n)),
            Structure::UpperTriangular => (row_lo.min(n), n),
            Structure::Diagonal => (row_lo.min(n), row_hi.min(n)),
            Structure::General | Structure::Symmetric => (0, n),
        }
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Structure::General => write!(f, "general"),
            Structure::LowerTriangular => write!(f, "triangular(lower)"),
            Structure::UpperTriangular => write!(f, "triangular(upper)"),
            Structure::Symmetric => write!(f, "symmetric"),
            Structure::Diagonal => write!(f, "diagonal"),
        }
    }
}

/// An operand declaration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Operand {
    /// Name (used for kernel parameter names).
    pub name: String,
    /// Size.
    pub dims: Dims,
    /// Structure annotation (part of the structural identity the kernel
    /// cache and compile memo key on).
    pub structure: Structure,
}

/// An LL expression.
///
/// Subtrees are [`Arc`]-shared so a [`Blac`] is `Send + Sync` — the
/// parallel autotuner and the kernel cache share BLACs across threads.
/// Equality and hashing are *structural* (they see through the `Arc`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Reference to a declared operand.
    Ref(OperandId),
    /// Matrix addition (sizes must match).
    Add(Arc<Expr>, Arc<Expr>),
    /// Matrix multiplication, or scalar–matrix multiplication when either
    /// side is 1×1.
    Mul(Arc<Expr>, Arc<Expr>),
    /// Transposition.
    Trans(Arc<Expr>),
    /// Matrix-vector Hadamard product `A ⊙ x` (§3.3): `C_ij = A_ij · x_j`.
    Mvh(Arc<Expr>, Arc<Expr>),
    /// Row reduction `⊘A` (§3.3): `x_i = Σ_j A_ij`.
    Rr(Arc<Expr>),
}

/// Errors raised by size inference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SizeError {
    /// Addition of mismatched sizes.
    AddMismatch(Dims, Dims),
    /// Inner dimensions of a product disagree.
    MulMismatch(Dims, Dims),
    /// `⊙` operand shapes invalid.
    MvhMismatch(Dims, Dims),
    /// The inferred right-hand-side size differs from the output operand.
    OutputMismatch {
        /// Output operand size.
        lhs: Dims,
        /// Inferred expression size.
        rhs: Dims,
    },
}

impl fmt::Display for SizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeError::AddMismatch(a, b) => write!(f, "cannot add {a} and {b}"),
            SizeError::MulMismatch(a, b) => write!(f, "cannot multiply {a} by {b}"),
            SizeError::MvhMismatch(a, b) => write!(f, "cannot apply ⊙ to {a} and {b}"),
            SizeError::OutputMismatch { lhs, rhs } => {
                write!(f, "output is {lhs} but expression is {rhs}")
            }
        }
    }
}

impl std::error::Error for SizeError {}

/// A validated BLAC: `output = expr`, with declared operand sizes.
///
/// The output operand may also appear in the expression (e.g.
/// `y = αAx + βy`), making it an in/out kernel parameter.
///
/// `Eq`/`Hash` are structural — two BLACs compare equal iff they declare
/// the same operands (names and sizes, in order) and the same expression
/// tree. This is the identity the kernel cache keys on; see also
/// [`Blac::fingerprint`] for a stable 64-bit digest of the same identity.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Blac {
    /// Operand table.
    pub operands: Vec<Operand>,
    /// Output operand.
    pub output: OperandId,
    /// Right-hand side.
    pub expr: Expr,
}

impl Blac {
    /// The size of an operand.
    pub fn dims(&self, id: OperandId) -> Dims {
        self.operands[id.0].dims
    }

    /// Infers the size of a subexpression.
    ///
    /// # Errors
    ///
    /// Returns a [`SizeError`] if operator shapes are inconsistent.
    pub(crate) fn infer(&self, e: &Expr) -> Result<Dims, SizeError> {
        infer_dims(&self.operands, e)
    }

    /// Validates the whole BLAC (expression shapes and output size).
    ///
    /// # Errors
    ///
    /// Returns a [`SizeError`] on any inconsistency.
    pub fn validate(&self) -> Result<(), SizeError> {
        validate_statement(&self.operands, self.output, &self.expr)
    }

    /// Useful floating-point operations of the computation, deduced from
    /// the BLAC and the operand sizes (§5.1.4) — the numerator of every
    /// performance plot in the paper.
    pub fn flops(&self) -> u64 {
        expr_flops(&self.operands, &self.expr)
    }

    /// A stable 64-bit structural digest of the BLAC: FNV-1a over a
    /// canonical encoding of the operand table, the output id, and the
    /// expression tree. Unlike `std::hash::Hash`, the value does not
    /// depend on the process, the platform, or the Rust release, so it is
    /// safe to persist (cache keys, log correlation, content addressing).
    ///
    /// Two BLACs have equal fingerprints iff they are structurally equal,
    /// up to the negligible 64-bit collision probability; the kernel cache
    /// therefore keys on the full structure and uses the fingerprint only
    /// for shard selection and diagnostics.
    pub fn fingerprint(&self) -> u64 {
        /// FNV-1a, 64-bit.
        struct Fnv(u64);
        impl Fnv {
            fn write(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 ^= u64::from(b);
                    self.0 = self.0.wrapping_mul(0x100_0000_01b3);
                }
            }
            fn write_usize(&mut self, v: usize) {
                self.write(&(v as u64).to_le_bytes());
            }
        }
        fn walk(e: &Expr, h: &mut Fnv) {
            match e {
                Expr::Ref(id) => {
                    h.write(&[0]);
                    h.write_usize(id.0);
                }
                Expr::Add(a, b) => {
                    h.write(&[1]);
                    walk(a, h);
                    walk(b, h);
                }
                Expr::Mul(a, b) => {
                    h.write(&[2]);
                    walk(a, h);
                    walk(b, h);
                }
                Expr::Trans(a) => {
                    h.write(&[3]);
                    walk(a, h);
                }
                Expr::Mvh(a, b) => {
                    h.write(&[4]);
                    walk(a, h);
                    walk(b, h);
                }
                Expr::Rr(a) => {
                    h.write(&[5]);
                    walk(a, h);
                }
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.write_usize(self.operands.len());
        for op in &self.operands {
            h.write_usize(op.name.len());
            h.write(op.name.as_bytes());
            h.write_usize(op.dims.rows);
            h.write_usize(op.dims.cols);
            h.write(&[op.structure as u8]);
        }
        h.write_usize(self.output.0);
        walk(&self.expr, &mut h);
        h.0
    }

    /// Whether the output operand also occurs in the expression (in/out).
    pub fn output_is_input(&self) -> bool {
        fn uses(e: &Expr, id: OperandId) -> bool {
            match e {
                Expr::Ref(r) => *r == id,
                Expr::Add(a, b) | Expr::Mul(a, b) | Expr::Mvh(a, b) => uses(a, id) || uses(b, id),
                Expr::Trans(a) | Expr::Rr(a) => uses(a, id),
            }
        }
        uses(&self.expr, self.output)
    }
}

/// Infers the size of `e` over an operand table: `Blac::infer` for any
/// statement sharing that table (a program statement is checked and
/// lowered in place, without building a [`Blac`]).
///
/// # Errors
///
/// Returns a [`SizeError`] if operator shapes are inconsistent.
pub fn infer_dims(operands: &[Operand], e: &Expr) -> Result<Dims, SizeError> {
    match e {
        Expr::Ref(id) => Ok(operands[id.0].dims),
        Expr::Add(a, b) => {
            let (da, db) = (infer_dims(operands, a)?, infer_dims(operands, b)?);
            if da == db {
                Ok(da)
            } else {
                Err(SizeError::AddMismatch(da, db))
            }
        }
        Expr::Mul(a, b) => {
            let (da, db) = (infer_dims(operands, a)?, infer_dims(operands, b)?);
            if da.is_scalar() {
                Ok(db)
            } else if db.is_scalar() {
                Ok(da)
            } else if da.cols == db.rows {
                Ok(Dims::new(da.rows, db.cols))
            } else {
                Err(SizeError::MulMismatch(da, db))
            }
        }
        Expr::Trans(a) => Ok(infer_dims(operands, a)?.t()),
        Expr::Mvh(a, x) => {
            let (da, dx) = (infer_dims(operands, a)?, infer_dims(operands, x)?);
            if dx.rows == da.cols && dx.cols == 1 {
                Ok(da)
            } else {
                Err(SizeError::MvhMismatch(da, dx))
            }
        }
        Expr::Rr(a) => {
            let da = infer_dims(operands, a)?;
            Ok(Dims::new(da.rows, 1))
        }
    }
}

/// Checks the statement `output = expr` over an operand table
/// ([`Blac::validate`]).
///
/// # Errors
///
/// Returns a [`SizeError`] on any inconsistency.
pub(crate) fn validate_statement(
    operands: &[Operand],
    output: OperandId,
    expr: &Expr,
) -> Result<(), SizeError> {
    let rhs = infer_dims(operands, expr)?;
    let lhs = operands[output.0].dims;
    if rhs == lhs {
        Ok(())
    } else {
        Err(SizeError::OutputMismatch { lhs, rhs })
    }
}

/// Useful flops of `e` over an operand table ([`Blac::flops`], §5.1.4).
pub(crate) fn expr_flops(operands: &[Operand], e: &Expr) -> u64 {
    match e {
        Expr::Ref(_) => 0,
        Expr::Add(a, x) => {
            let d = infer_dims(operands, e).expect("validated");
            expr_flops(operands, a) + expr_flops(operands, x) + d.len() as u64
        }
        Expr::Mul(a, x) => {
            let (da, dx) = (
                infer_dims(operands, a).expect("validated"),
                infer_dims(operands, x).expect("validated"),
            );
            let own = if da.is_scalar() {
                dx.len() as u64
            } else if dx.is_scalar() {
                da.len() as u64
            } else {
                // m×k by k×n: mn(2k−1) multiply-adds, counted as 2mnk
                // following the paper's convention for gemm-like flops.
                2 * (da.rows * da.cols * dx.cols) as u64
            };
            expr_flops(operands, a) + expr_flops(operands, x) + own
        }
        Expr::Trans(a) => expr_flops(operands, a),
        Expr::Mvh(a, x) => {
            let da = infer_dims(operands, a).expect("validated");
            expr_flops(operands, a) + expr_flops(operands, x) + da.len() as u64
        }
        Expr::Rr(a) => {
            let da = infer_dims(operands, a).expect("validated");
            expr_flops(operands, a) + (da.rows * (da.cols - 1)) as u64
        }
    }
}

impl Blac {
    /// Pretty-prints a subexpression in mathematical notation.
    pub(crate) fn expr_string(&self, e: &Expr) -> String {
        match e {
            Expr::Ref(id) => self.operands[id.0].name.clone(),
            Expr::Add(a, b) => {
                format!("({} + {})", self.expr_string(a), self.expr_string(b))
            }
            Expr::Mul(a, b) => format!("{} {}", self.expr_string(a), self.expr_string(b)),
            Expr::Trans(a) => format!("{}ᵀ", self.expr_string(a)),
            Expr::Mvh(a, x) => {
                format!("({} ⊙ {})", self.expr_string(a), self.expr_string(x))
            }
            Expr::Rr(a) => format!("⊘{}", self.expr_string(a)),
        }
    }
}

impl fmt::Display for Blac {
    /// The equation in the paper's notation, e.g. `y = alpha A x + beta y`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {}",
            self.operands[self.output.0].name,
            self.expr_string(&self.expr)
        )
    }
}

/// A handle used by [`BlacBuilder`] to write expressions with `+`, `*`, and
/// `.t()`.
#[derive(Clone, Debug)]
pub struct ExprHandle(pub(crate) Arc<Expr>);

impl ExprHandle {
    /// Transposition.
    #[allow(clippy::should_implement_trait)]
    pub fn t(&self) -> ExprHandle {
        ExprHandle(Arc::new(Expr::Trans(self.0.clone())))
    }

    /// The underlying expression.
    pub fn expr(&self) -> Expr {
        (*self.0).clone()
    }
}

impl std::ops::Add for ExprHandle {
    type Output = ExprHandle;
    fn add(self, rhs: ExprHandle) -> ExprHandle {
        ExprHandle(Arc::new(Expr::Add(self.0, rhs.0)))
    }
}

impl std::ops::Mul for ExprHandle {
    type Output = ExprHandle;
    fn mul(self, rhs: ExprHandle) -> ExprHandle {
        ExprHandle(Arc::new(Expr::Mul(self.0, rhs.0)))
    }
}

/// Builder for [`Blac`]s.
///
/// # Example
///
/// `y = αAx + βy` with A 4×8:
///
/// ```
/// use lgen_ll::BlacBuilder;
///
/// let mut b = BlacBuilder::new();
/// let alpha = b.scalar("alpha");
/// let beta = b.scalar("beta");
/// let a = b.matrix("A", 4, 8);
/// let x = b.col_vector("x", 8);
/// let y = b.col_vector("y", 4);
/// let (ha, hx, hy) = (b.handle(a), b.handle(x), b.handle(y));
/// let (hal, hbe) = (b.handle(alpha), b.handle(beta));
/// let blac = b.define(y, hal * (ha * hx) + hbe * hy).unwrap();
/// assert_eq!(blac.flops(), 4 + 2 * 4 * 8 + 4 + 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BlacBuilder {
    operands: Vec<Operand>,
}

impl BlacBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: &str, dims: Dims) -> OperandId {
        self.operands.push(Operand {
            name: name.to_string(),
            dims,
            structure: Structure::General,
        });
        OperandId(self.operands.len() - 1)
    }

    /// Declares a matrix operand.
    pub fn matrix(&mut self, name: &str, rows: usize, cols: usize) -> OperandId {
        self.push(name, Dims::new(rows, cols))
    }

    /// Declares a square matrix operand with a structure annotation.
    pub fn structured_matrix(&mut self, name: &str, n: usize, structure: Structure) -> OperandId {
        let id = self.push(name, Dims::new(n, n));
        self.operands[id.0].structure = structure;
        id
    }

    /// Declares a column vector of length `n` and returns its id.
    pub fn col_vector(&mut self, name: &str, n: usize) -> OperandId {
        self.push(name, Dims::new(n, 1))
    }

    /// Declares a scalar operand.
    pub fn scalar(&mut self, name: &str) -> OperandId {
        self.push(name, Dims::new(1, 1))
    }

    /// An expression handle for an operand id.
    pub fn handle(&self, id: OperandId) -> ExprHandle {
        ExprHandle(Arc::new(Expr::Ref(id)))
    }

    /// Finishes the BLAC `output = expr` and validates it.
    ///
    /// # Errors
    ///
    /// Returns a [`SizeError`] if shapes are inconsistent.
    pub fn define(self, output: OperandId, expr: ExprHandle) -> Result<Blac, SizeError> {
        let blac = Blac {
            operands: self.operands,
            output,
            expr: expr.expr(),
        };
        blac.validate()?;
        Ok(blac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_inference_matrix_product() {
        let mut b = BlacBuilder::new();
        let a = b.matrix("A", 4, 16);
        let x = b.matrix("B", 16, 4);
        let c = b.matrix("C", 4, 4);
        let (ha, hx) = (b.handle(a), b.handle(x));
        let blac = b.define(c, ha * hx).unwrap();
        assert_eq!(blac.infer(&blac.expr).unwrap(), Dims::new(4, 4));
        assert_eq!(blac.flops(), 2 * 4 * 16 * 4);
    }

    #[test]
    fn scalar_multiplication_shapes() {
        let mut b = BlacBuilder::new();
        let alpha = b.scalar("alpha");
        let x = b.col_vector("x", 8);
        let y = b.col_vector("y", 8);
        let (hal, hx, hy) = (b.handle(alpha), b.handle(x), b.handle(y));
        let blac = b.define(y, hal * hx + hy).unwrap();
        // αx is 8 flops, +y is 8 flops.
        assert_eq!(blac.flops(), 16);
        assert!(blac.output_is_input());
    }

    #[test]
    fn mismatched_add_is_rejected() {
        let mut b = BlacBuilder::new();
        let a = b.matrix("A", 4, 4);
        let c = b.matrix("B", 4, 5);
        let out = b.matrix("C", 4, 4);
        let (ha, hc) = (b.handle(a), b.handle(c));
        let err = b.define(out, ha + hc).unwrap_err();
        assert!(matches!(err, SizeError::AddMismatch(_, _)));
    }

    #[test]
    fn mismatched_product_is_rejected() {
        let mut b = BlacBuilder::new();
        let a = b.matrix("A", 4, 4);
        let c = b.matrix("B", 5, 4);
        let out = b.matrix("C", 4, 4);
        let (ha, hc) = (b.handle(a), b.handle(c));
        let err = b.define(out, ha * hc).unwrap_err();
        assert!(matches!(err, SizeError::MulMismatch(_, _)));
    }

    #[test]
    fn output_size_is_checked() {
        let mut b = BlacBuilder::new();
        let a = b.matrix("A", 4, 4);
        let out = b.matrix("C", 5, 5);
        let ha = b.handle(a);
        let err = b.define(out, ha).unwrap_err();
        assert!(matches!(err, SizeError::OutputMismatch { .. }));
    }

    #[test]
    fn transpose_composes() {
        let mut b = BlacBuilder::new();
        let a = b.matrix("A", 4, 8);
        let bb = b.matrix("B", 4, 8);
        let d = b.matrix("D", 4, 8);
        let c = b.matrix("C", 8, 8);
        let expr = (b.handle(a) + b.handle(bb)).t() * b.handle(d);
        let blac = b.define(c, expr).unwrap();
        assert_eq!(blac.infer(&blac.expr).unwrap(), Dims::new(8, 8));
    }

    #[test]
    fn mvh_and_rr_shapes() {
        // ⊘(A ⊙ x) has the shape of Ax.
        let mut b = BlacBuilder::new();
        let a = b.matrix("A", 4, 8);
        let x = b.col_vector("x", 8);
        let y = b.col_vector("y", 4);
        let expr = Expr::Rr(Arc::new(Expr::Mvh(
            Arc::new(Expr::Ref(a)),
            Arc::new(Expr::Ref(x)),
        )));
        let blac = Blac {
            operands: b.operands.clone(),
            output: y,
            expr,
        };
        blac.validate().unwrap();
        // MVH: 32 muls; RR: 4 × 7 adds. Same total as 2·4·8 − 4… the paper's
        // Table 3.2 point: both MVM approaches do the same arithmetic.
        assert_eq!(blac.flops(), 32 + 28);
    }

    #[test]
    fn display_renders_paper_notation() {
        let mut b = BlacBuilder::new();
        let alpha = b.scalar("alpha");
        let a = b.matrix("A", 4, 8);
        let x = b.col_vector("x", 8);
        let y = b.col_vector("y", 4);
        let (hal, ha, hx, hy) = (b.handle(alpha), b.handle(a), b.handle(x), b.handle(y));
        let blac = b.define(y, hal * (ha * hx) + hy).unwrap();
        assert_eq!(blac.to_string(), "y = (alpha A x + y)");
        let mut b = BlacBuilder::new();
        let a = b.matrix("A", 4, 8);
        let c = b.matrix("C", 8, 4);
        let ha = b.handle(a);
        let blac = b.define(c, ha.t()).unwrap();
        assert_eq!(blac.to_string(), "C = Aᵀ");
    }

    #[test]
    fn dims_helpers() {
        assert!(Dims::new(1, 1).is_scalar());
        assert!(Dims::new(4, 1).is_vector());
        assert!(Dims::new(1, 4).is_vector());
        assert!(!Dims::new(4, 4).is_vector());
        assert_eq!(Dims::new(3, 7).t(), Dims::new(7, 3));
    }
}
