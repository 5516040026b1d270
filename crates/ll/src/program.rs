//! Multi-statement LL programs (SLinGen-style).
//!
//! A [`Program`] is an ordered sequence of `let`-bound BLAC statements
//! over a shared operand table — the unit of work the SLinGen successor
//! paper (arXiv:1805.04775) compiles: Kalman updates, blocked
//! factorizations, and other fixed-size sequences where the payoff comes
//! from fusing across statements and exploiting operand [`Structure`].
//!
//! Operands split into *inputs/outputs* (declared, backed by kernel
//! parameters) and *temporaries* (`let`-bound targets, materialized as
//! kernel locals — or eliminated entirely by cross-statement fusion in
//! `lgen-sigma`).

use std::fmt;

use crate::blac::{
    expr_flops, validate_statement, Blac, Dims, Expr, ExprHandle, Operand, OperandId, SizeError,
    Structure,
};
use crate::reference::{eval_reference, MatrixValue};

/// One `target = expr` statement of a [`Program`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Statement {
    /// The operand written by this statement.
    pub target: OperandId,
    /// Right-hand side over the program's shared operand table.
    pub expr: Expr,
}

/// An ordered sequence of BLAC statements over shared operands.
///
/// `Eq`/`Hash` are structural, like [`Blac`]: the operand table (names,
/// sizes, structure, temp-ness) plus the statement sequence. Statement
/// order is part of the identity — the compile memo and kernel cache key
/// on the whole `Program`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Program {
    /// Shared operand table (inputs, outputs, and temporaries).
    pub operands: Vec<Operand>,
    /// `temps[i]` iff operand `i` is `let`-bound (kernel-local, not a
    /// parameter). Same length as `operands`.
    pub temps: Vec<bool>,
    /// Statements, in execution order.
    pub statements: Vec<Statement>,
}

/// Errors raised by [`Program::validate`] and [`ProgramBuilder::finish`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A program must have at least one statement.
    Empty,
    /// Shape error inside one statement.
    Sizes {
        /// Statement index.
        statement: usize,
        /// The underlying shape mismatch.
        source: SizeError,
    },
    /// A temporary is read before any statement defines it.
    UseBeforeDef {
        /// Name of the temporary.
        name: String,
    },
    /// A structure annotation on a non-square operand.
    NotSquare {
        /// Name of the operand.
        name: String,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program has no statements"),
            ProgramError::Sizes { statement, source } => {
                write!(f, "statement {statement}: {source}")
            }
            ProgramError::UseBeforeDef { name } => {
                write!(f, "temporary `{name}` is used before it is defined")
            }
            ProgramError::NotSquare { name } => {
                write!(f, "structured operand `{name}` must be square")
            }
        }
    }
}

impl std::error::Error for ProgramError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProgramError::Sizes { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl Program {
    /// The size of an operand.
    pub fn dims(&self, id: OperandId) -> Dims {
        self.operands[id.0].dims
    }

    /// Whether operand `id` is a `let`-bound temporary.
    pub fn is_temp(&self, id: OperandId) -> bool {
        self.temps[id.0]
    }

    /// Statement `i` as a [`Blac`] over the *full* program operand table
    /// (operand ids line up with the program's). Useful for per-statement
    /// size inference and reference evaluation; for an independently
    /// compilable unit see [`Program::statement_blac`].
    pub fn view(&self, i: usize) -> Blac {
        Blac {
            operands: self.operands.clone(),
            output: self.statements[i].target,
            expr: self.statements[i].expr.clone(),
        }
    }

    /// Statement `i` as a self-contained [`Blac`]: the operand table is
    /// restricted to the operands the statement actually touches and ids
    /// are remapped accordingly. This is what "compiling the statements
    /// independently" means — every operand (temporaries included)
    /// becomes a kernel parameter, so the intermediate round-trips that
    /// program fusion eliminates are forced to happen through memory.
    pub fn statement_blac(&self, i: usize) -> Blac {
        let stmt = &self.statements[i];
        let mut map = vec![usize::MAX; self.operands.len()];
        let mut operands = Vec::new();
        let intern = |map: &mut Vec<usize>, operands: &mut Vec<Operand>, id: OperandId| {
            if map[id.0] == usize::MAX {
                map[id.0] = operands.len();
                operands.push(self.operands[id.0].clone());
            }
            OperandId(map[id.0])
        };
        fn remap(e: &Expr, intern: &mut dyn FnMut(OperandId) -> OperandId) -> Expr {
            use std::sync::Arc;
            match e {
                Expr::Ref(id) => Expr::Ref(intern(*id)),
                Expr::Add(a, b) => {
                    Expr::Add(Arc::new(remap(a, intern)), Arc::new(remap(b, intern)))
                }
                Expr::Mul(a, b) => {
                    Expr::Mul(Arc::new(remap(a, intern)), Arc::new(remap(b, intern)))
                }
                Expr::Trans(a) => Expr::Trans(Arc::new(remap(a, intern))),
                Expr::Mvh(a, b) => {
                    Expr::Mvh(Arc::new(remap(a, intern)), Arc::new(remap(b, intern)))
                }
                Expr::Rr(a) => Expr::Rr(Arc::new(remap(a, intern))),
            }
        }
        let expr = remap(&stmt.expr, &mut |id| intern(&mut map, &mut operands, id));
        let output = intern(&mut map, &mut operands, stmt.target);
        Blac {
            operands,
            output,
            expr,
        }
    }

    /// Validates shapes of every statement, squareness of structured
    /// operands, and def-before-use of temporaries.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.statements.is_empty() {
            return Err(ProgramError::Empty);
        }
        assert_eq!(self.temps.len(), self.operands.len());
        for op in &self.operands {
            if op.structure.requires_square() && op.dims.rows != op.dims.cols {
                return Err(ProgramError::NotSquare {
                    name: op.name.clone(),
                });
            }
        }
        let mut defined = vec![false; self.operands.len()];
        for (i, stmt) in self.statements.iter().enumerate() {
            let mut refs = Vec::new();
            collect_refs(&stmt.expr, &mut refs);
            for id in refs {
                if self.temps[id.0] && !defined[id.0] {
                    return Err(ProgramError::UseBeforeDef {
                        name: self.operands[id.0].name.clone(),
                    });
                }
            }
            validate_statement(&self.operands, stmt.target, &stmt.expr).map_err(|source| {
                ProgramError::Sizes {
                    statement: i,
                    source,
                }
            })?;
            defined[stmt.target.0] = true;
        }
        Ok(())
    }

    /// Total useful flops: the sum over statements (§5.1.4 convention).
    pub fn flops(&self) -> u64 {
        self.statements
            .iter()
            .map(|stmt| expr_flops(&self.operands, &stmt.expr))
            .sum()
    }

    /// A stable 64-bit structural digest, in the same spirit as
    /// [`Blac::fingerprint`]: FNV-1a over the operand table (including
    /// structure and temp-ness), then each statement's target and
    /// expression tree — so statement index and order are part of the
    /// digest.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let write = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        let wu = |h: &mut u64, v: usize| {
            for &b in &(v as u64).to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        wu(&mut h, self.operands.len());
        for (op, &temp) in self.operands.iter().zip(&self.temps) {
            wu(&mut h, op.name.len());
            write(&mut h, op.name.as_bytes());
            wu(&mut h, op.dims.rows);
            wu(&mut h, op.dims.cols);
            write(&mut h, &[op.structure as u8, u8::from(temp)]);
        }
        wu(&mut h, self.statements.len());
        for (i, _) in self.statements.iter().enumerate() {
            wu(&mut h, i);
            // Reuse the per-statement Blac digest for the tree encoding;
            // mixing per index keeps statement order significant.
            let fp = self.view(i).fingerprint();
            write(&mut h, &fp.to_le_bytes());
        }
        h
    }

    /// Renders the program in `parse_program` syntax.
    pub fn text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (op, &temp) in self.operands.iter().zip(&self.temps) {
            if temp {
                continue;
            }
            let d = op.dims;
            let shape = if d.is_scalar() {
                "scalar".to_string()
            } else if d.cols == 1 {
                format!("vector({})", d.rows)
            } else if d.rows == 1 {
                format!("rowvector({})", d.cols)
            } else {
                format!("matrix({}, {})", d.rows, d.cols)
            };
            let _ = write!(s, "{} = {}", op.name, shape);
            if op.structure != Structure::General {
                let _ = write!(s, " {}", op.structure);
            }
            s.push('\n');
        }
        for stmt in &self.statements {
            let _ = writeln!(
                s,
                "{} = {};",
                self.operands[stmt.target.0].name,
                self.render(&stmt.expr, 0)
            );
        }
        s
    }

    /// Renders an expression in `parse_program` syntax. `prec`: 0 = sum
    /// context, 1 = product context, 2 = postfix context.
    fn render(&self, e: &Expr, prec: u8) -> String {
        match e {
            Expr::Ref(id) => self.operands[id.0].name.clone(),
            Expr::Add(a, b) => {
                let s = format!("{} + {}", self.render(a, 0), self.render(b, 0));
                if prec > 0 {
                    format!("({s})")
                } else {
                    s
                }
            }
            Expr::Mul(a, b) => {
                let s = format!("{} * {}", self.render(a, 1), self.render(b, 2));
                if prec > 1 {
                    format!("({s})")
                } else {
                    s
                }
            }
            Expr::Trans(a) => format!("{}'", self.render(a, 2)),
            // ⊙/⊘ are internal Σ-LL forms with no surface syntax; programs
            // built from the parser never contain them.
            Expr::Mvh(..) | Expr::Rr(..) => {
                let blac = Blac {
                    operands: self.operands.clone(),
                    output: OperandId(0),
                    expr: e.clone(),
                };
                blac.expr_string(e)
            }
        }
    }
}

/// A BLAC as a one-statement program without temporaries: the same
/// operand table (every operand a kernel parameter) and one statement
/// `output = expr`. Compiling it yields the BLAC's kernel.
impl From<&Blac> for Program {
    fn from(blac: &Blac) -> Program {
        Program {
            operands: blac.operands.clone(),
            temps: vec![false; blac.operands.len()],
            statements: vec![Statement {
                target: blac.output,
                expr: blac.expr.clone(),
            }],
        }
    }
}

fn collect_refs(e: &Expr, out: &mut Vec<OperandId>) {
    match e {
        Expr::Ref(id) => out.push(*id),
        Expr::Add(a, b) | Expr::Mul(a, b) | Expr::Mvh(a, b) => {
            collect_refs(a, out);
            collect_refs(b, out);
        }
        Expr::Trans(a) | Expr::Rr(a) => collect_refs(a, out),
    }
}

/// Evaluates a program statement by statement with [`eval_reference`],
/// threading each target's new value into subsequent statements. `values`
/// is indexed by operand id (temporaries may start as zeros); the
/// returned vector holds the final value of every operand.
///
/// # Panics
///
/// Panics if values are missing or ill-sized; call [`Program::validate`]
/// first.
pub fn eval_program_reference(program: &Program, values: &[MatrixValue]) -> Vec<MatrixValue> {
    let mut values = values.to_vec();
    for i in 0..program.statements.len() {
        let out = eval_reference(&program.view(i), &values);
        values[program.statements[i].target.0] = out;
    }
    values
}

/// Builds a [`Program`] the way [`crate::BlacBuilder`] builds a [`Blac`].
///
/// ```
/// use lgen_ll::{ProgramBuilder, Structure};
/// let mut b = ProgramBuilder::new();
/// let f = b.matrix("F", 4, 4);
/// let p = b.structured_matrix("P", 4, Structure::Symmetric);
/// let pn = b.matrix("P_next", 4, 4);
/// let s = b.let_stmt("S", b.handle(p) * b.handle(f).t()).unwrap();
/// b.stmt(pn, b.handle(f) * b.handle(s)).unwrap();
/// let program = b.finish().unwrap();
/// assert_eq!(program.statements.len(), 2);
/// assert!(program.is_temp(s));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    operands: Vec<Operand>,
    temps: Vec<bool>,
    statements: Vec<Statement>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: &str, dims: Dims, structure: Structure, temp: bool) -> OperandId {
        self.operands.push(Operand {
            name: name.to_string(),
            dims,
            structure,
        });
        self.temps.push(temp);
        OperandId(self.operands.len() - 1)
    }

    /// Declares a matrix operand (kernel parameter).
    pub fn matrix(&mut self, name: &str, rows: usize, cols: usize) -> OperandId {
        self.push(name, Dims::new(rows, cols), Structure::General, false)
    }

    /// Declares a square matrix operand with a structure annotation.
    pub fn structured_matrix(&mut self, name: &str, n: usize, structure: Structure) -> OperandId {
        self.push(name, Dims::new(n, n), structure, false)
    }

    /// Declares a column vector of length `n`.
    pub fn col_vector(&mut self, name: &str, n: usize) -> OperandId {
        self.push(name, Dims::new(n, 1), Structure::General, false)
    }

    /// Declares a scalar operand.
    pub fn scalar(&mut self, name: &str) -> OperandId {
        self.push(name, Dims::new(1, 1), Structure::General, false)
    }

    /// An expression handle for an operand id.
    pub fn handle(&self, id: OperandId) -> ExprHandle {
        ExprHandle(std::sync::Arc::new(Expr::Ref(id)))
    }

    /// Appends the statement `target = expr`.
    ///
    /// # Errors
    ///
    /// Returns a [`SizeError`] if the statement's shapes are inconsistent
    /// (checked against the operands declared *so far*).
    pub fn stmt(&mut self, target: OperandId, expr: ExprHandle) -> Result<(), SizeError> {
        let blac = Blac {
            operands: self.operands.clone(),
            output: target,
            expr: expr.expr(),
        };
        blac.validate()?;
        self.statements.push(Statement {
            target,
            expr: blac.expr,
        });
        Ok(())
    }

    /// Appends a `let`-bound statement `name = expr`, declaring `name` as
    /// a temporary whose size is inferred from the expression. Returns
    /// the temporary's id for use in later statements.
    ///
    /// # Errors
    ///
    /// Returns a [`SizeError`] if the expression's shapes are
    /// inconsistent.
    pub fn let_stmt(&mut self, name: &str, expr: ExprHandle) -> Result<OperandId, SizeError> {
        let expr = expr.expr();
        let probe = Blac {
            operands: self.operands.clone(),
            output: OperandId(0),
            expr: expr.clone(),
        };
        let dims = probe.infer(&probe.expr)?;
        let id = self.push(name, dims, Structure::General, true);
        self.statements.push(Statement { target: id, expr });
        Ok(id)
    }

    /// Finishes and validates the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program is empty or any
    /// statement is inconsistent.
    pub fn finish(self) -> Result<Program, ProgramError> {
        let program = Program {
            operands: self.operands,
            temps: self.temps,
            statements: self.statements,
        };
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{max_abs_diff, test_data, test_data_for};

    fn kalman_predictish() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.matrix("F", 4, 4);
        let p = b.structured_matrix("P", 4, Structure::Symmetric);
        let pn = b.matrix("P_next", 4, 4);
        let s = b.let_stmt("S", b.handle(p) * b.handle(f).t()).unwrap();
        b.stmt(pn, b.handle(f) * b.handle(s)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builder_and_validate() {
        let p = kalman_predictish();
        assert_eq!(p.statements.len(), 2);
        assert_eq!(p.temps, vec![false, false, false, true]);
        assert_eq!(p.flops(), 2 * (2 * 4 * 4 * 4));
    }

    #[test]
    fn use_before_def_rejected() {
        let mut b = ProgramBuilder::new();
        let x = b.col_vector("x", 4);
        let program = Program {
            operands: {
                let mut ops = b.operands.clone();
                ops.push(Operand {
                    name: "t".into(),
                    dims: Dims::new(4, 1),
                    structure: Structure::General,
                });
                ops
            },
            temps: vec![false, true],
            statements: vec![Statement {
                target: x,
                expr: Expr::Ref(OperandId(1)),
            }],
        };
        assert_eq!(
            program.validate(),
            Err(ProgramError::UseBeforeDef { name: "t".into() })
        );
    }

    #[test]
    fn structured_operand_must_be_square() {
        let program = Program {
            operands: vec![
                Operand {
                    name: "L".into(),
                    dims: Dims::new(3, 4),
                    structure: Structure::LowerTriangular,
                },
                Operand {
                    name: "B".into(),
                    dims: Dims::new(3, 4),
                    structure: Structure::General,
                },
            ],
            temps: vec![false, false],
            statements: vec![Statement {
                target: OperandId(1),
                expr: Expr::Ref(OperandId(0)),
            }],
        };
        assert_eq!(
            program.validate(),
            Err(ProgramError::NotSquare { name: "L".into() })
        );
    }

    #[test]
    fn statement_blac_restricts_and_remaps() {
        let p = kalman_predictish();
        // Statement 0: S = P * F' touches P, F, S only.
        let b0 = p.statement_blac(0);
        assert_eq!(
            b0.operands
                .iter()
                .map(|o| o.name.as_str())
                .collect::<Vec<_>>(),
            vec!["P", "F", "S"]
        );
        b0.validate().unwrap();
        // Statement 1: P_next = F * S.
        let b1 = p.statement_blac(1);
        assert_eq!(
            b1.operands
                .iter()
                .map(|o| o.name.as_str())
                .collect::<Vec<_>>(),
            vec!["F", "S", "P_next"]
        );
        b1.validate().unwrap();
    }

    #[test]
    fn eval_program_composes_statements() {
        let p = kalman_predictish();
        let values: Vec<MatrixValue> = p
            .operands
            .iter()
            .enumerate()
            .map(|(i, op)| test_data_for(op, 10 + i as u64))
            .collect();
        let out = eval_program_reference(&p, &values);
        // Hand-compose: S = P F', P_next = F S.
        let s = eval_reference(&p.view(0), &values);
        let mut v2 = values.clone();
        v2[3] = s.clone();
        let pn = eval_reference(&p.view(1), &v2);
        assert_eq!(max_abs_diff(&out[3], &s), 0.0);
        assert_eq!(max_abs_diff(&out[2], &pn), 0.0);
    }

    #[test]
    fn fingerprint_sees_order_structure_and_temps() {
        let p = kalman_predictish();
        let mut q = p.clone();
        q.statements.swap(0, 1);
        assert_ne!(p.fingerprint(), q.fingerprint());
        let mut r = p.clone();
        r.operands[1].structure = Structure::General;
        assert_ne!(p.fingerprint(), r.fingerprint());
        let mut t = p.clone();
        t.temps[3] = false;
        assert_ne!(p.fingerprint(), t.fingerprint());
        assert_eq!(p.fingerprint(), p.clone().fingerprint());
    }

    #[test]
    fn structure_helpers() {
        use Structure::*;
        assert_eq!(LowerTriangular.transposed(), UpperTriangular);
        assert_eq!(UpperTriangular.transposed(), LowerTriangular);
        assert_eq!(Symmetric.transposed(), Symmetric);
        assert!(LowerTriangular.is_zero_at(0, 3));
        assert!(!LowerTriangular.is_zero_at(3, 0));
        assert!(Diagonal.is_zero_at(2, 3));
        assert!(!Diagonal.is_zero_at(2, 2));
        assert_eq!(LowerTriangular.col_support(0, 2, 8), (0, 2));
        assert_eq!(UpperTriangular.col_support(3, 5, 8), (3, 8));
        assert_eq!(Diagonal.col_support(3, 5, 8), (3, 5));
        assert_eq!(General.col_support(3, 5, 8), (0, 8));
        assert_eq!(Symmetric.col_support(3, 5, 8), (0, 8));
    }

    #[test]
    fn structured_test_data_honors_contract() {
        let lower = Operand {
            name: "L".into(),
            dims: Dims::new(6, 6),
            structure: Structure::LowerTriangular,
        };
        let v = test_data_for(&lower, 7);
        for r in 0..6 {
            for c in 0..6 {
                if c > r {
                    assert_eq!(v.at(r, c), 0.0);
                } else {
                    assert_ne!(v.at(r, c), 0.0);
                }
            }
        }
        let sym = Operand {
            name: "P".into(),
            dims: Dims::new(6, 6),
            structure: Structure::Symmetric,
        };
        let v = test_data_for(&sym, 8);
        for r in 0..6 {
            for c in 0..6 {
                assert_eq!(v.at(r, c), v.at(c, r));
            }
        }
        let gen = Operand {
            name: "A".into(),
            dims: Dims::new(6, 6),
            structure: Structure::General,
        };
        assert_eq!(test_data_for(&gen, 9), test_data(gen.dims, 9));
    }
}
