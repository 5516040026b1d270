//! Textual front end for BLACs and multi-statement programs.
//!
//! The input to LGen is "a BLAC expressed as an equation … together with a
//! specification of the sizes of all entities involved" (§2.1.1). This
//! module provides that front end as a small declaration + equation
//! language:
//!
//! ```text
//! A = matrix(4, 8)
//! x = vector(8)
//! y = vector(4)
//! alpha = scalar
//! beta = scalar
//!
//! y = alpha * (A * x) + beta * y
//! ```
//!
//! Operators: `+` (matrix addition), `*` (matrix / scalar multiplication),
//! postfix `'` (transposition), parentheses. The last non-declaration line
//! is the equation; its left-hand side names the output operand.
//!
//! [`parse_program`] extends the same grammar to SLinGen-style programs
//! (arXiv:1805.04775): `;`-terminated statements executed in order,
//! `let`-bound temporaries (an equation whose left-hand side is not
//! declared), and structure annotations on matrix declarations:
//!
//! ```text
//! F = matrix(4, 4)
//! P = matrix(4, 4) symmetric
//! L = matrix(4, 4) triangular(lower)
//! P_next = matrix(4, 4)
//! S = P * F';          # S is let-bound: declared by assignment
//! P_next = F * S;
//! ```

use crate::blac::{Blac, Dims, Expr, Operand, OperandId, SizeError, Structure};
use crate::program::{Program, ProgramError, Statement};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors from parsing a BLAC or program source text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Unexpected character or token.
    Syntax {
        /// 1-based line.
        line: usize,
        /// 1-based column of the offending token (0 when unknown, e.g.
        /// end of input).
        col: usize,
        /// Explanation, naming the offending token.
        message: String,
    },
    /// Equation references an undeclared name.
    Undeclared {
        /// The name.
        name: String,
        /// 1-based line of the reference.
        line: usize,
        /// 1-based column of the reference.
        col: usize,
    },
    /// An operand was declared twice.
    Redeclared {
        /// The name.
        name: String,
        /// 1-based line of the second declaration.
        line: usize,
    },
    /// No equation line found.
    MissingEquation,
    /// The equation's shapes are inconsistent.
    Sizes(SizeError),
    /// The parsed program fails whole-program validation.
    Program(ProgramError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, col, message } => {
                write!(f, "line {line}, column {col}: {message}")
            }
            ParseError::Undeclared { name, line, col } => {
                write!(f, "line {line}, column {col}: undeclared operand '{name}'")
            }
            ParseError::Redeclared { name, line } => {
                write!(f, "line {line}: operand '{name}' declared twice")
            }
            ParseError::MissingEquation => write!(f, "no equation line found"),
            ParseError::Sizes(e) => write!(f, "size error: {e}"),
            ParseError::Program(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<SizeError> for ParseError {
    fn from(e: SizeError) -> Self {
        ParseError::Sizes(e)
    }
}

impl From<ProgramError> for ParseError {
    fn from(e: ProgramError) -> Self {
        ParseError::Program(e)
    }
}

/// One `lhs = rhs` segment with its source position: line number and the
/// 1-based column where the right-hand side starts in the raw line.
struct Segment {
    line: usize,
    lhs: String,
    rhs: String,
    rhs_col: usize,
}

/// Splits source into `lhs = rhs` segments: comments stripped, lines
/// split at `;` (so several statements may share a line, and a statement
/// may end in `;`).
fn segments(src: &str) -> Result<Vec<Segment>, ParseError> {
    let mut out = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let code = raw.split('#').next().unwrap_or("");
        let mut offset = 0usize;
        for piece in code.split(';') {
            let piece_start = offset;
            offset += piece.len() + 1;
            if piece.trim().is_empty() {
                continue;
            }
            let Some(eq) = piece.find('=') else {
                return Err(ParseError::Syntax {
                    line: lineno + 1,
                    col: piece_start + (piece.len() - piece.trim_start().len()) + 1,
                    message: format!("expected 'name = …', got '{}'", piece.trim()),
                });
            };
            let lhs = piece[..eq].trim().to_string();
            let rhs_raw = &piece[eq + 1..];
            let rhs = rhs_raw.trim();
            let rhs_col = piece_start + eq + 1 + (rhs_raw.len() - rhs_raw.trim_start().len()) + 1;
            out.push(Segment {
                line: lineno + 1,
                lhs,
                rhs: rhs.to_string(),
                rhs_col,
            });
        }
    }
    Ok(out)
}

/// Parses a single-equation BLAC source text into a validated [`Blac`]
/// (the unit tests' entry point to the shared grammar; production input
/// goes through [`parse_program`]).
#[cfg(test)]
pub(crate) fn parse_blac(src: &str) -> Result<Blac, ParseError> {
    let mut operands: Vec<Operand> = Vec::new();
    let mut names: HashMap<String, OperandId> = HashMap::new();
    let mut equation: Option<Segment> = None;

    for seg in segments(src)? {
        if let Some((dims, structure)) = parse_decl(&seg.rhs, seg.line, seg.rhs_col)? {
            declare(&mut operands, &mut names, &seg, dims, structure)?;
        } else {
            // An equation line; the last one wins (there is normally one).
            equation = Some(seg);
        }
    }

    let eq = equation.ok_or(ParseError::MissingEquation)?;
    let output = *names.get(&eq.lhs).ok_or(ParseError::Undeclared {
        name: eq.lhs.clone(),
        line: eq.line,
        col: 1,
    })?;
    let expr = parse_expr(&eq, &names)?;
    let blac = Blac {
        operands,
        output,
        expr,
    };
    blac.validate()?;
    Ok(blac)
}

/// Parses a multi-statement program source text into a validated
/// [`Program`].
///
/// The grammar is the module's declaration + equation language, extended:
/// declarations may carry a structure annotation (`symmetric`,
/// `diagonal`, `triangular(lower)`, `triangular(upper)`), statements are
/// executed in order (separated by `;` or line breaks), and a statement whose left-hand side is not
/// declared `let`-binds a temporary whose size is inferred from the
/// expression.
///
/// A single-equation BLAC file is a valid one-statement program, so this
/// is a strict superset front end.
///
/// # Example
///
/// ```
/// let program = lgen_ll::parse_program(
///     "A = matrix(4, 8)\n\
///      x = vector(8)\n\
///      y = vector(4)\n\
///      alpha = scalar\n\
///      y = alpha * (A * x)",
/// )?;
/// assert_eq!(program.statements.len(), 1);
/// assert_eq!(program.statement_blac(0).to_string(), "y = alpha A x");
/// assert_eq!(program.flops(), 2 * 4 * 8 + 4);
/// # Ok::<(), lgen_ll::ParseError>(())
/// ```
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, undeclared names in
/// expressions, redeclarations, a program with no statements, or
/// inconsistent shapes.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut operands: Vec<Operand> = Vec::new();
    let mut temps: Vec<bool> = Vec::new();
    let mut names: HashMap<String, OperandId> = HashMap::new();
    let mut statements: Vec<Statement> = Vec::new();

    for seg in segments(src)? {
        if let Some((dims, structure)) = parse_decl(&seg.rhs, seg.line, seg.rhs_col)? {
            if !statements.is_empty() {
                return Err(ParseError::Syntax {
                    line: seg.line,
                    col: seg.rhs_col,
                    message: format!("declaration of '{}' after the first statement", seg.lhs),
                });
            }
            declare(&mut operands, &mut names, &seg, dims, structure)?;
            temps.push(false);
            continue;
        }
        let expr = parse_expr(&seg, &names)?;
        let target = match names.get(&seg.lhs) {
            Some(&id) => id,
            None => {
                // `let`-bound temporary: size inferred from the expression.
                let probe = Blac {
                    operands: operands.clone(),
                    output: OperandId(0),
                    expr: expr.clone(),
                };
                let dims = probe.infer(&expr)?;
                let id = OperandId(operands.len());
                names.insert(seg.lhs.clone(), id);
                operands.push(Operand {
                    name: seg.lhs.clone(),
                    dims,
                    structure: Structure::General,
                });
                temps.push(true);
                id
            }
        };
        statements.push(Statement { target, expr });
    }

    if statements.is_empty() {
        return Err(ParseError::MissingEquation);
    }
    // Parsed programs are long-lived (cache keys, input pools): keep the
    // tables at their exact size.
    operands.shrink_to_fit();
    temps.shrink_to_fit();
    statements.shrink_to_fit();
    let program = Program {
        operands,
        temps,
        statements,
    };
    program.validate()?;
    Ok(program)
}

fn declare(
    operands: &mut Vec<Operand>,
    names: &mut HashMap<String, OperandId>,
    seg: &Segment,
    dims: Dims,
    structure: Structure,
) -> Result<(), ParseError> {
    if names.contains_key(&seg.lhs) {
        return Err(ParseError::Redeclared {
            name: seg.lhs.clone(),
            line: seg.line,
        });
    }
    if structure.requires_square() && dims.rows != dims.cols {
        return Err(ParseError::Syntax {
            line: seg.line,
            col: seg.rhs_col,
            message: format!(
                "structure annotation '{structure}' requires a square matrix, got {dims}"
            ),
        });
    }
    names.insert(seg.lhs.clone(), OperandId(operands.len()));
    operands.push(Operand {
        name: seg.lhs.clone(),
        dims,
        structure,
    });
    Ok(())
}

fn parse_expr(seg: &Segment, names: &HashMap<String, OperandId>) -> Result<Expr, ParseError> {
    let mut p = ExprParser {
        tokens: tokenize(&seg.rhs, seg.line, seg.rhs_col)?,
        pos: 0,
        names,
        line: seg.line,
        end_col: seg.rhs_col + seg.rhs.len(),
    };
    let expr = p.expression()?;
    p.expect_end()?;
    Ok(expr)
}

/// Parses a declaration right-hand side (shape plus optional structure
/// annotation); `None` if it is not a declaration.
fn parse_decl(rhs: &str, line: usize, col: usize) -> Result<Option<(Dims, Structure)>, ParseError> {
    let rhs = rhs.trim();
    if rhs == "scalar" {
        return Ok(Some((Dims::new(1, 1), Structure::General)));
    }
    for (kw, is_matrix) in [("matrix", true), ("vector", false), ("rowvector", false)] {
        let Some(rest) = rhs.strip_prefix(kw) else {
            continue;
        };
        if rest
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue; // a name like `matrixish`, not a declaration
        }
        let rest = rest.trim_start();
        let (inner, tail) = rest
            .strip_prefix('(')
            .and_then(|r| r.split_once(')'))
            .ok_or(ParseError::Syntax {
                line,
                col,
                message: format!("expected {kw}(…), got '{rhs}'"),
            })?;
        let dims: Vec<usize> = inner
            .split(',')
            .map(|d| d.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| ParseError::Syntax {
                line,
                col,
                message: format!("sizes must be positive integers, got '({inner})'"),
            })?;
        let dims = match (is_matrix, dims.as_slice()) {
            (true, [r, c]) if *r > 0 && *c > 0 => Dims::new(*r, *c),
            (false, [n]) if *n > 0 => {
                if kw == "rowvector" {
                    Dims::new(1, *n)
                } else {
                    Dims::new(*n, 1)
                }
            }
            _ => {
                return Err(ParseError::Syntax {
                    line,
                    col,
                    message: format!("wrong arity for {kw}, got '({inner})'"),
                })
            }
        };
        let structure = parse_structure(tail.trim(), line, col)?;
        if structure != Structure::General && !is_matrix {
            return Err(ParseError::Syntax {
                line,
                col,
                message: format!("structure annotation '{structure}' is only valid on matrices"),
            });
        }
        return Ok(Some((dims, structure)));
    }
    Ok(None)
}

/// Parses the optional structure annotation after a declaration's shape.
fn parse_structure(tail: &str, line: usize, col: usize) -> Result<Structure, ParseError> {
    match tail {
        "" => Ok(Structure::General),
        "symmetric" => Ok(Structure::Symmetric),
        "diagonal" => Ok(Structure::Diagonal),
        _ => {
            if let Some(arg) = tail
                .strip_prefix("triangular")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('('))
                .and_then(|r| r.strip_suffix(')'))
            {
                return match arg.trim() {
                    "lower" => Ok(Structure::LowerTriangular),
                    "upper" => Ok(Structure::UpperTriangular),
                    other => Err(ParseError::Syntax {
                        line,
                        col,
                        message: format!(
                            "expected triangular(lower) or triangular(upper), got '{other}'"
                        ),
                    }),
                };
            }
            Err(ParseError::Syntax {
                line,
                col,
                message: format!("unknown structure annotation '{tail}'"),
            })
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Name(String),
    Plus,
    Star,
    Tick,
    LParen,
    RParen,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Name(n) => format!("'{n}'"),
            Tok::Plus => "'+'".into(),
            Tok::Star => "'*'".into(),
            Tok::Tick => "'''".into(),
            Tok::LParen => "'('".into(),
            Tok::RParen => "')'".into(),
        }
    }
}

/// Tokenizes an expression; each token carries its 1-based source column
/// (`base_col` is the column where `s` starts in the raw line).
fn tokenize(s: &str, line: usize, base_col: usize) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut out = Vec::new();
    let mut chars = s.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        let col = base_col + i;
        match c {
            ' ' | '\t' => {
                chars.next();
            }
            '+' => {
                chars.next();
                out.push((Tok::Plus, col));
            }
            '*' => {
                chars.next();
                out.push((Tok::Star, col));
            }
            '\'' => {
                chars.next();
                out.push((Tok::Tick, col));
            }
            '(' => {
                chars.next();
                out.push((Tok::LParen, col));
            }
            ')' => {
                chars.next();
                out.push((Tok::RParen, col));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut name = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Name(name), col));
            }
            other => {
                return Err(ParseError::Syntax {
                    line,
                    col,
                    message: format!("unexpected character '{other}'"),
                })
            }
        }
    }
    Ok(out)
}

/// Wraps a subexpression for use as a child node.
///
/// An operand reference carries nothing but its index, so the references
/// to the first [`SHARED_REFS`] operands are shared `Arc`s: a parsed
/// expression allocates only its interior nodes.
fn child(e: Expr) -> Arc<Expr> {
    static REFS: OnceLock<Vec<Arc<Expr>>> = OnceLock::new();
    if let Expr::Ref(id) = e {
        let refs = REFS.get_or_init(|| {
            (0..SHARED_REFS)
                .map(|i| Arc::new(Expr::Ref(OperandId(i))))
                .collect()
        });
        if let Some(shared) = refs.get(id.0) {
            return Arc::clone(shared);
        }
    }
    Arc::new(e)
}

/// Operand indices whose [`Expr::Ref`] leaves [`child`] shares.
const SHARED_REFS: usize = 32;

struct ExprParser<'a> {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
    names: &'a HashMap<String, OperandId>,
    line: usize,
    end_col: usize,
}

impl ExprParser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn bump(&mut self) -> Option<(Tok, usize)> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// The column of the current (or last) token for error reporting.
    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(self.end_col, |&(_, col)| col)
    }

    fn err_at(&self, col: usize, message: impl Into<String>) -> ParseError {
        ParseError::Syntax {
            line: self.line,
            col,
            message: message.into(),
        }
    }

    /// expression := product { '+' product }
    fn expression(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.product()?;
        while self.peek() == Some(&Tok::Plus) {
            self.bump();
            let rhs = self.product()?;
            acc = Expr::Add(child(acc), child(rhs));
        }
        Ok(acc)
    }

    /// product := postfix { '*' postfix }   (left-associative)
    fn product(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.postfix()?;
        while self.peek() == Some(&Tok::Star) {
            self.bump();
            let rhs = self.postfix()?;
            acc = Expr::Mul(child(acc), child(rhs));
        }
        Ok(acc)
    }

    /// postfix := atom { '\'' }
    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.atom()?;
        while self.peek() == Some(&Tok::Tick) {
            self.bump();
            acc = Expr::Trans(child(acc));
        }
        Ok(acc)
    }

    /// atom := name | '(' expression ')'
    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some((Tok::Name(name), col)) => {
                let id = self.names.get(&name).ok_or(ParseError::Undeclared {
                    name,
                    line: self.line,
                    col,
                })?;
                Ok(Expr::Ref(*id))
            }
            Some((Tok::LParen, open_col)) => {
                let e = self.expression()?;
                match self.bump() {
                    Some((Tok::RParen, _)) => Ok(e),
                    Some((tok, col)) => {
                        Err(self.err_at(col, format!("expected ')', got {}", tok.describe())))
                    }
                    None => Err(self.err_at(
                        self.end_col,
                        format!("unclosed '(' opened at column {open_col}"),
                    )),
                }
            }
            Some((tok, col)) => Err(self.err_at(
                col,
                format!("expected operand or '(', got {}", tok.describe()),
            )),
            None => Err(self.err_at(self.here(), "expected operand or '(', got end of input")),
        }
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        match self.tokens.get(self.pos) {
            None => Ok(()),
            Some((tok, col)) => Err(self.err_at(
                *col,
                format!("trailing {} after expression", tok.describe()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn parses_the_paper_headline_blac() {
        // The §2.1.1 example: y = αAx + βy.
        let blac = parse_blac(
            "# the paper's running example\n\
             alpha = scalar\n\
             beta = scalar\n\
             A = matrix(10, 20)\n\
             x = vector(20)\n\
             y = vector(10)\n\
             y = alpha * (A * x) + beta * y",
        )
        .unwrap();
        assert_eq!(blac.operands.len(), 5);
        assert_eq!(blac.dims(blac.output), Dims::new(10, 1));
        assert!(blac.output_is_input());
        // Structurally identical to the programmatic constructor.
        let reference = paper::gemv(10, 20);
        assert_eq!(blac.flops(), reference.flops());
    }

    #[test]
    fn parses_transposes_and_nesting() {
        let blac = parse_blac(
            "alpha = scalar\n\
             beta = scalar\n\
             A0 = matrix(8, 4)\n\
             A1 = matrix(8, 4)\n\
             B = matrix(8, 6)\n\
             C = matrix(4, 6)\n\
             C = alpha * ((A0 + A1)' * B) + beta * C",
        )
        .unwrap();
        assert_eq!(blac.flops(), paper::addt_gemm(8, 4, 6).flops());
        assert_eq!(blac.to_string(), "C = (alpha (A0 + A1)ᵀ B + beta C)");
    }

    #[test]
    fn row_vectors_and_bilinear_forms() {
        let blac = parse_blac(
            "x = vector(4)\n\
             A = matrix(4, 9)\n\
             y = vector(9)\n\
             alpha = scalar\n\
             alpha = x' * (A * y)",
        )
        .unwrap();
        assert_eq!(blac.dims(blac.output), Dims::new(1, 1));
        assert_eq!(blac.flops(), paper::bilinear(4, 9).flops());
    }

    #[test]
    fn rejects_unknown_names() {
        let err = parse_blac("y = vector(4)\ny = Q * y").unwrap_err();
        assert!(matches!(err, ParseError::Undeclared { name, .. } if name == "Q"));
    }

    #[test]
    fn rejects_redeclaration() {
        let err = parse_blac("A = matrix(2, 2)\nA = matrix(3, 3)\nA = A").unwrap_err();
        assert!(matches!(err, ParseError::Redeclared { .. }));
    }

    #[test]
    fn rejects_shape_errors() {
        let err = parse_blac("A = matrix(4, 4)\nB = matrix(5, 4)\nC = matrix(4, 4)\nC = A * B")
            .unwrap_err();
        assert!(matches!(
            err,
            ParseError::Sizes(SizeError::MulMismatch(_, _))
        ));
    }

    #[test]
    fn rejects_missing_equation_and_syntax_garbage() {
        assert_eq!(
            parse_blac("A = matrix(2, 2)").unwrap_err(),
            ParseError::MissingEquation
        );
        let err = parse_blac("A = matrix(2, 2)\nA = A $ A").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }));
        let err = parse_blac("A = matrix(2, 2)\nA = (A").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }));
        let err = parse_blac("A = matrix(2)\nA = A").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }));
    }

    #[test]
    fn syntax_errors_carry_line_column_and_token() {
        // `$` on line 2, after "A = A " (column 7).
        let err = parse_blac("A = matrix(2, 2)\nA = A $ A").unwrap_err();
        assert_eq!(
            err,
            ParseError::Syntax {
                line: 2,
                col: 7,
                message: "unexpected character '$'".into()
            }
        );
        // Trailing token: the second `A` of `A = A A`.
        let err = parse_blac("A = matrix(2, 2)\nA = A A").unwrap_err();
        assert_eq!(
            err,
            ParseError::Syntax {
                line: 2,
                col: 7,
                message: "trailing 'A' after expression".into()
            }
        );
        // Unclosed paren reports where it was opened.
        let err = parse_blac("A = matrix(2, 2)\nA = (A + A").unwrap_err();
        assert!(
            matches!(err, ParseError::Syntax { line: 2, col, ref message }
                if col >= 10 && message.contains("unclosed '(' opened at column 5")),
            "got {err:?}"
        );
        // Undeclared names carry their position.
        let err = parse_blac("y = vector(4)\ny = y + Q").unwrap_err();
        assert_eq!(
            err,
            ParseError::Undeclared {
                name: "Q".into(),
                line: 2,
                col: 9
            }
        );
        // Binary operator with a missing operand names the operator.
        let err = parse_blac("A = matrix(2, 2)\nA = A + * A").unwrap_err();
        assert!(
            matches!(err, ParseError::Syntax { line: 2, col: 9, ref message }
                if message.contains("expected operand or '(', got '*'")),
            "got {err:?}"
        );
    }

    #[test]
    fn parses_a_program_with_temps_and_structure() {
        let program = parse_program(
            "F = matrix(4, 4)\n\
             P = matrix(4, 4) symmetric\n\
             P_next = matrix(4, 4)\n\
             S = P * F';     # let-bound temporary\n\
             P_next = F * S;",
        )
        .unwrap();
        assert_eq!(program.statements.len(), 2);
        assert_eq!(program.operands.len(), 4);
        assert_eq!(program.temps, vec![false, false, false, true]);
        assert_eq!(program.operands[1].structure, Structure::Symmetric);
        assert_eq!(program.operands[3].name, "S");
        assert_eq!(program.dims(OperandId(3)), Dims::new(4, 4));
    }

    #[test]
    fn program_accepts_single_blac_files() {
        let src = "alpha = scalar\nA = matrix(4, 8)\nx = vector(8)\ny = vector(4)\n\
                   y = alpha * (A * x) + y";
        let program = parse_program(src).unwrap();
        assert_eq!(program.statements.len(), 1);
        assert!(program.temps.iter().all(|&t| !t));
        let blac = parse_blac(src).unwrap();
        assert_eq!(program.view(0), blac);
    }

    #[test]
    fn program_statements_may_share_a_line() {
        let program = parse_program(
            "A = matrix(3, 3)\nB = matrix(3, 3)\n\
             t = A * B; B = t + t;",
        )
        .unwrap();
        assert_eq!(program.statements.len(), 2);
        assert!(program.is_temp(OperandId(2)));
    }

    #[test]
    fn parses_all_structure_annotations() {
        let program = parse_program(
            "L = matrix(4, 4) triangular(lower)\n\
             U = matrix(4, 4) triangular(upper)\n\
             D = matrix(4, 4) diagonal\n\
             S = matrix(4, 4) symmetric\n\
             O = matrix(4, 4)\n\
             O = L * U + D * S;",
        )
        .unwrap();
        use Structure::*;
        assert_eq!(
            program
                .operands
                .iter()
                .map(|o| o.structure)
                .collect::<Vec<_>>(),
            vec![
                LowerTriangular,
                UpperTriangular,
                Diagonal,
                Symmetric,
                General
            ]
        );
    }

    #[test]
    fn rejects_bad_programs() {
        // Unknown annotation.
        let err = parse_program("A = matrix(4, 4) hermitian\nA = A;").unwrap_err();
        assert!(
            matches!(err, ParseError::Syntax { line: 1, ref message, .. }
                if message.contains("hermitian")),
            "got {err:?}"
        );
        // Structure on a non-square matrix.
        let err = parse_program("L = matrix(3, 4) triangular(lower)\nL = L;").unwrap_err();
        assert!(
            matches!(err, ParseError::Syntax { line: 1, ref message, .. }
                if message.contains("square")),
            "got {err:?}"
        );
        // Structure on a vector.
        let err = parse_program("x = vector(4) symmetric\nx = x;").unwrap_err();
        assert!(
            matches!(err, ParseError::Syntax { line: 1, ref message, .. }
                if message.contains("only valid on matrices")),
            "got {err:?}"
        );
        // Bad triangular argument.
        let err = parse_program("L = matrix(4, 4) triangular(middle)\nL = L;").unwrap_err();
        assert!(
            matches!(err, ParseError::Syntax { line: 1, ref message, .. }
                if message.contains("triangular(lower) or triangular(upper)")),
            "got {err:?}"
        );
        // Declarations after the first statement.
        let err = parse_program("A = matrix(2, 2)\nA = A;\nB = matrix(2, 2)\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Syntax { line: 3, ref message, .. }
                if message.contains("after the first statement")),
            "got {err:?}"
        );
        // A temp used before its defining statement.
        let err = parse_program("A = matrix(2, 2)\nA = t; t = A;").unwrap_err();
        assert!(matches!(err, ParseError::Undeclared { ref name, .. } if name == "t"));
        // No statements at all.
        assert_eq!(
            parse_program("A = matrix(2, 2)").unwrap_err(),
            ParseError::MissingEquation
        );
        // Shape error inside a later statement, with its statement index.
        let err =
            parse_program("A = matrix(2, 2)\nB = matrix(3, 3)\nt = A; B = t * B;").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Program(ProgramError::Sizes {
                statement: 1,
                source: SizeError::MulMismatch(_, _)
            })
        ));
    }

    #[test]
    fn parsed_blacs_compile_end_to_end() {
        // Round-trip sanity: the parsed headline BLAC matches the
        // constructor's structure (consumed by lgen-core elsewhere).
        let parsed = parse_blac(
            "alpha = scalar\nbeta = scalar\nA = matrix(4, 8)\n\
             x = vector(8)\ny = vector(4)\n\
             y = alpha * (A * x) + beta * y",
        )
        .unwrap();
        let built = paper::gemv(4, 8);
        assert_eq!(parsed.expr, built.expr);
    }

    #[test]
    fn program_text_round_trips() {
        let src = "F = matrix(4, 4)\nP = matrix(4, 4) symmetric\nP_next = matrix(4, 4)\n\
                   S = P * F';\nP_next = F * S;";
        let program = parse_program(src).unwrap();
        let reparsed = parse_program(&program.text()).unwrap();
        assert_eq!(program, reparsed);
    }

    #[test]
    fn parsed_programs_are_compact() {
        let src = "A = matrix(4, 4)\nx = vector(4)\ny = vector(4)\nt = A * x;\ny = A * t;";
        let (a, b) = (parse_program(src).unwrap(), parse_program(src).unwrap());
        assert_eq!(a.operands.capacity(), a.operands.len());
        assert_eq!(a.statements.capacity(), a.statements.len());
        // Operand references are shared leaves, within and across programs.
        let lhs = |p: &Program, i: usize| match &p.statements[i].expr {
            Expr::Mul(l, _) => Arc::clone(l),
            other => panic!("expected a product, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&lhs(&a, 0), &lhs(&a, 1)));
        assert!(Arc::ptr_eq(&lhs(&a, 0), &lhs(&b, 0)));
    }
}
