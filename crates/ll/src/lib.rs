//! LL: the Linear algebra Language (paper §2.1.2).
//!
//! LL is the top level of the LGen pipeline: basic linear algebra
//! computations (BLACs) over matrices, vectors, and scalars, built from
//! matrix addition, matrix multiplication, transposition, and scalar
//! multiplication — plus the two operators introduced by the matrix-vector
//! multiplication optimization of §3.3: the matrix-vector Hadamard product
//! `⊙` ([`Expr::Mvh`]) and row reduction `⊘` ([`Expr::Rr`]).
//!
//! This crate provides the AST with size inference and validation
//! ([`Blac`]), useful-flop accounting (§5.1.4), the ν-tiling grid helpers
//! used by the Σ-LL lowering ([`tile`]), a naive reference evaluator for
//! correctness checks ([`reference`](mod@reference)), and constructors for
//! the paper's evaluated BLAC suite ([`paper`]).

pub mod blac;
pub mod paper;
pub mod parse;
pub mod program;
pub mod reference;
pub mod tile;

pub use blac::{Blac, BlacBuilder, Dims, Expr, ExprHandle, OperandId, SizeError, Structure};
pub use parse::{parse_program, ParseError};
pub use program::{eval_program_reference, Program, ProgramBuilder, ProgramError, Statement};
pub use reference::{eval_reference, test_data_for};
pub use tile::TileGrid;
