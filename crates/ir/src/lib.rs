#![warn(missing_docs)]

//! # gdroid-ir — Android-like intermediate representation
//!
//! This crate defines the intermediate representation (IR) that every other
//! GDroid crate analyzes. It plays the role that Amandroid's *Jawa/Pilar* IR
//! plays in the original system: a register-based, statement-oriented encoding
//! of Android (Dalvik) bytecode.
//!
//! The IR mirrors the taxonomy the GDroid paper (IPDPS 2020, §III-B2) relies
//! on for its branch-divergence analysis:
//!
//! * **nine statement kinds** — [`Stmt`]: assignment, empty, monitor, throw,
//!   call, goto, if, return, switch;
//! * **seventeen expression kinds** — [`Expr`]: access, binary, call-rhs,
//!   cast, cmp, const-class, exception, indexing, instance-of, length,
//!   literal, variable-name, static-field-access, new, null, tuple, unary.
//!
//! The crate provides:
//!
//! * the data model ([`Program`], [`ClassDef`], [`Method`], [`Stmt`],
//!   [`Expr`], …) with interned names and dense index types;
//! * a fluent [`builder`] API used by the synthetic app generator;
//! * a textual serialization format (".jil", *Jawa-like Intermediate
//!   Language*) with a [`text::Lexer`], [`text::Parser`] and pretty-printer,
//!   so corpora can be inspected and stored on disk;
//! * structural [`validate`] checks (branch targets in range, variables
//!   declared, call arity consistent with signatures);
//! * a pass-based [`lint`] framework generalizing validation with
//!   flow-sensitive checks (def-before-use, unreachable code, type
//!   confusion, dead stores), driven by `gdroid lint`.

pub mod builder;
pub mod expr;
pub mod idx;
pub mod lint;
pub mod method;
pub mod program;
pub mod stmt;
pub mod text;
pub mod types;
pub mod validate;

pub use builder::{BuilderError, ClassBuilder, MethodBuilder, ProgramBuilder};
pub use expr::{BinOp, CmpKind, Expr, ExprKind, Literal, UnOp};
pub use idx::{ClassId, FieldId, MethodId, StmtIdx, Symbol, VarId};
pub use lint::{lint_program, LintDiagnostic, LintPass, LintRunner, Severity, SinkReachability};
pub use method::{Method, MethodKind, ParamDecl, Signature, VarDecl, Visibility};
pub use program::{ClassDef, ClassHierarchy, FieldDef, Interner, Program};
pub use stmt::{CallKind, Lhs, MonitorOp, Stmt, StmtKind};
pub use types::JType;
pub use validate::{validate_method, validate_program, ValidationError};
