//! Structural well-formedness checks for programs and methods.
//!
//! The synthetic generator and the parser both produce IR that is validated
//! before analysis; the analyses are then free to index without bounds
//! anxiety.

use crate::idx::{MethodId, StmtIdx, VarId};
use crate::method::Method;
use crate::program::Program;
use crate::stmt::Stmt;
use std::fmt;

/// A validation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// A branch target points outside the method body.
    TargetOutOfRange {
        /// Offending method.
        method: MethodId,
        /// Statement containing the branch.
        stmt: StmtIdx,
        /// The out-of-range target.
        target: StmtIdx,
    },
    /// A variable is referenced but not declared.
    UndeclaredVar {
        /// Offending method.
        method: MethodId,
        /// Statement referencing the variable.
        stmt: StmtIdx,
        /// The undeclared variable.
        var: VarId,
    },
    /// A call's argument count does not match its signature's parameter
    /// count (+1 receiver for non-static dispatch).
    CallArityMismatch {
        /// Offending method.
        method: MethodId,
        /// The call statement.
        stmt: StmtIdx,
        /// Arguments supplied.
        supplied: usize,
        /// Arguments expected.
        expected: usize,
    },
    /// A method body's last statement can fall through past the end.
    FallsOffEnd {
        /// Offending method.
        method: MethodId,
    },
    /// A method has an empty body.
    EmptyBody {
        /// Offending method.
        method: MethodId,
    },
    /// A field index is out of range for the program.
    BadFieldRef {
        /// Offending method.
        method: MethodId,
        /// Statement with the bad reference.
        stmt: StmtIdx,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::TargetOutOfRange { method, stmt, target } => {
                write!(f, "{method}:{stmt}: branch target {target} out of range")
            }
            ValidationError::UndeclaredVar { method, stmt, var } => {
                write!(f, "{method}:{stmt}: variable {var} not declared")
            }
            ValidationError::CallArityMismatch { method, stmt, supplied, expected } => {
                write!(f, "{method}:{stmt}: call supplies {supplied} args, expects {expected}")
            }
            ValidationError::FallsOffEnd { method } => {
                write!(f, "{method}: control can fall off the end of the body")
            }
            ValidationError::EmptyBody { method } => write!(f, "{method}: empty body"),
            ValidationError::BadFieldRef { method, stmt } => {
                write!(f, "{method}:{stmt}: field reference out of range")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates one method, appending problems to `errors`.
fn validate_method(
    program: &Program,
    mid: MethodId,
    method: &Method,
    errors: &mut Vec<ValidationError>,
) {
    if method.body.is_empty() {
        errors.push(ValidationError::EmptyBody { method: mid });
        return;
    }
    let n = method.body.len();
    let nvars = method.vars.len();
    let nfields = program.fields.len();
    let mut uses = Vec::new();
    let mut targets = Vec::new();
    for (idx, stmt) in method.body.iter_enumerated() {
        uses.clear();
        stmt.uses(&mut uses);
        if let Some(d) = stmt.defined_var() {
            uses.push(d);
        }
        for &v in &uses {
            if v.index() >= nvars {
                errors.push(ValidationError::UndeclaredVar { method: mid, stmt: idx, var: v });
            }
        }
        targets.clear();
        stmt.jump_targets(&mut targets);
        for &t in &targets {
            if t.index() >= n {
                errors.push(ValidationError::TargetOutOfRange {
                    method: mid,
                    stmt: idx,
                    target: t,
                });
            }
        }
        match stmt {
            Stmt::Call { kind, sig, args, .. } => {
                let receiver = match kind {
                    crate::stmt::CallKind::Static => 0,
                    _ => 1,
                };
                let expected = sig.params.len() + receiver;
                if args.len() != expected {
                    errors.push(ValidationError::CallArityMismatch {
                        method: mid,
                        stmt: idx,
                        supplied: args.len(),
                        expected,
                    });
                }
            }
            Stmt::Assign { lhs, rhs } => {
                let mut check_field = |fid: crate::idx::FieldId| {
                    if fid.index() >= nfields {
                        errors.push(ValidationError::BadFieldRef { method: mid, stmt: idx });
                    }
                };
                match lhs {
                    crate::stmt::Lhs::Field { field, .. }
                    | crate::stmt::Lhs::StaticField { field } => check_field(*field),
                    _ => {}
                }
                match rhs {
                    crate::expr::Expr::Access { field, .. }
                    | crate::expr::Expr::StaticField { field } => check_field(*field),
                    _ => {}
                }
            }
            _ => {}
        }
    }
    // The final statement must not fall through.
    let last = &method.body[StmtIdx::new(n - 1)];
    if last.falls_through() {
        errors.push(ValidationError::FallsOffEnd { method: mid });
    }
}

/// Validates a whole program. Returns all problems found (empty = valid).
pub fn validate_program(program: &Program) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    for (mid, m) in program.methods.iter_enumerated() {
        validate_method(program, mid, m, &mut errors);
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::Expr;
    use crate::method::MethodKind;
    use crate::stmt::{CallKind, Lhs};
    use crate::types::JType;

    #[test]
    fn valid_program_passes() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        let v = mb.local("v", JType::Int);
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(v), rhs: Expr::Lit(crate::expr::Literal::Int(0)) });
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        let p = pb.finish();
        assert!(validate_program(&p).is_empty());
    }

    #[test]
    fn detects_bad_target() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        mb.stmt(Stmt::Goto { target: StmtIdx(99) });
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        let p = pb.finish();
        let errs = validate_program(&p);
        assert!(matches!(errs[0], ValidationError::TargetOutOfRange { .. }));
    }

    #[test]
    fn detects_undeclared_var_and_fall_off() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        mb.stmt(Stmt::Throw { var: VarId(7) });
        mb.stmt(Stmt::Empty); // falls off the end
        mb.build();
        let p = pb.finish();
        let errs = validate_program(&p);
        assert!(errs.iter().any(|e| matches!(e, ValidationError::UndeclaredVar { .. })));
        assert!(errs.iter().any(|e| matches!(e, ValidationError::FallsOffEnd { .. })));
    }

    #[test]
    fn detects_call_arity_mismatch() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let callee_sig = {
            let mut mb = pb.method(cls, "callee").kind(MethodKind::Static);
            mb.param("x", JType::Int);
            mb.stmt(Stmt::Return { var: None });
            let mid = mb.build();
            pb.program().methods[mid].sig.clone()
        };
        let mut mb = pb.method(cls, "caller").kind(MethodKind::Static);
        mb.stmt(Stmt::Call { ret: None, kind: CallKind::Static, sig: callee_sig, args: vec![] });
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        let p = pb.finish();
        let errs = validate_program(&p);
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::CallArityMismatch { supplied: 0, expected: 1, .. }
        )));
    }

    #[test]
    fn detects_empty_body() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let mb = pb.method(cls, "m").kind(MethodKind::Static);
        mb.build();
        let p = pb.finish();
        let errs = validate_program(&p);
        assert!(matches!(errs[0], ValidationError::EmptyBody { .. }));
    }

    #[test]
    fn virtual_call_expects_receiver() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let callee_sig = {
            let mut mb = pb.method(cls, "vm");
            let _ = mb.this();
            mb.stmt(Stmt::Return { var: None });
            let mid = mb.build();
            pb.program().methods[mid].sig.clone()
        };
        let mut mb = pb.method(cls, "caller");
        let this = mb.this();
        mb.stmt(Stmt::Call {
            ret: None,
            kind: CallKind::Virtual,
            sig: callee_sig,
            args: vec![this],
        });
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        let p = pb.finish();
        assert!(validate_program(&p).is_empty());
    }
}
