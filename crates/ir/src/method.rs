//! Methods, signatures, and declarations.

use crate::idx::{IndexVec, StmtIdx, Symbol, VarId};
use crate::stmt::Stmt;
use crate::types::JType;
use std::fmt;

/// A method signature: the resolution key for call statements.
///
/// Signatures are structural (class name + method name + parameter types +
/// return type), matching Dalvik method references.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Declaring (or nominal receiver) class name.
    pub class: Symbol,
    /// Method name.
    pub name: Symbol,
    /// Parameter types, excluding the implicit receiver.
    pub params: Vec<JType>,
    /// Return type.
    pub ret: JType,
}

impl Signature {
    /// Convenience constructor.
    pub fn new(class: Symbol, name: Symbol, params: Vec<JType>, ret: JType) -> Self {
        Self { class, name, params, ret }
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{};.{}:(", self.class, self.name)?;
        for p in &self.params {
            write!(f, "{p}")?;
        }
        write!(f, "){}", self.ret)
    }
}

/// Method visibility (affects call-graph construction for `Direct` calls).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// `public`
    Public,
    /// `protected`
    Protected,
    /// `private`
    Private,
}

/// How the method participates in dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Ordinary instance method (virtual dispatch).
    Instance,
    /// Static method.
    Static,
    /// Constructor (`<init>`).
    Constructor,
    /// Android lifecycle callback (e.g. `onCreate`) — called by the
    /// synthesized environment method rather than app code.
    LifecycleCallback,
    /// A synthesized per-component environment method (the ICFG entry point
    /// `EC` of equation (1) in the paper).
    Environment,
}

/// A declared parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamDecl {
    /// The local variable the parameter binds to.
    pub var: VarId,
    /// Declared type.
    pub ty: JType,
}

/// A declared local variable.
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    /// Interned variable name (for printing only).
    pub name: Symbol,
    /// Declared type.
    pub ty: JType,
}

/// A method: signature, declarations, and a flat statement body.
///
/// Control flow is encoded positionally: statement `i` falls through to
/// `i + 1` unless it is a `goto`/`return`/`throw`; jump targets are
/// [`StmtIdx`] positions within the same body.
#[derive(Clone, Debug, PartialEq)]
pub struct Method {
    /// The resolution signature.
    pub sig: Signature,
    /// Kind (instance/static/constructor/lifecycle/environment).
    pub kind: MethodKind,
    /// Visibility.
    pub visibility: Visibility,
    /// Receiver variable (`this`) for instance methods; `None` for static.
    pub this_var: Option<VarId>,
    /// Declared parameters, in order.
    pub params: Vec<ParamDecl>,
    /// All local variables, including `this` and parameters.
    pub vars: IndexVec<VarId, VarDecl>,
    /// The statement body.
    pub body: IndexVec<StmtIdx, Stmt>,
}

impl Method {
    /// Number of statements.
    #[inline]
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Number of local variables (including `this` and parameters).
    #[inline]
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of reference-typed local variables — the rows of the
    /// fact-matrix slot pool contributed by locals.
    pub fn reference_var_count(&self) -> usize {
        self.vars.iter().filter(|v| v.ty.is_reference()).count()
    }

    /// Iterate over call statements with their positions.
    pub fn call_sites(&self) -> impl Iterator<Item = (StmtIdx, &Stmt)> {
        self.body.iter_enumerated().filter(|(_, s)| s.is_call())
    }

    /// Number of allocation sites (`New` expressions and string literals)
    /// in the body — the columns of the fact-matrix instance pool
    /// contributed by this method.
    pub fn allocation_site_count(&self) -> usize {
        use crate::expr::{Expr, Literal};
        self.body
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Stmt::Assign { rhs: Expr::New { .. }, .. }
                        | Stmt::Assign { rhs: Expr::Lit(Literal::Str(_)), .. }
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, Literal};
    use crate::stmt::{CallKind, Lhs};

    fn small_method() -> Method {
        let sig = Signature::new(Symbol(0), Symbol(1), vec![], JType::Void);
        let mut vars = IndexVec::new();
        let v0 = vars.push(VarDecl { name: Symbol(2), ty: JType::Object(Symbol(0)) });
        let v1 = vars.push(VarDecl { name: Symbol(3), ty: JType::Int });
        let mut body: IndexVec<StmtIdx, Stmt> = IndexVec::new();
        body.push(Stmt::Assign {
            lhs: Lhs::Var(v0),
            rhs: Expr::New { ty: JType::Object(Symbol(0)) },
        });
        body.push(Stmt::Assign { lhs: Lhs::Var(v1), rhs: Expr::Lit(Literal::Int(1)) });
        body.push(Stmt::Call {
            ret: None,
            kind: CallKind::Static,
            sig: Signature::new(Symbol(4), Symbol(5), vec![], JType::Void),
            args: vec![],
        });
        body.push(Stmt::Return { var: None });
        Method {
            sig,
            kind: MethodKind::Static,
            visibility: Visibility::Public,
            this_var: None,
            params: vec![],
            vars,
            body,
        }
    }

    #[test]
    fn counts() {
        let m = small_method();
        assert_eq!(m.len(), 4);
        assert_eq!(m.var_count(), 2);
        assert_eq!(m.reference_var_count(), 1);
        assert_eq!(m.allocation_site_count(), 1);
        assert_eq!(m.call_sites().count(), 1);
    }

    #[test]
    fn signature_display() {
        let sig = Signature::new(Symbol(0), Symbol(1), vec![JType::Int], JType::Void);
        assert_eq!(sig.to_string(), "Ls0;.s1:(I)V");
    }
}
