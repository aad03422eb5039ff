//! Recursive-descent parser for the `.jil` format.
//!
//! Parsing happens in two passes over the token stream so that classes and
//! fields may be referenced before their textual definition:
//!
//! 1. **Declaration pass** — registers every class (name, interface flag)
//!    and every field.
//! 2. **Body pass** — resolves superclasses and parses method bodies,
//!    resolving `{Class field}` references against the declaration table.

use super::lexer::{Lexer, Token, TokenKind};
use crate::expr::{BinOp, CmpKind, Expr, Literal, UnOp};
use crate::idx::{ClassId, FieldId, StmtIdx, Symbol, VarId};
use crate::method::{Method, MethodKind, ParamDecl, Signature, VarDecl, Visibility};
use crate::program::{ClassDef, FieldDef, Program};
use crate::stmt::{CallKind, Lhs, MonitorOp, Stmt};
use crate::types::{ArrayElem, JType, PrimKind};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with location.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// 1-based source line (0 when at end of input).
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<super::lexer::LexError> for ParseError {
    fn from(e: super::lexer::LexError) -> Self {
        ParseError { message: e.message, line: e.line }
    }
}

/// Parses a complete `.jil` program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = Lexer::tokenize(src)?;
    let mut parser =
        Parser { tokens, pos: 0, program: Program::new(), field_table: HashMap::new() };
    parser.declaration_pass()?;
    parser.pos = 0;
    parser.body_pass()?;
    Ok(parser.program)
}

/// The parser state machine behind [`parse_program`]. Tokens borrow from
/// the source, so moving through them copies, never clones.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    program: Program,
    /// `(class symbol, field name symbol) -> FieldId`
    field_table: HashMap<(Symbol, Symbol), FieldId>,
}

type PResult<T> = Result<T, ParseError>;

impl<'a> Parser<'a> {
    fn line(&self) -> u32 {
        self.tokens.get(self.pos).map(|t| t.line).unwrap_or(0)
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError { message: message.into(), line: self.line() })
    }

    fn peek(&self) -> Option<TokenKind<'a>> {
        self.tokens.get(self.pos).map(|t| t.kind)
    }

    fn bump(&mut self) -> Option<TokenKind<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_ident(&mut self) -> PResult<&'a str> {
        match self.bump() {
            Some(TokenKind::Ident(s)) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> PResult<()> {
        match self.bump() {
            Some(TokenKind::Ident(s)) if s == kw => Ok(()),
            other => self.err(format!("expected `{kw}`, found {other:?}")),
        }
    }

    fn expect_kind(&mut self, kind: TokenKind<'a>) -> PResult<()> {
        match self.bump() {
            Some(k) if k == kind => Ok(()),
            other => self.err(format!("expected {kind:?}, found {other:?}")),
        }
    }

    fn expect_var(&mut self) -> PResult<VarId> {
        match self.bump() {
            Some(TokenKind::Var(n)) => Ok(VarId(n)),
            other => self.err(format!("expected variable, found {other:?}")),
        }
    }

    fn expect_var_or_none(&mut self) -> PResult<Option<VarId>> {
        match self.bump() {
            Some(TokenKind::Var(n)) => Ok(Some(VarId(n))),
            Some(TokenKind::Underscore) => Ok(None),
            other => self.err(format!("expected variable or `_`, found {other:?}")),
        }
    }

    fn expect_int(&mut self) -> PResult<i64> {
        match self.bump() {
            Some(TokenKind::Int(n)) => Ok(n),
            other => self.err(format!("expected integer, found {other:?}")),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if s == kw)
    }

    // ---- pass 1: declarations -------------------------------------------

    fn declaration_pass(&mut self) -> PResult<()> {
        while self.peek().is_some() {
            self.expect_keyword(".class")?;
            let name = self.expect_ident()?;
            let name_sym = self.program.interner.intern(name);
            if self.peek() == Some(TokenKind::Colon) {
                self.bump();
                self.expect_ident()?; // superclass resolved in pass 2
            }
            let is_interface = if self.at_keyword("interface") {
                self.bump();
                true
            } else {
                false
            };
            let cid = self.program.classes.push(ClassDef {
                name: name_sym,
                superclass: None,
                fields: Vec::new(),
                methods: Vec::new(),
                is_interface,
            });
            self.program.index_class(cid);
            // Fields, then skip method bodies.
            loop {
                if self.at_keyword(".field") {
                    self.bump();
                    let fname = self.expect_ident()?;
                    let fname_sym = self.program.interner.intern(fname);
                    let ty = self.parse_type()?;
                    let is_static = match self.expect_ident()? {
                        "static" => true,
                        "instance" => false,
                        other => return self.err(format!("expected static/instance, got {other}")),
                    };
                    let fid = self.program.fields.push(FieldDef {
                        class: cid,
                        name: fname_sym,
                        ty,
                        is_static,
                    });
                    self.program.classes[cid].fields.push(fid);
                    self.field_table.insert((name_sym, fname_sym), fid);
                } else if self.at_keyword(".method") {
                    // Skip to matching `.end`.
                    self.bump();
                    loop {
                        match self.bump() {
                            Some(TokenKind::Ident(".end")) => break,
                            Some(_) => {}
                            None => return self.err("unterminated method"),
                        }
                    }
                } else if self.at_keyword(".endclass") {
                    self.bump();
                    break;
                } else {
                    return self.err(format!(
                        "expected .field/.method/.endclass, found {:?}",
                        self.peek()
                    ));
                }
            }
        }
        Ok(())
    }

    // ---- pass 2: bodies ---------------------------------------------------

    fn body_pass(&mut self) -> PResult<()> {
        while self.peek().is_some() {
            self.expect_keyword(".class")?;
            let name = self.expect_ident()?;
            let name_sym = self.program.interner.intern(name);
            let cid = self.program.class_by_name(name_sym).expect("registered in pass 1");
            if self.peek() == Some(TokenKind::Colon) {
                self.bump();
                let sup = self.expect_ident()?;
                let sup_sym = self.program.interner.intern(sup);
                let Some(sup_id) = self.program.class_by_name(sup_sym) else {
                    return self.err(format!("unknown superclass {sup}"));
                };
                self.program.classes[cid].superclass = Some(sup_id);
            }
            if self.at_keyword("interface") {
                self.bump();
            }
            loop {
                if self.at_keyword(".field") {
                    // Already registered; skip the 3 payload tokens (name,
                    // type, static/instance). Types are 1-2 tokens.
                    self.bump();
                    self.expect_ident()?;
                    self.parse_type()?;
                    self.expect_ident()?;
                } else if self.at_keyword(".method") {
                    self.bump();
                    self.parse_method_body(cid)?;
                } else if self.at_keyword(".endclass") {
                    self.bump();
                    break;
                } else {
                    return self.err(format!("unexpected token {:?}", self.peek()));
                }
            }
        }
        Ok(())
    }

    fn parse_type(&mut self) -> PResult<JType> {
        Ok(match self.expect_ident()? {
            "int" => JType::Int,
            "long" => JType::Long,
            "float" => JType::Float,
            "double" => JType::Double,
            "bool" => JType::Boolean,
            "byte" => JType::Byte,
            "char" => JType::Char,
            "short" => JType::Short,
            "void" => JType::Void,
            "obj" => {
                let cls = self.expect_ident()?;
                JType::Object(self.program.interner.intern(cls))
            }
            "arr" => {
                let e = match self.expect_ident()? {
                    "int" => ArrayElem::Prim(PrimKind::Int),
                    "long" => ArrayElem::Prim(PrimKind::Long),
                    "float" => ArrayElem::Prim(PrimKind::Float),
                    "double" => ArrayElem::Prim(PrimKind::Double),
                    "bool" => ArrayElem::Prim(PrimKind::Boolean),
                    "byte" => ArrayElem::Prim(PrimKind::Byte),
                    "char" => ArrayElem::Prim(PrimKind::Char),
                    "short" => ArrayElem::Prim(PrimKind::Short),
                    cls => ArrayElem::Object(self.program.interner.intern(cls)),
                };
                JType::Array(e)
            }
            other => return self.err(format!("unknown type keyword `{other}`")),
        })
    }

    fn parse_method_body(&mut self, cid: ClassId) -> PResult<()> {
        let mname = self.expect_ident()?;
        let mname_sym = self.program.interner.intern(mname);
        self.expect_kind(TokenKind::LParen)?;
        let mut params_ty = Vec::new();
        while self.peek() != Some(TokenKind::RParen) {
            params_ty.push(self.parse_type()?);
        }
        self.expect_kind(TokenKind::RParen)?;
        let ret = self.parse_type()?;
        let kind = match self.expect_ident()? {
            "instance" => MethodKind::Instance,
            "static" => MethodKind::Static,
            "ctor" => MethodKind::Constructor,
            "lifecycle" => MethodKind::LifecycleCallback,
            "environment" => MethodKind::Environment,
            other => return self.err(format!("unknown method kind `{other}`")),
        };
        let visibility = match self.expect_ident()? {
            "public" => Visibility::Public,
            "protected" => Visibility::Protected,
            "private" => Visibility::Private,
            other => return self.err(format!("unknown visibility `{other}`")),
        };

        // Variable declarations, in index order.
        let mut vars = crate::idx::IndexVec::new();
        while self.at_keyword(".var") {
            self.bump();
            let vname = self.expect_ident()?;
            let vname_sym = self.program.interner.intern(vname);
            let ty = self.parse_type()?;
            vars.push(VarDecl { name: vname_sym, ty });
        }

        let has_this = matches!(
            kind,
            MethodKind::Instance | MethodKind::Constructor | MethodKind::LifecycleCallback
        );
        let this_var = if has_this { Some(VarId(0)) } else { None };
        let first_param = if has_this { 1 } else { 0 };
        let params: Vec<ParamDecl> = params_ty
            .iter()
            .enumerate()
            .map(|(i, &ty)| ParamDecl { var: VarId((first_param + i) as u32), ty })
            .collect();
        if vars.len() < first_param + params.len() {
            return self.err("fewer .var declarations than parameters");
        }

        // Statements.
        let mut body = crate::idx::IndexVec::new();
        while !self.at_keyword(".end") {
            let stmt = self.parse_stmt()?;
            body.push(stmt);
        }
        self.bump(); // `.end`

        let class_name = self.program.classes[cid].name;
        let method = Method {
            sig: Signature::new(class_name, mname_sym, params_ty, ret),
            kind,
            visibility,
            this_var,
            params,
            vars,
            body,
        };
        let mid = self.program.methods.push(method);
        self.program.classes[cid].methods.push(mid);
        self.program.index_method(mid);
        Ok(())
    }

    fn parse_field_ref(&mut self) -> PResult<FieldId> {
        self.expect_kind(TokenKind::LBrace)?;
        let cls = self.expect_ident()?;
        let fname = self.expect_ident()?;
        self.expect_kind(TokenKind::RBrace)?;
        let cls_sym = self.program.interner.intern(cls);
        let fname_sym = self.program.interner.intern(fname);
        match self.field_table.get(&(cls_sym, fname_sym)) {
            Some(&fid) => Ok(fid),
            None => self.err(format!("unknown field {{{cls} {fname}}}")),
        }
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        match self.peek() {
            Some(TokenKind::Ident(kw)) => match kw {
                "nop" => {
                    self.bump();
                    Ok(Stmt::Empty)
                }
                "monitor" => {
                    self.bump();
                    let op = match self.expect_ident()? {
                        "enter" => MonitorOp::Enter,
                        "exit" => MonitorOp::Exit,
                        other => return self.err(format!("bad monitor op `{other}`")),
                    };
                    let var = self.expect_var()?;
                    Ok(Stmt::Monitor { op, var })
                }
                "throw" => {
                    self.bump();
                    Ok(Stmt::Throw { var: self.expect_var()? })
                }
                "goto" => {
                    self.bump();
                    Ok(Stmt::Goto { target: StmtIdx(self.expect_int()? as u32) })
                }
                "if" => {
                    self.bump();
                    let cond = self.expect_var()?;
                    self.expect_keyword("goto")?;
                    Ok(Stmt::If { cond, target: StmtIdx(self.expect_int()? as u32) })
                }
                "return" => {
                    self.bump();
                    Ok(Stmt::Return { var: self.expect_var_or_none()? })
                }
                "switch" => {
                    self.bump();
                    let var = self.expect_var()?;
                    self.expect_kind(TokenKind::LParen)?;
                    let mut targets = Vec::new();
                    while self.peek() != Some(TokenKind::RParen) {
                        targets.push(StmtIdx(self.expect_int()? as u32));
                    }
                    self.expect_kind(TokenKind::RParen)?;
                    self.expect_keyword("default")?;
                    let default = StmtIdx(self.expect_int()? as u32);
                    Ok(Stmt::Switch { var, targets, default })
                }
                "call" => {
                    self.bump();
                    let kind = match self.expect_ident()? {
                        "virtual" => CallKind::Virtual,
                        "static" => CallKind::Static,
                        "direct" => CallKind::Direct,
                        "interface" => CallKind::Interface,
                        other => return self.err(format!("bad call kind `{other}`")),
                    };
                    let cls = self.expect_ident()?;
                    let name = self.expect_ident()?;
                    self.expect_kind(TokenKind::LParen)?;
                    let mut params = Vec::new();
                    while self.peek() != Some(TokenKind::RParen) {
                        params.push(self.parse_type()?);
                    }
                    self.expect_kind(TokenKind::RParen)?;
                    let ret_ty = self.parse_type()?;
                    self.expect_keyword("args")?;
                    self.expect_kind(TokenKind::LParen)?;
                    let mut args = Vec::new();
                    while self.peek() != Some(TokenKind::RParen) {
                        args.push(self.expect_var()?);
                    }
                    self.expect_kind(TokenKind::RParen)?;
                    self.expect_keyword("ret")?;
                    let ret = self.expect_var_or_none()?;
                    let cls_sym = self.program.interner.intern(cls);
                    let name_sym = self.program.interner.intern(name);
                    Ok(Stmt::Call {
                        ret,
                        kind,
                        sig: Signature::new(cls_sym, name_sym, params, ret_ty),
                        args,
                    })
                }
                _ => self.err(format!("unknown statement keyword `{kw}`")),
            },
            Some(TokenKind::Var(_)) => {
                let base = self.expect_var()?;
                match self.peek() {
                    Some(TokenKind::Dot) => {
                        self.bump();
                        let field = self.parse_field_ref()?;
                        self.expect_kind(TokenKind::Eq)?;
                        let rhs = self.parse_expr()?;
                        Ok(Stmt::Assign { lhs: Lhs::Field { base, field }, rhs })
                    }
                    Some(TokenKind::LBracket) => {
                        self.bump();
                        let index = self.expect_var()?;
                        self.expect_kind(TokenKind::RBracket)?;
                        self.expect_kind(TokenKind::Eq)?;
                        let rhs = self.parse_expr()?;
                        Ok(Stmt::Assign { lhs: Lhs::ArrayElem { base, index }, rhs })
                    }
                    Some(TokenKind::Eq) => {
                        self.bump();
                        let rhs = self.parse_expr()?;
                        Ok(Stmt::Assign { lhs: Lhs::Var(base), rhs })
                    }
                    other => self.err(format!("expected `.`/`[`/`=`, found {other:?}")),
                }
            }
            Some(TokenKind::LBrace) => {
                let field = self.parse_field_ref()?;
                self.expect_kind(TokenKind::Eq)?;
                let rhs = self.parse_expr()?;
                Ok(Stmt::Assign { lhs: Lhs::StaticField { field }, rhs })
            }
            other => self.err(format!("expected statement, found {other:?}")),
        }
    }

    fn parse_expr(&mut self) -> PResult<Expr> {
        match self.peek() {
            Some(TokenKind::Ident(kw)) => match kw {
                "new" => {
                    self.bump();
                    Ok(Expr::New { ty: self.parse_type()? })
                }
                "null" => {
                    self.bump();
                    Ok(Expr::Null)
                }
                "constclass" => {
                    self.bump();
                    Ok(Expr::ConstClass { ty: self.parse_type()? })
                }
                "lit" => {
                    self.bump();
                    let lit = match self.bump() {
                        Some(TokenKind::Int(n)) => Literal::Int(n),
                        Some(TokenKind::Float(f)) => Literal::Float(f),
                        Some(TokenKind::Str(s)) => {
                            Literal::Str(self.program.interner.intern(&s.unescape()))
                        }
                        other => return self.err(format!("bad literal {other:?}")),
                    };
                    Ok(Expr::Lit(lit))
                }
                "cast" => {
                    self.bump();
                    let ty = self.parse_type()?;
                    Ok(Expr::Cast { ty, operand: self.expect_var()? })
                }
                "instanceof" => {
                    self.bump();
                    let operand = self.expect_var()?;
                    Ok(Expr::InstanceOf { operand, ty: self.parse_type()? })
                }
                "length" => {
                    self.bump();
                    Ok(Expr::Length { base: self.expect_var()? })
                }
                "neg" => {
                    self.bump();
                    Ok(Expr::Unary { op: UnOp::Neg, operand: self.expect_var()? })
                }
                "not" => {
                    self.bump();
                    Ok(Expr::Unary { op: UnOp::Not, operand: self.expect_var()? })
                }
                "exception" => {
                    self.bump();
                    Ok(Expr::Exception)
                }
                "callrhs" => {
                    self.bump();
                    Ok(Expr::CallRhs { ret: self.expect_var()? })
                }
                "tuple" => {
                    self.bump();
                    self.expect_kind(TokenKind::LParen)?;
                    let mut elems = Vec::new();
                    while self.peek() != Some(TokenKind::RParen) {
                        elems.push(self.expect_var()?);
                    }
                    self.expect_kind(TokenKind::RParen)?;
                    Ok(Expr::Tuple { elems })
                }
                "cmp" | "cmpl" | "cmpg" => {
                    self.bump();
                    let kind = match kw {
                        "cmp" => CmpKind::Cmp,
                        "cmpl" => CmpKind::Cmpl,
                        _ => CmpKind::Cmpg,
                    };
                    let lhs = self.expect_var()?;
                    let rhs = self.expect_var()?;
                    Ok(Expr::Cmp { kind, lhs, rhs })
                }
                other => self.err(format!("unknown expression keyword `{other}`")),
            },
            Some(TokenKind::Var(_)) => {
                let v = self.expect_var()?;
                match self.peek() {
                    Some(TokenKind::Dot) => {
                        self.bump();
                        let field = self.parse_field_ref()?;
                        Ok(Expr::Access { base: v, field })
                    }
                    Some(TokenKind::LBracket) => {
                        self.bump();
                        let index = self.expect_var()?;
                        self.expect_kind(TokenKind::RBracket)?;
                        Ok(Expr::Indexing { base: v, index })
                    }
                    Some(TokenKind::Ident(op)) if bin_op(op).is_some() => {
                        let op = bin_op(op).unwrap();
                        self.bump();
                        let rhs = self.expect_var()?;
                        Ok(Expr::Binary { op, lhs: v, rhs })
                    }
                    _ => Ok(Expr::Var(v)),
                }
            }
            Some(TokenKind::LBrace) => {
                let field = self.parse_field_ref()?;
                Ok(Expr::StaticField { field })
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

/// Maps a binary-operator keyword to its [`BinOp`].
pub(crate) fn bin_op(kw: &str) -> Option<BinOp> {
    Some(match kw {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a small two-class program
.class java/lang/Object
.endclass
.class com/example/A : java/lang/Object
.field data obj java/lang/Object instance
.field count int static
.method run ( int ) void instance public
.var this obj com/example/A
.var x int
.var t obj java/lang/Object
  v2 = new obj java/lang/Object
  v0 . { com/example/A data } = v2
  v2 = v0 . { com/example/A data }
  { com/example/A count } = v1
  if v1 goto 6
  call virtual com/example/A run ( int ) void args ( v1 ) ret _
  return _
.end
.endclass
"#;

    #[test]
    fn parses_sample() {
        let p = parse_program(SAMPLE).unwrap();
        assert_eq!(p.classes.len(), 2);
        assert_eq!(p.fields.len(), 2);
        assert_eq!(p.methods.len(), 1);
        let m = &p.methods[crate::idx::MethodId(0)];
        assert_eq!(m.len(), 7);
        assert_eq!(m.this_var, Some(VarId(0)));
        assert_eq!(m.params.len(), 1);
        assert_eq!(m.params[0].var, VarId(1));
        assert!(matches!(m.body[StmtIdx(0)], Stmt::Assign { lhs: Lhs::Var(VarId(2)), .. }));
        assert!(matches!(m.body[StmtIdx(1)], Stmt::Assign { lhs: Lhs::Field { .. }, .. }));
        assert!(matches!(m.body[StmtIdx(2)], Stmt::Assign { rhs: Expr::Access { .. }, .. }));
        assert!(matches!(m.body[StmtIdx(3)], Stmt::Assign { lhs: Lhs::StaticField { .. }, .. }));
        assert!(matches!(m.body[StmtIdx(4)], Stmt::If { target: StmtIdx(6), .. }));
        assert!(matches!(m.body[StmtIdx(5)], Stmt::Call { ret: None, .. }));
    }

    #[test]
    fn superclass_resolved_across_order() {
        // Subclass defined before its superclass.
        let src = r#"
.class B : A
.endclass
.class A
.endclass
"#;
        let p = parse_program(src).unwrap();
        let b = p.class_by_name(p.interner.get("B").unwrap()).unwrap();
        let a = p.class_by_name(p.interner.get("A").unwrap()).unwrap();
        assert_eq!(p.classes[b].superclass, Some(a));
    }

    #[test]
    fn forward_field_reference_resolves() {
        let src = r#"
.class A
.method m ( ) void static public
  { B f } = v0
  return _
.end
.endclass
.class B
.field f int static
.endclass
"#;
        // v0 is undeclared (no .var) but parsing succeeds; validation
        // catches that separately.
        let p = parse_program(src).unwrap();
        assert_eq!(p.fields.len(), 1);
    }

    #[test]
    fn unknown_field_is_error() {
        let src = ".class A\n.method m ( ) void static public\n v0 = { A nope }\n.end\n.endclass";
        let e = parse_program(src).unwrap_err();
        assert!(e.message.contains("unknown field"), "{e}");
    }

    #[test]
    fn binary_and_indexing_exprs() {
        let src = r#"
.class A
.method m ( ) void static public
.var a int
.var b int
.var c arr int
  v0 = v0 add v1
  v1 = v2 [ v0 ]
  v2 [ v0 ] = v1
  v0 = cmpl v0 v1
  return _
.end
.endclass
"#;
        let p = parse_program(src).unwrap();
        let m = &p.methods[crate::idx::MethodId(0)];
        assert!(matches!(
            m.body[StmtIdx(0)],
            Stmt::Assign { rhs: Expr::Binary { op: BinOp::Add, .. }, .. }
        ));
        assert!(matches!(m.body[StmtIdx(1)], Stmt::Assign { rhs: Expr::Indexing { .. }, .. }));
        assert!(matches!(m.body[StmtIdx(2)], Stmt::Assign { lhs: Lhs::ArrayElem { .. }, .. }));
        assert!(matches!(
            m.body[StmtIdx(3)],
            Stmt::Assign { rhs: Expr::Cmp { kind: CmpKind::Cmpl, .. }, .. }
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parser never panics on arbitrary token soup.
        #[test]
        fn parser_is_total(src in "[a-z0-9 .(){}=_\n-]{0,200}") {
            let _ = parse_program(&src);
        }
    }
}
