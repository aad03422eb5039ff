//! Pretty-printer emitting the `.jil` format. Inverse of the parser.
//!
//! The printer hands its writer `&str` pieces and writes indices through
//! its own decimal writer, so a writer that folds the pieces — the
//! service's content hash — never holds the text; `write!` is left to the
//! literal arms, whose formatting `std` owns.

use crate::expr::{BinOp, CmpKind, Expr, Literal, UnOp};
use crate::idx::{FieldId, MethodId, Symbol, VarId};
use crate::method::MethodKind;
use crate::method::Visibility;
use crate::program::Program;
use crate::stmt::{CallKind, Lhs, MonitorOp, Stmt};
use crate::types::{ArrayElem, JType, PrimKind};
use std::fmt::{self, Write};

/// Prints a whole program in `.jil` syntax.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    print_program_into(p, &mut out).expect("writing to a String cannot fail");
    out
}

/// Prints a whole program in `.jil` syntax into `out`, piece by piece:
/// the pieces concatenate to [`print_program`]'s text.
pub fn print_program_into<W: Write>(p: &Program, out: &mut W) -> fmt::Result {
    Printer { p, out }.program()
}

struct Printer<'a, W> {
    p: &'a Program,
    out: &'a mut W,
}

impl<W: Write> Printer<'_, W> {
    fn s(&mut self, piece: &str) -> fmt::Result {
        self.out.write_str(piece)
    }

    /// `n` in decimal, without `fmt`'s machinery.
    fn num(&mut self, n: u32) -> fmt::Result {
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        let mut rest = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.s(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
    }

    fn sym(&mut self, sym: Symbol) -> fmt::Result {
        let p = self.p;
        self.s(p.interner.resolve(sym))
    }

    fn var(&mut self, v: VarId) -> fmt::Result {
        self.s("v")?;
        self.num(v.0)
    }

    /// `word` then a variable, as in `throw v3`.
    fn word_var(&mut self, word: &str, v: VarId) -> fmt::Result {
        self.s(word)?;
        self.var(v)
    }

    /// ` v1 v2 … )` — the tail of an argument or element list.
    fn vars(&mut self, vars: &[VarId]) -> fmt::Result {
        for &v in vars {
            self.word_var(" ", v)?;
        }
        self.s(" )")
    }

    /// `( T1 T2 … ) R` — a signature's parameter and return types.
    fn sig_types(&mut self, params: &[JType], ret: JType) -> fmt::Result {
        self.s("(")?;
        for &ty in params {
            self.s(" ")?;
            self.ty(ty)?;
        }
        self.s(" ) ")?;
        self.ty(ret)
    }

    fn program(&mut self) -> fmt::Result {
        let p = self.p;
        for class in p.classes.iter() {
            self.s(".class ")?;
            self.sym(class.name)?;
            if let Some(sup) = class.superclass {
                self.s(" : ")?;
                self.sym(p.classes[sup].name)?;
            }
            self.s(if class.is_interface { " interface\n" } else { "\n" })?;
            for &fid in &class.fields {
                let f = &p.fields[fid];
                self.s(".field ")?;
                self.sym(f.name)?;
                self.s(" ")?;
                self.ty(f.ty)?;
                self.s(if f.is_static { " static\n" } else { " instance\n" })?;
            }
            for &mid in &class.methods {
                self.method(mid)?;
            }
            self.s(".endclass\n")?;
        }
        Ok(())
    }

    fn method(&mut self, mid: MethodId) -> fmt::Result {
        let m = &self.p.methods[mid];
        self.s(".method ")?;
        self.sym(m.sig.name)?;
        self.s(" ")?;
        self.sig_types(&m.sig.params, m.sig.ret)?;
        self.s(match m.kind {
            MethodKind::Instance => " instance",
            MethodKind::Static => " static",
            MethodKind::Constructor => " ctor",
            MethodKind::LifecycleCallback => " lifecycle",
            MethodKind::Environment => " environment",
        })?;
        self.s(match m.visibility {
            Visibility::Public => " public\n",
            Visibility::Protected => " protected\n",
            Visibility::Private => " private\n",
        })?;
        for v in m.vars.iter() {
            self.s(".var ")?;
            self.sym(v.name)?;
            self.s(" ")?;
            self.ty(v.ty)?;
            self.s("\n")?;
        }
        for (idx, s) in m.body.iter_enumerated() {
            self.s("  # L")?;
            self.num(idx.0)?;
            self.s("\n  ")?;
            self.stmt(s)?;
            self.s("\n")?;
        }
        self.s(".end\n")
    }

    fn ty(&mut self, ty: JType) -> fmt::Result {
        match ty {
            JType::Void => self.s("void"),
            JType::Boolean => self.s("bool"),
            JType::Byte => self.s("byte"),
            JType::Char => self.s("char"),
            JType::Short => self.s("short"),
            JType::Int => self.s("int"),
            JType::Long => self.s("long"),
            JType::Float => self.s("float"),
            JType::Double => self.s("double"),
            JType::Object(s) => {
                self.s("obj ")?;
                self.sym(s)
            }
            JType::Array(ArrayElem::Object(s)) => {
                self.s("arr ")?;
                self.sym(s)
            }
            JType::Array(ArrayElem::Prim(pk)) => self.s(match pk {
                PrimKind::Boolean => "arr bool",
                PrimKind::Byte => "arr byte",
                PrimKind::Char => "arr char",
                PrimKind::Short => "arr short",
                PrimKind::Int => "arr int",
                PrimKind::Long => "arr long",
                PrimKind::Float => "arr float",
                PrimKind::Double => "arr double",
            }),
        }
    }

    fn field_ref(&mut self, fid: FieldId) -> fmt::Result {
        let f = &self.p.fields[fid];
        self.s("{ ")?;
        self.sym(self.p.classes[f.class].name)?;
        self.s(" ")?;
        self.sym(f.name)?;
        self.s(" }")
    }

    /// `base . { C f }`
    fn access(&mut self, base: VarId, field: FieldId) -> fmt::Result {
        self.var(base)?;
        self.s(" . ")?;
        self.field_ref(field)
    }

    /// `base [ index ]`
    fn indexing(&mut self, base: VarId, index: VarId) -> fmt::Result {
        self.var(base)?;
        self.word_var(" [ ", index)?;
        self.s(" ]")
    }

    fn stmt(&mut self, s: &Stmt) -> fmt::Result {
        match s {
            Stmt::Empty => self.s("nop"),
            Stmt::Monitor { op: MonitorOp::Enter, var } => self.word_var("monitor enter ", *var),
            Stmt::Monitor { op: MonitorOp::Exit, var } => self.word_var("monitor exit ", *var),
            Stmt::Throw { var } => self.word_var("throw ", *var),
            Stmt::Goto { target } => {
                self.s("goto ")?;
                self.num(target.0)
            }
            Stmt::If { cond, target } => {
                self.word_var("if ", *cond)?;
                self.s(" goto ")?;
                self.num(target.0)
            }
            Stmt::Return { var: Some(v) } => self.word_var("return ", *v),
            Stmt::Return { var: None } => self.s("return _"),
            Stmt::Switch { var, targets, default } => {
                self.word_var("switch ", *var)?;
                self.s(" (")?;
                for t in targets {
                    self.s(" ")?;
                    self.num(t.0)?;
                }
                self.s(" ) default ")?;
                self.num(default.0)
            }
            Stmt::Call { ret, kind, sig, args } => {
                self.s(match kind {
                    CallKind::Virtual => "call virtual ",
                    CallKind::Static => "call static ",
                    CallKind::Direct => "call direct ",
                    CallKind::Interface => "call interface ",
                })?;
                self.sym(sig.class)?;
                self.s(" ")?;
                self.sym(sig.name)?;
                self.s(" ")?;
                self.sig_types(&sig.params, sig.ret)?;
                self.s(" args (")?;
                self.vars(args)?;
                self.s(" ret ")?;
                match ret {
                    Some(v) => self.var(*v),
                    None => self.s("_"),
                }
            }
            Stmt::Assign { lhs, rhs } => {
                match lhs {
                    Lhs::Var(v) => self.var(*v)?,
                    Lhs::Field { base, field } => self.access(*base, *field)?,
                    Lhs::StaticField { field } => self.field_ref(*field)?,
                    Lhs::ArrayElem { base, index } => self.indexing(*base, *index)?,
                }
                self.s(" = ")?;
                self.expr(rhs)
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> fmt::Result {
        match e {
            Expr::Access { base, field } => self.access(*base, *field),
            Expr::Binary { op, lhs, rhs } => {
                self.var(*lhs)?;
                let op = match op {
                    BinOp::Add => " add ",
                    BinOp::Sub => " sub ",
                    BinOp::Mul => " mul ",
                    BinOp::Div => " div ",
                    BinOp::Rem => " rem ",
                    BinOp::And => " and ",
                    BinOp::Or => " or ",
                    BinOp::Xor => " xor ",
                    BinOp::Shl => " shl ",
                    BinOp::Shr => " shr ",
                };
                self.word_var(op, *rhs)
            }
            Expr::CallRhs { ret } => self.word_var("callrhs ", *ret),
            Expr::Cast { ty, operand } => {
                self.s("cast ")?;
                self.ty(*ty)?;
                self.word_var(" ", *operand)
            }
            Expr::Cmp { kind, lhs, rhs } => {
                let kind = match kind {
                    CmpKind::Cmp => "cmp ",
                    CmpKind::Cmpl => "cmpl ",
                    CmpKind::Cmpg => "cmpg ",
                };
                self.word_var(kind, *lhs)?;
                self.word_var(" ", *rhs)
            }
            Expr::ConstClass { ty } => {
                self.s("constclass ")?;
                self.ty(*ty)
            }
            Expr::Exception => self.s("exception"),
            Expr::Indexing { base, index } => self.indexing(*base, *index),
            Expr::InstanceOf { operand, ty } => {
                self.word_var("instanceof ", *operand)?;
                self.s(" ")?;
                self.ty(*ty)
            }
            Expr::Length { base } => self.word_var("length ", *base),
            Expr::Lit(lit) => {
                self.s("lit ")?;
                self.literal(*lit)
            }
            Expr::Var(v) => self.var(*v),
            Expr::StaticField { field } => self.field_ref(*field),
            Expr::New { ty } => {
                self.s("new ")?;
                self.ty(*ty)
            }
            Expr::Null => self.s("null"),
            Expr::Tuple { elems } => {
                self.s("tuple (")?;
                self.vars(elems)
            }
            Expr::Unary { op: UnOp::Neg, operand } => self.word_var("neg ", *operand),
            Expr::Unary { op: UnOp::Not, operand } => self.word_var("not ", *operand),
        }
    }

    fn literal(&mut self, lit: Literal) -> fmt::Result {
        match lit {
            Literal::Int(v) => write!(self.out, "{v}"),
            // Always a decimal point + `f` suffix, so the lexer reads it
            // back as a float.
            Literal::Float(v) if v.fract() == 0.0 && v.is_finite() => write!(self.out, "{v:.1}f"),
            Literal::Float(v) => write!(self.out, "{v}f"),
            Literal::Str(s) => {
                // Backslash, quote and newline escaped; the runs between
                // them written as they are.
                let mut rest = self.p.interner.resolve(s);
                self.s("\"")?;
                while let Some(at) = rest.find(['\\', '"', '\n']) {
                    self.s(&rest[..at])?;
                    self.s(match rest.as_bytes()[at] {
                        b'\\' => "\\\\",
                        b'"' => "\\\"",
                        _ => "\\n",
                    })?;
                    rest = &rest[at + 1..];
                }
                self.s(rest)?;
                self.s("\"")
            }
            Literal::Bool(b) => self.s(if b { "true" } else { "false" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::idx::{StmtIdx, VarId};
    use crate::method::MethodKind;
    use crate::text::parse_program;

    fn fixture() -> Program {
        let mut pb = ProgramBuilder::new();
        let obj = pb.class("java/lang/Object").build();
        let cls = pb.class("com/example/A").extends(obj).build();
        let obj_name = pb.intern("java/lang/Object");
        let f = pb.field(cls, "data", JType::Object(obj_name), false);
        let sf = pb.field(cls, "count", JType::Int, true);

        let mut mb = pb.method(cls, "run");
        let this = mb.this();
        let x = mb.param("x", JType::Int);
        let t = mb.local("t", JType::Object(obj_name));
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(t), rhs: Expr::New { ty: JType::Object(obj_name) } });
        mb.stmt(Stmt::Assign { lhs: Lhs::Field { base: this, field: f }, rhs: Expr::Var(t) });
        mb.stmt(Stmt::Assign { lhs: Lhs::StaticField { field: sf }, rhs: Expr::Var(x) });
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(t), rhs: Expr::Access { base: this, field: f } });
        mb.stmt(Stmt::If { cond: x, target: StmtIdx(6) });
        mb.stmt(Stmt::Switch { var: x, targets: vec![StmtIdx(6)], default: StmtIdx(6) });
        mb.stmt(Stmt::Return { var: None });
        mb.build();

        let mut mb = pb.method(cls, "helper").kind(MethodKind::Static);
        let a = mb.local("a", JType::Int);
        mb.stmt(Stmt::Assign {
            lhs: Lhs::Var(a),
            rhs: Expr::Binary { op: BinOp::Add, lhs: a, rhs: a },
        });
        mb.stmt(Stmt::Return { var: Some(a) });
        mb.build();

        pb.finish()
    }

    #[test]
    fn roundtrip_structural_equality() {
        let p = fixture();
        let text = print_program(&p);
        let p2 = parse_program(&text).unwrap();
        assert_eq!(p.classes.len(), p2.classes.len());
        assert_eq!(p.fields.len(), p2.fields.len());
        assert_eq!(p.methods.len(), p2.methods.len());
        for (m1, m2) in p.methods.iter().zip(p2.methods.iter()) {
            assert_eq!(m1.body.as_slice(), m2.body.as_slice(), "bodies differ");
            assert_eq!(m1.kind, m2.kind);
            assert_eq!(m1.this_var, m2.this_var);
            assert_eq!(m1.params.len(), m2.params.len());
        }
        // Interned names survive the trip.
        for (c1, c2) in p.classes.iter().zip(p2.classes.iter()) {
            assert_eq!(p.interner.resolve(c1.name), p2.interner.resolve(c2.name));
        }
    }

    #[test]
    fn printed_form_mentions_all_sections() {
        let text = print_program(&fixture());
        assert!(text.contains(".class com/example/A : java/lang/Object"));
        assert!(text.contains(".field data obj java/lang/Object instance"));
        assert!(text.contains(".field count int static"));
        assert!(text.contains(".method run ( int ) void instance public"));
        assert!(text.contains("new obj java/lang/Object"));
        assert!(text.contains(".endclass"));
    }

    #[test]
    fn float_literals_roundtrip() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("F").build();
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        let a = mb.local("a", JType::Float);
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(a), rhs: Expr::Lit(Literal::Float(2.0)) });
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(a), rhs: Expr::Lit(Literal::Float(-0.125)) });
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        let p = pb.finish();
        let p2 = parse_program(&print_program(&p)).unwrap();
        assert_eq!(
            p.methods[crate::idx::MethodId(0)].body.as_slice(),
            p2.methods[crate::idx::MethodId(0)].body.as_slice()
        );
        let _ = VarId(0);
    }
}
