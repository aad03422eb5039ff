//! The seventeen expression kinds of assignment right-hand sides.
//!
//! The GDroid paper (§III-B2) counts 25 ICFG node partitions on the CPU:
//! 8 non-assignment statement kinds plus 17 expression kinds inside
//! `AssignmentStatement`. This module defines those 17 expression kinds
//! verbatim; [`ExprKind`] exposes the partition index used by the plain GPU
//! kernel's branch-divergence model, and [`Expr::access_pattern`] exposes the
//! 3-way memory-access classification used by the GRP optimization.

use crate::idx::{FieldId, Symbol, VarId};
use crate::types::JType;
use std::fmt;

/// A literal constant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Literal {
    /// Integer constant (covers all integral widths).
    Int(i64),
    /// Floating constant (covers float/double).
    Float(f64),
    /// Interned string constant. Strings are heap instances in the
    /// points-to domain (each string literal is an allocation site).
    Str(Symbol),
    /// Boolean constant.
    Bool(bool),
}

/// Binary arithmetic/logic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise/logical complement.
    Not,
}

/// Comparison kinds for [`Expr::Cmp`] (Dalvik `cmp`/`cmpl`/`cmpg`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpKind {
    /// `cmp` on longs.
    Cmp,
    /// `cmpl` (NaN → -1).
    Cmpl,
    /// `cmpg` (NaN → +1).
    Cmpg,
}

/// The 3-way memory-access-pattern classification behind the paper's GRP
/// optimization (§IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessPattern {
    /// One-time fact generation: the node creates facts only on its first
    /// visit; re-visits merely propagate (e.g. `ConstClass`, `Null`,
    /// `Literal`, `New`).
    OneTimeGen = 0,
    /// Single de-reference per visit: one global-memory round trip (e.g.
    /// `VariableName`, `StaticFieldAccess`).
    SingleLayer = 1,
    /// Double de-reference per visit: two dependent global-memory round trips
    /// (e.g. `Access` = `x.f`, `Indexing` = `a[i]`).
    DoubleLayer = 2,
}

/// An assignment right-hand side. Exactly the paper's seventeen kinds.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variant fields (base/field/lhs/rhs/…) are self-describing
pub enum Expr {
    /// `x.f` — instance field read (*AccessExpr*).
    Access { base: VarId, field: FieldId },
    /// `a ⊕ b` — arithmetic on primitives (*BinaryExpr*).
    Binary { op: BinOp, lhs: VarId, rhs: VarId },
    /// The value returned by a call when the call statement has an
    /// assignment form `x = call …` (*CallRhs*). The callee signature is
    /// carried on the enclosing [`crate::Stmt::Call`]; this variant appears
    /// when a call's result flows through a temporary.
    CallRhs { ret: VarId },
    /// `(T) x` — checked cast (*CastExpr*).
    Cast { ty: JType, operand: VarId },
    /// `cmp(a, b)` — long/float comparison producing an int (*CmpExpr*).
    Cmp { kind: CmpKind, lhs: VarId, rhs: VarId },
    /// `T.class` — class constant (*ConstClassExpr*).
    ConstClass { ty: JType },
    /// The caught exception object at a handler head (*ExceptionExpr*).
    Exception,
    /// `a[i]` — array element read (*IndexingExpr*).
    Indexing { base: VarId, index: VarId },
    /// `x instanceof T` (*InstanceOfExpr*).
    InstanceOf { operand: VarId, ty: JType },
    /// `a.length` (*LengthExpr*).
    Length { base: VarId },
    /// Constant literal (*LiteralExpr*).
    Lit(Literal),
    /// `y` — plain variable copy (*VariableNameExpr*).
    Var(VarId),
    /// `C.f` — static field read (*StaticFieldAccessExpr*).
    StaticField { field: FieldId },
    /// `new T` / `new T[n]` — allocation (*NewExpr*). The allocation site is
    /// the enclosing statement; `ty` is the allocated type.
    New { ty: JType },
    /// `null` (*NullExpr*).
    Null,
    /// `(a, b, …)` — tuple construction, used by the environment model to
    /// pass multiple values (*TupleExpr*).
    Tuple { elems: Vec<VarId> },
    /// `⊖ x` — unary operation (*UnaryExpr*).
    Unary { op: UnOp, operand: VarId },
}

/// Discriminant-only view of [`Expr`], used for branch-partition bookkeeping
/// (the "25 node groups" of the plain implementation) and for statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum ExprKind {
    Access,
    Binary,
    CallRhs,
    Cast,
    Cmp,
    ConstClass,
    Exception,
    Indexing,
    InstanceOf,
    Length,
    Literal,
    VariableName,
    StaticFieldAccess,
    New,
    Null,
    Tuple,
    Unary,
}

impl ExprKind {
    /// All seventeen kinds, in declaration order.
    pub const ALL: [ExprKind; 17] = [
        ExprKind::Access,
        ExprKind::Binary,
        ExprKind::CallRhs,
        ExprKind::Cast,
        ExprKind::Cmp,
        ExprKind::ConstClass,
        ExprKind::Exception,
        ExprKind::Indexing,
        ExprKind::InstanceOf,
        ExprKind::Length,
        ExprKind::Literal,
        ExprKind::VariableName,
        ExprKind::StaticFieldAccess,
        ExprKind::New,
        ExprKind::Null,
        ExprKind::Tuple,
        ExprKind::Unary,
    ];

    /// Stable small integer for use as a branch-partition index.
    #[inline]
    pub fn partition(self) -> usize {
        self as usize
    }
}

impl Expr {
    /// The discriminant-only kind.
    pub fn kind(&self) -> ExprKind {
        match self {
            Expr::Access { .. } => ExprKind::Access,
            Expr::Binary { .. } => ExprKind::Binary,
            Expr::CallRhs { .. } => ExprKind::CallRhs,
            Expr::Cast { .. } => ExprKind::Cast,
            Expr::Cmp { .. } => ExprKind::Cmp,
            Expr::ConstClass { .. } => ExprKind::ConstClass,
            Expr::Exception => ExprKind::Exception,
            Expr::Indexing { .. } => ExprKind::Indexing,
            Expr::InstanceOf { .. } => ExprKind::InstanceOf,
            Expr::Length { .. } => ExprKind::Length,
            Expr::Lit(_) => ExprKind::Literal,
            Expr::Var(_) => ExprKind::VariableName,
            Expr::StaticField { .. } => ExprKind::StaticFieldAccess,
            Expr::New { .. } => ExprKind::New,
            Expr::Null => ExprKind::Null,
            Expr::Tuple { .. } => ExprKind::Tuple,
            Expr::Unary { .. } => ExprKind::Unary,
        }
    }

    /// The memory-access pattern of this expression, per the paper's GRP
    /// classification (§IV-B): one-time generation, single de-reference, or
    /// double de-reference.
    pub fn access_pattern(&self) -> AccessPattern {
        match self.kind() {
            // Nodes that only generate facts on first visit.
            ExprKind::ConstClass
            | ExprKind::Null
            | ExprKind::Literal
            | ExprKind::New
            | ExprKind::Exception => AccessPattern::OneTimeGen,
            // Single de-reference: read one slot.
            ExprKind::VariableName
            | ExprKind::StaticFieldAccess
            | ExprKind::Cast
            | ExprKind::CallRhs
            | ExprKind::Binary
            | ExprKind::Cmp
            | ExprKind::InstanceOf
            | ExprKind::Length
            | ExprKind::Unary
            | ExprKind::Tuple => AccessPattern::SingleLayer,
            // Double de-reference: resolve the base's instances, then the
            // per-instance heap slot.
            ExprKind::Access | ExprKind::Indexing => AccessPattern::DoubleLayer,
        }
    }

    /// Variables read by this expression (for use/def analysis).
    pub fn uses(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Access { base, .. } | Expr::Length { base } => out.push(*base),
            Expr::Binary { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
                out.push(*lhs);
                out.push(*rhs);
            }
            Expr::CallRhs { ret } => out.push(*ret),
            Expr::Cast { operand, .. }
            | Expr::InstanceOf { operand, .. }
            | Expr::Unary { operand, .. } => out.push(*operand),
            Expr::Indexing { base, index } => {
                out.push(*base);
                out.push(*index);
            }
            Expr::Var(v) => out.push(*v),
            Expr::Tuple { elems } => out.extend_from_slice(elems),
            Expr::ConstClass { .. }
            | Expr::Exception
            | Expr::Lit(_)
            | Expr::StaticField { .. }
            | Expr::New { .. }
            | Expr::Null => {}
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => write!(f, "{v:?}f"),
            Literal::Str(s) => write!(f, "\"{s}\""),
            Literal::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_all_seventeen() {
        assert_eq!(ExprKind::ALL.len(), 17);
        // Partitions are distinct and dense.
        let mut parts: Vec<usize> = ExprKind::ALL.iter().map(|k| k.partition()).collect();
        parts.sort_unstable();
        assert_eq!(parts, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn access_patterns_match_paper_examples() {
        // §IV-B names these exact examples for each group.
        assert_eq!(Expr::ConstClass { ty: JType::Int }.access_pattern(), AccessPattern::OneTimeGen);
        assert_eq!(Expr::Null.access_pattern(), AccessPattern::OneTimeGen);
        assert_eq!(Expr::Lit(Literal::Int(3)).access_pattern(), AccessPattern::OneTimeGen);
        assert_eq!(Expr::Var(VarId(0)).access_pattern(), AccessPattern::SingleLayer);
        assert_eq!(
            Expr::StaticField { field: FieldId(0) }.access_pattern(),
            AccessPattern::SingleLayer
        );
        assert_eq!(
            Expr::Access { base: VarId(0), field: FieldId(0) }.access_pattern(),
            AccessPattern::DoubleLayer
        );
        assert_eq!(
            Expr::Indexing { base: VarId(0), index: VarId(1) }.access_pattern(),
            AccessPattern::DoubleLayer
        );
    }

    #[test]
    fn uses_collects_operands() {
        let mut v = Vec::new();
        Expr::Binary { op: BinOp::Add, lhs: VarId(1), rhs: VarId(2) }.uses(&mut v);
        assert_eq!(v, vec![VarId(1), VarId(2)]);
        v.clear();
        Expr::Indexing { base: VarId(3), index: VarId(4) }.uses(&mut v);
        assert_eq!(v, vec![VarId(3), VarId(4)]);
        v.clear();
        Expr::Null.uses(&mut v);
        assert!(v.is_empty());
    }
}
