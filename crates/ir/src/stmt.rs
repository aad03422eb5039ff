//! The nine statement kinds of the IR.
//!
//! These are exactly the categories the GDroid paper enumerates (§III-B2):
//! `AssignmentStatement`, `EmptyStatement`, `MonitorStatement`,
//! `ThrowStatement`, `CallStatement`, `GoToStatement`, `IfStatement`,
//! `ReturnStatement`, `SwitchStatement`.

use crate::expr::{AccessPattern, Expr};
use crate::idx::{FieldId, StmtIdx, VarId};
use crate::method::Signature;

/// An assignment left-hand side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant fields (base/field/index) are self-describing
pub enum Lhs {
    /// `x = …` — local variable.
    Var(VarId),
    /// `x.f = …` — instance field store.
    Field { base: VarId, field: FieldId },
    /// `C.f = …` — static field store.
    StaticField { field: FieldId },
    /// `a[i] = …` — array element store. The index variable is kept for
    /// use/def purposes but element slots are merged (array-insensitive),
    /// as in Amandroid.
    ArrayElem { base: VarId, index: VarId },
}

impl Lhs {
    /// The variable defined by this LHS, if it defines one (only `Var`).
    #[inline]
    pub fn defined_var(&self) -> Option<VarId> {
        match self {
            Lhs::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// Variables *read* in order to perform the store (base pointers and
    /// indices).
    pub fn uses(&self, out: &mut Vec<VarId>) {
        match self {
            Lhs::Var(_) | Lhs::StaticField { .. } => {}
            Lhs::Field { base, .. } => out.push(*base),
            Lhs::ArrayElem { base, index } => {
                out.push(*base);
                out.push(*index);
            }
        }
    }

    /// Whether the store needs a heap de-reference (field/array stores).
    #[inline]
    pub fn is_heap_store(&self) -> bool {
        matches!(self, Lhs::Field { .. } | Lhs::ArrayElem { .. })
    }
}

/// Monitor operation kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MonitorOp {
    /// `monitor-enter`
    Enter,
    /// `monitor-exit`
    Exit,
}

/// Call dispatch kind (Dalvik invoke flavors).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// `invoke-virtual` — receiver-dispatched.
    Virtual,
    /// `invoke-static`.
    Static,
    /// `invoke-direct` — constructors and private methods.
    Direct,
    /// `invoke-interface`.
    Interface,
}

/// A statement. Each statement occupies one ICFG node.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variant fields (lhs/rhs/target/args/…) are self-describing
pub enum Stmt {
    /// `lhs := expr` (*AssignmentStatement*).
    Assign { lhs: Lhs, rhs: Expr },
    /// No-op / label placeholder (*EmptyStatement*).
    Empty,
    /// `monitor-enter v` / `monitor-exit v` (*MonitorStatement*).
    Monitor { op: MonitorOp, var: VarId },
    /// `throw v` (*ThrowStatement*).
    Throw { var: VarId },
    /// `ret := invoke-kind sig(args)` (*CallStatement*). `ret` is `None`
    /// for `void` calls or when the result is discarded.
    Call { ret: Option<VarId>, kind: CallKind, sig: Signature, args: Vec<VarId> },
    /// Unconditional jump (*GoToStatement*).
    Goto { target: StmtIdx },
    /// Conditional jump: falls through on false (*IfStatement*). The
    /// condition variable is primitive; reference conditions (`if x == null`)
    /// are lowered by the generator to an `InstanceOf`/`Cmp` temp.
    If { cond: VarId, target: StmtIdx },
    /// `return v?` (*ReturnStatement*).
    Return { var: Option<VarId> },
    /// `switch v { case k → Lx, … } default → Ld` (*SwitchStatement*).
    Switch { var: VarId, targets: Vec<StmtIdx>, default: StmtIdx },
}

/// Discriminant-only view of [`Stmt`]. Together with
/// [`crate::ExprKind`]'s 17 assignment partitions, the 8 non-assignment
/// kinds here form the 25 branch partitions of the plain GPU implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum StmtKind {
    Assign,
    Empty,
    Monitor,
    Throw,
    Call,
    Goto,
    If,
    Return,
    Switch,
}

impl StmtKind {
    /// All nine statement kinds in declaration order.
    pub const ALL: [StmtKind; 9] = [
        StmtKind::Assign,
        StmtKind::Empty,
        StmtKind::Monitor,
        StmtKind::Throw,
        StmtKind::Call,
        StmtKind::Goto,
        StmtKind::If,
        StmtKind::Return,
        StmtKind::Switch,
    ];
}

/// Total number of branch partitions in the plain (un-grouped) node
/// classification: 17 assignment-expression kinds + 8 other statement kinds.
pub const PLAIN_PARTITIONS: usize = 25;

impl Stmt {
    /// The discriminant-only kind.
    pub fn kind(&self) -> StmtKind {
        match self {
            Stmt::Assign { .. } => StmtKind::Assign,
            Stmt::Empty => StmtKind::Empty,
            Stmt::Monitor { .. } => StmtKind::Monitor,
            Stmt::Throw { .. } => StmtKind::Throw,
            Stmt::Call { .. } => StmtKind::Call,
            Stmt::Goto { .. } => StmtKind::Goto,
            Stmt::If { .. } => StmtKind::If,
            Stmt::Return { .. } => StmtKind::Return,
            Stmt::Switch { .. } => StmtKind::Switch,
        }
    }

    /// The branch-partition index in `0..25` used by the plain GPU kernel:
    /// assignments map to their expression kind (0..17), other statements to
    /// 17 + their position among the 8 remaining kinds.
    pub fn plain_partition(&self) -> usize {
        match self {
            Stmt::Assign { rhs, .. } => rhs.kind().partition(),
            Stmt::Empty => 17,
            Stmt::Monitor { .. } => 18,
            Stmt::Throw { .. } => 19,
            Stmt::Call { .. } => 20,
            Stmt::Goto { .. } => 21,
            Stmt::If { .. } => 22,
            Stmt::Return { .. } => 23,
            Stmt::Switch { .. } => 24,
        }
    }

    /// The GRP memory-access-pattern group of this node (§IV-B).
    ///
    /// Assignments use their expression's pattern, except that a heap store
    /// on the LHS forces [`AccessPattern::DoubleLayer`] (the store itself
    /// de-references the base's instances). Calls are single-layer (summary
    /// lookup). Control statements generate no facts and are one-time.
    pub fn access_pattern(&self) -> AccessPattern {
        match self {
            Stmt::Assign { lhs, rhs } => {
                if lhs.is_heap_store() {
                    AccessPattern::DoubleLayer
                } else {
                    rhs.access_pattern()
                }
            }
            Stmt::Call { .. } => AccessPattern::SingleLayer,
            Stmt::Throw { .. } => AccessPattern::SingleLayer,
            Stmt::Empty
            | Stmt::Monitor { .. }
            | Stmt::Goto { .. }
            | Stmt::If { .. }
            | Stmt::Return { .. }
            | Stmt::Switch { .. } => AccessPattern::OneTimeGen,
        }
    }

    /// Variables read by this statement.
    pub fn uses(&self, out: &mut Vec<VarId>) {
        match self {
            Stmt::Assign { lhs, rhs } => {
                lhs.uses(out);
                rhs.uses(out);
            }
            Stmt::Monitor { var, .. } | Stmt::Throw { var } => out.push(*var),
            Stmt::Call { args, .. } => out.extend_from_slice(args),
            Stmt::If { cond, .. } => out.push(*cond),
            Stmt::Return { var } => out.extend(var.iter().copied()),
            Stmt::Switch { var, .. } => out.push(*var),
            Stmt::Empty | Stmt::Goto { .. } => {}
        }
    }

    /// The variable defined by this statement, if any.
    pub fn defined_var(&self) -> Option<VarId> {
        match self {
            Stmt::Assign { lhs, .. } => lhs.defined_var(),
            Stmt::Call { ret, .. } => *ret,
            _ => None,
        }
    }

    /// Whether control can fall through to the next statement.
    pub fn falls_through(&self) -> bool {
        !matches!(self, Stmt::Goto { .. } | Stmt::Return { .. } | Stmt::Throw { .. })
    }

    /// Explicit jump targets of this statement (excluding fall-through).
    pub fn jump_targets(&self, out: &mut Vec<StmtIdx>) {
        match self {
            Stmt::Goto { target } | Stmt::If { target, .. } => out.push(*target),
            Stmt::Switch { targets, default, .. } => {
                out.extend_from_slice(targets);
                out.push(*default);
            }
            _ => {}
        }
    }

    /// Whether this is a call statement.
    #[inline]
    pub fn is_call(&self) -> bool {
        matches!(self, Stmt::Call { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Literal;
    use crate::idx::Symbol;
    use crate::types::JType;

    fn sig() -> Signature {
        Signature { class: Symbol(0), name: Symbol(1), params: vec![JType::Int], ret: JType::Void }
    }

    #[test]
    fn partitions_are_dense_and_distinct() {
        let stmts: Vec<Stmt> = vec![
            Stmt::Empty,
            Stmt::Monitor { op: MonitorOp::Enter, var: VarId(0) },
            Stmt::Throw { var: VarId(0) },
            Stmt::Call { ret: None, kind: CallKind::Static, sig: sig(), args: vec![] },
            Stmt::Goto { target: StmtIdx(0) },
            Stmt::If { cond: VarId(0), target: StmtIdx(0) },
            Stmt::Return { var: None },
            Stmt::Switch { var: VarId(0), targets: vec![], default: StmtIdx(0) },
        ];
        let parts: Vec<usize> = stmts.iter().map(|s| s.plain_partition()).collect();
        assert_eq!(parts, vec![17, 18, 19, 20, 21, 22, 23, 24]);
        // An assignment's partition is its expression kind.
        let a = Stmt::Assign { lhs: Lhs::Var(VarId(0)), rhs: Expr::Null };
        assert!(a.plain_partition() < 17);
        assert_eq!(PLAIN_PARTITIONS, 25);
    }

    #[test]
    fn heap_store_forces_double_layer() {
        let s = Stmt::Assign {
            lhs: Lhs::Field { base: VarId(0), field: FieldId(0) },
            rhs: Expr::Lit(Literal::Int(1)),
        };
        assert_eq!(s.access_pattern(), AccessPattern::DoubleLayer);
        let s2 = Stmt::Assign { lhs: Lhs::Var(VarId(0)), rhs: Expr::Lit(Literal::Int(1)) };
        assert_eq!(s2.access_pattern(), AccessPattern::OneTimeGen);
    }

    #[test]
    fn fall_through_classification() {
        assert!(!Stmt::Goto { target: StmtIdx(1) }.falls_through());
        assert!(!Stmt::Return { var: None }.falls_through());
        assert!(!Stmt::Throw { var: VarId(0) }.falls_through());
        assert!(Stmt::If { cond: VarId(0), target: StmtIdx(1) }.falls_through());
        assert!(Stmt::Empty.falls_through());
    }

    #[test]
    fn jump_targets_of_switch_include_default() {
        let s = Stmt::Switch {
            var: VarId(0),
            targets: vec![StmtIdx(3), StmtIdx(5)],
            default: StmtIdx(7),
        };
        let mut t = Vec::new();
        s.jump_targets(&mut t);
        assert_eq!(t, vec![StmtIdx(3), StmtIdx(5), StmtIdx(7)]);
    }

    #[test]
    fn defs_and_uses() {
        let c = Stmt::Call {
            ret: Some(VarId(9)),
            kind: CallKind::Virtual,
            sig: sig(),
            args: vec![VarId(1), VarId(2)],
        };
        assert_eq!(c.defined_var(), Some(VarId(9)));
        let mut u = Vec::new();
        c.uses(&mut u);
        assert_eq!(u, vec![VarId(1), VarId(2)]);

        let store = Stmt::Assign {
            lhs: Lhs::ArrayElem { base: VarId(4), index: VarId(5) },
            rhs: Expr::Var(VarId(6)),
        };
        assert_eq!(store.defined_var(), None);
        u.clear();
        store.uses(&mut u);
        assert_eq!(u, vec![VarId(4), VarId(5), VarId(6)]);
    }
}
