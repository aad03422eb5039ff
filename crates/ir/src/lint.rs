//! Static lints over validated IR.
//!
//! [`validate_program`](crate::validate_program) answers "can the analyses
//! index this program without bounds anxiety?" — a hard yes/no, and every
//! program reaches the lint only after it said yes. [`lint_program`] then
//! surfaces *suspicious but well-formed* IR. Four checks run per method,
//! in this order, over one shared successor table: uses of
//! may-uninitialized variables (`def-before-use`), statements the entry
//! cannot reach (`unreachable`), reference/primitive confusion on heap
//! accesses (`type-confusion`) and stores no path reads (`dead-store`).
//! The caller may hand in dead sinks (`sink-reachability`), sink call
//! sites no source reaches; computing them needs the call graph and the
//! backward slicer, which live above this crate.
//!
//! Every finding is a warning: structural breakage is the validator's to
//! report, and the synthetic generator (like real Dalvik output)
//! legitimately produces, e.g., stores that a later refactor made dead.

use crate::expr::Expr;
use crate::idx::{MethodId, StmtIdx, VarId};
use crate::method::Method;
use crate::program::Program;
use crate::stmt::{Lhs, Stmt};
use crate::types::{ArrayElem, JType};
use std::fmt;

/// One finding: always a warning.
#[derive(Clone, Debug, PartialEq)]
pub struct LintDiagnostic {
    /// Name of the check that produced the finding.
    pub check: &'static str,
    /// The offending method.
    pub method: MethodId,
    /// The offending statement.
    pub stmt: StmtIdx,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "warning: {}:{}: [{}] {}", self.method, self.stmt, self.check, self.message)
    }
}

/// Lints a program that passed [`validate_program`](crate::validate_program)
/// (on other IR it may panic), appending one `sink-reachability` finding
/// per `(method, sink statement, sink name)` of `dead_sinks`.
///
/// Findings are sorted by (declaring class, method, statement index) — a
/// stable sort, so same-statement findings keep check order with the dead
/// sinks last — which makes `gdroid lint` output byte-deterministic.
pub fn lint_program(
    program: &Program,
    dead_sinks: &[(MethodId, StmtIdx, String)],
) -> Vec<LintDiagnostic> {
    let mut out = Vec::new();
    for (mid, method) in program.methods.iter_enumerated() {
        let succs = Successors::of(method);
        let mut warn = |check, stmt, message| {
            out.push(LintDiagnostic { check, method: mid, stmt, message });
        };
        def_before_use(method, &succs, &mut warn);
        unreachable(method, &succs, &mut warn);
        type_confusion(program, method, &mut warn);
        dead_store(method, &succs, &mut warn);
    }
    out.extend(dead_sinks.iter().map(|(method, stmt, sink)| LintDiagnostic {
        check: "sink-reachability",
        method: *method,
        stmt: *stmt,
        message: format!("sink {sink} is not reachable by any taint source"),
    }));
    out.sort_by_key(|d| (program.methods[d.method].sig.class, d.method, d.stmt));
    out
}

/// Positional successors of every statement of one method, flattened:
/// fall-through to `i + 1` plus explicit jump targets. `gdroid-icfg` owns
/// the real CFG, but the lints live below it in the crate graph.
struct Successors {
    start: Vec<usize>,
    to: Vec<usize>,
}

impl Successors {
    fn of(method: &Method) -> Successors {
        let mut start = Vec::with_capacity(method.body.len() + 1);
        let mut to = Vec::new();
        let mut targets = Vec::new();
        start.push(0);
        for (i, stmt) in method.body.iter().enumerate() {
            if stmt.falls_through() {
                to.push(i + 1);
            }
            targets.clear();
            stmt.jump_targets(&mut targets);
            to.extend(targets.iter().map(|t| t.index()));
            start.push(to.len());
        }
        Successors { start, to }
    }

    fn of_stmt(&self, i: usize) -> &[usize] {
        &self.to[self.start[i]..self.start[i + 1]]
    }
}

// --- bitsets: one `words`-wide row of u64 per statement, rows flattened ---

#[inline]
fn bit_get(row: &[u64], i: usize) -> bool {
    row[i / 64] & (1 << (i % 64)) != 0
}

#[inline]
fn bit_set(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// `dst = dst op src` word by word; returns whether `dst` changed.
fn combine(dst: &mut [u64], src: &[u64], op: fn(u64, u64) -> u64) -> bool {
    let mut changed = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        let nv = op(*d, s);
        changed |= nv != *d;
        *d = nv;
    }
    changed
}

/// Forward definite-assignment dataflow: warns when a statement may read a
/// variable no path has assigned. `this` and parameters are defined at
/// entry.
fn def_before_use(
    method: &Method,
    succs: &Successors,
    warn: &mut impl FnMut(&'static str, StmtIdx, String),
) {
    let words = method.vars.len().div_ceil(64);
    // Must-analysis: start from the universal set, intersect over
    // predecessors, iterate down to the greatest fixed point.
    let mut da_in = vec![u64::MAX; method.body.len() * words];
    da_in[..words].fill(0);
    for v in method.this_var.into_iter().chain(method.params.iter().map(|p| p.var)) {
        bit_set(&mut da_in[..words], v.index());
    }
    let mut da_out = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for (i, stmt) in method.body.iter().enumerate() {
            da_out.copy_from_slice(&da_in[i * words..(i + 1) * words]);
            if let Some(d) = stmt.defined_var() {
                bit_set(&mut da_out, d.index());
            }
            for &s in succs.of_stmt(i) {
                changed |= combine(&mut da_in[s * words..(s + 1) * words], &da_out, |a, b| a & b);
            }
        }
    }

    let mut uses = Vec::new();
    for (idx, stmt) in method.body.iter_enumerated() {
        uses.clear();
        stmt.uses(&mut uses);
        uses.sort_unstable();
        uses.dedup();
        let defined = &da_in[idx.index() * words..(idx.index() + 1) * words];
        for &v in uses.iter().filter(|v| !bit_get(defined, v.index())) {
            warn("def-before-use", idx, format!("{v} may be read before any assignment"));
        }
    }
}

/// Flags statements no path from the entry reaches.
fn unreachable(
    method: &Method,
    succs: &Successors,
    warn: &mut impl FnMut(&'static str, StmtIdx, String),
) {
    let mut reached = vec![false; method.body.len()];
    let mut stack = vec![0usize];
    reached[0] = true;
    while let Some(i) = stack.pop() {
        for &s in succs.of_stmt(i) {
            if !reached[s] {
                reached[s] = true;
                stack.push(s);
            }
        }
    }
    for (i, _) in reached.iter().enumerate().filter(|(_, r)| !**r) {
        let message = "statement is unreachable from the method entry".into();
        warn("unreachable", StmtIdx::new(i), message);
    }
}

/// Reference/primitive confusion on heap-shaped accesses: instance-field
/// bases must be references, array bases must be arrays with primitive
/// indices, and field loads into a local must agree with the field's
/// reference-ness. (Exact class compatibility is the type checker's job —
/// subtyping makes symbol equality too strict for a lint.)
fn type_confusion(
    program: &Program,
    method: &Method,
    warn: &mut impl FnMut(&'static str, StmtIdx, String),
) {
    for (idx, stmt) in method.body.iter_enumerated() {
        let Stmt::Assign { lhs, rhs } = stmt else { continue };
        let mut flag = |message| warn("type-confusion", idx, message);
        let ty = |v: VarId| method.vars[v].ty;
        let name = |ty: JType| type_name(program, ty);
        // (base, index for an array access, what) of each heap access, in
        // statement order: the store, then the read.
        let store = match lhs {
            Lhs::Field { base, .. } => Some((*base, None, "field store")),
            Lhs::ArrayElem { base, index } => Some((*base, Some(*index), "array access")),
            Lhs::Var(_) | Lhs::StaticField { .. } => None,
        };
        let read = match rhs {
            Expr::Access { base, .. } => Some((*base, None, "field read")),
            Expr::Indexing { base, index } => Some((*base, Some(*index), "array access")),
            Expr::Length { base } => Some((*base, None, "length read")),
            _ => None,
        };
        for (base, index, what) in store.into_iter().chain(read) {
            let Some(index) = index else {
                if !ty(base).is_reference() {
                    flag(format!("{what} base {base} has primitive type {}", name(ty(base))));
                }
                continue;
            };
            if !matches!(ty(base), JType::Array(_)) {
                flag(format!("{what} base {base} has non-array type {}", name(ty(base))));
            }
            if !ty(index).is_primitive() {
                flag(format!("array index {index} has non-primitive type {}", name(ty(index))));
            }
        }
        // Field slot vs. destination local: reference-ness must agree.
        if let (Lhs::Var(dst), Expr::Access { field, .. } | Expr::StaticField { field }) =
            (lhs, rhs)
        {
            let field_ty = program.fields[*field].ty;
            if ty(*dst).is_reference() != field_ty.is_reference() {
                let (field_ty, dst_ty) = (name(field_ty), name(ty(*dst)));
                flag(format!("field of type {field_ty} loaded into {dst} of type {dst_ty}"));
            }
        }
    }
}

/// `ty` as a descriptor with its class named, e.g. `Ljava/lang/Object;`.
fn type_name(program: &Program, ty: JType) -> String {
    match ty {
        JType::Object(class) => format!("L{};", program.interner.resolve(class)),
        JType::Array(ArrayElem::Object(class)) => format!("[L{};", program.interner.resolve(class)),
        _ => ty.to_string(),
    }
}

/// Backward liveness: warns on assignments to locals that no path reads
/// before the next write (or the method end). Only side-effect-free
/// right-hand sides are flagged — heap reads can fault and allocations are
/// observable to the points-to analysis.
fn dead_store(
    method: &Method,
    succs: &Successors,
    warn: &mut impl FnMut(&'static str, StmtIdx, String),
) {
    let words = method.vars.len().div_ceil(64);
    let mut live_in = vec![0u64; method.body.len() * words];
    let mut live = vec![0u64; words];
    // live_out(i) = ∪ live_in over the successors of i.
    let live_out = |live_in: &[u64], i: usize, out: &mut [u64]| {
        out.fill(0);
        for &s in succs.of_stmt(i) {
            combine(out, &live_in[s * words..(s + 1) * words], |a, b| a | b);
        }
    };
    let mut uses = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for (i, stmt) in method.body.iter().enumerate().rev() {
            // live_in = use ∪ (live_out − def)
            live_out(&live_in, i, &mut live);
            if let Some(d) = stmt.defined_var() {
                live[d.index() / 64] &= !(1 << (d.index() % 64));
            }
            uses.clear();
            stmt.uses(&mut uses);
            for &u in &uses {
                bit_set(&mut live, u.index());
            }
            changed |= combine(&mut live_in[i * words..(i + 1) * words], &live, |a, b| a | b);
        }
    }

    for (idx, stmt) in method.body.iter_enumerated() {
        let Stmt::Assign { lhs: Lhs::Var(v), rhs } = stmt else { continue };
        let pure = matches!(
            rhs,
            Expr::Lit(_)
                | Expr::Var(_)
                | Expr::Binary { .. }
                | Expr::Cmp { .. }
                | Expr::Unary { .. }
                | Expr::Null
                | Expr::ConstClass { .. }
                | Expr::InstanceOf { .. }
                | Expr::Tuple { .. }
        );
        if !pure {
            continue;
        }
        live_out(&live_in, idx.index(), &mut live);
        if !bit_get(&live, v.index()) {
            warn("dead-store", idx, format!("value assigned to {v} is never read"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::{Expr, Literal};
    use crate::method::MethodKind;
    use crate::stmt::Lhs;
    use crate::types::JType;

    fn static_method(build: impl FnOnce(&mut crate::builder::MethodBuilder<'_>)) -> Program {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        build(&mut mb);
        mb.build();
        pb.finish()
    }

    fn diags_of<'d>(diags: &'d [LintDiagnostic], check: &str) -> Vec<&'d LintDiagnostic> {
        diags.iter().filter(|d| d.check == check).collect()
    }

    #[test]
    fn clean_method_has_no_diagnostics() {
        let p = static_method(|mb| {
            let v = mb.local("v", JType::Int);
            let w = mb.local("w", JType::Int);
            mb.stmt(Stmt::Assign { lhs: Lhs::Var(v), rhs: Expr::Lit(Literal::Int(1)) });
            mb.stmt(Stmt::Assign { lhs: Lhs::Var(w), rhs: Expr::Var(v) });
            mb.stmt(Stmt::Return { var: Some(w) });
        });
        let diags = lint_program(&p, &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn detects_use_before_def() {
        let p = static_method(|mb| {
            let v = mb.local("v", JType::Int);
            mb.stmt(Stmt::Return { var: Some(v) });
        });
        let diags = lint_program(&p, &[]);
        let d = diags_of(&diags, "def-before-use");
        assert_eq!(d.len(), 1, "{diags:?}");
        assert_eq!(d[0].stmt, StmtIdx(0));
    }

    #[test]
    fn params_and_this_count_as_defined() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let mut mb = pb.method(cls, "m");
        let this = mb.this();
        let x = mb.param("x", JType::Int);
        mb.stmt(Stmt::Monitor { op: crate::stmt::MonitorOp::Enter, var: this });
        mb.stmt(Stmt::Return { var: Some(x) });
        mb.build();
        let p = pb.finish();
        assert!(diags_of(&lint_program(&p, &[]), "def-before-use").is_empty());
    }

    #[test]
    fn def_on_one_branch_only_is_flagged() {
        let p = static_method(|mb| {
            let c = mb.param("c", JType::Int);
            let v = mb.local("v", JType::Int);
            // if c goto 2; v = 1; <target> return v — v undefined on the
            // jumping path.
            mb.stmt(Stmt::If { cond: c, target: StmtIdx(2) });
            mb.stmt(Stmt::Assign { lhs: Lhs::Var(v), rhs: Expr::Lit(Literal::Int(1)) });
            mb.stmt(Stmt::Return { var: Some(v) });
        });
        let d = lint_program(&p, &[]);
        let ub = diags_of(&d, "def-before-use");
        assert_eq!(ub.len(), 1, "{d:?}");
        assert_eq!(ub[0].stmt, StmtIdx(2));
    }

    #[test]
    fn detects_unreachable_code() {
        let p = static_method(|mb| {
            mb.stmt(Stmt::Return { var: None });
            mb.stmt(Stmt::Empty);
            mb.stmt(Stmt::Return { var: None });
        });
        let d = lint_program(&p, &[]);
        let un = diags_of(&d, "unreachable");
        assert_eq!(un.len(), 2, "{d:?}");
        assert_eq!(un[0].stmt, StmtIdx(1));
    }

    #[test]
    fn detects_type_confusion_on_field_and_array() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let f = pb.field(cls, "f", JType::Int, false);
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        let i = mb.local("i", JType::Int);
        let o = mb.local("o", JType::object(crate::idx::Symbol(0)));
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(i), rhs: Expr::Lit(Literal::Int(0)) });
        // Field read through a primitive base.
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(i), rhs: Expr::Access { base: i, field: f } });
        // Array access on a non-array base, indexed by a reference.
        mb.stmt(Stmt::Assign {
            lhs: Lhs::ArrayElem { base: i, index: o },
            rhs: Expr::Lit(Literal::Int(1)),
        });
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        let p = pb.finish();
        let d = lint_program(&p, &[]);
        let tc = diags_of(&d, "type-confusion");
        // primitive field base + non-array base + reference index = 3.
        assert_eq!(tc.len(), 3, "{d:?}");
    }

    #[test]
    fn detects_field_reference_ness_mismatch() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let a = pb.intern("A");
        let f = pb.field(cls, "f", JType::object(a), false);
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        let o = mb.local("o", JType::object(a));
        let i = mb.local("i", JType::Int);
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(o), rhs: Expr::New { ty: JType::object(a) } });
        // Reference-typed field loaded into an int local.
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(i), rhs: Expr::Access { base: o, field: f } });
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        let p = pb.finish();
        let d = lint_program(&p, &[]);
        let tc = diags_of(&d, "type-confusion");
        assert_eq!(tc.len(), 1, "{d:?}");
        // Class types are named, not printed as interned symbol ids.
        assert_eq!(tc[0].message, "field of type LA; loaded into v1 of type I");
    }

    #[test]
    fn detects_dead_store() {
        let p = static_method(|mb| {
            let v = mb.local("v", JType::Int);
            mb.stmt(Stmt::Assign { lhs: Lhs::Var(v), rhs: Expr::Lit(Literal::Int(1)) });
            mb.stmt(Stmt::Assign { lhs: Lhs::Var(v), rhs: Expr::Lit(Literal::Int(2)) });
            mb.stmt(Stmt::Return { var: Some(v) });
        });
        let d = lint_program(&p, &[]);
        let ds = diags_of(&d, "dead-store");
        assert_eq!(ds.len(), 1, "{d:?}");
        assert_eq!(ds[0].stmt, StmtIdx(0));
    }

    #[test]
    fn loop_carried_use_is_not_a_dead_store() {
        let p = static_method(|mb| {
            let c = mb.param("c", JType::Int);
            let v = mb.local("v", JType::Int);
            mb.stmt(Stmt::Assign { lhs: Lhs::Var(v), rhs: Expr::Lit(Literal::Int(0)) });
            mb.stmt(Stmt::Assign {
                lhs: Lhs::Var(v),
                rhs: Expr::Binary { op: crate::expr::BinOp::Add, lhs: v, rhs: c },
            });
            mb.stmt(Stmt::If { cond: c, target: StmtIdx(1) });
            mb.stmt(Stmt::Return { var: Some(v) });
        });
        let d = lint_program(&p, &[]);
        assert!(diags_of(&d, "dead-store").is_empty(), "{d:?}");
    }

    #[test]
    fn sink_reachability_renders_precomputed_findings() {
        let p = static_method(|mb| {
            mb.stmt(Stmt::Return { var: None });
        });
        let dead_sinks = [(MethodId::new(0), StmtIdx(0), "Log.d(sink::SINK_LOG)".to_owned())];
        let diags = lint_program(&p, &dead_sinks);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].check, "sink-reachability");
        assert_eq!(diags[0].stmt, StmtIdx(0));
        assert!(diags[0].message.contains("SINK_LOG"));
    }

    #[test]
    fn findings_are_sorted_by_class_method_statement() {
        // Two classes, interleaved construction: B's method is built
        // before A's, so raw order would put B first. The lint must
        // re-sort by (class, method, stmt).
        let mut pb = ProgramBuilder::new();
        let a = pb.class("A").build();
        let b = pb.class("B").build();
        let mut mb = pb.method(b, "mb").kind(MethodKind::Static);
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        let mut mb = pb.method(a, "ma").kind(MethodKind::Static);
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        let p = pb.finish();
        let b_mid = MethodId::new(0);
        let a_mid = MethodId::new(1);
        let dead_sinks =
            [(b_mid, StmtIdx(0), "s1".to_owned()), (a_mid, StmtIdx(0), "s2".to_owned())];
        let diags = lint_program(&p, &dead_sinks);
        let order: Vec<MethodId> = diags.iter().map(|d| d.method).collect();
        let key = |mid: MethodId| (p.methods[mid].sig.class, mid);
        assert!(key(order[0]) < key(order[1]), "diagnostics must sort by (class, method)");
    }
}
