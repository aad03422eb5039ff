//! Pass-based static lints over the IR.
//!
//! [`validate`](crate::validate) answers "can the analyses index this
//! program without bounds anxiety?" — a hard yes/no. This module
//! generalizes it into a pluggable pass framework that also surfaces
//! *suspicious but well-formed* IR: uses of may-uninitialized variables,
//! unreachable statements, reference/primitive type confusion on heap
//! accesses, and dead stores. The `gdroid lint` subcommand and the
//! `figures` driver run [`LintRunner::default_passes`] over whole corpora.
//!
//! Severity policy: anything [`validate`](crate::validate) rejects is an
//! [`Severity::Error`]; the flow-sensitive lints are
//! [`Severity::Warning`]s because the synthetic generator (like real
//! Dalvik output) legitimately produces, e.g., stores that a later
//! refactor made dead.

use crate::idx::{MethodId, StmtIdx, VarId};
use crate::method::Method;
use crate::program::Program;
use crate::stmt::{Lhs, Stmt};
use crate::validate::validate_method;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but analyzable; does not fail `gdroid lint`.
    Warning,
    /// Structurally broken; `gdroid lint` (and `figures`) exit nonzero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of one pass.
#[derive(Clone, Debug, PartialEq)]
pub struct LintDiagnostic {
    /// Name of the pass that produced the diagnostic.
    pub pass: &'static str,
    /// Severity.
    pub severity: Severity,
    /// The offending method.
    pub method: MethodId,
    /// The offending statement, when the finding is statement-scoped.
    pub stmt: Option<StmtIdx>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stmt {
            Some(s) => {
                write!(
                    f,
                    "{}: {}:{}: [{}] {}",
                    self.severity, self.method, s, self.pass, self.message
                )
            }
            None => {
                write!(f, "{}: {}: [{}] {}", self.severity, self.method, self.pass, self.message)
            }
        }
    }
}

/// A lint pass: examines one method at a time.
pub trait LintPass {
    /// Stable pass name (shown in diagnostics).
    fn name(&self) -> &'static str;
    /// Checks one method, appending diagnostics to `out`.
    fn check_method(
        &self,
        program: &Program,
        mid: MethodId,
        method: &Method,
        out: &mut Vec<LintDiagnostic>,
    );
}

/// Runs a sequence of passes over a program.
#[derive(Default)]
pub struct LintRunner {
    passes: Vec<Box<dyn LintPass>>,
}

impl LintRunner {
    /// An empty runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard pass pipeline: structural validation, def-before-use,
    /// unreachable code, type confusion, dead stores.
    pub fn default_passes() -> Self {
        Self::new()
            .with_pass(Structural)
            .with_pass(DefBeforeUse)
            .with_pass(UnreachableCode)
            .with_pass(TypeConfusion)
            .with_pass(DeadStore)
    }

    /// Appends a pass.
    pub fn with_pass(mut self, pass: impl LintPass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs every pass over every method. Findings are sorted by
    /// (declaring class, method, statement index) — a stable sort, so
    /// same-statement findings keep pass registration order — making
    /// `gdroid lint` output byte-deterministic regardless of how a pass
    /// discovered its findings.
    pub fn run(&self, program: &Program) -> Vec<LintDiagnostic> {
        let mut out = Vec::new();
        for (mid, method) in program.methods.iter_enumerated() {
            for pass in &self.passes {
                pass.check_method(program, mid, method, &mut out);
            }
        }
        out.sort_by_key(|d| (program.methods[d.method].sig.class, d.method, d.stmt));
        out
    }
}

/// Convenience: run the default pipeline.
pub fn lint_program(program: &Program) -> Vec<LintDiagnostic> {
    LintRunner::default_passes().run(program)
}

// ---------------------------------------------------------------------------
// Mini-CFG: positional successors. `gdroid-icfg` owns the real CFG, but the
// lints live below it in the crate graph, and the positional encoding makes
// successors trivial: fall-through to `i + 1` plus explicit jump targets.
// Out-of-range targets are dropped here (the structural pass reports them).

fn successors(method: &Method, idx: StmtIdx, out: &mut Vec<usize>) {
    out.clear();
    let n = method.body.len();
    let stmt = &method.body[idx];
    if stmt.falls_through() && idx.index() + 1 < n {
        out.push(idx.index() + 1);
    }
    let mut targets = Vec::new();
    stmt.jump_targets(&mut targets);
    for t in targets {
        if t.index() < n {
            out.push(t.index());
        }
    }
}

// --- bitset helpers (nvars is small; one Vec<u64> row per statement) -------

#[inline]
fn bit_get(row: &[u64], i: usize) -> bool {
    row[i / 64] & (1 << (i % 64)) != 0
}

#[inline]
fn bit_set(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// `dst &= src`; returns whether `dst` changed.
fn bit_and_assign(dst: &mut [u64], src: &[u64]) -> bool {
    let mut changed = false;
    for (d, s) in dst.iter_mut().zip(src) {
        let nv = *d & *s;
        changed |= nv != *d;
        *d = nv;
    }
    changed
}

/// `dst |= src`; returns whether `dst` changed.
fn bit_or_assign(dst: &mut [u64], src: &[u64]) -> bool {
    let mut changed = false;
    for (d, s) in dst.iter_mut().zip(src) {
        let nv = *d | *s;
        changed |= nv != *d;
        *d = nv;
    }
    changed
}

// ---------------------------------------------------------------------------

/// Wraps [`validate_method`]: every structural failure is an error-severity
/// diagnostic.
pub struct Structural;

impl LintPass for Structural {
    fn name(&self) -> &'static str {
        "structural"
    }

    fn check_method(
        &self,
        program: &Program,
        mid: MethodId,
        method: &Method,
        out: &mut Vec<LintDiagnostic>,
    ) {
        let mut errors = Vec::new();
        validate_method(program, mid, method, &mut errors);
        out.extend(errors.into_iter().map(|e| LintDiagnostic {
            pass: self.name(),
            severity: Severity::Error,
            method: mid,
            stmt: None,
            message: e.to_string(),
        }));
    }
}

/// Forward definite-assignment dataflow: warns when a statement may read a
/// variable no path has assigned. `this` and parameters are defined at
/// entry.
pub struct DefBeforeUse;

impl LintPass for DefBeforeUse {
    fn name(&self) -> &'static str {
        "def-before-use"
    }

    fn check_method(
        &self,
        _program: &Program,
        mid: MethodId,
        method: &Method,
        out: &mut Vec<LintDiagnostic>,
    ) {
        let n = method.body.len();
        let nvars = method.vars.len();
        if n == 0 || nvars == 0 {
            return;
        }
        let words = nvars.div_ceil(64);

        let mut entry_defined = vec![0u64; words];
        if let Some(t) = method.this_var {
            if t.index() < nvars {
                bit_set(&mut entry_defined, t.index());
            }
        }
        for p in &method.params {
            if p.var.index() < nvars {
                bit_set(&mut entry_defined, p.var.index());
            }
        }

        // Must-analysis: start from the universal set, intersect over
        // predecessors, iterate down to the greatest fixed point.
        let mut da_in = vec![vec![u64::MAX; words]; n];
        da_in[0] = entry_defined;
        let mut succs = Vec::new();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut da_out = da_in[i].clone();
                if let Some(d) = method.body[StmtIdx::new(i)].defined_var() {
                    if d.index() < nvars {
                        bit_set(&mut da_out, d.index());
                    }
                }
                successors(method, StmtIdx::new(i), &mut succs);
                for &s in &succs {
                    changed |= bit_and_assign(&mut da_in[s], &da_out);
                }
            }
        }

        let mut uses = Vec::new();
        for (idx, stmt) in method.body.iter_enumerated() {
            uses.clear();
            stmt.uses(&mut uses);
            if let Stmt::Assign { lhs, .. } = stmt {
                lhs.uses(&mut uses);
            }
            uses.sort_unstable();
            uses.dedup();
            for &v in &uses {
                if v.index() < nvars && !bit_get(&da_in[idx.index()], v.index()) {
                    out.push(LintDiagnostic {
                        pass: self.name(),
                        severity: Severity::Warning,
                        method: mid,
                        stmt: Some(idx),
                        message: format!("{v} may be read before any assignment"),
                    });
                }
            }
        }
    }
}

/// Flags statements no path from the entry reaches.
pub struct UnreachableCode;

impl LintPass for UnreachableCode {
    fn name(&self) -> &'static str {
        "unreachable"
    }

    fn check_method(
        &self,
        _program: &Program,
        mid: MethodId,
        method: &Method,
        out: &mut Vec<LintDiagnostic>,
    ) {
        let n = method.body.len();
        if n == 0 {
            return;
        }
        let mut reached = vec![false; n];
        let mut stack = vec![0usize];
        reached[0] = true;
        let mut succs = Vec::new();
        while let Some(i) = stack.pop() {
            successors(method, StmtIdx::new(i), &mut succs);
            for s in succs.clone() {
                if !reached[s] {
                    reached[s] = true;
                    stack.push(s);
                }
            }
        }
        for (i, r) in reached.iter().enumerate() {
            if !r {
                out.push(LintDiagnostic {
                    pass: self.name(),
                    severity: Severity::Warning,
                    method: mid,
                    stmt: Some(StmtIdx::new(i)),
                    message: "statement is unreachable from the method entry".into(),
                });
            }
        }
    }
}

/// Reference/primitive confusion on heap-shaped accesses: instance-field
/// bases must be references, array bases must be arrays with primitive
/// indices, and field loads into a local must agree with the field's
/// reference-ness. (Exact class compatibility is the type checker's job —
/// subtyping makes symbol equality too strict for a lint.)
pub struct TypeConfusion;

impl TypeConfusion {
    fn check_ref_base(
        &self,
        mid: MethodId,
        method: &Method,
        idx: StmtIdx,
        base: VarId,
        what: &str,
        out: &mut Vec<LintDiagnostic>,
    ) {
        if let Some(decl) = method.vars.get(base) {
            if !decl.ty.is_reference() {
                out.push(LintDiagnostic {
                    pass: self.name(),
                    severity: Severity::Warning,
                    method: mid,
                    stmt: Some(idx),
                    message: format!("{what} base {base} has primitive type {}", decl.ty),
                });
            }
        }
    }

    fn check_array_access(
        &self,
        mid: MethodId,
        method: &Method,
        idx: StmtIdx,
        base: VarId,
        index: VarId,
        out: &mut Vec<LintDiagnostic>,
    ) {
        if let Some(decl) = method.vars.get(base) {
            if !matches!(decl.ty, crate::types::JType::Array(_)) {
                out.push(LintDiagnostic {
                    pass: self.name(),
                    severity: Severity::Warning,
                    method: mid,
                    stmt: Some(idx),
                    message: format!("array access base {base} has non-array type {}", decl.ty),
                });
            }
        }
        if let Some(decl) = method.vars.get(index) {
            if !decl.ty.is_primitive() {
                out.push(LintDiagnostic {
                    pass: self.name(),
                    severity: Severity::Warning,
                    method: mid,
                    stmt: Some(idx),
                    message: format!("array index {index} has non-primitive type {}", decl.ty),
                });
            }
        }
    }
}

impl LintPass for TypeConfusion {
    fn name(&self) -> &'static str {
        "type-confusion"
    }

    fn check_method(
        &self,
        program: &Program,
        mid: MethodId,
        method: &Method,
        out: &mut Vec<LintDiagnostic>,
    ) {
        use crate::expr::Expr;
        for (idx, stmt) in method.body.iter_enumerated() {
            let Stmt::Assign { lhs, rhs } = stmt else { continue };
            match lhs {
                Lhs::Field { base, .. } => {
                    self.check_ref_base(mid, method, idx, *base, "field store", out);
                }
                Lhs::ArrayElem { base, index } => {
                    self.check_array_access(mid, method, idx, *base, *index, out);
                }
                Lhs::Var(_) | Lhs::StaticField { .. } => {}
            }
            match rhs {
                Expr::Access { base, .. } => {
                    self.check_ref_base(mid, method, idx, *base, "field read", out);
                }
                Expr::Indexing { base, index } => {
                    self.check_array_access(mid, method, idx, *base, *index, out);
                }
                Expr::Length { base } => {
                    self.check_ref_base(mid, method, idx, *base, "length read", out);
                }
                _ => {}
            }
            // Field slot vs. destination local: reference-ness must agree.
            if let (Lhs::Var(dst), Expr::Access { field, .. } | Expr::StaticField { field }) =
                (lhs, rhs)
            {
                if let (Some(decl), Some(fdef)) =
                    (method.vars.get(*dst), program.fields.get(*field))
                {
                    if decl.ty.is_reference() != fdef.ty.is_reference() {
                        out.push(LintDiagnostic {
                            pass: self.name(),
                            severity: Severity::Warning,
                            method: mid,
                            stmt: Some(idx),
                            message: format!(
                                "field of type {} loaded into {dst} of type {}",
                                fdef.ty, decl.ty
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Backward liveness: warns on assignments to locals that no path reads
/// before the next write (or the method end). Only side-effect-free
/// right-hand sides are flagged — heap reads can fault and allocations are
/// observable to the points-to analysis.
pub struct DeadStore;

fn rhs_is_pure(rhs: &crate::expr::Expr) -> bool {
    use crate::expr::Expr;
    matches!(
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
    )
}

impl LintPass for DeadStore {
    fn name(&self) -> &'static str {
        "dead-store"
    }

    fn check_method(
        &self,
        _program: &Program,
        mid: MethodId,
        method: &Method,
        out: &mut Vec<LintDiagnostic>,
    ) {
        let n = method.body.len();
        let nvars = method.vars.len();
        if n == 0 || nvars == 0 {
            return;
        }
        let words = nvars.div_ceil(64);
        let mut live_in = vec![vec![0u64; words]; n];
        let mut succs = Vec::new();
        let mut uses = Vec::new();
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let idx = StmtIdx::new(i);
                // live_out = ∪ succ live_in
                let mut live_out = vec![0u64; words];
                successors(method, idx, &mut succs);
                for &s in &succs {
                    bit_or_assign(&mut live_out, &live_in[s]);
                }
                // live_in = use ∪ (live_out − def)
                let stmt = &method.body[idx];
                if let Some(d) = stmt.defined_var() {
                    if d.index() < nvars {
                        live_out[d.index() / 64] &= !(1 << (d.index() % 64));
                    }
                }
                uses.clear();
                stmt.uses(&mut uses);
                for &u in &uses {
                    if u.index() < nvars {
                        bit_set(&mut live_out, u.index());
                    }
                }
                changed |= bit_or_assign(&mut live_in[i], &live_out);
            }
        }

        for (idx, stmt) in method.body.iter_enumerated() {
            let Stmt::Assign { lhs: Lhs::Var(v), rhs } = stmt else { continue };
            if !rhs_is_pure(rhs) || v.index() >= nvars {
                continue;
            }
            // Dead iff the defined var is not live-out of this statement.
            let mut live_out = vec![0u64; words];
            successors(method, idx, &mut succs);
            for &s in &succs {
                bit_or_assign(&mut live_out, &live_in[s]);
            }
            if !bit_get(&live_out, v.index()) {
                out.push(LintDiagnostic {
                    pass: self.name(),
                    severity: Severity::Warning,
                    method: mid,
                    stmt: Some(idx),
                    message: format!("value assigned to {v} is never read"),
                });
            }
        }
    }
}

/// Sink call sites that no inter-procedurally reachable source can feed —
/// dead sinks a targeted (demand-driven) vetting run still has to slice
/// for, and a vetting rule author probably mis-modeled.
///
/// The reachability computation needs the call graph and the backward
/// slicer, which live *above* this crate (`gdroid-icfg` /
/// `gdroid-analysis`), so the pass carries precomputed findings: the
/// caller (e.g. `gdroid lint`) runs the slicer per sink site and hands
/// the unreached ones here; the pass only renders them as diagnostics in
/// the framework's ordering.
pub struct SinkReachability {
    findings: Vec<(MethodId, StmtIdx, String)>,
}

impl SinkReachability {
    /// Wraps precomputed findings: `(method, sink statement, sink name)`
    /// triples for sink sites whose backward slice contains no source
    /// call site.
    pub fn new(findings: Vec<(MethodId, StmtIdx, String)>) -> SinkReachability {
        SinkReachability { findings }
    }
}

impl LintPass for SinkReachability {
    fn name(&self) -> &'static str {
        "sink-reachability"
    }

    fn check_method(
        &self,
        _program: &Program,
        mid: MethodId,
        _method: &Method,
        out: &mut Vec<LintDiagnostic>,
    ) {
        for (_, stmt, sink) in self.findings.iter().filter(|(m, _, _)| *m == mid) {
            out.push(LintDiagnostic {
                pass: self.name(),
                severity: Severity::Warning,
                method: mid,
                stmt: Some(*stmt),
                message: format!("sink {sink} is not reachable by any taint source"),
            });
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

    fn diags_of<'d>(diags: &'d [LintDiagnostic], pass: &str) -> Vec<&'d LintDiagnostic> {
        diags.iter().filter(|d| d.pass == pass).collect()
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
        let diags = lint_program(&p);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn structural_errors_surface_as_error_severity() {
        let p = static_method(|mb| {
            mb.stmt(Stmt::Goto { target: StmtIdx(99) });
            mb.stmt(Stmt::Return { var: None });
        });
        let diags = lint_program(&p);
        assert!(diags.iter().any(|d| d.severity == Severity::Error));
        assert_eq!(diags_of(&diags, "structural").len(), 1);
    }

    #[test]
    fn detects_use_before_def() {
        let p = static_method(|mb| {
            let v = mb.local("v", JType::Int);
            mb.stmt(Stmt::Return { var: Some(v) });
        });
        let diags = lint_program(&p);
        let d = diags_of(&diags, "def-before-use");
        assert_eq!(d.len(), 1, "{diags:?}");
        assert_eq!(d[0].severity, Severity::Warning);
        assert_eq!(d[0].stmt, Some(StmtIdx(0)));
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
        assert!(diags_of(&lint_program(&p), "def-before-use").is_empty());
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
        let d = lint_program(&p);
        let ub = diags_of(&d, "def-before-use");
        assert_eq!(ub.len(), 1, "{d:?}");
        assert_eq!(ub[0].stmt, Some(StmtIdx(2)));
    }

    #[test]
    fn detects_unreachable_code() {
        let p = static_method(|mb| {
            mb.stmt(Stmt::Return { var: None });
            mb.stmt(Stmt::Empty);
            mb.stmt(Stmt::Return { var: None });
        });
        let d = lint_program(&p);
        let un = diags_of(&d, "unreachable");
        assert_eq!(un.len(), 2, "{d:?}");
        assert_eq!(un[0].stmt, Some(StmtIdx(1)));
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
        let d = lint_program(&p);
        let tc = diags_of(&d, "type-confusion");
        // primitive field base + non-array base + reference index = 3.
        assert_eq!(tc.len(), 3, "{d:?}");
    }

    #[test]
    fn detects_field_reference_ness_mismatch() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let f = pb.field(cls, "f", JType::object(crate::idx::Symbol(0)), false);
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        let o = mb.local("o", JType::object(crate::idx::Symbol(0)));
        let i = mb.local("i", JType::Int);
        mb.stmt(Stmt::Assign {
            lhs: Lhs::Var(o),
            rhs: Expr::New { ty: JType::object(crate::idx::Symbol(0)) },
        });
        // Reference-typed field loaded into an int local.
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(i), rhs: Expr::Access { base: o, field: f } });
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        let p = pb.finish();
        let d = lint_program(&p);
        assert_eq!(diags_of(&d, "type-confusion").len(), 1, "{d:?}");
    }

    #[test]
    fn detects_dead_store() {
        let p = static_method(|mb| {
            let v = mb.local("v", JType::Int);
            mb.stmt(Stmt::Assign { lhs: Lhs::Var(v), rhs: Expr::Lit(Literal::Int(1)) });
            mb.stmt(Stmt::Assign { lhs: Lhs::Var(v), rhs: Expr::Lit(Literal::Int(2)) });
            mb.stmt(Stmt::Return { var: Some(v) });
        });
        let d = lint_program(&p);
        let ds = diags_of(&d, "dead-store");
        assert_eq!(ds.len(), 1, "{d:?}");
        assert_eq!(ds[0].stmt, Some(StmtIdx(0)));
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
        let d = lint_program(&p);
        assert!(diags_of(&d, "dead-store").is_empty(), "{d:?}");
    }

    #[test]
    fn sink_reachability_renders_precomputed_findings() {
        let p = static_method(|mb| {
            mb.stmt(Stmt::Return { var: None });
        });
        let mid = MethodId::new(0);
        let pass =
            SinkReachability::new(vec![(mid, StmtIdx(0), "Log.d(sink::SINK_LOG)".to_owned())]);
        let diags = LintRunner::new().with_pass(pass).run(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pass, "sink-reachability");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].stmt, Some(StmtIdx(0)));
        assert!(diags[0].message.contains("SINK_LOG"));
    }

    #[test]
    fn findings_are_sorted_by_class_method_statement() {
        // Two classes, interleaved construction: B's method is built
        // before A2's, so raw pass order would put B first. The runner
        // must re-sort by (class, method, stmt).
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
        let pass = SinkReachability::new(vec![
            (b_mid, StmtIdx(0), "s1".to_owned()),
            (a_mid, StmtIdx(0), "s2".to_owned()),
        ]);
        let diags = LintRunner::new().with_pass(pass).run(&p);
        let order: Vec<MethodId> = diags.iter().map(|d| d.method).collect();
        let key = |mid: MethodId| (p.methods[mid].sig.class, mid);
        assert!(key(order[0]) < key(order[1]), "diagnostics must sort by (class, method)");
    }

    #[test]
    fn runner_is_composable() {
        let p = static_method(|mb| {
            let v = mb.local("v", JType::Int);
            mb.stmt(Stmt::Return { var: Some(v) });
        });
        // Only the unreachable pass: no diagnostics for this method.
        let diags = LintRunner::new().with_pass(UnreachableCode).run(&p);
        assert!(diags.is_empty());
        // Ordering: diagnostics come out grouped per method, pass order.
        let diags = LintRunner::default_passes().run(&p);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
    }
}
