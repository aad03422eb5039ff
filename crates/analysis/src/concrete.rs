//! A concrete interpreter for the IR — the dynamic-analysis counterpart
//! the paper's introduction contrasts static analysis against.
//!
//! Its role in this repository is *validation*: every points-to
//! relationship observed during a concrete execution must be predicted by
//! the static IDFG (soundness). The interpreter executes real heap
//! operations (allocation, field stores/loads, array elements, calls with
//! dynamic dispatch) under a deterministic branch oracle and bounded fuel,
//! records `(method, statement, variable) ↦ object` observations, and
//! [`check_soundness`] replays them against a finished [`AppAnalysis`].

use crate::fact::{Instance, Slot};
use crate::solver::AppAnalysis;
use gdroid_icfg::{CallGraph, CallTarget};
use gdroid_ir::{Expr, FieldId, Literal, MethodId, Program, Stmt, StmtIdx, VarId};
use std::collections::HashMap;

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Primitive (all integral/float kinds folded to i64 semantics).
    Prim(i64),
    /// Reference to a heap object.
    Ref(ObjId),
    /// Null reference.
    Null,
}

/// Heap object identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

/// Where an object was born.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Birth {
    /// Allocated by `new`/literal at a statement of a method.
    Site(MethodId, StmtIdx),
    /// Returned by an external (framework) call at a statement.
    External(MethodId, StmtIdx),
    /// Conjured as an argument for the entry frame.
    EntryArg,
}

/// A heap object.
#[derive(Clone, Debug)]
pub struct Object {
    /// Provenance.
    pub birth: Birth,
    /// Instance fields.
    pub fields: HashMap<FieldId, Value>,
    /// Array element (merged, matching the analysis' array-insensitivity).
    pub elem: Option<Box<Value>>,
}

/// One points-to observation: at the *entry* of `stmt` in `method`,
/// variable `var` referenced `object`.
#[derive(Clone, Copy, Debug)]
pub struct Observation {
    /// Observing method.
    pub method: MethodId,
    /// Statement about to execute.
    pub stmt: StmtIdx,
    /// The variable.
    pub var: VarId,
    /// The referenced object.
    pub object: ObjId,
}

/// Interpreter limits and determinism knobs.
#[derive(Clone, Copy, Debug)]
pub struct InterpConfig {
    /// Total statements to execute before stopping.
    pub fuel: usize,
    /// Maximum call depth.
    pub max_depth: usize,
    /// Seed of the branch oracle (if/switch outcomes).
    pub seed: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig { fuel: 200_000, max_depth: 24, seed: 1 }
    }
}

/// Execution result.
#[derive(Debug, Default)]
pub struct Trace {
    /// All points-to observations, in execution order.
    pub observations: Vec<Observation>,
    /// Statements executed.
    pub steps: usize,
    /// Objects allocated.
    pub allocations: usize,
    /// Methods entered.
    pub calls: usize,
}

/// The interpreter.
pub struct Interpreter<'a> {
    program: &'a Program,
    cg: &'a CallGraph,
    config: InterpConfig,
    heap: Vec<Object>,
    statics: HashMap<FieldId, Value>,
    rng_state: u64,
    trace: Trace,
    fuel: usize,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter.
    pub fn new(program: &'a Program, cg: &'a CallGraph, config: InterpConfig) -> Self {
        Interpreter {
            program,
            cg,
            config,
            heap: Vec::new(),
            statics: HashMap::new(),
            rng_state: config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            trace: Trace::default(),
            fuel: config.fuel,
        }
    }

    fn flip(&mut self) -> bool {
        // xorshift64* — deterministic branch oracle.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) & 1 == 1
    }

    fn alloc(&mut self, birth: Birth) -> ObjId {
        let id = ObjId(self.heap.len() as u32);
        self.heap.push(Object { birth, fields: HashMap::new(), elem: None });
        self.trace.allocations += 1;
        id
    }

    /// Runs `entry` with conjured arguments; returns the trace.
    pub fn run(mut self, entry: MethodId) -> Trace {
        let method = &self.program.methods[entry];
        let mut args = Vec::new();
        if method.this_var.is_some() {
            let o = self.alloc(Birth::EntryArg);
            args.push(Value::Ref(o));
        }
        for p in &method.params {
            if p.ty.is_reference() {
                let o = self.alloc(Birth::EntryArg);
                args.push(Value::Ref(o));
            } else {
                args.push(Value::Prim(1));
            }
        }
        self.call(entry, &args, 0);
        self.trace
    }

    /// Executes one method body; returns its return value.
    fn call(&mut self, mid: MethodId, args: &[Value], depth: usize) -> Value {
        if depth >= self.config.max_depth || self.fuel == 0 {
            return Value::Null;
        }
        self.trace.calls += 1;
        let method = &self.program.methods[mid];
        let mut locals = vec![Value::Null; method.vars.len()];
        // Bind `this` + params (declaration order, like the analysis).
        let mut cursor = 0usize;
        if let Some(this) = method.this_var {
            if let Some(v) = args.get(cursor) {
                locals[this.index()] = *v;
            }
            cursor += 1;
        }
        for p in &method.params {
            if let Some(v) = args.get(cursor) {
                locals[p.var.index()] = *v;
            }
            cursor += 1;
        }

        let mut pc = 0usize;
        while pc < method.body.len() {
            if self.fuel == 0 {
                return Value::Null;
            }
            self.fuel -= 1;
            self.trace.steps += 1;
            let stmt_idx = StmtIdx::new(pc);

            // Record observations for every reference variable the
            // statement reads.
            let mut used = Vec::new();
            method.body[stmt_idx].uses(&mut used);
            for &v in &used {
                if let Value::Ref(obj) = locals[v.index()] {
                    self.trace.observations.push(Observation {
                        method: mid,
                        stmt: stmt_idx,
                        var: v,
                        object: obj,
                    });
                }
            }

            match &method.body[stmt_idx] {
                Stmt::Assign { lhs, rhs } => {
                    let value = self.eval(mid, stmt_idx, rhs, &locals);
                    self.store(lhs, value, &mut locals);
                    pc += 1;
                }
                Stmt::Call { ret, args: call_args, .. } => {
                    let argv: Vec<Value> = call_args.iter().map(|a| locals[a.index()]).collect();
                    let result = match self.cg.site(mid, stmt_idx) {
                        Some(CallTarget::Internal(targets)) if !targets.is_empty() => {
                            // Dynamic dispatch: use the receiver's birth
                            // class when resolvable; otherwise first CHA
                            // target. (CHA targets all share the
                            // signature, so any is type-correct.)
                            let target = targets[0];
                            self.call(target, &argv, depth + 1)
                        }
                        _ => {
                            // External: conjure a fresh object, like the
                            // analysis' default summary.
                            if ret.is_some() {
                                let o = self.alloc(Birth::External(mid, stmt_idx));
                                Value::Ref(o)
                            } else {
                                Value::Null
                            }
                        }
                    };
                    if let Some(r) = ret {
                        locals[r.index()] = result;
                    }
                    pc += 1;
                }
                Stmt::If { target, .. } => {
                    pc = if self.flip() { target.index() } else { pc + 1 };
                }
                Stmt::Switch { targets, default, .. } => {
                    let n = targets.len() + 1;
                    let pick = (self.rng_next() as usize) % n;
                    pc = if pick < targets.len() { targets[pick].index() } else { default.index() };
                }
                Stmt::Goto { target } => pc = target.index(),
                Stmt::Return { var } => {
                    return var.map(|v| locals[v.index()]).unwrap_or(Value::Null);
                }
                Stmt::Throw { .. } => {
                    // Route to the nearest following handler, like the CFG.
                    let handler = (pc + 1..method.body.len()).find(|&i| {
                        matches!(
                            method.body[StmtIdx::new(i)],
                            Stmt::Assign { rhs: Expr::Exception, .. }
                        )
                    });
                    match handler {
                        Some(h) => pc = h,
                        None => return Value::Null,
                    }
                }
                Stmt::Empty | Stmt::Monitor { .. } => pc += 1,
            }
        }
        Value::Null
    }

    fn rng_next(&mut self) -> u64 {
        self.flip();
        self.rng_state
    }

    fn eval(&mut self, mid: MethodId, at: StmtIdx, expr: &Expr, locals: &[Value]) -> Value {
        match expr {
            Expr::New { .. }
            | Expr::ConstClass { .. }
            | Expr::Exception
            | Expr::Lit(Literal::Str(_)) => Value::Ref(self.alloc(Birth::Site(mid, at))),
            Expr::Null => Value::Null,
            Expr::Lit(Literal::Int(v)) => Value::Prim(*v),
            Expr::Lit(Literal::Float(v)) => Value::Prim(*v as i64),
            Expr::Lit(Literal::Bool(b)) => Value::Prim(i64::from(*b)),
            Expr::Var(v) | Expr::Cast { operand: v, .. } | Expr::CallRhs { ret: v } => {
                locals[v.index()]
            }
            Expr::Access { base, field } => match locals[base.index()] {
                Value::Ref(o) => {
                    self.heap[o.0 as usize].fields.get(field).copied().unwrap_or(Value::Null)
                }
                _ => Value::Null,
            },
            Expr::StaticField { field } => self.statics.get(field).copied().unwrap_or(Value::Null),
            Expr::Indexing { base, .. } => match locals[base.index()] {
                Value::Ref(o) => {
                    self.heap[o.0 as usize].elem.as_deref().copied().unwrap_or(Value::Null)
                }
                _ => Value::Null,
            },
            Expr::Tuple { elems } => elems
                .iter()
                .map(|v| locals[v.index()])
                .find(|v| matches!(v, Value::Ref(_)))
                .unwrap_or(Value::Null),
            Expr::Binary { lhs, rhs, .. } => {
                let a = as_prim(locals[lhs.index()]);
                let b = as_prim(locals[rhs.index()]);
                Value::Prim(a.wrapping_add(b) & 0xFFFF)
            }
            Expr::Cmp { lhs, rhs, .. } => {
                Value::Prim(i64::from(as_prim(locals[lhs.index()]) < as_prim(locals[rhs.index()])))
            }
            Expr::InstanceOf { operand, .. } => {
                Value::Prim(i64::from(matches!(locals[operand.index()], Value::Ref(_))))
            }
            Expr::Length { .. } => Value::Prim(1),
            Expr::Unary { operand, .. } => Value::Prim(!as_prim(locals[operand.index()])),
        }
    }

    fn store(&mut self, lhs: &gdroid_ir::Lhs, value: Value, locals: &mut [Value]) {
        match lhs {
            gdroid_ir::Lhs::Var(v) => locals[v.index()] = value,
            gdroid_ir::Lhs::Field { base, field } => {
                if let Value::Ref(o) = locals[base.index()] {
                    self.heap[o.0 as usize].fields.insert(*field, value);
                }
            }
            gdroid_ir::Lhs::StaticField { field } => {
                self.statics.insert(*field, value);
            }
            gdroid_ir::Lhs::ArrayElem { base, .. } => {
                if let Value::Ref(o) = locals[base.index()] {
                    self.heap[o.0 as usize].elem = Some(Box::new(value));
                }
            }
        }
    }
}

fn as_prim(v: Value) -> i64 {
    match v {
        Value::Prim(p) => p,
        _ => 0,
    }
}

/// A soundness violation: the interpreter observed a points-to the static
/// analysis did not predict.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The unpredicted observation.
    pub observation: Observation,
    /// The object's birth, for diagnosis.
    pub birth: Birth,
}

/// Replays a trace against a finished analysis and returns the violations
/// (empty = the analysis is sound for this execution).
///
/// An observation `(m, s, v) ↦ o` is *predicted* when the static facts at
/// the node of `s` contain, in `Local(v)`'s row:
///
/// * `Alloc(site)` — if `o` was born at `site` inside `m`;
/// * *any* symbolic instance (`Formal`/`CallRet`/`StaticIn`) — if `o`
///   crossed a method boundary (the analysis tracks such objects
///   symbolically, so identity is intentionally abstracted).
pub fn check_soundness(
    analysis: &AppAnalysis,
    trace: &Trace,
    heap_births: &dyn Fn(ObjId) -> Birth,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for &obs in &trace.observations {
        let Some(space) = analysis.spaces.get(&obs.method) else { continue };
        let Some(cfg) = analysis.cfgs.get(&obs.method) else { continue };
        let Some(slot) = space.slot(Slot::Local(obs.var)) else {
            violations.push(Violation { observation: obs, birth: heap_births(obs.object) });
            continue;
        };
        let node = cfg.node_of(obs.stmt);
        let facts = analysis.node_facts(obs.method, node);
        let mut row = facts.row(slot);
        let birth = heap_births(obs.object);
        let predicted = match birth {
            Birth::Site(m, s) if m == obs.method => {
                row.any(|i| space.instances[usize::from(i)] == Instance::Alloc(s))
            }
            Birth::External(m, s) if m == obs.method => {
                row.any(|i| space.instances[usize::from(i)] == Instance::CallRet(s))
            }
            // Cross-method object: any symbolic instance covers it.
            _ => row.any(|i| {
                matches!(
                    space.instances[usize::from(i)],
                    Instance::Formal(_) | Instance::CallRet(_) | Instance::StaticIn(_)
                )
            }),
        };
        if !predicted {
            violations.push(Violation { observation: obs, birth });
        }
    }
    violations
}

/// Convenience: run the interpreter from every environment root and check
/// soundness in one step. Returns `(trace_stats, violations)`.
pub fn validate_app(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    analysis: &AppAnalysis,
    config: InterpConfig,
) -> (Trace, Vec<Violation>) {
    let mut merged = Trace::default();
    let mut all_violations = Vec::new();
    for &root in roots {
        let mut interp = Interpreter::new(program, cg, config);
        let trace = interp.run_collect(root);
        let births: Vec<Birth> = interp.heap.iter().map(|o| o.birth).collect();
        let heap_births = |o: ObjId| births[o.0 as usize];
        all_violations.extend(check_soundness(analysis, &trace, &heap_births));
        merged.steps += trace.steps;
        merged.allocations += trace.allocations;
        merged.calls += trace.calls;
        merged.observations.extend(trace.observations);
    }
    (merged, all_violations)
}

impl<'a> Interpreter<'a> {
    /// Like [`Interpreter::run`] but keeps `self` alive so the heap can be
    /// inspected afterwards.
    fn run_collect(&mut self, entry: MethodId) -> Trace {
        let method = &self.program.methods[entry];
        let mut args = Vec::new();
        if method.this_var.is_some() {
            let o = self.alloc(Birth::EntryArg);
            args.push(Value::Ref(o));
        }
        for p in &method.params {
            if p.ty.is_reference() {
                let o = self.alloc(Birth::EntryArg);
                args.push(Value::Ref(o));
            } else {
                args.push(Value::Prim(1));
            }
        }
        self.call(entry, &args, 0);
        std::mem::take(&mut self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{analyze_app, StoreKind};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_icfg::prepare_app;

    fn setup(seed: u64) -> (gdroid_apk::App, CallGraph, Vec<MethodId>, AppAnalysis) {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let analysis = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
        (app, cg, roots, analysis)
    }

    #[test]
    fn interpreter_executes_and_allocates() {
        let (app, cg, roots, _) = setup(501);
        let interp = Interpreter::new(&app.program, &cg, InterpConfig::default());
        let trace = interp.run(roots[0]);
        assert!(trace.steps > 0, "no statements executed");
        assert!(trace.allocations > 0, "no objects allocated");
        assert!(trace.calls >= 1);
        assert!(!trace.observations.is_empty(), "no points-to observed");
    }

    #[test]
    fn interpreter_is_deterministic() {
        let (app, cg, roots, _) = setup(502);
        let t1 = Interpreter::new(&app.program, &cg, InterpConfig::default()).run(roots[0]);
        let t2 = Interpreter::new(&app.program, &cg, InterpConfig::default()).run(roots[0]);
        assert_eq!(t1.steps, t2.steps);
        assert_eq!(t1.allocations, t2.allocations);
        assert_eq!(t1.observations.len(), t2.observations.len());
    }

    #[test]
    fn different_seeds_take_different_paths() {
        let (app, cg, roots, _) = setup(503);
        let a = Interpreter::new(&app.program, &cg, InterpConfig { seed: 1, ..Default::default() })
            .run(roots[0]);
        let b =
            Interpreter::new(&app.program, &cg, InterpConfig { seed: 99, ..Default::default() })
                .run(roots[0]);
        // Branch oracles differ → traces almost surely differ.
        assert!(a.steps != b.steps || a.observations.len() != b.observations.len());
    }

    #[test]
    fn static_analysis_is_sound_for_concrete_runs() {
        // The headline validation: across several apps and several branch
        // oracles, no concrete points-to escapes the static IDFG.
        for seed in [601u64, 602, 603] {
            let (app, cg, roots, analysis) = setup(seed);
            for oracle in [1u64, 7, 42] {
                let config = InterpConfig { seed: oracle, fuel: 60_000, ..Default::default() };
                let (trace, violations) =
                    validate_app(&app.program, &cg, &roots, &analysis, config);
                assert!(
                    violations.is_empty(),
                    "app seed {seed} oracle {oracle}: {} violations of {} observations; first: {:?}",
                    violations.len(),
                    trace.observations.len(),
                    violations.first()
                );
            }
        }
    }

    #[test]
    fn fuel_bounds_execution() {
        let (app, cg, roots, _) = setup(504);
        let config = InterpConfig { fuel: 100, ..Default::default() };
        let trace = Interpreter::new(&app.program, &cg, config).run(roots[0]);
        assert!(trace.steps <= 100);
    }
}
