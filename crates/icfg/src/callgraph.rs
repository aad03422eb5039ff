//! Class-hierarchy-analysis (CHA) call graph.
//!
//! Call sites resolve to:
//!
//! * `Static`/`Direct` — exact signature lookup with superclass walk;
//! * `Virtual`/`Interface` — every override in the subtree rooted at the
//!   receiver's nominal class (CHA; Amandroid sharpens this with points-to,
//!   we keep CHA since the synthetic corpus has little override depth);
//! * unresolvable signatures — *external* targets (framework API), which
//!   the analysis covers with default summaries and the vetting layer
//!   matches against its source/sink lists.

use gdroid_ir::{CallKind, ClassHierarchy, MethodId, Program, Signature, Stmt, StmtIdx};
use std::collections::HashMap;

/// Resolution result of one call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallTarget {
    /// Calls into app code (possibly several targets under CHA).
    Internal(Vec<MethodId>),
    /// Calls a framework/library method with no body.
    External(Signature),
}

impl CallTarget {
    /// The internal targets (empty slice for external calls).
    pub fn internal(&self) -> &[MethodId] {
        match self {
            CallTarget::Internal(v) => v,
            CallTarget::External(_) => &[],
        }
    }

    /// Whether the call leaves the app.
    pub fn is_external(&self) -> bool {
        matches!(self, CallTarget::External(_))
    }
}

/// The program-wide call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Per-call-site resolution, keyed by `(caller, stmt)`.
    pub sites: HashMap<(MethodId, StmtIdx), CallTarget>,
    /// Forward edges: caller → callees (deduplicated).
    pub callees: HashMap<MethodId, Vec<MethodId>>,
    /// Reverse edges: callee → callers (deduplicated).
    pub callers: HashMap<MethodId, Vec<MethodId>>,
}

impl CallGraph {
    /// Builds the call graph of a program.
    pub fn build(program: &Program) -> CallGraph {
        let mut cg = CallGraph::default();
        // One index for the whole graph: a virtual site only walks it.
        let hierarchy = ClassHierarchy::of(program);
        for (caller, method) in program.methods.iter_enumerated() {
            for (idx, stmt) in method.body.iter_enumerated() {
                let Stmt::Call { kind, sig, .. } = stmt else { continue };
                let target = resolve(program, &hierarchy, *kind, sig);
                if let CallTarget::Internal(ref ts) = target {
                    for &t in ts {
                        let list = cg.callees.entry(caller).or_default();
                        if !list.contains(&t) {
                            list.push(t);
                        }
                        let rlist = cg.callers.entry(t).or_default();
                        if !rlist.contains(&caller) {
                            rlist.push(caller);
                        }
                    }
                }
                cg.sites.insert((caller, idx), target);
            }
        }
        cg
    }

    /// Resolution of one call site (must be a call statement).
    pub fn site(&self, caller: MethodId, stmt: StmtIdx) -> Option<&CallTarget> {
        self.sites.get(&(caller, stmt))
    }

    /// Callees of a method (internal only).
    pub fn callees_of(&self, m: MethodId) -> &[MethodId] {
        self.callees.get(&m).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Callers of a method (internal only).
    pub fn callers_of(&self, m: MethodId) -> &[MethodId] {
        self.callers.get(&m).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Methods reachable from `roots` through internal edges (including the
    /// roots themselves).
    pub fn reachable_from(&self, roots: &[MethodId]) -> Vec<MethodId> {
        let mut seen = std::collections::HashSet::new();
        let mut order = Vec::new();
        let mut stack: Vec<MethodId> = roots.to_vec();
        for &r in roots {
            seen.insert(r);
        }
        while let Some(m) = stack.pop() {
            order.push(m);
            for &c in self.callees_of(m) {
                if seen.insert(c) {
                    stack.push(c);
                }
            }
        }
        order
    }

    /// Total number of call sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Number of external call sites.
    pub fn external_site_count(&self) -> usize {
        self.sites.values().filter(|t| t.is_external()).count()
    }
}

/// Resolves one signature per the dispatch kind.
fn resolve(
    program: &Program,
    hierarchy: &ClassHierarchy,
    kind: CallKind,
    sig: &Signature,
) -> CallTarget {
    let Some(nominal) = program.class_by_name(sig.class) else {
        return CallTarget::External(sig.clone());
    };
    // The one copy of the signature this site's lookups re-key by class.
    let mut candidate = sig.clone();
    let mut targets = Vec::new();
    if let Some(m) = program.resolve_method_in(nominal, &mut candidate) {
        targets.push(m);
    }
    if matches!(kind, CallKind::Virtual | CallKind::Interface) {
        // CHA: the statically resolved method plus every override in the
        // subtree.
        for sub in hierarchy.descendants(nominal) {
            candidate.class = program.classes[sub].name;
            if let Some(m) = program.method_by_sig(&candidate) {
                if !targets.contains(&m) {
                    targets.push(m);
                }
            }
        }
    }
    if targets.is_empty() {
        candidate.class = sig.class;
        CallTarget::External(candidate)
    } else {
        CallTarget::Internal(targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_ir::{ClassId, JType, MethodKind, ProgramBuilder, Stmt};

    /// Base/Derived with an override; caller virtual-calls through Base.
    fn fixture() -> (Program, MethodId, MethodId, MethodId) {
        let mut pb = ProgramBuilder::new();
        let base = pb.class("Base").build();
        let derived = pb.class("Derived").extends(base).build();

        let mut mb = pb.method(base, "go");
        let _ = mb.this();
        mb.stmt(Stmt::Return { var: None });
        let base_go = mb.build();

        let mut mb = pb.method(derived, "go");
        let _ = mb.this();
        mb.stmt(Stmt::Return { var: None });
        let derived_go = mb.build();

        let sig = pb.program().methods[base_go].sig.clone();
        let mut mb = pb.method(base, "caller");
        let this = mb.this();
        mb.stmt(Stmt::Call { ret: None, kind: CallKind::Virtual, sig, args: vec![this] });
        mb.stmt(Stmt::Return { var: None });
        let caller = mb.build();

        (pb.finish(), base_go, derived_go, caller)
    }

    #[test]
    fn virtual_call_resolves_to_all_overrides() {
        let (p, base_go, derived_go, caller) = fixture();
        let cg = CallGraph::build(&p);
        let target = cg.site(caller, StmtIdx(0)).unwrap();
        let internal = target.internal();
        assert!(internal.contains(&base_go));
        assert!(internal.contains(&derived_go));
        assert_eq!(internal.len(), 2);
    }

    #[test]
    fn static_call_resolves_exactly() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let mut mb = pb.method(cls, "helper").kind(MethodKind::Static);
        mb.stmt(Stmt::Return { var: None });
        let helper = mb.build();
        let sig = pb.program().methods[helper].sig.clone();
        let mut mb = pb.method(cls, "main").kind(MethodKind::Static);
        mb.stmt(Stmt::Call { ret: None, kind: CallKind::Static, sig, args: vec![] });
        mb.stmt(Stmt::Return { var: None });
        let main = mb.build();
        let p = pb.finish();
        let cg = CallGraph::build(&p);
        assert_eq!(cg.site(main, StmtIdx(0)).unwrap().internal(), &[helper]);
        assert_eq!(cg.callees_of(main), &[helper]);
        assert_eq!(cg.callers_of(helper), &[main]);
    }

    #[test]
    fn unknown_class_is_external() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let ext_cls = pb.intern("android/util/Log");
        let name = pb.intern("d");
        let obj = pb.intern("java/lang/Object");
        let sig = Signature::new(
            ext_cls,
            name,
            vec![JType::Object(obj), JType::Object(obj)],
            JType::Void,
        );
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        let a = mb.local("a", JType::Object(obj));
        mb.stmt(Stmt::Call { ret: None, kind: CallKind::Static, sig, args: vec![a, a] });
        mb.stmt(Stmt::Return { var: None });
        let m = mb.build();
        let p = pb.finish();
        let cg = CallGraph::build(&p);
        assert!(cg.site(m, StmtIdx(0)).unwrap().is_external());
        assert_eq!(cg.external_site_count(), 1);
    }

    #[test]
    fn reachability_includes_transitive_callees() {
        let (p, base_go, derived_go, caller) = fixture();
        let cg = CallGraph::build(&p);
        let reach = cg.reachable_from(&[caller]);
        assert!(reach.contains(&caller));
        assert!(reach.contains(&base_go));
        assert!(reach.contains(&derived_go));
    }

    /// `Program::subtree_of` as it was when every virtual call site called
    /// it: the children map of the whole program rebuilt per call.
    fn subtree_by_rebuild(program: &Program, class: ClassId) -> Vec<ClassId> {
        let mut children: HashMap<ClassId, Vec<ClassId>> = HashMap::new();
        for (id, c) in program.classes.iter_enumerated() {
            if let Some(sup) = c.superclass {
                children.entry(sup).or_default().push(id);
            }
        }
        let mut out = vec![class];
        let mut stack = vec![class];
        while let Some(c) = stack.pop() {
            if let Some(kids) = children.get(&c) {
                for &k in kids {
                    out.push(k);
                    stack.push(k);
                }
            }
        }
        out
    }

    /// `CallGraph::build` as it was before the per-graph hierarchy index:
    /// the reference the indexed build must equal, element order included.
    fn build_by_rebuild(program: &Program) -> CallGraph {
        let resolve = |kind: CallKind, sig: &Signature| -> CallTarget {
            let Some(nominal) = program.class_by_name(sig.class) else {
                return CallTarget::External(sig.clone());
            };
            let mut targets = Vec::new();
            if let Some(m) = program.resolve_method(nominal, sig) {
                targets.push(m);
            }
            if matches!(kind, CallKind::Virtual | CallKind::Interface) {
                for sub in subtree_by_rebuild(program, nominal) {
                    if sub == nominal {
                        continue;
                    }
                    let candidate = Signature { class: program.classes[sub].name, ..sig.clone() };
                    if let Some(m) = program.method_by_sig(&candidate) {
                        if !targets.contains(&m) {
                            targets.push(m);
                        }
                    }
                }
            }
            if targets.is_empty() {
                CallTarget::External(sig.clone())
            } else {
                CallTarget::Internal(targets)
            }
        };
        let mut cg = CallGraph::default();
        for (caller, method) in program.methods.iter_enumerated() {
            for (idx, stmt) in method.body.iter_enumerated() {
                let Stmt::Call { kind, sig, .. } = stmt else { continue };
                let target = resolve(*kind, sig);
                for &t in target.internal() {
                    let list = cg.callees.entry(caller).or_default();
                    if !list.contains(&t) {
                        list.push(t);
                    }
                    let rlist = cg.callers.entry(t).or_default();
                    if !rlist.contains(&caller) {
                        rlist.push(caller);
                    }
                }
                cg.sites.insert((caller, idx), target);
            }
        }
        cg
    }

    /// A three-deep hierarchy under an interface, with sibling overrides
    /// and a branch that inherits — interleaved in class-id order so the
    /// walk's order is visible in the targets:
    ///
    /// ```text
    /// Shape (interface): area
    /// ├─ Round: area            ├─ Flat (no area)      └─ Odd: area
    /// │  ├─ Circle: area        │  └─ Square: area
    /// │  │  └─ Dot: area
    /// │  └─ Oval (no area)
    /// ```
    fn hierarchy_fixture() -> Program {
        let mut pb = ProgramBuilder::new();
        let shape = pb.class("Shape").interface().build();
        let round = pb.class("Round").extends(shape).build();
        let flat = pb.class("Flat").extends(shape).build();
        let circle = pb.class("Circle").extends(round).build();
        let square = pb.class("Square").extends(flat).build();
        let odd = pb.class("Odd").extends(shape).build();
        let dot = pb.class("Dot").extends(circle).build();
        let oval = pb.class("Oval").extends(round).build();
        for class in [shape, round, circle, square, odd, dot] {
            let mut mb = pb.method(class, "area");
            let _ = mb.this();
            mb.stmt(Stmt::Return { var: None });
            mb.build();
        }
        // One driver calls `area` through every nominal class, virtually,
        // through the interface, and (resolved up the chain) directly.
        let area = pb.intern("area");
        let mut mb = pb.method(shape, "driver");
        let this = mb.this();
        for class in [shape, round, flat, circle, square, odd, dot, oval] {
            let name = mb.pb_program().classes[class].name;
            for kind in [CallKind::Virtual, CallKind::Interface, CallKind::Direct] {
                let sig = Signature::new(name, area, vec![], JType::Void);
                mb.stmt(Stmt::Call { ret: None, kind, sig, args: vec![this] });
            }
        }
        mb.stmt(Stmt::Return { var: None });
        mb.build();
        pb.finish()
    }

    #[test]
    fn indexed_build_equals_the_per_site_rebuild() {
        let mut programs = vec![hierarchy_fixture()];
        for seed in [31337, 31338, 31339] {
            programs
                .push(gdroid_apk::generate_app(0, seed, &gdroid_apk::GenConfig::tiny()).program);
        }
        for program in &programs {
            let (got, want) = (CallGraph::build(program), build_by_rebuild(program));
            assert_eq!(got.sites, want.sites);
            assert_eq!(got.callees, want.callees);
            assert_eq!(got.callers, want.callers);
        }
    }

    #[test]
    fn cha_lists_overrides_in_hierarchy_walk_order() {
        let p = hierarchy_fixture();
        let cg = CallGraph::build(&p);
        let driver = p.methods.iter_enumerated().last().expect("driver is built last").0;
        let names = |stmt: usize| -> Vec<&str> {
            cg.site(driver, StmtIdx(stmt as u32))
                .expect("a call site")
                .internal()
                .iter()
                .map(|&m| {
                    let class = p.class_by_name(p.methods[m].sig.class).expect("declared");
                    p.interner.resolve(p.classes[class].name)
                })
                .collect()
        };
        // Virtual through Shape: Shape's own, then its direct subclasses by
        // id (Flat declares none), then the subtree of the *last* pushed
        // one first — the order the original stack walk produced.
        assert_eq!(names(0), ["Shape", "Round", "Odd", "Square", "Circle", "Dot"]);
        // Through Flat, `area` resolves up to Shape and down to Square.
        assert_eq!(names(6), ["Shape", "Square"]);
        // A direct call sees no overrides.
        assert_eq!(names(2), ["Shape"]);
    }

    #[test]
    fn corpus_apps_have_resolvable_sites() {
        let app = gdroid_apk::generate_app(0, 31337, &gdroid_apk::GenConfig::tiny());
        let cg = CallGraph::build(&app.program);
        assert!(cg.site_count() > 0);
        // Both internal and external calls appear.
        assert!(cg.external_site_count() > 0);
        assert!(cg.site_count() > cg.external_site_count());
    }
}
