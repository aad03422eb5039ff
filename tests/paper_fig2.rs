//! Reconstructs the paper's Fig. 2 walkthrough: a small ICFG whose
//! worklist evolves `{entry} → {L1} → {L2, L4} → {L3, L5} → {L6} → {L7} →
//! {…, L1} → {…, L2, L4}` — i.e. a branch producing a two-node frontier
//! and a back edge from L7 to L1 forcing re-visits until the data-fact
//! sets reach their fixed point.

use gdroid::analysis::{
    solve_method, Fact, Geometry, Instance, MatrixStore, MethodSpace, Slot, SummaryMap,
};
use gdroid::icfg::{CallGraph, Cfg};
use gdroid::ir::{Expr, JType, Lhs, MethodKind, ProgramBuilder, Stmt, StmtIdx};

/// Builds the Fig. 2-shaped method:
///
/// ```text
/// L0: x = new A          (L1 in the figure)
/// L1: if c goto L4       (branch: the {L2, L4} frontier)
/// L2: y = x              (then-arm)
/// L3: goto L5
/// L4: z = x              (else-arm)
/// L5: w.f = y            (join, heap write — facts grow across visits)
/// L6: if c2 goto L8      (loop exit test)
/// L7: goto L0            (back edge: L1 re-inserted, as in the figure)
/// L8: return
/// ```
fn build_fig2() -> (gdroid::ir::Program, gdroid::ir::MethodId) {
    let mut pb = ProgramBuilder::new();
    let obj = pb.class("java/lang/Object").build();
    let obj_sym = pb.program().classes[obj].name;
    let cls = pb.class("Fig2").extends(obj).build();
    let f = pb.field(cls, "f", JType::Object(obj_sym), false);

    let mut mb = pb.method(cls, "sample").kind(MethodKind::Static);
    let x = mb.local("x", JType::Object(obj_sym));
    let y = mb.local("y", JType::Object(obj_sym));
    let z = mb.local("z", JType::Object(obj_sym));
    let w = mb.local("w", JType::Object(obj_sym));
    let c = mb.local("c", JType::Int);
    let c2 = mb.local("c2", JType::Int);

    mb.stmt(Stmt::Assign { lhs: Lhs::Var(x), rhs: Expr::New { ty: JType::Object(obj_sym) } }); // L0
    let br = mb.stmt(Stmt::If { cond: c, target: StmtIdx(0) }); // L1
    mb.stmt(Stmt::Assign { lhs: Lhs::Var(y), rhs: Expr::Var(x) }); // L2
    let skip = mb.stmt(Stmt::Goto { target: StmtIdx(0) }); // L3
    let else_at = mb.next_idx();
    mb.patch_target(br, else_at).expect("br is a branch");
    mb.stmt(Stmt::Assign { lhs: Lhs::Var(z), rhs: Expr::Var(x) }); // L4
    let join = mb.next_idx();
    mb.patch_target(skip, join).expect("skip is a goto");
    mb.stmt(Stmt::Assign { lhs: Lhs::Field { base: w, field: f }, rhs: Expr::Var(y) }); // L5
    let exit_if = mb.stmt(Stmt::If { cond: c2, target: StmtIdx(0) }); // L6
    mb.stmt(Stmt::Goto { target: StmtIdx(0) }); // L7 (back edge)
    let end = mb.next_idx();
    mb.patch_target(exit_if, end).expect("exit_if is a branch");
    mb.stmt(Stmt::Return { var: None }); // L8
    let mid = mb.build();

    // Seed w with a second object so the heap write at L5 has a receiver.
    // (w starts null otherwise; give it an allocation before the loop.)
    // Rebuild with that statement is complex post-hoc, so instead assert on
    // x/y flow which is the figure's point.
    (pb.finish(), mid)
}

#[test]
fn fig2_worklist_dynamics() {
    let (program, mid) = build_fig2();
    let cg = CallGraph::build(&program);
    let space = MethodSpace::build(&program, mid);
    let cfg = Cfg::build(&program.methods[mid]);
    let mut store = MatrixStore::new(Geometry::of(&space), cfg.len());
    let summaries = SummaryMap::new();
    let telemetry = solve_method(&program, mid, &space, &cfg, &mut store, &summaries, &cg);

    // Revisits happened: the back edge forces more processings than nodes.
    assert!(
        telemetry.nodes_processed > cfg.len(),
        "no revisits: {} processings for {} nodes",
        telemetry.nodes_processed,
        cfg.len()
    );
    // The branch produces a ≥2-wide frontier ({L2, L4} in the figure).
    assert!(telemetry.max_worklist >= 2, "frontier never widened: {}", telemetry.max_worklist);
    // Multiple worklist generations, as the figure's eight snapshots show.
    assert!(telemetry.rounds >= 6, "too few rounds: {}", telemetry.rounds);
}

#[test]
fn fig2_facts_flow_into_both_arms_and_survive_the_loop() {
    let (program, mid) = build_fig2();
    let cg = CallGraph::build(&program);
    let space = MethodSpace::build(&program, mid);
    let cfg = Cfg::build(&program.methods[mid]);
    let mut store = MatrixStore::new(Geometry::of(&space), cfg.len());
    let summaries = SummaryMap::new();
    solve_method(&program, mid, &space, &cfg, &mut store, &summaries, &cg);

    let alloc = space.instance(Instance::Alloc(StmtIdx(0))).unwrap();
    let x_slot = space.slot(Slot::Local(gdroid::ir::VarId(0))).unwrap();
    let y_slot = space.slot(Slot::Local(gdroid::ir::VarId(1))).unwrap();
    let z_slot = space.slot(Slot::Local(gdroid::ir::VarId(2))).unwrap();

    // At the return node, x, y, AND z all point to the L0 allocation —
    // facts flowed down both arms and around the loop.
    let ret_node = cfg.node_of(StmtIdx(8));
    let facts = store.snapshot(ret_node as usize);
    assert!(facts.get(Fact { slot: x_slot, instance: alloc }), "x lost its allocation");
    assert!(facts.get(Fact { slot: y_slot, instance: alloc }), "then-arm fact missing at exit");
    assert!(facts.get(Fact { slot: z_slot, instance: alloc }), "else-arm fact missing at exit");
}
