//! The conventional full-sweep iterative solver — the algorithmic baseline
//! the paper's related work contrasts the worklist algorithm against
//! (§VI): *"The conventional iterative search algorithm visits each ICFG
//! node once in one iteration, and keeps iterating until no further
//! changes occur to the data-flow sets… it has large redundancy and slow
//! convergence due to the fixed full workload in each iteration."*
//!
//! Functionally it reaches the same unique fixed point as the worklist
//! solver (tested); its node-processing count quantifies exactly the
//! redundancy the worklist formulation removes.

use crate::fact::MethodSpace;
use crate::solver::{merge_site_summaries, WorklistTelemetry};
use crate::store::{FactStore, Geometry};
use crate::summary::SummaryMap;
use crate::transfer::{CallResolution, TransferCtx};
use gdroid_icfg::{CallGraph, Cfg};
use gdroid_ir::{MethodId, Program};

/// Solves one method by repeated full sweeps over all CFG nodes until no
/// fact set changes. Drop-in comparable to
/// [`crate::solver::solve_method`]; `rounds` counts full sweeps and
/// `nodes_processed` the total (fixed `sweeps × nodes`) workload.
pub fn solve_method_sweep<S: FactStore>(
    program: &Program,
    mid: MethodId,
    space: &MethodSpace,
    cfg: &Cfg,
    store: &mut S,
    summaries: &SummaryMap,
    cg: &CallGraph,
) -> WorklistTelemetry {
    let method = &program.methods[mid];
    let mut telemetry = WorklistTelemetry::default();
    let words = Geometry::of(space).words();
    telemetry.words_per_node = words;

    store.seed(cfg.entry() as usize, &space.entry_facts(method));
    let site_summaries = merge_site_summaries(program, mid, summaries, cg);
    let resolve = |idx: gdroid_ir::StmtIdx| match site_summaries.get(&idx) {
        Some(Some(s)) => CallResolution::Summary(s),
        _ => CallResolution::External,
    };
    let ctx = TransferCtx { method, space, resolve_call: &resolve };

    loop {
        telemetry.rounds += 1;
        telemetry.round_sizes.push(cfg.len() as u32);
        telemetry.max_worklist = telemetry.max_worklist.max(cfg.len());
        let mut changed = false;
        // One full sweep: every node, in order.
        for node in 0..cfg.len() as u32 {
            telemetry.nodes_processed += 1;
            telemetry.word_ops += words;
            let input = store.snapshot(node as usize);
            let (out, effort) = match cfg.stmt_of(node) {
                Some(stmt_idx) => ctx.transfer(stmt_idx, input.view()),
                None => (input, Default::default()),
            };
            telemetry.rows_read += effort.rows_read;
            telemetry.facts_written += effort.facts_written;
            for &succ in cfg.succ(node) {
                telemetry.unions += 1;
                telemetry.word_ops += words;
                let outcome = store.union_into(succ as usize, &out);
                telemetry.facts_inserted += outcome.inserted;
                telemetry.reallocations += outcome.reallocations;
                changed |= outcome.changed;
            }
        }
        if !changed {
            break;
        }
    }
    telemetry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_method;
    use crate::store::MatrixStore;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_icfg::prepare_app;

    #[test]
    fn sweep_matches_worklist_fixed_point() {
        let mut app = generate_app(0, 1771, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let methods = cg.reachable_from(&roots);
        let summaries = SummaryMap::new();
        for &mid in methods.iter().take(8) {
            let space = MethodSpace::build(&app.program, mid);
            let cfg = Cfg::build(&app.program.methods[mid]);
            let mut wl = MatrixStore::new(Geometry::of(&space), cfg.len());
            solve_method(&app.program, mid, &space, &cfg, &mut wl, &summaries, &cg);
            let mut sw = MatrixStore::new(Geometry::of(&space), cfg.len());
            solve_method_sweep(&app.program, mid, &space, &cfg, &mut sw, &summaries, &cg);
            for node in 0..cfg.len() {
                assert_eq!(
                    wl.snapshot(node).words(),
                    sw.snapshot(node).words(),
                    "sweep diverges from worklist at {mid:?} node {node}"
                );
            }
        }
    }

    /// The paper's §VI claim — "the conventional algorithm has large
    /// redundancy … due to the fixed full workload in each iteration" —
    /// shows on the workload shape that triggers it: a long straight-line
    /// prefix feeding a small loop that needs several waves to converge.
    /// Every wave re-sweeps the whole prefix; the worklist only revisits
    /// the loop. (On small branch-free bodies an in-order sweep is
    /// near-optimal, so a corpus-wide comparison is method-shape-dependent;
    /// see EXPERIMENTS.md.)
    #[test]
    fn sweep_is_redundant_on_loop_tails() {
        use gdroid_ir::{Expr, JType, Lhs, MethodKind, ProgramBuilder, Stmt, StmtIdx};
        let mut pb = ProgramBuilder::new();
        let obj = pb.class("java/lang/Object").build();
        let obj_sym = pb.program().classes[obj].name;
        let cls = pb.class("T").extends(obj).build();
        let f = pb.field(cls, "f", JType::Object(obj_sym), false);
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        let a = mb.local("a", JType::Object(obj_sym));
        let cond = mb.local("c", JType::Int);
        // A reverse copy chain inside the loop: facts advance one hop per
        // wave, so the fixed point needs as many waves as the chain is
        // long — and every wave re-sweeps the whole prefix.
        let chain: Vec<_> =
            (0..12).map(|i| mb.local(&format!("b{i}"), JType::Object(obj_sym))).collect();
        // Long straight-line prefix.
        for _ in 0..120 {
            mb.stmt(Stmt::Assign { lhs: Lhs::Var(a), rhs: Expr::Access { base: a, field: f } });
        }
        let head = mb.next_idx();
        let exit = mb.stmt(Stmt::If { cond, target: StmtIdx(0) });
        for i in 0..chain.len() - 1 {
            mb.stmt(Stmt::Assign { lhs: Lhs::Var(chain[i]), rhs: Expr::Var(chain[i + 1]) });
        }
        let lastv = *chain.last().unwrap();
        mb.stmt(Stmt::Assign {
            lhs: Lhs::Var(lastv),
            rhs: Expr::New { ty: JType::Object(obj_sym) },
        });
        mb.stmt(Stmt::Goto { target: head });
        let end = mb.next_idx();
        mb.patch_target(exit, end).expect("exit is an If");
        mb.stmt(Stmt::Return { var: None });
        let mid = mb.build();
        let program = pb.finish();
        let cg = CallGraph::build(&program);
        let summaries = SummaryMap::new();
        let space = MethodSpace::build(&program, mid);
        let cfg = Cfg::build(&program.methods[mid]);

        let mut wl = MatrixStore::new(Geometry::of(&space), cfg.len());
        let worklist =
            solve_method(&program, mid, &space, &cfg, &mut wl, &summaries, &cg).nodes_processed;
        let mut sw = MatrixStore::new(Geometry::of(&space), cfg.len());
        let sweep = solve_method_sweep(&program, mid, &space, &cfg, &mut sw, &summaries, &cg)
            .nodes_processed;
        assert!(
            sweep > worklist * 2,
            "sweep {sweep} should far exceed worklist {worklist} on loop tails"
        );
        // Same fixed point regardless.
        for node in 0..cfg.len() {
            assert_eq!(wl.snapshot(node).words(), sw.snapshot(node).words());
        }
    }

    #[test]
    fn sweep_rounds_are_full_width() {
        let mut app = generate_app(0, 1773, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let mid = envs[0].method;
        let space = MethodSpace::build(&app.program, mid);
        let cfg = Cfg::build(&app.program.methods[mid]);
        let mut store = MatrixStore::new(Geometry::of(&space), cfg.len());
        let summaries = SummaryMap::new();
        let tele = solve_method_sweep(&app.program, mid, &space, &cfg, &mut store, &summaries, &cg);
        assert!(tele.rounds >= 2, "needs at least a change sweep and a quiescent sweep");
        assert!(tele.round_sizes.iter().all(|&s| s as usize == cfg.len()));
        assert_eq!(tele.nodes_processed, tele.rounds * cfg.len());
    }
}
