//! Incremental re-analysis across app updates.
//!
//! The paper's introduction motivates GPU acceleration with update
//! pressure: *"most popular Apps update weekly or even daily."* Successive
//! versions share most of their code, and SBDA gives a natural incremental
//! unit: a method's facts depend only on its own body and its callees'
//! summaries. This module re-analyzes an updated program by solving, in
//! bottom-up order, only
//!
//! * methods whose bodies changed, and
//! * methods whose (transitive) callees' *summaries* changed —
//!
//! reusing the previous run's facts for everything else. The result is
//! bit-identical to a from-scratch analysis (tested), typically at a small
//! fraction of the work.

use crate::solver::{drive, AppAnalysis, StoreKind};
use gdroid_icfg::CallGraph;
use gdroid_ir::{MethodId, Program};
use std::collections::HashSet;

/// Work accounting of an incremental run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Methods actually re-solved.
    pub resolved: usize,
    /// Methods whose previous facts and summary were reused verbatim.
    pub reused: usize,
}

/// Re-analyzes `program` (the updated version) given the previous run.
///
/// `changed` lists the methods whose bodies differ from the previous
/// version. Methods not in `changed` must be body-identical between the
/// two versions (the caller guarantees this — e.g. by diffing `.jil`
/// text); their facts and summaries are reused unless a callee's summary
/// changed.
pub fn analyze_app_incremental(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    prev: &AppAnalysis,
    changed: &[MethodId],
) -> (AppAnalysis, IncrementalStats) {
    let changed: HashSet<MethodId> = changed.iter().copied().collect();
    let analysis = drive(program, cg, roots, StoreKind::Matrix, |scc, below| {
        // Dirtiness propagates bottom-up through the summaries themselves:
        // a callee below this SCC is dirty iff what it published differs
        // from the previous run (a reused callee published the previous
        // summary; a same-SCC callee has published nothing yet).
        let dirty = |c: &MethodId| below.get(c).is_some_and(|s| prev.summaries.get(c) != Some(s));
        if scc.iter().any(|m| changed.contains(m) || cg.callees_of(*m).iter().any(dirty)) {
            return None;
        }
        // Methods absent from the previous run have nothing to reuse.
        scc.iter().map(|m| Some((prev.summaries.get(m)?, prev.facts.get(m)?))).collect()
    });
    let resolved = analysis.per_method.len();
    let stats = IncrementalStats { resolved, reused: analysis.facts.len() - resolved };
    (analysis, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{analyze_app, analyze_app_presolved};
    use crate::store::FactStore;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_icfg::prepare_app;
    use gdroid_ir::{Expr, JType, Lhs, Stmt};
    use std::collections::HashMap;

    /// Simulates an app update: appends `x = new T` into one method whose
    /// body ends with a return, re-deriving the call graph.
    fn update_one_method(app: &gdroid_apk::App, victim: MethodId) -> Program {
        let mut program = app.program.clone();
        let method = &mut program.methods[victim];
        // Replace the final return with: alloc into the first ref var,
        // then return — a genuine data-fact change.
        let ret = method.body[gdroid_ir::StmtIdx::new(method.len() - 1)].clone();
        let ref_var = method
            .vars
            .iter_enumerated()
            .find(|(_, d)| d.ty.is_reference())
            .map(|(v, _)| v)
            .expect("method has a ref var");
        let ty = method.vars.iter().find(|d| d.ty.is_reference()).map(|d| d.ty).unwrap();
        let body = &mut method.body;
        // Overwrite the return slot with the new statement and re-append
        // the return.
        let last = gdroid_ir::StmtIdx::new(body.len() - 1);
        body[last] = Stmt::Assign { lhs: Lhs::Var(ref_var), rhs: Expr::New { ty } };
        body.push(ret);
        let _ = JType::Int;
        program.rebuild_lookups();
        program
    }

    #[test]
    fn incremental_matches_full_reanalysis() {
        let mut app = generate_app(0, 4242, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let prev = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);

        // Update a leaf-ish method.
        let victim =
            *prev.schedule.first().and_then(|l| l.first()).expect("at least one scheduled method");
        let updated = update_one_method(&app, victim);
        let cg2 = gdroid_icfg::CallGraph::build(&updated);

        let full = analyze_app(&updated, &cg2, &roots, StoreKind::Matrix);
        let (incr, stats) = analyze_app_incremental(&updated, &cg2, &roots, &prev, &[victim]);

        assert_eq!(incr.summaries, full.summaries, "summaries diverge");
        for (mid, f) in &full.facts {
            let i = &incr.facts[mid];
            for node in 0..f.node_count() {
                assert_eq!(
                    f.snapshot(node).words(),
                    i.snapshot(node).words(),
                    "facts diverge at {mid:?} node {node}"
                );
            }
        }
        assert!(stats.reused > 0, "nothing was reused");
        assert!(stats.resolved >= 1);
        assert!(
            stats.resolved < stats.resolved + stats.reused,
            "incremental run did everything from scratch"
        );
    }

    #[test]
    fn unchanged_update_reuses_everything() {
        let mut app = generate_app(0, 4243, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let prev = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
        let (incr, stats) = analyze_app_incremental(&app.program, &cg, &roots, &prev, &[]);
        assert_eq!(stats.resolved, 0);
        assert_eq!(stats.reused, prev.facts.len());
        assert_eq!(incr.summaries, prev.summaries);
    }

    #[test]
    fn dirtiness_propagates_to_callers() {
        let mut app = generate_app(0, 4244, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let prev = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);

        // Pick a method that actually has callers.
        let victim = prev
            .schedule
            .iter()
            .flatten()
            .copied()
            .find(|m| !cg.callers_of(*m).is_empty())
            .expect("some method has callers");
        let updated = update_one_method(&app, victim);
        let cg2 = gdroid_icfg::CallGraph::build(&updated);
        let full = analyze_app(&updated, &cg2, &roots, StoreKind::Matrix);
        let (incr, stats) = analyze_app_incremental(&updated, &cg2, &roots, &prev, &[victim]);
        assert_eq!(incr.summaries, full.summaries);
        // The victim was re-solved; callers only if its summary changed.
        assert!(stats.resolved >= 1);
    }

    fn assert_same_results(row: &str, got: &AppAnalysis, want: &AppAnalysis) {
        assert_eq!(got.summaries, want.summaries, "{row}: summaries");
        assert_eq!(got.facts.len(), want.facts.len(), "{row}: fact-map size");
        for (mid, facts) in &want.facts {
            assert_eq!(got.facts[mid].flat_words(), facts.flat_words(), "{row}: facts at {mid:?}");
        }
    }

    fn assert_same_telemetry(row: &str, got: &AppAnalysis, want: &AppAnalysis) {
        assert_eq!(format!("{:?}", got.telemetry), format!("{:?}", want.telemetry), "{row}");
        assert_eq!(got.per_method.len(), want.per_method.len(), "{row}: per-method size");
        for (mid, t) in &want.per_method {
            assert_eq!(format!("{:?}", got.per_method[mid]), format!("{t:?}"), "{row}: {mid:?}");
        }
    }

    /// The one driver under every hook: {cold, callee-closed pre-solved
    /// bottom half} × {Set, Matrix} × {full, incremental with nothing /
    /// one leaf / everything changed}, on an app whose recursion forces SCC
    /// re-iteration.
    #[test]
    fn one_driver_table_agrees_with_a_cold_run() {
        let config = GenConfig { recursion_prob: 0.5, ..GenConfig::tiny() };
        let mut app = generate_app(0, 0x5cc, &config);
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let layers = gdroid_icfg::CallLayers::compute(&cg, &roots);
        assert!(layers.scc_members.iter().any(|m| m.len() > 1), "no multi-member SCC generated");
        let count = layers.method_count();
        let cold_matrix = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);

        // Calls only go down (or stay inside an SCC), so the bottom half of
        // the layers is callee-closed.
        let cut = (layers.layer_count() / 2) as u32;
        let bottom: HashMap<_, _> = layers
            .scc_of
            .keys()
            .filter(|&&m| layers.layer_of(m).unwrap() < cut)
            .map(|&m| (m, (cold_matrix.summaries[&m].clone(), cold_matrix.facts[&m].clone())))
            .collect();
        assert!(!bottom.is_empty() && bottom.len() < count);

        let leaf = layers.layers[0][0];
        let updated = update_one_method(&app, leaf);
        let cg2 = gdroid_icfg::CallGraph::build(&updated);
        let cold_updated = analyze_app(&updated, &cg2, &roots, StoreKind::Matrix);
        let everything: Vec<MethodId> = layers.scc_of.keys().copied().collect();

        for kind in [StoreKind::Set, StoreKind::Matrix] {
            let cold = analyze_app(&app.program, &cg, &roots, kind);
            assert_same_results(&format!("{kind:?} cold"), &cold, &cold_matrix);
            for (label, presolved) in [("cold", HashMap::new()), ("presolved", bottom.clone())] {
                let row = format!("{kind:?} {label}");
                let full = analyze_app_presolved(&app.program, &cg, &roots, kind, &presolved);
                assert_same_results(&format!("{row} full"), &full, &cold);
                assert_eq!(full.per_method.len(), count - presolved.len(), "{row}: solved");
                if presolved.is_empty() {
                    assert_same_telemetry(&format!("{row} full"), &full, &cold);
                    assert_eq!(full.store_bytes, cold.store_bytes, "{row}");
                }

                let incremental = |program, cg, changed: &[MethodId]| {
                    let (incr, stats) =
                        analyze_app_incremental(program, cg, &roots, &full, changed);
                    assert_eq!(stats.resolved + stats.reused, count, "{row}: {changed:?}");
                    (incr, stats)
                };
                let (same, stats) = incremental(&app.program, &cg, &[]);
                assert_same_results(&format!("{row} unchanged"), &same, &cold);
                assert_eq!((stats.resolved, stats.reused), (0, count), "{row} unchanged");

                let (one, stats) = incremental(&updated, &cg2, &[leaf]);
                assert_same_results(&format!("{row} one leaf"), &one, &cold_updated);
                assert!(stats.resolved >= 1 && stats.reused > 0, "{row} one leaf: {stats:?}");

                let (all, stats) = incremental(&app.program, &cg, &everything);
                assert_same_results(&format!("{row} everything"), &all, &cold);
                assert_eq!(stats.reused, 0, "{row} everything");
                assert_same_telemetry(&format!("{row} everything"), &all, &cold_matrix);
                assert_eq!(all.store_bytes, cold_matrix.store_bytes, "{row} everything");
            }
        }
    }
}
