//! Tier-1 equivalence gate for the cross-app summary store.
//!
//! Over a 20-app corpus sharing a library pool at duplication factor 4,
//! the store must be *behaviorally invisible*: the IDFG fact sets and the
//! taint verdicts of every app are byte-identical whether the store is
//! disabled, cold (first sweep, populating), or warm (second sweep,
//! fully pre-solving) — while the warm sweep demonstrably pre-solves
//! library methods (hits > 0, strictly less modeled IDFG time).

use gdroid::analysis::AppAnalysis;
use gdroid::apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::ir::MethodId;
use gdroid::sumstore::SumStore;
use gdroid::vetting::{
    execute, prepare_vetting, vet_prepared, ExecCtx, ExecPlan, PreparedApp, StoreUse, VettingRun,
};

const APPS: usize = 20;
const LIBS_PER_APP: usize = 3;
const DUP: usize = 4;

/// Sorted `(method, packed fact words)` pairs — a total, order-independent
/// digest of every IDFG fact the analysis derived.
fn facts_digest(analysis: &AppAnalysis) -> Vec<(MethodId, Vec<u64>)> {
    let mut out: Vec<(MethodId, Vec<u64>)> =
        analysis.facts.iter().map(|(&m, f)| (m, f.flat_words())).collect();
    out.sort();
    out
}

/// Full GDroid on a fresh device against `store`.
fn with_store(prep: &PreparedApp, store: &SumStore) -> (VettingRun, StoreUse) {
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let ctx = &mut ExecCtx { store: Some(store), ..ExecCtx::new(&mut device) };
    let done = execute(prep, ExecPlan::default(), ctx).expect("a fresh device has no fault plan");
    (done.run, done.store_use.expect("a store was attached"))
}

#[test]
fn store_is_behaviorally_invisible_across_cold_and_warm_sweeps() {
    let pool = APPS * LIBS_PER_APP / DUP;
    let cfg = GenConfig::tiny().with_libraries(LIBS_PER_APP, pool);
    let preps: Vec<PreparedApp> = (0..APPS)
        .map(|i| prepare_vetting(generate_app(i, PAPER_MASTER_SEED ^ i as u64, &cfg)))
        .collect();

    // Reference sweep: the store disabled entirely.
    let disabled: Vec<_> = preps.iter().map(|p| vet_prepared(p, ExecPlan::default())).collect();

    let store = SumStore::new();
    let cold: Vec<_> = preps.iter().map(|p| with_store(p, &store)).collect();
    let after_cold = store.stats();
    let warm: Vec<_> = preps.iter().map(|p| with_store(p, &store)).collect();
    let after_warm = store.stats();

    let mut warm_hits = 0;
    for (i, ((base, (cold_run, cold_use)), (warm_run, warm_use))) in
        disabled.iter().zip(&cold).zip(&warm).enumerate()
    {
        // Taint verdicts: the full report JSON, byte for byte.
        let report = base.outcome.report.to_json();
        assert_eq!(report, cold_run.outcome.report.to_json(), "cold verdict drift, app {i}");
        assert_eq!(report, warm_run.outcome.report.to_json(), "warm verdict drift, app {i}");

        // IDFG fact sets: every method's packed words, byte for byte.
        let facts = facts_digest(&base.analysis);
        assert_eq!(facts, facts_digest(&cold_run.analysis), "cold fact drift, app {i}");
        assert_eq!(facts, facts_digest(&warm_run.analysis), "warm fact drift, app {i}");

        // The warm sweep can only pre-solve more, never less.
        assert!(warm_use.hits >= cold_use.hits, "warm lost hits on app {i}");
        warm_hits += warm_use.hits;
    }

    assert!(warm_hits > 0, "warm sweep never hit the store");
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "an unchanged corpus must re-summarize nothing"
    );

    let cold_ns: f64 = cold.iter().map(|(r, _)| r.outcome.timing.idfg_ns).sum();
    let warm_ns: f64 = warm.iter().map(|(r, _)| r.outcome.timing.idfg_ns).sum();
    assert!(
        warm_ns < cold_ns,
        "warm modeled IDFG time {warm_ns} ns must undercut cold {cold_ns} ns"
    );
}

/// An app-local-only update must never re-summarize library code: the
/// changed method (and its transitive callers) miss, but every `com/lib/`
/// method still pre-solves from the store.
#[test]
fn app_local_update_resummarizes_no_library_methods() {
    use gdroid::ir::{Expr, Lhs, Stmt, StmtIdx};

    let cfg = GenConfig::tiny().with_libraries(3, 3);
    let store = SumStore::new();

    let prep = prepare_vetting(generate_app(0, 7777, &cfg));
    let (_, cold_use) = with_store(&prep, &store);
    assert!(cold_use.misses > 0, "cold run must populate the store");

    // The same app regenerated, then one *app-local* method updated before
    // prep: its final return is preceded by a fresh allocation — a genuine
    // data-fact change confined to app code.
    let mut app = generate_app(0, 7777, &cfg);
    let victim = app
        .program
        .methods
        .iter_enumerated()
        .find(|(_, m)| {
            !app.program.interner.resolve(m.sig.class).starts_with("com/lib/")
                && m.vars.iter().any(|d| d.ty.is_reference())
                && !m.is_empty()
        })
        .map(|(id, _)| id)
        .expect("an app-local method with a reference-typed local");
    {
        let method = &mut app.program.methods[victim];
        let ref_var = method
            .vars
            .iter_enumerated()
            .find(|(_, d)| d.ty.is_reference())
            .map(|(v, _)| v)
            .expect("checked above");
        let ty = method.vars[ref_var].ty;
        let last = StmtIdx::new(method.body.len() - 1);
        let ret = method.body[last].clone();
        method.body[last] = Stmt::Assign { lhs: Lhs::Var(ref_var), rhs: Expr::New { ty } };
        method.body.push(ret);
    }
    app.program.rebuild_lookups();

    let prep2 = prepare_vetting(app);
    let (_, warm_use) = with_store(&prep2, &store);

    assert!(warm_use.hits > 0, "unchanged library methods must pre-solve");
    assert!(warm_use.misses > 0, "the update must re-summarize the changed code");
    for &m in &warm_use.missed_methods {
        let class = prep2.app.program.interner.resolve(prep2.app.program.methods[m].sig.class);
        assert!(
            !class.starts_with("com/lib/"),
            "library method of {class} was re-summarized after an app-local-only change"
        );
    }
}
