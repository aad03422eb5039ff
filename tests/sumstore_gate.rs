//! Tier-1 equivalence gate for the cross-app summary store.
//!
//! A store is built once, before the runs that read it, and no run writes
//! it. Over a 20-app corpus sharing a library pool at duplication factor
//! 4, the store must be *behaviorally invisible*: the IDFG fact sets and
//! the taint verdicts of every app are byte-identical whether the store is
//! disabled, the corpus's library store (cold), or the union of what the
//! cold runs solved (warm) — while both pre-solve (hits > 0, strictly less
//! modeled IDFG time).

use gdroid::analysis::AppAnalysis;
use gdroid::apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::ir::MethodId;
use gdroid::sumstore::SumStore;
use gdroid::vetting::{
    execute, library_store, prepare_vetting, summary_store, vet_prepared, ExecCtx, ExecPlan,
    PreparedApp, StoreUse, VettingRun,
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

fn corpus(cfg: &GenConfig, apps: usize) -> Vec<PreparedApp> {
    (0..apps).map(|i| prepare_vetting(generate_app(i, PAPER_MASTER_SEED ^ i as u64, cfg))).collect()
}

fn is_library(prep: &PreparedApp, mid: MethodId) -> bool {
    let program = &prep.app.program;
    program.interner.resolve(program.methods[mid].sig.class).starts_with("com/lib/")
}

#[test]
fn store_is_behaviorally_invisible_across_cold_and_warm_sweeps() {
    let cfg = GenConfig::tiny().with_libraries(LIBS_PER_APP, APPS * LIBS_PER_APP / DUP);
    let preps = corpus(&cfg, APPS);

    // Reference sweep: the store disabled entirely.
    let disabled: Vec<_> = preps.iter().map(|p| vet_prepared(p, ExecPlan::default())).collect();

    let library = library_store(&cfg);
    let entries = library.len();
    let cold: Vec<_> = preps.iter().map(|p| with_store(p, &library)).collect();
    assert_eq!(library.len(), entries, "a run wrote the library store");
    let mut solved = SumStore::new();
    for (prep, (run, _)) in preps.iter().zip(&cold) {
        solved.absorb(summary_store(prep, &run.analysis));
    }
    let warm: Vec<_> = preps.iter().map(|p| with_store(p, &solved)).collect();

    let mut cold_hits = 0;
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

        // What the cold sweep solved pre-solves everything.
        assert_eq!(warm_use.misses, 0, "an unchanged corpus must re-summarize nothing, app {i}");
        assert!(warm_use.hits >= cold_use.hits, "warm lost hits on app {i}");
        cold_hits += cold_use.hits;
    }
    assert!(cold_hits > 0, "cold sweep never hit the library store");

    let idfg = |runs: &[&VettingRun]| runs.iter().map(|r| r.outcome.timing.idfg_ns).sum::<f64>();
    let disabled_ns = idfg(&disabled.iter().collect::<Vec<_>>());
    let cold_ns = idfg(&cold.iter().map(|(r, _)| r).collect::<Vec<_>>());
    let warm_ns = idfg(&warm.iter().map(|(r, _)| r).collect::<Vec<_>>());
    assert!(cold_ns < disabled_ns, "cold {cold_ns} ns must undercut disabled {disabled_ns} ns");
    assert!(warm_ns < cold_ns, "warm {warm_ns} ns must undercut cold {cold_ns} ns");
}

/// The library store is complete before the first job: every reachable
/// library method of every app — the first app to bundle a package
/// included — is pre-solved, no app method is, and every report equals a
/// store-free run's.
#[test]
fn every_reachable_library_method_hits_the_library_store_from_the_first_app() {
    let cfg = GenConfig::tiny().with_libraries(3, 6);
    let library = library_store(&cfg);
    let mut hits = 0;
    for (i, prep) in corpus(&cfg, 12).iter().enumerate() {
        let (run, used) = with_store(prep, &library);
        for &m in &used.missed_methods {
            assert!(!is_library(prep, m), "app {i}: library method {m:?} missed");
        }
        assert!(used.hit_methods.iter().all(|&m| is_library(prep, m)), "app {i}");
        assert_eq!(used.reloc_failures, 0, "app {i}");
        let disabled = vet_prepared(prep, ExecPlan::default());
        assert_eq!(run.outcome.report.to_json(), disabled.outcome.report.to_json(), "app {i}");
        hits += used.hits;
    }
    assert!(hits > 0, "no app reached a library method");
}

/// An app-local-only update must never re-summarize library code: against
/// the library store plus the previous version's summary store, the
/// changed method (and its transitive callers) miss, but every `com/lib/`
/// method still pre-solves.
#[test]
fn app_local_update_resummarizes_no_library_methods() {
    use gdroid::ir::{Expr, Lhs, Stmt, StmtIdx};

    let cfg = GenConfig::tiny().with_libraries(3, 3);
    let mut store = library_store(&cfg);

    let prep = prepare_vetting(generate_app(0, 7777, &cfg));
    let (cold, cold_use) = with_store(&prep, &store);
    assert!(cold_use.misses > 0, "app code is not in the library store");
    store.absorb(summary_store(&prep, &cold.analysis));

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
