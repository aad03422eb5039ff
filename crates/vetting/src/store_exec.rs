//! Summary-store lookup and feed — the two store steps of
//! [`crate::execute`].
//!
//! The warm-corpus path: before the IDFG stage runs, every reachable
//! method's canonical hash is looked up in a shared
//! [`gdroid_sumstore::SumStore`]. Hits whose whole internal-callee
//! subtree also hit are *pre-solved* — their summaries and per-node fact
//! matrices are injected and they never enter a kernel launch (GPU) or
//! the worklist (CPU). After the run, every freshly solved method is
//! inserted so the next app that bundles the same code reuses it.
//!
//! Correctness contract: the resulting facts, summaries, and taint
//! verdicts are byte-identical to a store-disabled run (tier-1 tested);
//! only the modeled IDFG time shrinks.

use crate::pipeline::PreparedApp;
use gdroid_analysis::{Geometry, MatrixStore, MethodSpace, MethodSummary};
use gdroid_icfg::Cfg;
use gdroid_ir::{MethodId, Program};
use gdroid_sumstore::{canonical_hashes, RelocSummary, StoredMethod, SumStore};
use std::collections::HashMap;

/// How one run used the summary store.
#[derive(Clone, Debug, Default)]
pub struct StoreUse {
    /// Methods pre-solved from the store (never entered the solver).
    pub hits: u64,
    /// Methods solved in this run (and inserted afterwards).
    pub misses: u64,
    /// The pre-solved methods, ascending.
    pub hit_methods: Vec<MethodId>,
    /// The solved methods, ascending.
    pub missed_methods: Vec<MethodId>,
}

/// Looks up every reachable method and returns the *closed* pre-solved
/// set plus the canonical hashes (for post-run insertion).
///
/// A hit is only usable when its entire internal-callee subtree also
/// hit: cut subtrees are never scheduled, so a pre-solved method with an
/// unsolved callee would leave that callee's summary forever missing.
/// The canonical hash makes the closure *almost* free — a method's hash
/// folds its callees' hashes, so a subtree that hit once tends to hit
/// wholesale — but geometry or relocation failures can still punch
/// holes, hence the explicit greatest-fixpoint pass.
pub(crate) fn collect_presolved(
    prep: &PreparedApp,
    store: &SumStore,
) -> (HashMap<MethodId, (MethodSummary, MatrixStore)>, HashMap<MethodId, u128>) {
    let program = &prep.app.program;
    let hashes = canonical_hashes(program, &prep.cg, &prep.roots);
    let mut hits: HashMap<MethodId, (MethodSummary, MatrixStore)> = HashMap::new();
    for (&mid, &key) in &hashes {
        let Some(stored) = store.lookup(key) else { continue };
        let space = MethodSpace::build(program, mid);
        let cfg = Cfg::build(&program.methods[mid]);
        let geometry = Geometry::of(&space);
        let shape_ok = stored.slots as usize == geometry.slots
            && stored.insts as usize == geometry.insts
            && stored.nodes as usize == cfg.len();
        let summary = if shape_ok { stored.summary.instantiate(program) } else { None };
        let facts = MatrixStore::from_flat_words(geometry, cfg.len(), &stored.words);
        match (summary, facts) {
            (Some(s), Some(f)) => {
                hits.insert(mid, (s, f));
            }
            _ => store.note_reloc_failure(),
        }
    }
    // Greatest fixpoint: drop hits until every remaining hit's internal
    // callees are all hits themselves (self-recursive hits survive).
    loop {
        let violators: Vec<MethodId> = hits
            .keys()
            .copied()
            .filter(|&m| prep.cg.callees_of(m).iter().any(|c| !hits.contains_key(c)))
            .collect();
        if violators.is_empty() {
            break;
        }
        for v in violators {
            hits.remove(&v);
        }
    }
    (hits, hashes)
}

/// Inserts every freshly solved method into the store and assembles the
/// [`StoreUse`] accounting. With `insertable: Some(set)`, only methods in
/// the set are written — the targeted path restricts insertion to the
/// slice's *exact* members, whose facts and summaries are bit-identical
/// to a full run (partial roots are computed against pruned call sites
/// and must never poison the store under the canonical hash).
pub(crate) fn absorb_into_store(
    program: &Program,
    store: &SumStore,
    hashes: &HashMap<MethodId, u128>,
    presolved: &HashMap<MethodId, (MethodSummary, MatrixStore)>,
    analysis: &gdroid_analysis::AppAnalysis,
    insertable: Option<&std::collections::HashSet<MethodId>>,
) -> StoreUse {
    let mut hit_methods: Vec<MethodId> = presolved.keys().copied().collect();
    hit_methods.sort_unstable();
    let mut missed_methods: Vec<MethodId> =
        hashes.keys().copied().filter(|m| !presolved.contains_key(m)).collect();
    missed_methods.sort_unstable();
    for &mid in &missed_methods {
        if insertable.is_some_and(|set| !set.contains(&mid)) {
            continue;
        }
        let (summary, facts, space, cfg) = match (
            analysis.summaries.get(&mid),
            analysis.facts.get(&mid),
            analysis.spaces.get(&mid),
            analysis.cfgs.get(&mid),
        ) {
            (Some(s), Some(f), Some(sp), Some(c)) => (s, f, sp, c),
            _ => continue,
        };
        let geometry = Geometry::of(space);
        store.insert(
            hashes[&mid],
            StoredMethod {
                summary: RelocSummary::extract(summary, program),
                slots: geometry.slots as u32,
                insts: geometry.insts as u32,
                nodes: cfg.len() as u32,
                words: facts.flat_words(),
            },
        );
    }
    StoreUse {
        hits: hit_methods.len() as u64,
        misses: missed_methods.len() as u64,
        hit_methods,
        missed_methods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare_vetting, VettingRun};
    use crate::plan::{execute, vet_prepared, Engine, ExecCtx, ExecPlan};
    use gdroid_analysis::FactStore;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_gpusim::{Device, DeviceConfig};

    fn with_store(prep: &PreparedApp, plan: ExecPlan, store: &SumStore) -> (VettingRun, StoreUse) {
        let mut device = Device::new(DeviceConfig::tesla_p40());
        let ctx = &mut ExecCtx { store: Some(store), ..ExecCtx::new(&mut device) };
        let done = execute(prep, plan, ctx).expect("no fault plan");
        (done.run, done.store_use.expect("a store was attached"))
    }

    fn facts_digest(analysis: &gdroid_analysis::AppAnalysis) -> Vec<(MethodId, Vec<u64>)> {
        let mut out: Vec<(MethodId, Vec<u64>)> =
            analysis.facts.iter().map(|(&m, f)| (m, f.flat_words())).collect();
        out.sort();
        out
    }

    #[test]
    fn warm_run_hits_and_matches_cold_and_disabled() {
        let cfg = GenConfig::tiny().with_libraries(2, 2);
        let engine = ExecPlan::default();
        let store = SumStore::new();
        let prep_a = prepare_vetting(generate_app(0, 9500, &cfg));
        let prep_b = prepare_vetting(generate_app(1, 9501, &cfg));

        let disabled_b = vet_prepared(&prep_b, engine);
        let (cold_a, use_a) = with_store(&prep_a, engine, &store);
        assert_eq!(use_a.hits, 0, "fresh store cannot hit");
        assert!(use_a.misses > 0);
        assert!(!cold_a.analysis.facts.is_empty());

        // App B bundles the same library packages: warm run must hit.
        let (warm_b, use_b) = with_store(&prep_b, engine, &store);
        assert!(use_b.hits > 0, "no store hits on a shared-library corpus");
        assert_eq!(
            warm_b.outcome.report.to_json(),
            disabled_b.outcome.report.to_json(),
            "verdict changed with the store enabled"
        );
        assert_eq!(
            facts_digest(&warm_b.analysis),
            facts_digest(&disabled_b.analysis),
            "IDFG facts differ between warm and disabled runs"
        );
        // Pre-solved leaves skip launches: modeled IDFG time shrinks.
        assert!(
            warm_b.outcome.timing.idfg_ns < disabled_b.outcome.timing.idfg_ns,
            "warm {} >= disabled {}",
            warm_b.outcome.timing.idfg_ns,
            disabled_b.outcome.timing.idfg_ns
        );
    }

    #[test]
    fn cpu_engine_agrees_with_store() {
        let cfg = GenConfig::tiny().with_libraries(2, 2);
        let store = SumStore::new();
        let prep_a = prepare_vetting(generate_app(0, 9502, &cfg));
        let prep_b = prepare_vetting(generate_app(1, 9503, &cfg));
        let amandroid = ExecPlan::new(Engine::AmandroidCpu);
        let disabled = vet_prepared(&prep_b, amandroid);
        let (_, _) = with_store(&prep_a, amandroid, &store);
        let (warm, used) = with_store(&prep_b, amandroid, &store);
        assert!(used.hits > 0);
        assert_eq!(warm.outcome.report.to_json(), disabled.outcome.report.to_json());
        assert_eq!(facts_digest(&warm.analysis), facts_digest(&disabled.analysis));
    }

    #[test]
    fn targeted_with_store_agrees_and_never_absorbs_partial_roots() {
        let cfg = GenConfig::tiny().with_libraries(2, 2);
        let store = SumStore::new();
        let prep_a = prepare_vetting(generate_app(0, 9505, &cfg));
        let prep_b = prepare_vetting(generate_app(1, 9506, &cfg));
        let targeted = ExecPlan { targeted: true, ..ExecPlan::default() };

        // Cold targeted run populates the store with exact members only.
        let slice_a = crate::targeted::compute_vetting_slice(&prep_a);
        let (run_a, use_a) = with_store(&prep_a, targeted, &store);
        assert!(run_a.outcome.targeted.is_some());
        let hashes_a = canonical_hashes(&prep_a.app.program, &prep_a.cg, &prep_a.roots);
        for root in &slice_a.roots {
            assert!(
                store.lookup(hashes_a[root]).is_none(),
                "partial root {root:?} leaked into the store"
            );
        }
        assert_eq!(use_a.hits, 0);

        // A warm targeted run agrees with a store-free full run.
        let disabled = vet_prepared(&prep_b, ExecPlan::default());
        let (warm_b, _) = with_store(&prep_b, targeted, &store);
        assert_eq!(warm_b.outcome.report.to_json(), disabled.outcome.report.to_json());
    }

    #[test]
    fn same_app_twice_presolves_everything_reachable() {
        let cfg = GenConfig::tiny();
        let store = SumStore::new();
        let prep = prepare_vetting(generate_app(0, 9504, &cfg));
        let (_, first) = with_store(&prep, ExecPlan::default(), &store);
        let (again, second) = with_store(&prep, ExecPlan::default(), &store);
        assert_eq!(second.misses, 0, "identical app must fully pre-solve");
        assert_eq!(second.hits, first.misses);
        assert!(again.analysis.facts.values().any(|f| f.memory_bytes() > 0));
    }
}
