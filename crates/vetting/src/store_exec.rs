//! Summary-store lookup — the store step of [`crate::execute`] — and the
//! two builders of a store: [`library_store`], a corpus's library
//! packages solved once, and [`summary_store`], the store a finished run
//! leaves for the next version of its app.
//!
//! The warm-corpus path: before the IDFG stage runs, every reachable
//! method's canonical hash is looked up in the attached
//! [`gdroid_sumstore::SumStore`]. Hits whose whole internal-callee
//! subtree also hit are *pre-solved* — their summaries and per-node fact
//! matrices are injected and they never enter a kernel launch (GPU) or
//! the worklist (CPU). No run writes the store: it is built before the
//! runs that read it, so what a run hits depends on the store and the app
//! alone, never on which other run finished first.
//!
//! Correctness contract: the resulting facts, summaries, and taint
//! verdicts are byte-identical to a store-disabled run (tier-1 tested);
//! only the modeled IDFG time shrinks.

use crate::pipeline::PreparedApp;
use gdroid_analysis::{
    analyze_app, AppAnalysis, Geometry, MatrixStore, MethodSpace, Presolved, StoreKind,
};
use gdroid_apk::{generate_library_pool, GenConfig};
use gdroid_icfg::{CallGraph, Cfg};
use gdroid_ir::{MethodId, Program};
use gdroid_sumstore::{canonical_hashes, RelocSummary, StoredMethod, SumStore};
use std::collections::{HashMap, HashSet};

/// How one run used the summary store.
#[derive(Clone, Debug, Default)]
pub struct StoreUse {
    /// Methods pre-solved from the store (never entered the solver).
    pub hits: u64,
    /// Reachable methods the run solved itself.
    pub misses: u64,
    /// Store entries found but dropped because they failed to re-bind in
    /// this program (or their geometry did not match); their methods are
    /// solved, and counted as misses.
    pub reloc_failures: u64,
    /// The pre-solved methods, ascending.
    pub hit_methods: Vec<MethodId>,
    /// The solved methods, ascending.
    pub missed_methods: Vec<MethodId>,
}

/// Looks up every reachable method and returns the *closed* pre-solved
/// set — restricted to `members` when the run is sliced — with its
/// [`StoreUse`].
///
/// A hit is only usable when its entire internal-callee subtree also
/// hit: cut subtrees are never scheduled, so a pre-solved method with an
/// unsolved callee would leave that callee's summary forever missing.
/// The canonical hash makes the closure *almost* free — a method's hash
/// folds its callees' hashes, so a subtree that hit once tends to hit
/// wholesale — but geometry or relocation failures can still punch
/// holes, hence the explicit greatest-fixpoint pass. Restricting the
/// closed set to a slice keeps it closed under slice-internal callee
/// edges.
pub(crate) fn collect_presolved(
    prep: &PreparedApp,
    store: &SumStore,
    members: Option<&HashSet<MethodId>>,
) -> (Presolved, StoreUse) {
    let program = &prep.app.program;
    let hashes = canonical_hashes(program, &prep.cg, &prep.roots);
    let mut hits: Presolved = HashMap::new();
    let mut reloc_failures = 0;
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
            _ => reloc_failures += 1,
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
    if let Some(members) = members {
        hits.retain(|m, _| members.contains(m));
    }
    let mut hit_methods: Vec<MethodId> = hits.keys().copied().collect();
    hit_methods.sort_unstable();
    let mut missed_methods: Vec<MethodId> =
        hashes.keys().copied().filter(|m| !hits.contains_key(m)).collect();
    missed_methods.sort_unstable();
    let used = StoreUse {
        hits: hit_methods.len() as u64,
        misses: missed_methods.len() as u64,
        reloc_failures,
        hit_methods,
        missed_methods,
    };
    (hits, used)
}

/// A fresh store holding every reachable method of a full (untargeted)
/// run, keyed by its canonical hash. Attached to a later version's run
/// as [`crate::ExecCtx::store`], it pre-solves every method whose body
/// and callee subtree did not change — a warm start.
pub fn summary_store(prep: &PreparedApp, analysis: &AppAnalysis) -> SumStore {
    solved_store(&prep.app.program, &prep.cg, &prep.roots, analysis)
}

/// The corpus's library packages solved once: every method of
/// [`generate_library_pool`]'s app, keyed as each app that bundles the
/// package keys it, so a run against it pre-solves every reachable
/// library method from the first app on. Solved by the CPU reference
/// solver, whose facts and summaries equal the device's; empty when
/// `config` has no library pool.
pub fn library_store(config: &GenConfig) -> SumStore {
    let pool = generate_library_pool(config);
    let program = &pool.program;
    let cg = CallGraph::build(program);
    let roots: Vec<MethodId> = program.methods.iter_enumerated().map(|(mid, _)| mid).collect();
    let analysis = analyze_app(program, &cg, &roots, StoreKind::Matrix);
    solved_store(program, &cg, &roots, &analysis)
}

/// The one store writer: every method reachable from `roots`, with the
/// summary and fact words `analysis` solved for it.
fn solved_store(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    analysis: &AppAnalysis,
) -> SumStore {
    let mut keyed: Vec<(MethodId, u128)> =
        canonical_hashes(program, cg, roots).into_iter().collect();
    keyed.sort_unstable();
    let mut store = SumStore::new();
    for (mid, key) in keyed {
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
            key,
            StoredMethod {
                summary: RelocSummary::extract(summary, program),
                slots: geometry.slots as u32,
                insts: geometry.insts as u32,
                nodes: cfg.len() as u32,
                words: facts.flat_words(),
            },
        );
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare_vetting, VettingRun};
    use crate::plan::{execute, vet_prepared, ExecCtx, ExecPlan};
    use gdroid_apk::generate_app;
    use gdroid_core::Engine;
    use gdroid_gpusim::{Device, DeviceConfig};

    fn with_store(prep: &PreparedApp, plan: ExecPlan, store: &SumStore) -> (VettingRun, StoreUse) {
        let mut device = Device::new(DeviceConfig::tesla_p40());
        let ctx = &mut ExecCtx { store: Some(store), ..ExecCtx::new(&mut device) };
        let done = execute(prep, plan, ctx).expect("no fault plan");
        (done.run, done.store_use.expect("a store was attached"))
    }

    fn facts_digest(analysis: &AppAnalysis) -> Vec<(MethodId, Vec<u64>)> {
        let mut out: Vec<(MethodId, Vec<u64>)> =
            analysis.facts.iter().map(|(&m, f)| (m, f.flat_words())).collect();
        out.sort();
        out
    }

    fn is_library(prep: &PreparedApp, mid: MethodId) -> bool {
        let program = &prep.app.program;
        program.interner.resolve(program.methods[mid].sig.class).starts_with("com/lib/")
    }

    #[test]
    fn the_library_store_presolves_every_library_method_from_the_first_app() {
        let cfg = GenConfig::tiny().with_libraries(2, 2);
        let store = library_store(&cfg);
        assert!(!store.is_empty());
        for (index, seed) in [(0, 9500), (1, 9501)] {
            let prep = prepare_vetting(generate_app(index, seed, &cfg));
            let disabled = vet_prepared(&prep, ExecPlan::default());
            let (warm, used) = with_store(&prep, ExecPlan::default(), &store);
            assert!(used.hits > 0, "app {index}: no library method hit");
            assert!(used.hit_methods.iter().all(|&m| is_library(&prep, m)), "app {index}");
            assert!(used.missed_methods.iter().all(|&m| !is_library(&prep, m)), "app {index}");
            assert_eq!(used.reloc_failures, 0, "app {index}");
            assert_eq!(
                warm.outcome.report.to_json(),
                disabled.outcome.report.to_json(),
                "verdict changed with the store enabled"
            );
            assert_eq!(
                facts_digest(&warm.analysis),
                facts_digest(&disabled.analysis),
                "IDFG facts differ between warm and disabled runs"
            );
            // Pre-solved leaves skip launches: modeled IDFG time shrinks.
            assert!(warm.outcome.timing.idfg_ns < disabled.outcome.timing.idfg_ns);
        }
        assert!(library_store(&GenConfig::tiny()).is_empty(), "no pool, no store");
    }

    #[test]
    fn cpu_engine_agrees_with_store() {
        let cfg = GenConfig::tiny().with_libraries(2, 2);
        let store = library_store(&cfg);
        let prep = prepare_vetting(generate_app(1, 9503, &cfg));
        let amandroid = ExecPlan::new(Engine::AmandroidCpu);
        let disabled = vet_prepared(&prep, amandroid);
        let (warm, used) = with_store(&prep, amandroid, &store);
        assert!(used.hits > 0);
        assert_eq!(warm.outcome.report.to_json(), disabled.outcome.report.to_json());
        assert_eq!(facts_digest(&warm.analysis), facts_digest(&disabled.analysis));
    }

    #[test]
    fn targeted_with_store_hits_only_slice_members_and_agrees_with_full() {
        let cfg = GenConfig::tiny().with_libraries(2, 2);
        let store = library_store(&cfg);
        let targeted = ExecPlan { targeted: true, ..ExecPlan::default() };
        for (index, seed) in [(0, 9505), (1, 9506)] {
            let prep = prepare_vetting(generate_app(index, seed, &cfg));
            let slice = crate::targeted::compute_vetting_slice(&prep);
            let (run, used) = with_store(&prep, targeted, &store);
            assert!(run.outcome.targeted.is_some());
            assert!(used.hit_methods.iter().all(|m| slice.members.contains(m)), "app {index}");
            let full = vet_prepared(&prep, ExecPlan::default());
            assert_eq!(run.outcome.report.to_json(), full.outcome.report.to_json());
        }
    }

    #[test]
    fn stored_words_with_a_padding_bit_are_a_miss() {
        let prep = prepare_vetting(generate_app(0, 9507, &GenConfig::tiny()));
        let disabled = vet_prepared(&prep, ExecPlan::default());
        let clean = summary_store(&prep, &disabled.analysis);
        // Copy the clean entries into a second store, setting one bit past
        // the end of the first padded matrix's node-0 bitmap.
        let mut keyed: Vec<(MethodId, u128)> =
            canonical_hashes(&prep.app.program, &prep.cg, &prep.roots).into_iter().collect();
        keyed.sort_unstable();
        let mut hostile = SumStore::new();
        let mut victim = None;
        for (mid, key) in keyed {
            let Some(entry) = clean.lookup(key) else { continue };
            let mut entry = entry.clone();
            let bits = (entry.slots * entry.insts) as usize;
            if victim.is_none() && !bits.is_multiple_of(64) {
                entry.words[bits.div_ceil(64) - 1] |= 1 << 63;
                victim = Some(mid);
            }
            hostile.insert(key, entry);
        }
        let victim = victim.expect("some stored matrix has padding bits");

        let (run, used) = with_store(&prep, ExecPlan::default(), &hostile);
        assert!(used.missed_methods.contains(&victim), "{victim:?} was trusted");
        assert!(used.reloc_failures > 0);
        assert_eq!(run.outcome.report.to_json(), disabled.outcome.report.to_json());
        assert_eq!(facts_digest(&run.analysis), facts_digest(&disabled.analysis));
    }

    #[test]
    fn an_apps_own_summary_store_presolves_everything_reachable() {
        let prep = prepare_vetting(generate_app(0, 9504, &GenConfig::tiny()));
        let cold = vet_prepared(&prep, ExecPlan::default());
        let store = summary_store(&prep, &cold.analysis);
        let (again, used) = with_store(&prep, ExecPlan::default(), &store);
        assert_eq!(used.misses, 0, "identical app must fully pre-solve");
        assert!(used.hits as usize >= store.len(), "every entry keys a reachable method");
        assert!(again.analysis.facts.values().any(|f| f.memory_bytes() > 0));
        assert_eq!(again.outcome.report.to_json(), cold.outcome.report.to_json());
    }
}
