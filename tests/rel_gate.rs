//! Tier-1 gate for the relational (semi-naive) engine: the
//! `AnalysisEngine` contract, enforced end to end.
//!
//! * Over a 20-app gate corpus, the worklist, rel, and cpu engines must
//!   produce byte-identical vetting reports and bit-identical per-method
//!   fact fixpoints.
//! * The rel engine must compose with the summary store (warm hits,
//!   unchanged verdicts) and with demand-driven targeted slicing
//!   (verdict identical to the full rel run).
//! * Enabled tracing must never perturb a rel outcome.

use gdroid::apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid::core::EngineKind;
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::ir::MethodId;
use gdroid::sumstore::SumStore;
use gdroid::trace::Tracer;
use gdroid::vetting::{
    execute, prepare_vetting, vet_prepared, ExecCtx, ExecPlan, Executed, PreparedApp, VettingRun,
};
use std::collections::BTreeMap;

const GATE_APPS: usize = 20;

fn gate_prep(index: usize) -> PreparedApp {
    prepare_vetting(generate_app(index, PAPER_MASTER_SEED ^ index as u64, &GenConfig::tiny()))
}

/// The rel engine on `device`, fault-free.
fn rel_on(prep: &PreparedApp, ctx: &mut ExecCtx<'_>, targeted: bool) -> Executed {
    let plan = ExecPlan { targeted, ..ExecPlan::new(EngineKind::Rel) };
    execute(prep, plan, ctx).expect("a fresh device has no fault plan")
}

/// The engine-invariant fixpoint, in comparable form: per-method bitmap
/// words, keyed and ordered by method id.
fn fact_map(run: &VettingRun) -> BTreeMap<MethodId, Vec<u64>> {
    run.analysis.facts.iter().map(|(m, s)| (*m, s.flat_words())).collect()
}

#[test]
fn three_engines_agree_over_the_gate_corpus() {
    for index in 0..GATE_APPS {
        let prep = gate_prep(index);
        let mut runs = Vec::new();
        for kind in EngineKind::ALL {
            runs.push((kind, vet_prepared(&prep, ExecPlan::new(kind))));
        }
        let (_, reference) = &runs[0];
        let reference_report = reference.outcome.report.to_json();
        let reference_facts = fact_map(reference);
        for (kind, run) in &runs[1..] {
            assert_eq!(
                run.outcome.report.to_json(),
                reference_report,
                "app {index}: engine {kind} report diverged from worklist"
            );
            assert_eq!(
                fact_map(run),
                reference_facts,
                "app {index}: engine {kind} facts diverged from worklist"
            );
        }
    }
}

#[test]
fn rel_composes_with_the_summary_store() {
    let config = GenConfig::tiny().with_libraries(2, 2);
    let store = SumStore::new();
    let mut device = Device::new(DeviceConfig::tesla_p40());
    for index in 0..4 {
        let prep = prepare_vetting(generate_app(index, PAPER_MASTER_SEED ^ index as u64, &config));
        let baseline = vet_prepared(&prep, ExecPlan::new(EngineKind::Rel));
        let with_store = &mut ExecCtx { store: Some(&store), ..ExecCtx::new(&mut device) };
        let run = rel_on(&prep, with_store, false).run;
        assert_eq!(
            run.outcome.report.to_json(),
            baseline.outcome.report.to_json(),
            "app {index}: store-backed rel verdict diverged from store-free"
        );
        assert_eq!(fact_map(&run), fact_map(&baseline));
    }
    // Warm pass over the same corpus: the shared-library pool must hit.
    let before = store.stats().hits;
    let prep = prepare_vetting(generate_app(0, PAPER_MASTER_SEED, &config));
    let with_store = &mut ExecCtx { store: Some(&store), ..ExecCtx::new(&mut device) };
    let Executed { run: warm, store_use } = rel_on(&prep, with_store, false);
    let used = store_use.expect("a store was attached");
    assert!(used.hits > 0, "warm rel pass must pre-solve from the store");
    assert!(store.stats().hits > before);
    assert_eq!(
        warm.outcome.report.to_json(),
        vet_prepared(&prep, ExecPlan::new(EngineKind::Rel)).outcome.report.to_json(),
    );
}

#[test]
fn rel_composes_with_targeted_slicing() {
    for index in 0..6 {
        let prep = gate_prep(index);
        let mut device = Device::new(DeviceConfig::tesla_p40());
        let full = rel_on(&prep, &mut ExecCtx::new(&mut device), false).run;
        let sliced = rel_on(&prep, &mut ExecCtx::new(&mut device), true).run;
        assert_eq!(
            sliced.outcome.report.to_json(),
            full.outcome.report.to_json(),
            "app {index}: targeted rel verdict diverged from full rel"
        );
        let prov = sliced.outcome.targeted.expect("targeted rel run must carry provenance");
        assert!(prov.slice_methods <= prov.total_reachable);
        assert!(
            sliced.outcome.timing.idfg_ns <= full.outcome.timing.idfg_ns * 1.000001,
            "app {index}: the sliced rel run must not model slower than the full one"
        );
    }
}

#[test]
fn tracing_never_perturbs_rel_outcomes() {
    for index in 0..6 {
        let prep = gate_prep(index);
        let untraced = vet_prepared(&prep, ExecPlan::new(EngineKind::Rel));
        let tracer = Tracer::enabled_new();
        let mut device = Device::new(DeviceConfig::tesla_p40());
        let traced_ctx = &mut ExecCtx { tracer: &tracer, ..ExecCtx::new(&mut device) };
        let traced = rel_on(&prep, traced_ctx, false).run;
        assert_eq!(
            traced.outcome.to_json(),
            untraced.outcome.to_json(),
            "app {index}: tracing perturbed the rel outcome"
        );
        assert!(!tracer.events().is_empty(), "an enabled tracer must record rel driver events");
    }
}
