//! Tier-1 gate for demand-driven targeted vetting: running only the
//! backward sink slice must reproduce the full run's verdict byte for
//! byte (per sink site), must never analyze a method outside the full
//! reachable set, must never make the modeled IDFG time worse, must
//! actually skip work somewhere on the corpus, and must stay invariant
//! under tracing and under the cross-app summary store.

use std::collections::HashSet;

use gdroid::apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::ir::MethodId;
use gdroid::sumstore::SumStore;
use gdroid::vetting::{
    compute_vetting_slice, execute, prepare_vetting, vet_prepared, ExecCtx, ExecPlan, PreparedApp,
    VettingRun,
};

const CORPUS: usize = 20;

fn targeted_plan() -> ExecPlan {
    ExecPlan { targeted: true, ..ExecPlan::default() }
}

fn corpus_app(index: usize) -> PreparedApp {
    prepare_vetting(generate_app(index, PAPER_MASTER_SEED ^ index as u64, &GenConfig::tiny()))
}

/// `plan` in `ctx`, fault-free.
fn run(prep: &PreparedApp, plan: ExecPlan, ctx: &mut ExecCtx<'_>) -> VettingRun {
    execute(prep, plan, ctx).expect("no fault plan installed").run
}

/// For all 20 corpus apps: the targeted report (verdict plus every
/// per-sink leak) is byte-identical to the full report, the slice stays
/// inside the full reachable method set, and the targeted modeled IDFG
/// time never exceeds the full run's. Across the corpus the mean sliced
/// fraction is strictly below 1 — slicing skips real work somewhere.
#[test]
fn targeted_verdicts_agree_with_full_across_the_corpus() {
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let mut fractions = Vec::with_capacity(CORPUS);
    for i in 0..CORPUS {
        let prep = corpus_app(i);
        let full = run(&prep, ExecPlan::default(), &mut ExecCtx::new(&mut device));
        let targeted = run(&prep, targeted_plan(), &mut ExecCtx::new(&mut device));
        assert_eq!(
            targeted.outcome.report.to_json(),
            full.outcome.report.to_json(),
            "app {i}: targeted verdict diverged from full"
        );

        let slice = compute_vetting_slice(&prep);
        let reachable: HashSet<MethodId> =
            prep.cg.reachable_from(&prep.roots).into_iter().collect();
        assert!(
            slice.members.iter().all(|m| reachable.contains(m)),
            "app {i}: slice contains a method outside the reachable set"
        );
        let prov = targeted.outcome.targeted.expect("targeted run must carry provenance");
        assert_eq!(prov.slice_methods, slice.members.len(), "app {i}: provenance out of sync");
        assert_eq!(prov.total_reachable, reachable.len(), "app {i}: reachable count out of sync");

        assert!(
            targeted.outcome.timing.idfg_ns <= full.outcome.timing.idfg_ns * 1.000001,
            "app {i}: targeted IDFG {} > full {}",
            targeted.outcome.timing.idfg_ns,
            full.outcome.timing.idfg_ns
        );
        fractions.push(slice.sliced_fraction());
    }
    let mean = fractions.iter().sum::<f64>() / CORPUS as f64;
    assert!(
        mean < 1.0,
        "mean sliced fraction {mean} — slicing never skipped a method over the corpus"
    );
}

/// A traced targeted run produces the byte-identical outcome of an
/// untraced one and records events — tracing observes, never perturbs.
#[test]
fn tracing_does_not_perturb_targeted_results() {
    for i in 0..4 {
        let prep = corpus_app(i);
        let plain = vet_prepared(&prep, targeted_plan());
        let tracer = gdroid::trace::Tracer::enabled_new();
        let mut device = Device::new(DeviceConfig::tesla_p40());
        let traced_ctx = &mut ExecCtx { tracer: &tracer, ..ExecCtx::new(&mut device) };
        let traced = run(&prep, targeted_plan(), traced_ctx);
        assert_eq!(
            plain.outcome.to_json(),
            traced.outcome.to_json(),
            "app {i}: tracing changed the targeted outcome"
        );
        assert!(!tracer.events().is_empty(), "traced targeted run must record events");
        assert!(
            tracer.events().iter().any(|e| e.name == "targeted-slice"),
            "app {i}: slice shape instant missing from the trace"
        );
    }
}

/// Targeted runs through the cross-app summary store agree with
/// store-free full runs, cold and warm.
#[test]
fn sumstore_targeted_runs_agree_with_full() {
    let cfg = GenConfig::tiny().with_libraries(2, 2);
    let store = SumStore::new();
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let prep_a = prepare_vetting(generate_app(0, PAPER_MASTER_SEED ^ 0x7a11, &cfg));
    let prep_b = prepare_vetting(generate_app(1, PAPER_MASTER_SEED ^ 0x7a12, &cfg));

    let full_a = vet_prepared(&prep_a, ExecPlan::default());
    let with_store = &mut ExecCtx { store: Some(&store), ..ExecCtx::new(&mut device) };
    let cold_a = run(&prep_a, targeted_plan(), with_store);
    assert_eq!(
        cold_a.outcome.report.to_json(),
        full_a.outcome.report.to_json(),
        "cold store-backed targeted run diverged from full"
    );

    // App B bundles the same library packages: the warm run may reuse
    // summaries but must still agree with a store-free full run.
    let full_b = vet_prepared(&prep_b, ExecPlan::default());
    let warm_b = run(&prep_b, targeted_plan(), with_store);
    assert_eq!(
        warm_b.outcome.report.to_json(),
        full_b.outcome.report.to_json(),
        "warm store-backed targeted run diverged from full"
    );
    assert!(warm_b.outcome.targeted.is_some(), "store-backed run lost provenance");
}
