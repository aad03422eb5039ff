//! Integration tests for the future-work extensions: the warm start of an
//! updated app and the dynamic soundness oracle — exercised through the
//! public API.

use gdroid::analysis::{analyze_app, validate_app, InterpConfig, StoreKind};
use gdroid::apk::{generate_app, GenConfig};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::icfg::prepare_app;
use gdroid::ir::MethodId;
use gdroid::vetting::{execute, prepare_vetting, summary_store, vet_prepared, ExecCtx, ExecPlan};

fn prepared(seed: u64) -> (gdroid::apk::App, gdroid::icfg::CallGraph, Vec<MethodId>) {
    let mut app = generate_app(0, seed, &GenConfig::tiny());
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
    (app, cg, roots)
}

/// The soundness oracle holds across the whole ladder's shared fact
/// domain — run the interpreter against the CPU analysis on several seeds.
#[test]
fn dynamic_oracle_validates_static_analysis() {
    for seed in [9201u64, 9202] {
        let (app, cg, roots) = prepared(seed);
        let analysis = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
        let (trace, violations) = validate_app(
            &app.program,
            &cg,
            &roots,
            &analysis,
            InterpConfig { fuel: 40_000, seed: 5, ..Default::default() },
        );
        assert!(trace.observations.len() > 10, "trace too thin to be meaningful");
        assert!(violations.is_empty(), "seed {seed}: {:?}", violations.first());
    }
}

/// A warm start of an *unchanged* program against its previous version's
/// summary store hits every reachable method, launches nothing, and
/// reproduces the previous summaries and report.
#[test]
fn incremental_and_tuning_roundtrip() {
    let prep = prepare_vetting(generate_app(0, 9301, &GenConfig::tiny()));
    let prev = vet_prepared(&prep, ExecPlan::default());
    let store = summary_store(&prep, &prev.analysis);
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let ctx = &mut ExecCtx { store: Some(&store), ..ExecCtx::new(&mut device) };
    let warm = execute(&prep, ExecPlan::default(), ctx).expect("no fault plan");
    let used = warm.store_use.expect("a store was attached");
    assert_eq!((used.misses, used.hits), (0, prev.analysis.facts.len() as u64));
    assert_eq!(device.launches(), 0);
    assert_eq!(warm.run.analysis.summaries, prev.analysis.summaries);
    assert_eq!(warm.run.outcome.report.to_json(), prev.outcome.report.to_json());
}
