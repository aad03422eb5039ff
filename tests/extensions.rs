//! Integration tests for the future-work extensions: incremental
//! re-analysis and the dynamic soundness oracle — exercised through the
//! public API.

use gdroid::analysis::{
    analyze_app, analyze_app_incremental, validate_app, InterpConfig, StoreKind,
};
use gdroid::apk::{generate_app, GenConfig};
use gdroid::icfg::prepare_app;
use gdroid::ir::MethodId;

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

/// Incremental analysis over an *unchanged* program reuses everything and
/// reproduces the previous summaries.
#[test]
fn incremental_and_tuning_roundtrip() {
    let (app, cg, roots) = prepared(9301);
    let prev = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
    let (incr, stats) = analyze_app_incremental(&app.program, &cg, &roots, &prev, &[]);
    assert_eq!(stats.resolved, 0);
    assert_eq!(incr.summaries, prev.summaries);
}
