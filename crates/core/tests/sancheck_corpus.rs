//! `simcheck` over the real kernels: the disciplined GDroid kernels must
//! be sanitizer-clean on a deterministic corpus, across the entire
//! optimization ladder.

use gdroid_apk::Corpus;
use gdroid_core::{
    gpu_analyze_app, gpu_analyze_app_on, gpu_analyze_batch_on, BatchApp, ExecMode, OptConfig,
};
use gdroid_gpusim::{Device, DeviceConfig, FindingKind};
use gdroid_icfg::{prepare_app, CallGraph};
use gdroid_ir::MethodId;
use proptest::prelude::*;
use std::collections::HashMap;

/// Host-side prep: the call graph and the environment-method roots.
fn prepared(app: &mut gdroid_apk::App) -> (CallGraph, Vec<MethodId>) {
    let (envs, cg) = prepare_app(app);
    (cg, envs.iter().map(|e| e.method).collect())
}

fn analyze_sanitized(
    app: &mut gdroid_apk::App,
    opts: OptConfig,
    exec: ExecMode,
) -> gdroid_gpusim::SanReport {
    let (cg, roots) = prepared(app);
    let mut device = Device::new(DeviceConfig::tiny().with_sanitizer());
    let none = HashMap::new();
    let run = gpu_analyze_app_on(&mut device, &app.program, &cg, &roots, opts, &none, None, exec)
        .expect("no fault plan");
    run.sanitizer.expect("sanitizer was enabled")
}

/// The ISSUE acceptance criterion: all four kernel variants, 20 apps,
/// zero findings — plus the full GDroid rung inside one persistent
/// session, whose grid syncs must order rounds as kernel boundaries do.
#[test]
fn ladder_is_sanitizer_clean_on_test_corpus() {
    let corpus = Corpus::test_corpus(20);
    let mut rows: Vec<(OptConfig, ExecMode)> =
        OptConfig::ladder().into_iter().map(|opts| (opts, ExecMode::MultiLaunch)).collect();
    rows.push((OptConfig::gdroid(), ExecMode::Persistent));
    for index in 0..corpus.size {
        for &(opts, exec) in &rows {
            let mut app = corpus.generate(index);
            let report = analyze_sanitized(&mut app, opts, exec);
            assert!(
                report.is_clean(),
                "app {index} under {opts} ({exec}) has sanitizer findings:\n{report}"
            );
            assert!(report.accesses_checked > 0, "app {index} under {opts} ({exec}): unchecked");
        }
    }
}

/// The same corpus in co-resident batches of 4: per-app layouts share one
/// arena and one launch, so cross-app isolation is exactly what the
/// sanitizer has to prove.
#[test]
fn coresident_batches_are_sanitizer_clean_on_test_corpus() {
    let corpus = Corpus::test_corpus(20);
    let prepared: Vec<_> = (0..corpus.size)
        .map(|index| {
            let mut app = corpus.generate(index);
            let (cg, roots) = prepared(&mut app);
            (app, cg, roots)
        })
        .collect();
    for (batch_index, group) in prepared.chunks(4).enumerate() {
        let apps: Vec<BatchApp<'_>> = group
            .iter()
            .map(|(app, cg, roots)| BatchApp { program: &app.program, cg, roots })
            .collect();
        let mut device = Device::new(DeviceConfig::tiny().with_sanitizer());
        let batch =
            gpu_analyze_batch_on(&mut device, &apps, OptConfig::gdroid()).expect("no faults");
        assert!(batch.batch.mean_coresidency > 1.0, "batch {batch_index}: apps never co-resided");
        let report = device.san_report().expect("sanitizer was enabled");
        assert!(report.is_clean(), "batch {batch_index} has sanitizer findings:\n{report}");
        assert!(report.accesses_checked > 0, "batch {batch_index}: nothing checked");
    }
}

/// Sanitizer presence is exactly config-driven.
#[test]
fn report_is_none_without_sanitizer() {
    let mut app = Corpus::test_corpus(1).generate(0);
    let (cg, roots) = prepared(&mut app);
    let run = gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::gdroid());
    assert!(run.sanitizer.is_none());
}

proptest! {
    /// MER's monotone postponement only defers nodes to later rounds — it
    /// can never introduce a same-round conflict, so across random apps
    /// the full GDroid configuration must stay free of Jacobi-race
    /// reports.
    #[test]
    fn mer_postponement_never_introduces_jacobi_race(seed in 0u64..4096) {
        let mut app = gdroid_apk::generate_app(0, seed, &gdroid_apk::GenConfig::tiny());
        let report = analyze_sanitized(&mut app, OptConfig::gdroid(), ExecMode::MultiLaunch);
        prop_assert_eq!(report.count(FindingKind::WriteWriteRace), 0);
        prop_assert_eq!(report.count(FindingKind::ReadWriteRace), 0);
    }
}
