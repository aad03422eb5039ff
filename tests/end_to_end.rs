//! Cross-crate integration tests: the full pipeline from synthetic APK to
//! vetting verdict, across every engine.

use gdroid::analysis::{analyze_app, analyze_app_parallel, StoreKind};
use gdroid::apk::{generate_app, Corpus, GenConfig};
use gdroid::core::{gpu_analyze_app, OptConfig};
use gdroid::gpusim::DeviceConfig;
use gdroid::icfg::prepare_app;
use gdroid::ir::{validate_program, MethodId};
use gdroid::vetting::{vet_app, Engine, Verdict};

/// All five engines produce the identical IDFG on the same app.
#[test]
fn all_engines_agree_on_idfg() {
    let mut app = generate_app(0, 1111, &GenConfig::tiny());
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();

    let reference = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
    let set_run = analyze_app(&app.program, &cg, &roots, StoreKind::Set);
    let par_run = analyze_app_parallel(&app.program, &cg, &roots, StoreKind::Matrix);
    assert_eq!(reference.summaries, set_run.summaries);
    assert_eq!(reference.summaries, par_run.summaries);
    assert_eq!(reference.total_facts(), set_run.total_facts());
    assert_eq!(reference.total_facts(), par_run.total_facts());

    for opts in OptConfig::ladder() {
        let gpu = gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), opts);
        assert_eq!(gpu.summaries, reference.summaries, "{opts}");
        for (mid, cpu_store) in &reference.facts {
            let gpu_store = &gpu.facts[mid];
            for node in 0..cpu_store.node_count() {
                assert_eq!(
                    cpu_store.snapshot(node).words(),
                    gpu_store.snapshot(node).words(),
                    "{opts} diverges at {mid:?} node {node}"
                );
            }
        }
    }
}

/// The corpus pipeline is valid and deterministic end to end.
#[test]
fn corpus_apps_are_valid_and_deterministic() {
    let corpus = Corpus::test_corpus(4);
    for i in 0..4 {
        let app1 = corpus.generate(i);
        let app2 = corpus.generate(i);
        assert!(validate_program(&app1.program).is_empty());
        assert_eq!(app1.program.total_statements(), app2.program.total_statements());
        assert_eq!(app1.manifest, app2.manifest);
    }
}

/// Vetting verdicts are engine-independent over a corpus slice.
#[test]
fn verdicts_are_engine_independent() {
    let corpus = Corpus::test_corpus(3);
    for i in 0..3 {
        let cpu = vet_app(corpus.generate(i), Engine::AmandroidCpu);
        let gpu = vet_app(corpus.generate(i), Engine::Gpu(OptConfig::gdroid()));
        let gpu_plain = vet_app(corpus.generate(i), Engine::Gpu(OptConfig::plain()));
        assert_eq!(cpu.report.verdict, gpu.report.verdict, "app {i}");
        assert_eq!(cpu.report.leaks.len(), gpu.report.leaks.len(), "app {i}");
        assert_eq!(gpu.report.leaks.len(), gpu_plain.report.leaks.len(), "app {i}");
    }
}

/// The optimization ladder is monotone in simulated time for a mid-size
/// app: every added optimization helps (or at least does not hurt beyond
/// noise) — and full GDroid beats plain by a wide margin.
#[test]
fn ladder_improves_simulated_time() {
    let mut app = generate_app(0, 2222, &GenConfig::small());
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
    let times: Vec<f64> = OptConfig::ladder()
        .into_iter()
        .map(|o| {
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tesla_p40(), o).stats.total_ns
        })
        .collect();
    assert!(times[1] < times[0], "MAT must beat plain ({} vs {})", times[1], times[0]);
    assert!(
        times[3] < times[0] / 2.0,
        "GDroid must beat plain substantially ({} vs {})",
        times[3],
        times[0]
    );
}

/// Planted leaks flow source→field→sink and must be found; the taint
/// engine must not flag every clean app either (checked over a slice).
#[test]
fn leak_detection_has_signal() {
    let corpus = Corpus::test_corpus(10);
    let mut suspicious = 0;
    for i in 0..10 {
        let outcome = vet_app(corpus.generate(i), Engine::Gpu(OptConfig::gdroid()));
        if outcome.report.verdict == Verdict::Suspicious {
            suspicious += 1;
        }
    }
    assert!(suspicious > 0, "no leaks detected in 10 apps");
    assert!(suspicious < 10, "all apps flagged — taint is over-approximating wildly");
}

/// Fig. 1's structural claim: IDFG construction dominates the pipeline.
#[test]
fn idfg_dominates_vetting_time() {
    let outcome = vet_app(generate_app(0, 3333, &GenConfig::small()), Engine::AmandroidCpu);
    let f = outcome.timing.idfg_fraction();
    assert!(f > 0.4, "IDFG share suspiciously low: {f}");
}
