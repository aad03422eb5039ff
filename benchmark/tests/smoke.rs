//! `--quick` smoke of all four workloads: every declared metric is
//! emitted, every output checks out against the oracle, and the whole
//! thing stays far below the time a real run takes.

use gdroid_benchmark::json::Json;
use gdroid_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use gdroid_benchmark::run::{run_traced, run_untraced, RunOptions, RunResult};
use gdroid_benchmark::workloads::Sizes;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

/// Each test writes its traces to a directory of its own: tests run side
/// by side.
fn options(workload: &str, test: &str) -> RunOptions {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("test-{test}"));
    std::fs::create_dir_all(&out).unwrap();
    RunOptions {
        workload: workload.to_owned(),
        seed: 0x6D01,
        seconds: 0.0,
        sizes: Sizes::QUICK,
        out,
    }
}

fn assert_sound(workload: &str, result: &RunResult) {
    assert!(result.correct, "{workload}: an output was wrong");
    assert_eq!(result.failed, 0, "{workload}: failed operations");
    assert!(result.attempted >= 1);
    assert!(result.metrics.iter().all(|m| m.value.is_finite()), "{workload}: non-finite metric");
}

#[test]
fn quick_suite_emits_every_declared_metric() {
    let started = Instant::now();
    let mut exercised = BTreeSet::new();
    for (workload, _) in WORKLOADS {
        let untraced = run_untraced(&options(workload, "suite")).expect(workload);
        assert_sound(workload, &untraced);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name), "{workload}: end-to-end metrics");
        for metric in &untraced.metrics {
            assert!(metric.value > 0.0, "{workload}: {} must never read 0", metric.name);
        }

        let options = options(workload, "suite");
        let traced = run_traced(&options).expect(workload);
        assert_sound(workload, &traced);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, declared, "{workload}: per-layer metrics");
        exercised
            .extend(declared.iter().filter(|name| !traced.not_exercised.contains(name)).copied());
        // Layers every workload replays are never filled in with a 0.
        for layer in ["apk.", "ir.", "icfg.", "core.", "gpusim.", "vetting.", "trace.", "bench."] {
            assert!(
                !traced.not_exercised.iter().any(|name| name.starts_with(layer)),
                "{workload}: a {layer}* metric was not emitted"
            );
        }

        let trace = options.out.join(format!("trace-{workload}.json"));
        let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(Some(events.len() as f64), traced.value("bench.spans"));
    }
    let declared: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(exercised, declared, "a declared metric is exercised by no workload");
    assert!(started.elapsed().as_secs() < 30, "the quick suite took {:?}", started.elapsed());
}

#[test]
fn the_predicted_asymmetries_hold() {
    let serve = run_traced(&options("serve_mixed", "asymmetries")).expect("serve_mixed");
    assert_eq!(serve.value("serve.phase_a_cache_hit_share"), Some(0.0));
    assert_eq!(serve.value("serve.phase_b_cache_hit_share"), Some(0.5));
    assert_eq!(serve.value("serve.cache_incremental_share"), Some(0.25));
    assert!(serve.value("analysis.incremental_reuse_share").unwrap() > 0.5);
    let campaign = run_traced(&options("campaign_libs", "asymmetries")).expect("campaign_libs");
    assert!(campaign.value("sumstore.hit_share").unwrap() > 0.0);
    assert!(campaign.value("campaign.copied_share").unwrap() > 0.5);
}

#[test]
fn an_unknown_workload_is_an_error() {
    assert!(run_untraced(&options("no_such_workload", "unknown")).is_err());
}
