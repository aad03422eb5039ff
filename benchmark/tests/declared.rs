//! The declared metric lists, `BENCHMARK.json` and `README.md` must say
//! the same thing; results must survive a JSON round trip.

use gdroid::serve::Histogram;
use gdroid_benchmark::json::Json;
use gdroid_benchmark::metrics::{valid_name, valid_unit, END_TO_END, PER_LAYER, WORKLOADS};
use gdroid_benchmark::run::{Metric, RunResult};
use gdroid_benchmark::workloads::bucket_bound_ns;
use gdroid_benchmark::RUN_SECONDS;
use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn strings<'a>(doc: &'a Json, list: &str, key: &str) -> Vec<&'a str> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: {list} is not a list"))
        .iter()
        .map(|item| item.get(key).and_then(Json::as_str).expect("string member"))
        .collect()
}

#[test]
fn benchmark_json_matches_the_declared_lists() {
    let doc = Json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));
    assert_eq!(strings(&doc, "workloads", "name"), WORKLOADS.map(|w| w.0));
    assert_eq!(strings(&doc, "workloads", "why"), WORKLOADS.map(|w| w.1));

    let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, declared) in e2e.iter().zip(END_TO_END) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(declared.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(declared.unit));
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(declared.better.as_str()));
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(declared.bound));
        assert_eq!(entry.as_object().unwrap().len(), 4);
    }
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));

    let layers = doc.get("per_layer").and_then(Json::as_array).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, declared) in layers.iter().zip(PER_LAYER) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(declared.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(declared.unit));
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(declared.better.as_str()));
        assert_eq!(entry.as_object().unwrap().len(), 3);
    }
    assert!(read("../BENCHMARK.json").len() <= 64 * 1024);
}

#[test]
fn readme_names_every_workload_and_metric() {
    let readme = read("README.md");
    let names = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(readme.contains(&format!("`{name}`")), "README.md does not mention `{name}`");
    }
}

#[test]
fn result_objects_round_trip_through_json() {
    let result = RunResult {
        correct: true,
        attempted: 192,
        failed: 0,
        metrics: vec![
            Metric { name: "verdict_ms_p50", value: 81.427_898_5, unit: "ms" },
            Metric { name: "apps_per_s", value: 7.721_324_818_899_444, unit: "1/s" },
        ],
        not_exercised: Vec::new(),
    };
    let text = result.to_json().render();
    assert!(!text.contains('\n'), "the result object is one line");
    let back = Json::parse(&text).expect("result parses");
    assert_eq!(back, result.to_json());
    assert_eq!(back.as_object().unwrap().len(), 4);
    for metric in &result.metrics {
        let entry = back.get("metrics").and_then(|m| m.get(metric.name)).unwrap();
        assert_eq!(entry.get("value").and_then(Json::as_f64), Some(metric.value));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
        assert!(valid_name(metric.name) && valid_unit(metric.unit));
    }
    assert_eq!(result.value("apps_per_s"), Some(7.721_324_818_899_444));
}

/// `histogram_quantile_ns` re-derives quantiles from the buckets a
/// `ServiceReport` publishes; its bounds must be the service's own.
#[test]
fn histogram_bounds_are_the_services() {
    for i in 0..16 {
        let bound = bucket_bound_ns(i);
        assert_eq!(Histogram::bucket_for(bound), i, "bound {bound} is inclusive");
        assert_eq!(Histogram::bucket_for(bound + 1), i + 1);
    }
}
