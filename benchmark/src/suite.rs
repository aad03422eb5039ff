//! The whole suite: every workload, untraced then traced, each run in
//! its own child process (so `peak_rss_mb` is that workload's alone),
//! collected into `results.json`; and the `--check-repeat` comparison of
//! two suites run on one seed.

use crate::json::Json;
use crate::metrics::{per_layer, Ledger, END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// How the suite runs its children.
#[derive(Clone, Debug)]
pub struct SuiteOptions {
    /// Input seed handed to every run.
    pub seed: u64,
    /// Seconds each run measures for.
    pub seconds: f64,
    /// Smoke-test sizes.
    pub quick: bool,
}

/// Runs one child (`--workload W --trace T`) of this executable and
/// parses the result object on its last line of standard output.
fn run_child(opts: &SuiteOptions, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} (trace {trace}) exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or_else(|| format!("{workload}: no output"))?;
    Json::parse(last).map_err(|e| format!("{workload}: {e}"))
}

/// Runs every workload untraced and traced, `copies` times each, and
/// returns one results document per copy; the first copy's metrics are
/// printed as `workload name value unit`. The copies of one workload run
/// back to back (A B, not all of A then all of B): this machine's speed
/// drifts over minutes, and a repeat should see as little of that drift
/// as possible.
pub fn run_suite(opts: &SuiteOptions, copies: usize) -> Result<Vec<Json>, String> {
    let mut workloads = vec![BTreeMap::new(); copies];
    for (name, _) in WORKLOADS {
        let mut runs = vec![Vec::new(); copies];
        for trace in [false, true] {
            for copy in &mut runs {
                copy.push(run_child(opts, name, trace)?);
            }
        }
        for (copy, (workloads, runs)) in workloads.iter_mut().zip(runs).enumerate() {
            let [end_to_end, per_layer]: [Json; 2] =
                runs.try_into().expect("one untraced and one traced run");
            if copy == 0 {
                print_metrics(name, &end_to_end);
                print_metrics(name, &per_layer);
            }
            workloads.insert(
                name.to_owned(),
                Json::object([("end_to_end", end_to_end), ("per_layer", per_layer)]),
            );
        }
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    Ok(workloads
        .into_iter()
        .map(|workloads| {
            Json::object([
                ("seed", Json::Num(opts.seed as f64)),
                ("seconds", Json::Num(opts.seconds)),
                ("quick", Json::Bool(opts.quick)),
                ("cpus", Json::Num(cpus as f64)),
                ("workloads", Json::Obj(workloads)),
            ])
        })
        .collect())
}

fn metrics_of(result: &Json) -> impl Iterator<Item = (&String, f64, &str)> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .into_iter()
        .flatten()
        .filter_map(|(name, m)| Some((name, m.get("value")?.as_f64()?, m.get("unit")?.as_str()?)))
}

fn print_metrics(workload: &str, result: &Json) {
    for (name, value, unit) in metrics_of(result) {
        println!("{workload} {name} {value} {unit}");
    }
    let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let (attempted, failed) = (count("attempted"), count("failed"));
    println!("{workload} failed_share {} share", failed / attempted.max(1.0));
}

/// Whether every run of `results` reported `correct` with nothing failed.
pub fn all_correct(results: &Json) -> bool {
    results.get("workloads").and_then(Json::as_object).is_some_and(|workloads| {
        workloads.values().all(|w| {
            ["end_to_end", "per_layer"].iter().all(|kind| {
                let run = w.get(kind);
                run.and_then(|r| r.get("correct")).and_then(Json::as_bool) == Some(true)
                    && run.and_then(|r| r.get("failed")).and_then(Json::as_f64) == Some(0.0)
            })
        })
    })
}

/// Writes `results` to `<out>/results.json`.
pub fn write_results(out: &Path, results: &Json) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join("results.json");
    std::fs::write(&path, results.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// How two runs of one metric compare.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Agreement {
    /// Host metric within its bound, or modeled metric bit-equal.
    Agrees,
    /// Host metric with no bound (per-layer): difference reported only.
    Reported,
    /// Host metric whose two readings differ by more than its bound: the
    /// benchmark cannot resolve a change of that size.
    Unresolved,
    /// Modeled-ledger metric that did not repeat exactly.
    NotExact,
}

/// Compares one metric's two readings. `bound` is `Some` for end-to-end
/// metrics; `exact` for the modeled ledger.
pub fn compare(a: f64, b: f64, bound: Option<f64>, exact: bool) -> Agreement {
    if exact {
        return if a.to_bits() == b.to_bits() { Agreement::Agrees } else { Agreement::NotExact };
    }
    match bound {
        None => Agreement::Reported,
        Some(bound) if relative_difference(a, b) <= bound => Agreement::Agrees,
        Some(_) => Agreement::Unresolved,
    }
}

/// `|a − b|` as a share of the mean of the two.
pub fn relative_difference(a: f64, b: f64) -> f64 {
    let mean = (a.abs() + b.abs()) / 2.0;
    if mean == 0.0 {
        0.0
    } else {
        (a - b).abs() / mean
    }
}

/// Compares two suites run on one seed, printing one line per metric.
/// Returns whether every end-to-end host metric agrees within its bound
/// and every modeled-ledger metric is bit-equal.
pub fn check_repeat(first: &Json, second: &Json) -> bool {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for kind in ["end_to_end", "per_layer"] {
            let run = |doc: &Json| -> BTreeMap<String, f64> {
                doc.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get(kind))
                    .map(|r| metrics_of(r).map(|(n, v, _)| (n.clone(), v)).collect())
                    .unwrap_or_default()
            };
            let (a, b) = (run(first), run(second));
            for (name, &va) in &a {
                let Some(&vb) = b.get(name) else {
                    println!("{workload} {name} MISSING in the second run");
                    ok = false;
                    continue;
                };
                let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
                let exact = per_layer(name).is_some_and(|m| m.ledger == Ledger::Modeled);
                let agreement = compare(va, vb, bound, exact);
                let label = match agreement {
                    Agreement::Agrees if exact => "exact",
                    Agreement::Agrees => "within-bound",
                    Agreement::Reported => "host",
                    Agreement::Unresolved => "unresolved",
                    Agreement::NotExact => "NOT-EXACT",
                };
                println!(
                    "{workload} {name} {va} {vb} diff {:.4} {label}",
                    relative_difference(va, vb)
                );
                ok &= matches!(agreement, Agreement::Agrees | Agreement::Reported);
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_metrics_compare_within_their_bound() {
        assert_eq!(compare(100.0, 104.0, Some(0.10), false), Agreement::Agrees);
        assert_eq!(compare(100.0, 125.0, Some(0.10), false), Agreement::Unresolved);
        assert_eq!(compare(100.0, 900.0, None, false), Agreement::Reported);
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
        assert!((relative_difference(90.0, 110.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn modeled_metrics_must_be_bit_equal() {
        assert_eq!(compare(2.2405, 2.2405, None, true), Agreement::Agrees);
        assert_eq!(compare(2.2405, 2.2405 + 1e-12, None, true), Agreement::NotExact);
        assert_eq!(compare(0.0, -0.0, None, true), Agreement::NotExact);
    }
}
