//! One measured run of one workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer ones.

use crate::json::Json;
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::workloads::{self, Latency, Pass, Scratch, Sizes, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed region runs (whole passes, at least one).
    pub seconds: f64,
    /// Pool sizes.
    pub sizes: Sizes,
    /// The benchmark's output directory (scratch space and traces).
    pub out: PathBuf,
}

/// One emitted metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

/// The result of a run: what the last line of standard output carries.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Whether every output checked out.
    pub correct: bool,
    /// Verdicts requested (timed region) plus oracle comparisons made.
    pub attempted: u64,
    /// Of those: failed, quarantined, refused, or oracle-mismatched.
    pub failed: u64,
    /// Every declared metric of the run's kind, in declaration order.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics this workload does not exercise, reported as 0.
    pub not_exercised: Vec<&'static str>,
}

impl RunResult {
    /// The contract's result object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::object(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::object([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.to_owned())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

fn set_up(opts: &RunOptions, scratch: &Scratch) -> Result<Box<dyn Workload>, String> {
    workloads::setup(&opts.workload, opts.seed, opts.sizes, scratch)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: set-up (repeated, median reported), whole passes
/// until `seconds` have elapsed, then the oracle. Emits every end-to-end
/// metric.
pub fn run_untraced(opts: &RunOptions) -> Result<RunResult, String> {
    let scratch = Scratch::new(&opts.out).map_err(|e| format!("scratch dir: {e}"))?;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(set_up(opts, &scratch)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPEATS > 0");

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut samples = 0;
    let mut sampled = true;
    let mut peak_rss = None;
    while passes.is_empty()
        || started.elapsed().as_secs_f64() < opts.seconds
        || (sampled && samples < opts.sizes.min_latency_samples)
    {
        let pass = workload.pass();
        match &pass.latency {
            Latency::Samples(s) => samples += s.len(),
            Latency::Quantiles(..) => sampled = false,
        }
        passes.push(pass);
        // Memory is read when the first pass ends. Every later pass
        // starts a fresh service on fresh threads, and what the allocator
        // keeps per thread would make the peak grow with the pass count.
        peak_rss.get_or_insert_with(peak_rss_mb);
    }
    let peak_rss = peak_rss.expect("at least one pass ran");
    let (compared, mismatched) = workloads::verify(workload.as_ref(), &passes);

    let (p50, p90) = verdict_percentiles(&passes);
    let values = [median(&setup_s), best_rate(&passes), p50, p90, peak_rss];
    let attempted = passes.iter().map(|p| p.attempted).sum::<u64>() + compared;
    let failed = passes.iter().map(|p| p.failed).sum::<u64>() + mismatched;
    eprintln!(
        "{}: {} passes, {:.2} s timed, {} verdicts compared with the oracle",
        opts.workload,
        passes.len(),
        started.elapsed().as_secs_f64(),
        compared
    );
    Ok(RunResult {
        correct: failed == 0 && compared > 0,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric { name: m.name, value, unit: m.unit })
            .collect(),
        not_exercised: Vec::new(),
    })
}

/// Each pool slot's best (smallest) verdict latency over all passes, and
/// the number of raw samples behind them.
///
/// Why best-of and not a median over passes: on this shared machine
/// interference only ever *adds* time, in episodes from a fraction of a
/// second to minutes. In a noisy period the median-of-passes rate of
/// `vet_paper` spread 13.6 % over ten runs, the best-of-passes one 5.0 %.
fn best_latencies(passes: &[Pass]) -> (BTreeMap<usize, f64>, usize) {
    let mut best = BTreeMap::new();
    let mut raw = 0;
    for pass in passes {
        if let Latency::Samples(samples) = &pass.latency {
            raw += samples.len();
            for &(slot, ms) in samples {
                let entry = best.entry(slot).or_insert(ms);
                *entry = entry.min(ms);
            }
        }
    }
    (best, raw)
}

/// `apps_per_s`: jobs ÷ timed wall seconds of the best pass. Where a pass
/// is a serial loop whose wall time is the sum of its per-app latencies,
/// the best pass is assembled app by app from each app's best latency.
fn best_rate(passes: &[Pass]) -> f64 {
    let rates: Vec<f64> = passes.iter().map(|p| p.jobs as f64 / p.seconds).collect();
    eprintln!("per-pass apps_per_s: {rates:.3?}");
    if passes.iter().all(|p| p.serial) {
        let (best, _) = best_latencies(passes);
        return best.len() as f64 / (best.values().sum::<f64>() / 1e3);
    }
    rates.into_iter().fold(0.0, f64::max)
}

/// `(p50, p90)` of the verdict latency.
///
/// * Serial passes: percentiles over the pool of each app's best latency.
/// * Concurrent passes: percentiles over the samples of all passes
///   pooled. A job's latency there depends on the job it shares the
///   service with, so there is no per-app "undisturbed" time to take the
///   best of, and the pooled tail has three times the order statistics.
/// * Where the program publishes only quantiles: the best pass's.
fn verdict_percentiles(passes: &[Pass]) -> (f64, f64) {
    let (best, raw) = best_latencies(passes);
    if best.is_empty() {
        eprintln!(
            "verdict_ms: interpolated from the service's stage histograms, {} passes",
            passes.len()
        );
        let published = passes.iter().filter_map(|p| match p.latency {
            Latency::Quantiles(p50, p90) => Some((p50, p90)),
            Latency::Samples(_) => None,
        });
        return published
            .fold((f64::INFINITY, f64::INFINITY), |(a, b), (p50, p90)| (a.min(p50), b.min(p90)));
    }
    // The rule for which tail a sample may carry; p90 needs >= 100.
    let supported =
        highest_supported_percentile(raw).map_or_else(|| "none".to_owned(), |p| format!("p{p}"));
    eprintln!(
        "verdict_ms: {raw} samples over {} apps; highest percentile with >=10 samples beyond it: \
         {supported}",
        best.len()
    );
    let sample: Vec<f64> = if passes.iter().all(|p| p.serial) {
        best.into_values().collect()
    } else {
        passes
            .iter()
            .flat_map(|p| match &p.latency {
                Latency::Samples(samples) => samples.as_slice(),
                Latency::Quantiles(..) => &[],
            })
            .map(|&(_, ms)| ms)
            .collect()
    };
    (
        percentile(&sample, 50.0).expect("at least one app was vetted"),
        percentile(&sample, 90.0).expect("at least one app was vetted"),
    )
}

/// The traced run: one counted pass of the workload (for the counters
/// the program publishes), the replay of a sample through every layer,
/// and the span-overhead measurement. Emits every per-layer metric and
/// writes `trace-<workload>.json`.
pub fn run_traced(opts: &RunOptions) -> Result<RunResult, String> {
    let scratch = Scratch::new(&opts.out).map_err(|e| format!("scratch dir: {e}"))?;
    let mut workload = set_up(opts, &scratch)?;
    let pass = workload.pass();
    let (compared, mismatched) = workloads::verify(workload.as_ref(), std::slice::from_ref(&pass));

    let sample = workload.sample(opts.sizes.trace_sample);
    drop(workload);
    let replay = layers::replay(&sample, opts.sizes.ladder_sample, opts.seed, &scratch);
    let (overhead, accounted, vet_ms) = layers::span_overhead(&sample);

    let mut values: BTreeMap<&'static str, f64> = replay.values;
    values.extend(pass.layer.iter().map(|(k, v)| (*k, *v)));
    values.insert("bench.span_overhead_share", overhead);
    values.insert("bench.accounted_share", accounted);
    values.insert("bench.vet_ms_p50", vet_ms);
    values.insert("bench.counted_apps_per_s", pass.jobs as f64 / pass.seconds);
    values.insert("bench.counted_jobs", pass.jobs as f64);
    if let Some(stray) = values.keys().find(|k| crate::metrics::per_layer(k).is_none()) {
        return Err(format!("metric {stray} is emitted but not declared"));
    }

    let trace_path = opts.out.join(format!("trace-{}.json", opts.workload));
    std::fs::write(&trace_path, replay.recorder.to_chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let failed = pass.failed + mismatched + replay.mismatched;
    let not_exercised: Vec<&'static str> =
        PER_LAYER.iter().map(|m| m.name).filter(|name| !values.contains_key(name)).collect();
    Ok(RunResult {
        correct: failed == 0 && compared > 0,
        attempted: pass.attempted + compared + replay.compared,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: values.get(m.name).copied().unwrap_or(0.0),
                unit: m.unit,
            })
            .collect(),
        not_exercised,
    })
}
