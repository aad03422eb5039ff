//! `figures` — regenerates the paper's tables and figures.
//!
//! ```text
//! figures <experiment> [--apps N] [--scale S]
//!
//! experiments (the 20 modes `usage()` accepts):
//!   paper        table1 fig1 fig4 fig8 fig9 fig10 fig11 fig12 table2 all
//!   extensions   sancheck
//!   BENCH_*.json serve sumstore trace batch targeted corpus1000 snapshot10k
//!   dumps        csv debug
//!   --apps N   analyze the first N corpus apps (default 100; paper: 1000)
//!   --scale S  generator scale factor (default 1.0 = Table I calibration)
//! ```
//!
//! `serve` benchmarks the vetting service (worker/device scaling and a
//! cache-hit sweep) and writes `BENCH_serve.json`. `sumstore` vets
//! library corpora over duplication factors against their frozen library
//! store (cold) and against what the cold runs solved (warm) and writes
//! the byte-deterministic `BENCH_sumstore.json`. `trace` vets the corpus
//! traced and untraced, proving tracing never perturbs outcomes, and
//! writes the byte-deterministic `BENCH_trace.json`. `batch` sweeps
//! co-resident multi-app batching over degrees 1/2/4/8, asserts per-app
//! outcomes byte-identical to solo, and writes the byte-deterministic
//! `BENCH_batch.json`. `targeted` vets the corpus full and demand-driven
//! (backward sink slice), asserts per-app verdict agreement, and writes
//! the byte-deterministic `BENCH_targeted.json`. `corpus1000` streams the
//! paper's full speedup ladder (kernel rungs, targeted, batching K 2/4/8,
//! library store) over the 1000-app corpus at the `small` profile and
//! writes the byte-deterministic `BENCH_corpus1000.json`. `snapshot10k`
//! streams a rotated-journal campaign and a daily-delta lane and writes
//! the byte-deterministic
//! `BENCH_snapshot10k.json`. `sancheck` sweeps the sanitizer and lints
//! over the corpus (exit 1 unless CLEAN), `csv`/`debug` dump per-app rows.

use gdroid_apk::Corpus;
use gdroid_bench::{
    batch_benchmark, corpus1000_benchmark, experiments, run_corpus, sancheck_corpus,
    serve_benchmark, snapshot_benchmark, snapshot_rotate, sumstore_benchmark, targeted_benchmark,
    trace_benchmark, AppRecord, SNAPSHOT_SHARDS,
};
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_serve::service::EXECUTOR_HOST_THREADS;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: figures <table1|fig1|fig4|fig8|fig9|fig10|fig11|fig12|table2|all|csv|debug|sancheck|serve|sumstore|trace|batch|targeted|corpus1000|snapshot10k> \
         [--apps N] [--scale S]"
    );
    std::process::exit(2)
}

/// Reports an experiment's wall time with the most host threads one of
/// its launches ran blocks on ([`Device::host_threads`]).
fn done(t0: Instant, host_threads: usize) {
    eprintln!("…done in {:.1}s on {host_threads} host threads\n", t0.elapsed().as_secs_f64());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let experiment = args[0].clone();
    // The corpus-scale ladder defaults to the paper's full 1000 apps;
    // everything else defaults to the first 100.
    let mut apps = if experiment == "corpus1000" {
        1000
    } else if experiment == "snapshot10k" {
        10_000
    } else {
        100
    };
    let mut scale = 1.0f64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--apps" => {
                apps = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                i += 2;
            }
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            _ => usage(),
        }
    }

    let mut corpus = Corpus::paper_sized(apps);
    corpus.config.scale *= scale;
    // `serve` launches only on the service's devices and `sancheck` only on
    // sanitizing ones; every other mode launches on a default Tesla P40.
    let p40_threads = Device::new(DeviceConfig::tesla_p40()).host_threads();

    // The `BENCH_<mode>.json` modes: stderr banner, then `(json, summary)`.
    let (serve_jobs, detail_apps) = (apps.min(64), apps.min(20));
    type Runner<'a> = &'a dyn Fn() -> (String, String);
    let bench_modes: [(&str, String, Runner); 7] = [
        (
            "serve",
            format!("benchmarking the vetting service ({serve_jobs} jobs per point)"),
            &|| serve_benchmark(serve_jobs),
        ),
        ("sumstore", "benchmarking the summary store (dup factors 1/2/4/8)".into(), &|| {
            sumstore_benchmark(detail_apps)
        }),
        (
            "trace",
            "checking trace invariance over the corpus (traced vs untraced runs)".into(),
            &|| trace_benchmark(detail_apps),
        ),
        ("batch", "benchmarking co-resident batching (degrees 1/2/4/8)".into(), &|| {
            batch_benchmark(detail_apps)
        }),
        (
            "targeted",
            "benchmarking demand-driven targeted vetting (full vs sliced)".into(),
            &|| targeted_benchmark(detail_apps),
        ),
        (
            "corpus1000",
            format!("streaming the corpus-scale speedup ladder over {apps} apps (small profile)"),
            &|| corpus1000_benchmark(apps, scale),
        ),
        (
            "snapshot10k",
            format!(
                "streaming a rotated snapshot campaign over {apps} apps ({SNAPSHOT_SHARDS} shards, \
                 segments of {}) plus a delta lane",
                snapshot_rotate(apps)
            ),
            &|| snapshot_benchmark(apps),
        ),
    ];
    if let Some((mode, banner, run)) = bench_modes.into_iter().find(|m| m.0 == experiment) {
        eprintln!("{banner}…");
        let t0 = Instant::now();
        let (json, summary) = run();
        done(t0, if mode == "serve" { EXECUTOR_HOST_THREADS } else { p40_threads });
        let path = format!("BENCH_{mode}.json");
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        });
        print!("{summary}");
        eprintln!("wrote {path}");
        return;
    }

    if experiment == "sancheck" {
        eprintln!("sanitizing {apps} apps (scale {scale}) across all kernel variants…");
        let t0 = Instant::now();
        let outcome = sancheck_corpus(&corpus, apps);
        done(t0, Device::new(DeviceConfig::tesla_p40().with_sanitizer()).host_threads());
        println!("{outcome}");
        std::process::exit(if outcome.is_clean() { 0 } else { 1 });
    }

    let report: fn(&[AppRecord]) -> String = match experiment.as_str() {
        "table1" => experiments::table1,
        "fig1" => experiments::fig1,
        "fig4" => experiments::fig4,
        "fig8" => experiments::fig8,
        "fig9" => experiments::fig9,
        "fig10" => experiments::fig10,
        "fig11" => experiments::fig11,
        "fig12" => experiments::fig12,
        "table2" => experiments::table2,
        "all" => experiments::all,
        "debug" => experiments::debug,
        "csv" => experiments::csv,
        _ => usage(),
    };
    eprintln!("analyzing {apps} apps (scale {scale}) across all engines…");
    let t0 = Instant::now();
    let records = run_corpus(&corpus, apps);
    done(t0, p40_threads);
    println!("{}", report(&records));
}
