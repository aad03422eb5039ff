//! `harness` — the benchmark's command line (see `run.sh`).
//!
//! ```text
//! harness --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one measured run; the last line of stdout is the result object
//! harness [--seed N] [--seconds S] [--quick]
//!     the whole suite: every metric as `workload name value unit`,
//!     out/results.json, out/trace-<workload>.json
//! harness --check-repeat [--seed N] [--seconds S] [--quick]
//!     the suite twice on one seed; fails unless the two agree
//! ```

use gdroid_benchmark::run::{run_traced, run_untraced, RunOptions};
use gdroid_benchmark::suite::{all_correct, check_repeat, run_suite, write_results, SuiteOptions};
use gdroid_benchmark::workloads::Sizes;
use gdroid_benchmark::{DEFAULT_SEED, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = parse_u64(&value()?).ok_or("--seed takes an unsigned integer")?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where scratch space, traces and `results.json` go: `$GDROID_BENCH_OUT`
/// (set by `run.sh`), else `out/` beside the package's manifest.
fn out_dir() -> PathBuf {
    std::env::var_os("GDROID_BENCH_OUT")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"), PathBuf::from)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("harness: {message}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    if let Some(workload) = args.workload {
        let opts = RunOptions {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            sizes: if args.quick { Sizes::QUICK } else { Sizes::FULL },
            out,
        };
        let result = if args.trace { run_traced(&opts)? } else { run_untraced(&opts)? };
        println!("{}", result.to_json().render());
        return Ok(result.correct);
    }

    let opts = SuiteOptions { seed: args.seed, seconds: args.seconds, quick: args.quick };
    let suites = run_suite(&opts, if args.check_repeat { 2 } else { 1 })?;
    write_results(&out, &suites[0])?;
    let mut ok = suites.iter().all(all_correct);
    if let [first, second] = suites.as_slice() {
        ok &= check_repeat(first, second);
    }
    if !ok {
        eprintln!("harness: FAILED (an output was wrong or two runs disagreed)");
    }
    Ok(ok)
}
