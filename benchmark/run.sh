#!/usr/bin/env bash
# Builds the benchmark harness (offline) and hands every argument to it.
#
#   benchmark/run.sh                       whole suite: 4 workloads, untraced + traced
#   benchmark/run.sh --check-repeat        suite twice on one seed, compared
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one measured run (the BENCHMARK.json command)
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
export GDROID_BENCH_OUT="${GDROID_BENCH_OUT:-$here/out}"
exec "$target/release/harness" "$@"
