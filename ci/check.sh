#!/usr/bin/env bash
# Repo gate: formatting, lints, the tier-1 suite, the design ratchets, the
# bench drift gate, and the CLI smokes.
#
# Runs entirely offline — all third-party crates are vendored under
# vendor/ (see README.md, "Offline builds").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

echo "==> surface ratchet: the vetting/core entry-point lattice stays collapsed"
surface=$(grep -rn 'pub fn \(execute\|gpu_analyze\)' crates/vetting/src crates/core/src | wc -l)
[ "$surface" -le 5 ] || {
  echo "surface ratchet: $surface public execute*/gpu_analyze* entry points" \
    "(ceiling 5) — extend ExecPlan/ExecCtx instead of adding a wrapper" >&2
  exit 1
}

echo "==> retired-names ratchet: what EXPERIMENTS.md retired stays retired"
# crates/rel survives only because benchmark/Cargo.lock names it (ROADMAP
# 3a): an item-free lib.rs. None of the relational engine's, the per-app
# multi-GPU driver's, the blocks-per-SM tuner's, the hand-rolled JSON
# helpers', the full-sweep solver's, the component ICFG's, the unused DOT
# exporters', the device pool's or the second journal writer's names
# anywhere.
rel_files=$(find crates/rel/src -type f | sort | tr '\n' ' ')
[ "$rel_files" = "crates/rel/src/lib.rs " ] || {
  echo "retired-names ratchet: crates/rel/src holds $rel_files(want only lib.rs)" >&2
  exit 1
}
if grep -vE '^\s*(//.*)?$' crates/rel/src/lib.rs; then
  echo "retired-names ratchet: crates/rel/src/lib.rs must hold doc comments only" >&2
  exit 1
fi
retired='relation_scan|hash_join|probe_chain|MethodKernel|RelEngine|rel_jobs'
retired+='|gpu_analyze_app_multi|MultiGpuConfig|tune_blocks_per_sm|TuneResult'
retired+='|render_event|json::string|json::array'
retired+='|solve_method_sweep|ComponentIcfg|icfg_to_dot|cfg_to_dot|callsites_report'
retired+='|DevicePool|DeviceLease'
retired+='|ShardJournal|read_rotated_tail'
if grep -rnE "$retired" --include='*.rs' crates src tests examples; then
  echo "retired-names ratchet: a retired name is back (EXPERIMENTS.md, \"Retired: …\")" >&2
  exit 1
fi

echo "==> nothing-inert ratchet: no derive nobody consumes, no parallelism that is not"
# serde and rayon are manifest lines and vendor/ directories only, until
# the benchmark PR removes those (ROADMAP 3a-b, DESIGN.md "Nothing
# inert"); the one mention left in source is the tombstone's doc comment.
inert=$(grep -rnE 'serde|rayon|par_iter' --include='*.rs' crates src examples |
  grep -v '^crates/rel/src/lib.rs:[0-9]*://!' || true)
[ -z "$inert" ] || {
  echo "$inert" >&2
  echo "nothing-inert ratchet: a derive nothing serializes, or a par_iter that the" \
    "vendored stub runs on one thread, is back" >&2
  exit 1
}

echo "==> frozen-lock: building the harness leaves benchmark/Cargo.lock alone"
# benchmark/ changes only in a benchmark PR. A harness build that has to
# rewrite its lock file means a manifest line or a dependency edge moved.
lock_dir=$(mktemp -d)
trap 'rm -rf "$lock_dir"' EXIT
cargo build --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$lock_dir"
git show HEAD:benchmark/Cargo.lock | cmp - benchmark/Cargo.lock || {
  echo "frozen-lock: the harness build rewrote benchmark/Cargo.lock —" \
    "restore the manifest line it lost" >&2
  exit 1
}
rm -rf "$lock_dir"

echo "==> one-host-loop ratchet: the layered schedule is stated once per side"
# Outside #[cfg(test)], each side of the CPU/GPU divide derives summaries
# in exactly one place — core::fixpoint for every GPU launch policy,
# analysis::solver for every CPU entry point — and neither decides SCC
# recursion: CallLayers::sccs_by_layer does, once per SCC, from the one
# definition of is_recursive.
non_test_sites() { # <fixed string> <dir>...
  local call=$1; shift
  for f in $(find "$@" -name '*.rs'); do
    awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f"
  done | grep -cF "$call" || true
}
ratchet_name=one-host-loop
ratchet() { # <want> <fixed string> <hint> <dir>...
  local want=$1 call=$2 hint=$3; shift 3
  local sites; sites=$(non_test_sites "$call" "$@")
  [ "$sites" -eq "$want" ] || {
    echo "$ratchet_name ratchet: $sites non-test sites of \`$call\` under $*" \
      "(want exactly $want) — $hint" >&2
    exit 1
  }
}
gpu_hint="drive gdroid_core::Fixpoint instead of re-spelling the schedule"
cpu_hint="extend solver::drive and its known-result hook instead of adding a loop"
ratchet 1 'derive_summary(' "$gpu_hint" crates/core/src
# The definition and the driver's one call.
ratchet 2 'derive_summary(' "$cpu_hint" crates/analysis/src
ratchet 0 'par_iter(' "the layer map is a plain iterator until real threads land (ROADMAP 1b)" \
  crates/analysis/src
ratchet 0 '.is_recursive(' "read CallLayers::sccs_by_layer" crates/core/src crates/analysis/src
ratchet 1 'pub fn is_recursive(' "one definition" crates/icfg/src

echo "==> one-pipeline ratchet: every IDFG outside the tests is built by prepare_vetting + execute"
# Fig. 1's stages — environment synthesis, call graph, IDFG, taint plugin —
# are spelled once: prepare_vetting holds the one prepare_app call of the
# layers above gdroid-icfg, finish_vetting the one TaintAnalysis::new, and
# the measuring and CLI sides (figures, assess, gdroid stats|dot) name no
# solver — the fixed string `analyze_app(` also counts `gpu_analyze_app(`.
ratchet_name=one-pipeline
pipe_hint="call prepare_vetting + execute (vet_prepared) instead of spelling Fig. 1's stages"
ratchet 1 'TaintAnalysis::new(' "$pipe_hint" crates src
ratchet 1 'prepare_app(' "$pipe_hint" \
  crates/vetting/src crates/bench/src crates/serve/src crates/campaign/src src
ratchet 0 'analyze_app(' "$pipe_hint" crates/bench/src crates/vetting/src/assess.rs src

echo "==> prep-stage ratchet: the host front end stays linear in app size"
# What the service's prep worker runs per job (generate, call graph,
# identity hashes) does per-pool / per-graph work once, not per draw, per
# call site or per method (DESIGN.md, "Host cost of the prep stage"): the
# only `powf` is the Zipf table constructor's, no class-hierarchy subtree
# is rebuilt per site, and no method is hashed through a temporary String.
ratchet_name=prep-stage
ratchet 1 'powf(' "draw through an rng::Zipf table built once per pool" crates/apk/src
ratchet 0 'subtree_of(' "walk the ClassHierarchy that CallGraph::build indexes once" \
  crates/ir/src crates/icfg/src
ratchet 0 'format!("{m:?}")' "stream the Debug text into cache::FnvSink" crates/serve/src

echo "==> constructor ratchet: CallLayers has compute and one cut constructor"
constructors=$(grep -c 'pub fn compute' crates/icfg/src/layers.rs)
[ "$constructors" -le 2 ] || {
  echo "constructor ratchet: $constructors \`pub fn compute*\` in crates/icfg/src/layers.rs" \
    "(ceiling 2) — add a parameter to compute_cut instead of a constructor" >&2
  exit 1
}

echo "==> one-writer ratchet: JSON is rendered by gdroid_trace::json only"
# Commas, quoting, escaping and the number rules live in JsonWriter
# (DESIGN.md, "JSON output: one writer"); outside it and outside tests no
# format string opens a JSON object by hand.
writer=crates/trace/src/json.rs
hand_json=$(non_test_sites '{{\"' crates src examples ! -path "$writer")
[ "$hand_json" -eq 0 ] || {
  echo "one-writer ratchet: $hand_json hand-formatted \`{{\\\"\` site(s) outside $writer —" \
    "write the document through JsonWriter instead" >&2
  exit 1
}

echo "==> one-journal ratchet: the on-disk layout is campaign::journal's decision"
# Single file or rotated segments, which file is newest, what a directory
# in the wrong layout means: one module answers (DESIGN.md, "One journal
# type, two layouts"). Everything else may *set* `rotate_records`; nothing
# else branches on it or builds a segment's path.
ratchet_name=one-journal
journal=crates/campaign/src/journal.rs
journal_hint="ask journal::{SegmentedJournal, read_shard_tail, newest_segment} instead"
for site in 'segment_path(' 'rotate_records.is_some()' 'match config.rotate_records'; do
  ratchet 0 "$site" "$journal_hint" crates src examples ! -path "$journal" ! -path '*/tests/*'
done

echo "==> hot-path ratchet: warp_process allocates nothing per step"
# BlockCtx::warp_process runs once per simulated warp step; its buffers are
# the Device-owned WarpScratch (DESIGN.md, "Host cost of the simulator").
if awk '/pub fn warp_process/ { on = 1; next } on && /pub fn / { exit } on' \
  crates/gpusim/src/block.rs | grep -nE '\.collect\(\)|Vec::new\(|vec!\[|HashMap'; then
  echo "hot-path ratchet: a per-step collection is back in BlockCtx::warp_process —" \
    "reuse WarpScratch instead" >&2
  exit 1
fi

echo "==> bench drift: the cheap committed goldens match a regeneration"
cargo build --release -p gdroid-bench --bin figures
repo_root=$PWD
drift_dir=$(mktemp -d)
trap 'rm -rf "$drift_dir"' EXIT
for bench in trace targeted sumstore persist batch; do
  (cd "$drift_dir" && "$repo_root/target/release/figures" "$bench" >/dev/null)
  cmp "$drift_dir/BENCH_$bench.json" "BENCH_$bench.json" || {
    echo "bench drift: BENCH_$bench.json is stale — a modeled number moved;" \
      "regenerate it with \`figures $bench\` in the same change" >&2
    exit 1
  }
done
# corpus1000 and snapshot10k are too slow to regenerate at their committed
# N; reduced-N goldens stand in for them (and for run-to-run determinism).
while read -r bench golden flags; do
  (cd "$drift_dir" && "$repo_root/target/release/figures" "$bench" $flags >/dev/null)
  cmp "$drift_dir/BENCH_$bench.json" "ci/golden/$golden" || {
    echo "bench drift: ci/golden/$golden is stale — a modeled number moved;" \
      "regenerate it with \`figures $bench $flags\` in the same change" >&2
    exit 1
  }
done <<'GOLDENS'
corpus1000 BENCH_corpus1000.apps16.scale0.1.json --apps 16 --scale 0.1
snapshot10k BENCH_snapshot10k.apps48.json --apps 48
GOLDENS
# The paper's own table (Table I/II, Figs. 1, 4, 8–12) at 20 apps: stdout,
# not a BENCH file. `figures_1000.txt` is the same text at N = 1000.
"$repo_root/target/release/figures" all --apps 20 >"$drift_dir/figures_all.txt" 2>/dev/null
cmp "$drift_dir/figures_all.txt" ci/golden/figures_all.apps20.txt || {
  echo "bench drift: ci/golden/figures_all.apps20.txt is stale — a paper figure moved;" \
    "regenerate it with \`figures all --apps 20\`, and figures_1000.txt and the" \
    "EXPERIMENTS.md headline rows with \`figures all --apps 1000\`, in the same change" >&2
  exit 1
}
rm -rf "$drift_dir"

echo "==> doc rot: every path, figures mode and gdroid verb DESIGN.md and README.md name exists"
# A section that retells history marks its heading "(historical)" and is
# skipped; everywhere else a named crates/… or tests/… path is a claim
# about the tree, and a `figures <mode>` / `gdroid <verb>` in a code span,
# a code block or a `--bin … --` command line is a claim about what the
# binary's usage() accepts.
figures_usage=$(./target/release/figures 2>&1 || true)
gdroid_usage=$(./target/release/gdroid 2>&1 || true)
rot=$(awk '
  /^```/ { fenced = !fenced; next }
  !fenced && /^#+ / { historical = /\(historical\)/ }
  historical { next }
  {
    line = $0
    while (match(line, /(crates|tests)\/[A-Za-z0-9_.\/-]*/)) {
      path = substr(line, RSTART, RLENGTH)
      sub(/[.\/-]+$/, "", path)
      print FILENAME ":" FNR " path " path
      line = substr(line, RSTART + RLENGTH)
    }
    line = $0
    verb = fenced ? "(figures|gdroid)( --)? [a-z][a-z0-9|]*" : "(`|--bin )(figures|gdroid)( --)? [a-z][a-z0-9|]*"
    while (match(line, verb)) {
      hit = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      sub(/^(`|--bin )/, "", hit)
      sub(/ -- /, " ", hit)
      split(hit, words, " ")
      n = split(words[2], names, "|")
      for (i = 1; i <= n; i++) print FILENAME ":" FNR " " words[1] " " names[i]
    }
  }' DESIGN.md README.md | while read -r where kind name; do
  case $kind in
    path) [ -e "$name" ] ;;
    figures) echo "$figures_usage" | grep -qE "[<|]$name[|>]" ;;
    gdroid) echo "$gdroid_usage" | grep -qE "^  gdroid $name( |\$)" ;;
  esac || echo "$where names $kind $name"
done)
[ -z "$rot" ] || {
  echo "$rot" >&2
  echo "doc rot: a path, figures mode or gdroid verb the docs name is gone — fix the" \
    "sentence, or mark its section heading (historical)" >&2
  exit 1
}

echo "==> serve smoke: 10 apps through the vetting service"
serve_out=$(./target/release/gdroid serve --apps 10 --workers 2 --devices 2 --json)
echo "$serve_out" | grep -q '"quarantined":0,' || {
  echo "serve smoke: quarantined jobs detected" >&2
  exit 1
}

echo "==> trace smoke: same-seed traces parse and are byte-identical"
trace_dir=$(mktemp -d)
store_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir" "$store_dir"' EXIT
./target/release/gdroid vet 42 --trace "$trace_dir/a.json" >/dev/null
./target/release/gdroid vet 42 --trace "$trace_dir/b.json" >/dev/null
python3 -m json.tool "$trace_dir/a.json" >/dev/null || {
  echo "trace smoke: trace is not valid JSON" >&2
  exit 1
}
cmp -s "$trace_dir/a.json" "$trace_dir/b.json" || {
  echo "trace smoke: same-seed traces differ byte-for-byte" >&2
  exit 1
}

echo "==> sumstore smoke: 10 apps cold then warm against one store"
cold=$(./target/release/gdroid serve --apps 10 --workers 2 --devices 2 --sumstore "$store_dir" --digest)
warm_json=$(./target/release/gdroid serve --apps 10 --workers 2 --devices 2 --sumstore "$store_dir" --json)
warm=$(./target/release/gdroid serve --apps 10 --workers 2 --devices 2 --sumstore "$store_dir" --digest)
[ "$cold" = "$warm" ] || {
  echo "sumstore smoke: warm digests differ from cold" >&2
  exit 1
}
if echo "$warm_json" | grep -q '"sumstore":{"hits":0,'; then
  echo "sumstore smoke: warm run never hit the store" >&2
  exit 1
fi

echo "==> batch smoke: batches form under co-residency"
batch_out=$(./target/release/gdroid serve --apps 10 --workers 2 --devices 1 --coresident 4 --json)
echo "$batch_out" | grep -q '"quarantined":0,' || {
  echo "batch smoke: quarantined jobs under co-residency" >&2
  exit 1
}
echo "$batch_out" | grep -q '"coresidency":' || {
  echo "batch smoke: report missing coresidency" >&2
  exit 1
}

echo "==> targeted smoke: full and sliced verdicts agree"
full_vet=$(./target/release/gdroid vet 42 --json)
targeted_vet=$(./target/release/gdroid vet 42 --targeted --json)
if ! python3 - "$full_vet" "$targeted_vet" <<'PY'
import json, sys
full, targeted = json.loads(sys.argv[1]), json.loads(sys.argv[2])
assert full["report"] == targeted["report"], "targeted verdict diverged from full"
assert "targeted" not in full, "full outcome must carry no provenance"
assert targeted["targeted"]["sliced_fraction"] <= 1.0
PY
then
  echo "targeted smoke: full vs targeted verdict mismatch" >&2
  exit 1
fi

echo "==> typo smoke: an undefined flag or an unparsable value is refused, not defaulted"
for typo in "vet 42 --targetted --json" "serve --apps 2 --workers x"; do
  typo_status=0
  # shellcheck disable=SC2086
  ./target/release/gdroid $typo >/dev/null 2>&1 || typo_status=$?
  [ "$typo_status" -eq 2 ] || {
    echo "typo smoke: \`gdroid $typo\` exited $typo_status, want 2" >&2
    exit 1
  }
done

echo "==> campaign smoke: kill/resume reproduces the fleet report byte-for-byte"
camp_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir" "$store_dir" "$camp_dir"' EXIT
./target/release/gdroid campaign --apps 20 --shards 2 --journal-dir "$camp_dir/j2" \
  --out "$camp_dir/fleet-a.json" --verdicts "$camp_dir/verdicts-2.txt" >/dev/null
# Simulate a crash mid-append: cut the shard-0 journal inside a record,
# then resume over the same directory.
journal="$camp_dir/j2/shard-0.journal"
head -c $(( $(wc -c < "$journal") - 120 )) "$journal" > "$camp_dir/cut" && mv "$camp_dir/cut" "$journal"
./target/release/gdroid campaign --apps 20 --shards 2 --journal-dir "$camp_dir/j2" \
  --out "$camp_dir/fleet-b.json" >/dev/null
cmp -s "$camp_dir/fleet-a.json" "$camp_dir/fleet-b.json" || {
  echo "campaign smoke: resumed fleet report differs from the uninterrupted one" >&2
  exit 1
}

echo "==> campaign smoke: shard layout never changes a verdict"
./target/release/gdroid campaign --apps 20 --shards 1 --journal-dir "$camp_dir/j1" \
  --verdicts "$camp_dir/verdicts-1.txt" >/dev/null
cmp -s "$camp_dir/verdicts-2.txt" "$camp_dir/verdicts-1.txt" || {
  echo "campaign smoke: 2-shard verdicts differ from the 1-shard run" >&2
  exit 1
}

echo "==> campaign smoke: a directory journaled in the other layout is refused"
mixed_status=0
mixed_err=$(./target/release/gdroid campaign --apps 20 --shards 1 --rotate 4 --scale 0.1 \
  --journal-dir "$camp_dir/j1" --verdicts "$camp_dir/verdicts-mixed.txt" 2>&1 >/dev/null) ||
  mixed_status=$?
[ "$mixed_status" -ne 0 ] && echo "$mixed_err" | grep -q 'shard-0.journal .*--fresh' || {
  echo "campaign smoke: a rotated run over a single-file directory exited $mixed_status" \
    "without naming the stale journal" >&2
  exit 1
}

echo "==> engine smoke: the retired engine is refused and the engines agree"
rel_status=0
rel_err=$(./target/release/gdroid vet 42 --engine rel 2>&1 >/dev/null) || rel_status=$?
[ "$rel_status" -eq 2 ] || {
  echo "engine smoke: \`vet --engine rel\` exited $rel_status, want 2" >&2
  exit 1
}
echo "$rel_err" | grep -qF -- '--engine plain|mat|matgrp|gdroid|worklist|cpu|mtcpu|amandroid' || {
  echo "engine smoke: the refusal does not name the seven accepted engines" >&2
  exit 1
}
worklist_vet=$(./target/release/gdroid vet 42 --engine worklist --json)
cpu_vet=$(./target/release/gdroid vet 42 --engine cpu --json)
if ! python3 - "$worklist_vet" "$cpu_vet" <<'PY'
import json, sys
# Timings and telemetry are engine-shaped; the report is the contract.
worklist, cpu = (json.loads(a) for a in sys.argv[1:3])
assert cpu["report"] == worklist["report"], "cpu verdict diverged from worklist"
PY
then
  echo "engine smoke: engine verdicts diverged" >&2
  exit 1
fi

echo "==> persist smoke: the exec modes agree"
multi_vet=$(./target/release/gdroid vet 42 --exec multi --json)
persist_vet=$(./target/release/gdroid vet 42 --exec persistent --json)
if ! python3 - "$multi_vet" "$persist_vet" <<'PY'
import json, sys
# Timings and launch counts are mode-shaped; the report is the contract.
multi, persist = (json.loads(a) for a in sys.argv[1:3])
assert persist["report"] == multi["report"], "persistent verdict diverged from multi-launch"
PY
then
  echo "persist smoke: exec-mode verdicts diverged" >&2
  exit 1
fi

echo "==> snapshot smoke: rotated kill/resume reproduces the fleet report byte-for-byte"
snap_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir" "$store_dir" "$camp_dir" "$snap_dir"' EXIT
./target/release/gdroid campaign --apps 20 --shards 2 --rotate 3 --journal-dir "$snap_dir/jr" \
  --out "$snap_dir/fleet-a.json" >/dev/null
# Kill twice: first cut the newest shard-0 segment mid-record, resume; then
# cut the (new) unsealed tail again and resume once more. Both recoveries
# must converge on the uninterrupted report.
newest_segment() {
  for f in "$snap_dir/jr"/shard-0.journal.*; do echo "${f##*.} $f"; done | sort -n | tail -1 | cut -d' ' -f2-
}
newest=$(newest_segment)
head -c $(( $(wc -c < "$newest") - 40 )) "$newest" > "$snap_dir/cut" && mv "$snap_dir/cut" "$newest"
./target/release/gdroid campaign --apps 20 --shards 2 --rotate 3 --journal-dir "$snap_dir/jr" \
  --out "$snap_dir/fleet-b.json" >/dev/null
cmp -s "$snap_dir/fleet-a.json" "$snap_dir/fleet-b.json" || {
  echo "snapshot smoke: resume after a mid-segment cut diverged" >&2
  exit 1
}
newest=$(newest_segment)
head -c $(( $(wc -c < "$newest") / 2 )) "$newest" > "$snap_dir/cut" && mv "$snap_dir/cut" "$newest"
./target/release/gdroid campaign --apps 20 --shards 2 --rotate 3 --journal-dir "$snap_dir/jr" \
  --out "$snap_dir/fleet-c.json" >/dev/null
cmp -s "$snap_dir/fleet-a.json" "$snap_dir/fleet-c.json" || {
  echo "snapshot smoke: resume after an unsealed-tail cut diverged" >&2
  exit 1
}

echo "ci/check.sh: all green"
