#!/usr/bin/env bash
# Mutation ledger: can the tier-1 suite tell a wrong analysis from a right
# one? Each reviewed one-line mutant under ci/mutants/ is applied to a
# scratch copy of the tree, the tier-1 tests run against it with
# --no-fail-fast, and the outcome is written to ci/golden/mutants.txt:
#
#   killed     a test that checks facts, verdicts or reports failed;
#   cost-only  only a modeled-cost pin failed (tests/ledger_pin.rs,
#              tests/corpus_pin.rs) — the response to those is to re-pin,
#              so they prove nothing about the analysis;
#   survived   every test passed.
#
# A mutant that hangs a test target is killed (CI would time out).
#
# Exits 1 if a mutant the committed table lists as killed is not killed
# any more, or if more mutants survive than the committed table lists.
# The survivor count may only fall (ROADMAP 14).
#
# Usage: bash ci/mutants.sh   (or ci/check.sh --mutants; one rebuild plus
# the tier-1 tests per mutant, ≈ 2–3 min each on two cores, 15 min more
# for each target a mutant hangs)
set -euo pipefail
cd "$(dirname "$0")/.."
table=ci/golden/mutants.txt
cost_pins='^tests/(ledger_pin|corpus_pin)\.rs::'

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
git ls-files -z --cached --others --exclude-standard |
  tar -C . --null --ignore-failed-read -T - -cf - | tar -xf - -C "$work/tree"

# Prints one `<target>::<test>` per failing test, `<target>::(crashed)` for
# a target that failed without naming a test, and `<target>::(timed out)`
# for one that ran past its budget. Each target runs on its own, so a
# mutant that hangs one target still runs the others.
failing_tests() {
  local log="$work/test.log" flags target status
  (cd "$work/tree" && cargo test --offline --no-run) >"$log" 2>&1 || {
    echo "(build)::(does not compile)"
    return
  }
  for target in src/lib.rs doc::gdroid $(cd "$work/tree" && ls tests/*.rs); do
    case $target in
      src/lib.rs) flags=--lib ;;
      doc::*) flags=--doc ;;
      *) flags="--test $(basename "$target" .rs)" ;;
    esac
    status=0
    # shellcheck disable=SC2086
    (cd "$work/tree" && timeout 900 cargo test --offline $flags) >"$log" 2>&1 || status=$?
    [ "$status" -eq 0 ] && continue
    [ "$status" -eq 124 ] && { echo "$target::(timed out)"; continue; }
    # Tests finish in thread order; sort them so the table is stable.
    sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$log" | LC_ALL=C sort | sed "s|^|$target::|" | grep . ||
      echo "$target::(crashed)"
  done
}

status_of() { # <failing tests, one a line>
  if [ -z "$1" ]; then
    echo survived
  elif echo "$1" | grep -qvE "$cost_pins"; then
    echo killed
  else
    echo cost-only
  fi
}

echo "mutants: the unmutated tree must pass first" >&2
baseline=$(failing_tests)
[ -z "$baseline" ] || {
  echo "$baseline" >&2
  echo "mutants: the unmutated tree already fails — fix it before measuring mutants" >&2
  exit 1
}

new_table="$work/mutants.txt"
{
  echo "# Mutation ledger: bash ci/mutants.sh (ci/check.sh --mutants) rewrites this file."
  echo "# One line a mutant (ci/mutants/<name>.patch): its status, then each failing test."
} >"$new_table"
for patch in ci/mutants/*.patch; do
  name=$(basename "$patch" .patch)
  echo "mutants: $name" >&2
  patch -s -p1 -d "$work/tree" <"$patch" || {
    echo "mutants: $patch no longer applies — review the mutant against the new code" >&2
    exit 1
  }
  failing=$(failing_tests)
  patch -s -R -p1 -d "$work/tree" <"$patch"
  if echo "$failing" | grep -q '^(build)::'; then
    echo "mutants: $name does not compile — a mutant must build" >&2
    exit 1
  fi
  printf '%-26s %s\n' "$name" "$(status_of "$failing")" >>"$new_table"
  [ -z "$failing" ] || echo "$failing" | sed 's/^/    /' >>"$new_table"
done
for status in killed cost-only survived; do
  echo "# $status: $(grep -cE "^[0-9a-z-]+ +$status\$" "$new_table" || true)"
done >>"$new_table"

regressed=""
if [ -f "$table" ]; then
  for name in $(awk '$2 == "killed" { print $1 }' "$table"); do
    awk -v n="$name" '$1 == n && $2 == "killed" { found = 1 } END { exit !found }' "$new_table" ||
      regressed+=" $name"
  done
  was=$(grep -cE '^[0-9a-z-]+ +survived$' "$table" || true)
  now=$(grep -cE '^[0-9a-z-]+ +survived$' "$new_table" || true)
  [ "$now" -le "$was" ] || regressed+=" (survivors $was -> $now)"
fi
cp "$new_table" "$table"
cat "$table"
[ -z "$regressed" ] || {
  echo "mutants: no longer killed:$regressed — a gate lost its teeth" >&2
  exit 1
}
