#!/usr/bin/env bash
# Determinism-sanitizer lane, runtime layer: stock yafim / mrapriori /
# streaming T10I4D100K runs must replay clean under --detsan=error with
# output identical to an uninstrumented run, while the committed impure
# fixtures (--detsan-selftest) must diverge -- exit 4 under --detsan=error,
# YL007 naming each fixture node in both modes. Also pins the --lint=error
# exit-code contract under --stream: 0 on a clean run, 3 on a diagnostic.
#
# Usage: scripts/ci/detsan.sh [BUILD_DIR]     (default: build)
# Needs BUILD_DIR/examples/mine_cli built. Leaves its outputs (reference.txt,
# detsan_*.txt, selftest_*.txt, stream_lint_*.txt) in the current directory
# and exits nonzero on the first failed check. Runs offline in a few seconds;
# registered as the ctest test `detsan_smoke` (label `smoke`).
set -euo pipefail

build=${1:-build}
mine_cli="$build/examples/mine_cli"
if [ ! -x "$mine_cli" ]; then
  echo "error: $mine_cli not found; build the mine_cli target first" >&2
  exit 2
fi

fail() {
  echo "::error::$*"
  exit 1
}

# Uninstrumented reference run.
"$mine_cli" --generate=t10 --engine=yafim --quiet --top=0 \
  | grep -v '^#' >reference.txt

# Stock yafim and mrapriori replay clean, output identical to the reference.
for engine in yafim mrapriori; do
  out="detsan_${engine}.txt"
  "$mine_cli" --generate=t10 --engine="$engine" --detsan=error --quiet \
    --top=0 | tee "$out" | grep '^# detsan:'
  grep -q '^# detsan: tasks_replayed=[1-9].* divergences=0$' "$out" \
    || fail "$engine: no clean replay line"
  grep -v '^#' "$out" >"detsan_${engine}_sets.txt"
  diff reference.txt "detsan_${engine}_sets.txt"
  echo "$engine: replayed clean, output identical to uninstrumented run"
done

# Streaming replays clean.
"$mine_cli" --generate=t10 --stream --stream-batches=10 --detsan=error \
  --quiet --top=0 | tee detsan_stream.txt | grep '^# detsan:'
grep -q '^# detsan: tasks_replayed=[1-9].* divergences=0$' detsan_stream.txt \
  || fail "stream: no clean replay line"
echo "stream: replayed clean over 10 micro-batches"

# Negative control: the impure fixtures must diverge (YL007).
rc=0
"$mine_cli" --generate=t10 --detsan=error --detsan-selftest --quiet \
  >selftest_error.txt 2>&1 || rc=$?
[ "$rc" -eq 4 ] || fail "--detsan=error selftest exited $rc, want 4"
grep -q "YL007 error 'noncommutative-fold'" selftest_error.txt \
  || fail "--detsan=error selftest: no YL007 for noncommutative-fold"
grep -q "YL007 error 'stateful-map'" selftest_error.txt \
  || grep -q "divergences=[1-9]" selftest_error.txt \
  || fail "--detsan=error selftest: stateful-map not caught"
# Observe mode records the same divergences but exits 0.
"$mine_cli" --generate=t10 --detsan-selftest --quiet \
  >selftest_observe.txt 2>&1
grep -q "YL007 error 'noncommutative-fold'" selftest_observe.txt \
  || fail "observe selftest: no YL007 for noncommutative-fold"
grep -q "YL007 error 'stateful-map'" selftest_observe.txt \
  || fail "observe selftest: no YL007 for stateful-map"
echo "negative control: fixtures caught in both modes"

# Stream --lint=error exit contract: a clean run exits 0 ...
"$mine_cli" --generate=mushroom --minsup=0.35 --stream --stream-batches=20 \
  --lint=error --quiet --top=0 | tee stream_lint_clean.txt | grep '^# lint:'
grep -q '^# lint: 0 diagnostics' stream_lint_clean.txt \
  || fail "clean stream run reported lint diagnostics"
# ... and an over-budget run exits 3 with its YL002 diagnostic.
rc=0
"$mine_cli" --generate=mushroom --minsup=0.2 --stream --stream-batches=5 \
  --memory-gb=0.0001 --broadcast-mode=full --lint=error --quiet --top=0 \
  >stream_lint_err.txt 2>&1 || rc=$?
[ "$rc" -eq 3 ] || fail "over-budget stream run exited $rc, want 3"
grep -q '# lint: YL002 error' stream_lint_err.txt \
  || fail "over-budget stream run: no YL002 diagnostic"
echo "stream lint contract: 0 clean / 3 on diagnostic, as required"
