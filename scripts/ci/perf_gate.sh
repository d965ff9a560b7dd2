#!/usr/bin/env bash
# Count-mode performance gate: build bench_ablation, run the count-mode
# ablation at the baseline's scale (--scale=0.1) and compare it against the
# checked-in baseline with scripts/perf_gate.py. Exits with perf_gate.py's
# status (0 pass, 1 regression or setup error).
#
# Usage: scripts/ci/perf_gate.sh [BUILD_DIR]     (default: build)
# Run from the repository root. Leaves BENCH_countmode.json (the fresh
# ablation) and perf_gate.txt (the gate report) in the current directory.
# When GITHUB_STEP_SUMMARY is set, the report is appended to it as well.
set -euo pipefail

build=${1:-build}

cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j "$(nproc)" --target bench_ablation

"$build/bench/bench_ablation" --scale=0.1 --json=BENCH_countmode.json

status=0
python3 scripts/perf_gate.py BENCH_countmode.json \
  bench/baselines/BENCH_countmode_baseline.json >perf_gate.txt || status=$?
cat perf_gate.txt

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo "### perf gate (count modes)"
    echo '```'
    cat perf_gate.txt
    echo '```'
  } >>"$GITHUB_STEP_SUMMARY"
fi
exit "$status"
