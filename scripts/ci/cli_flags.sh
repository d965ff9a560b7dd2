#!/usr/bin/env bash
# Flag-error matrix for mine_cli: every malformed invocation must exit 2
# with the usage text on stderr, before any mining work happens; --help and
# -h must print the usage text on stdout and exit 0.
#
# Usage: scripts/ci/cli_flags.sh path/to/mine_cli
# Runs offline in about a second (no case reaches a miner); registered as
# the ctest test `cli_flags`.
set -euo pipefail

mine_cli=${1:?usage: $0 path/to/mine_cli}
out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT

bad_flags=(
  # malformed --approx flags
  "--approx --sample-fraction=0"
  "--approx --sample-fraction=1.5"
  "--approx --relax=0"
  "--approx --relax=2"
  "--approx --samples=0"
  "--approx --samples=65"
  "--samples=8"
  "--relax=0.9"
  "--sample-fraction=0.2"
  "--approx --engine=apriori"
  "--approx --stream"
  "--approx --checkpoint-dir=ckpt"
  # --no-cache has nothing to drop under --stream
  "--stream --no-cache"
  # out-of-range and NaN numeric flags
  "--minsup=0"
  "--minsup=nan --engine=mrapriori"
  "--minsup=nan"
  "--memory-gb=nan"
  "--stream --stream-window-s=nan"
  "--stream --stream-rate=nan"
  "--approx --sample-fraction=nan"
  "--approx --relax=nan"
  "--rules=2"
  "--rules=nan"
  "--rules=-1"
  # unsigned flags take a whole decimal, nothing else
  "--top=abc"
  "--top=5x"
  "--stream --stream-batches=-1"
  "--stream --stream-seed=7x"
  "--checkpoint-dir=ckpt --pass-sleep-ms=-1"
  "--checkpoint-dir=ckpt --stop-after-pass=4294967296"
  "--shuffle-buffer-mb=17592186044416"
  "--approx --samples=+4"
  # real-valued flags take the whole value as a number, no trailing junk
  "--minsup=0.35x"
  "--rules=0.9abc"
  "--memory-gb=1e"
)
for flags in "${bad_flags[@]}"; do
  rc=0
  # shellcheck disable=SC2086
  "$mine_cli" --generate=t10 $flags >/dev/null 2>"$err" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL [$flags] exited $rc, want 2"
    exit 1
  fi
  if ! grep -q '^usage:' "$err"; then
    echo "FAIL [$flags] printed no usage text"
    exit 1
  fi
  echo "[$flags] -> exit 2 + usage, as required"
done

for flag in --help -h; do
  rc=0
  "$mine_cli" "$flag" >"$out" 2>"$err" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL [$flag] exited $rc, want 0"
    exit 1
  fi
  if ! grep -q '^usage:' "$out"; then
    echo "FAIL [$flag] printed no usage text on stdout"
    exit 1
  fi
  echo "[$flag] -> exit 0 + usage on stdout, as required"
done
