#!/usr/bin/env bash
# Exactly-once streaming smoke: mine a 20-batch micro-batch stream, SIGKILL
# it mid-stream, resume from the batch-boundary snapshot, and require the
# resumed --quiet output (itemsets + '# stream:' summary) to be
# byte-identical to an uninterrupted run. A second interruption uses the
# YAFIM_FAULT_STREAM_* axis to die at a deterministic mid-batch phase
# instead of wherever SIGKILL lands, covering both kill shapes. Ends with
# the streaming_basket example's own exactly-once check.
#
# Usage: scripts/ci/streaming.sh [BUILD_DIR]     (default: build)
# Needs BUILD_DIR/examples/mine_cli and streaming_basket built. Leaves its
# outputs (reference.txt, victim.txt, injected.txt, resumed.txt,
# restored.txt, streaming_basket.txt and the stream_ckpt/ snapshots) in the
# current directory and exits nonzero on the first failed check. Runs
# offline in about ten seconds, most of it the deliberate snapshot sleeps;
# registered as the ctest test `streaming_smoke` (label `smoke`).
set -euo pipefail

build=${1:-build}
mine_cli="$build/examples/mine_cli"
basket="$build/examples/streaming_basket"
for bin in "$mine_cli" "$basket"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found; build mine_cli and streaming_basket first" >&2
    exit 2
  fi
done

# Uninterrupted reference run.
"$mine_cli" --generate=mushroom --engine=yafim \
  --stream --stream-batches=20 --quiet --top=0 >reference.txt

# SIGKILL mid-stream, then die at an injected mid-batch phase.
rm -rf stream_ckpt
# --pass-sleep-ms stretches each batch-boundary snapshot write so the
# SIGKILL reliably lands with the stream only partly done. Background ONLY
# the binary (a backgrounded `a && b` list would fork a subshell and the
# kill would miss mine_cli itself).
"$mine_cli" --generate=mushroom --engine=yafim \
  --stream --stream-batches=20 --checkpoint-dir=stream_ckpt \
  --pass-sleep-ms=300 --quiet --top=0 >victim.txt 2>&1 &
victim=$!
sleep 3
kill -9 "$victim"
wait "$victim" || true
echo "snapshots on disk after SIGKILL:"
ls stream_ckpt
test -e stream_ckpt/batch-000001.ck

# Second interruption: the stream fault axis kills at a chosen
# (batch, phase) -- here mid-reverify of batch 12 -- and mine_cli maps it
# to exit 9 so the death is observable, not accidental.
set +e
YAFIM_FAULT_STREAM_KILL_BATCH=12 YAFIM_FAULT_STREAM_KILL_PHASE=3 \
  "$mine_cli" --generate=mushroom --engine=yafim \
  --stream --stream-batches=20 --checkpoint-dir=stream_ckpt \
  --quiet --top=0 >injected.txt 2>&1
rc=$?
set -e
test "$rc" -eq 9
grep '# stream: killed at batch 12 phase reverify' injected.txt

# Resume env-free and compare byte-for-byte.
"$mine_cli" --generate=mushroom --engine=yafim \
  --stream --stream-batches=20 --checkpoint-dir=stream_ckpt \
  --quiet --top=0 >resumed.txt
diff reference.txt resumed.txt
echo "resumed stream byte-identical to uninterrupted run"

"$mine_cli" --generate=mushroom --engine=yafim \
  --stream --stream-batches=20 --checkpoint-dir=stream_ckpt \
  --top=0 >restored.txt
grep '# resumed from stream checkpoint: batches 1..20' restored.txt

# Run the streaming_basket example.
"$basket" | tee streaming_basket.txt
grep 'exactly-once verified' streaming_basket.txt
