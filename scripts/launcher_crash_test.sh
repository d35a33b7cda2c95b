#!/usr/bin/env bash
# --launch crash-recovery gate (registered as the `launcher_crash_recovery`
# ctest; also runnable by hand):
#
#     scripts/launcher_crash_test.sh build/fig5_twocluster
#
# A --launch 2 run whose worker w1 SIGKILLs itself after its first job (via
# the VCSTEER_TEST_CRASH_* knobs in bench_main.hpp) is not restarted: its
# connection closing hands its lease back to the daemon's queue, and w0
# runs it. The run must exit 0, record the dead worker in its summary, be
# a pure store read in the assembly pass, and produce sweep JSON and stdout
# bit-identical to a single-process --jobs 1 run.
set -euo pipefail

BIN="$1"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
# The daemon's private socket directory lands here; the run must remove it.
export TMPDIR="$SCRATCH/tmp"
mkdir "$TMPDIR"

echo "--- reference: single-process --jobs 1 run"
"$BIN" --smoke --jobs 1 --json "$SCRATCH/ref.json" > "$SCRATCH/ref.out" \
  2> /dev/null

echo "--- launch 2 with worker w1 SIGKILLed after its first job"
VCSTEER_TEST_CRASH_CLIENT=w1 \
  "$BIN" --smoke --jobs 2 --launch 2 --cache-dir "$SCRATCH/cache" \
  --json "$SCRATCH/launch.json" --summary-json "$SCRATCH/summary.json" \
  > "$SCRATCH/launch.out"
cmp "$SCRATCH/ref.json" "$SCRATCH/launch.json"
cmp "$SCRATCH/ref.out" "$SCRATCH/launch.out"
[[ -z "$(ls -A "$TMPDIR")" ]] || { echo "socket dir left behind" >&2; exit 1; }
python3 "$ROOT/scripts/assert_summary.py" "$SCRATCH/summary.json" \
  'ok' \
  'not launch["ok"]' \
  'launch["failed_shards"] == 1' \
  'launch["shards"][0]["ok"]' \
  'launch["shards"][1]["signal"] == 9' \
  'sweep["simulated"] == 0' \
  'sweep["cache_hits"] == sweep["points"]'

echo "launcher crash-recovery gate: OK"
