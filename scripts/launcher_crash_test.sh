#!/usr/bin/env bash
# Launcher crash-recovery gate (registered as the `launcher_crash_recovery`
# ctest; also runnable by hand):
#
#     scripts/launcher_crash_test.sh build/fig5_twocluster
#
# 1. A --launch 2 run whose worker w1 SIGKILLs itself mid-sweep (via the
#    VCSTEER_TEST_CRASH_* injection knobs in bench_main.hpp) must retry the
#    dead worker, finish, be a pure store read in the assembly pass, and
#    produce sweep JSON and stdout bit-identical to a single-process
#    --jobs 1 run. The dead worker's lease returns to the daemon's queue
#    when its connection closes, so recovery does not wait out a lease
#    expiry.
# 2. A worker that crashes on *every* attempt must exhaust its bounded
#    retries, exit non-zero, and leave a summary explaining which worker
#    died and how.
set -euo pipefail

BIN="$1"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
# The daemon's private socket directory lands here; every run must remove it.
export TMPDIR="$SCRATCH/tmp"
mkdir "$TMPDIR"

echo "--- reference: single-process --jobs 1 run"
"$BIN" --smoke --jobs 1 --json "$SCRATCH/ref.json" > "$SCRATCH/ref.out" \
  2> /dev/null

echo "--- launch 2 with worker w1 SIGKILLed after its first job"
VCSTEER_TEST_CRASH_CLIENT=w1 \
  "$BIN" --smoke --jobs 1 --launch 2 --cache-dir "$SCRATCH/cache" \
  --json "$SCRATCH/launch.json" --summary-json "$SCRATCH/summary.json" \
  > "$SCRATCH/launch.out"
cmp "$SCRATCH/ref.json" "$SCRATCH/launch.json"
cmp "$SCRATCH/ref.out" "$SCRATCH/launch.out"
[[ -z "$(ls -A "$TMPDIR")" ]] || { echo "socket dir left behind" >&2; exit 1; }
python3 "$ROOT/scripts/assert_summary.py" "$SCRATCH/summary.json" \
  'ok' \
  'launch["ok"]' \
  'launch["shards"][1]["attempts"] == 2' \
  'launch["shards"][1]["ok"]' \
  'launch["shards"][0]["attempts"] == 1' \
  'sweep["simulated"] == 0' \
  'sweep["cache_hits"] == sweep["points"]'

echo "--- persistently crashing worker exhausts retries and fails loudly"
set +e
VCSTEER_TEST_CRASH_CLIENT=w1 VCSTEER_TEST_CRASH_ALWAYS=1 \
  "$BIN" --smoke --jobs 1 --launch 2 --cache-dir "$SCRATCH/cache2" \
  --summary-json "$SCRATCH/fail_summary.json" > /dev/null 2> "$SCRATCH/fail.log"
status=$?
set -e
if [[ "$status" -eq 0 ]]; then
  echo "expected a non-zero exit when a worker fails persistently" >&2
  exit 1
fi
[[ -z "$(ls -A "$TMPDIR")" ]] || { echo "socket dir left behind" >&2; exit 1; }
python3 "$ROOT/scripts/assert_summary.py" "$SCRATCH/fail_summary.json" \
  'not ok' \
  'not launch["ok"]' \
  'launch["failed_shards"] == 1' \
  'launch["shards"][1]["attempts"] == launch["max_retries"] + 1' \
  'launch["shards"][1]["signal"] == 9' \
  'sweep["points"] == 0'

echo "launcher crash-recovery gate: OK"
