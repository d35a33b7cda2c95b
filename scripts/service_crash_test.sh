#!/usr/bin/env bash
# Sweep-service crash-recovery gate (registered as the
# `service_crash_recovery` ctest; also the `service` gate of ci_gates.sh):
#
#     scripts/service_crash_test.sh build/fig7_fourcluster build/vcsteer-sweepd
#
# 1. Two concurrent --connect clients leasing jobs from one vcsteer-sweepd
#    must both emit results JSON byte-identical to a single-process
#    --jobs 1 run, with the leases actually split between them.
# 2. A server SIGKILLed mid-sweep (deterministically, via its
#    --crash-after-leases knob) and then restarted must be survived by the
#    client's reconnect window: the run completes with byte-identical JSON,
#    work finished before the crash is served from the durable cache, and
#    the client's summary records the reconnect.
set -euo pipefail

BIN="$1"
SWEEPD="$2"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SCRATCH="$(mktemp -d)"
SWEEPD_PID=""
cleanup() {
  [[ -n "$SWEEPD_PID" ]] && kill "$SWEEPD_PID" 2> /dev/null
  rm -rf "$SCRATCH"
}
trap cleanup EXIT
SOCK="$SCRATCH/sweep.sock"

assert_summary() {
  python3 "$ROOT/scripts/assert_summary.py" "$@"
}

start_sweepd() {  # start_sweepd CACHE_DIR [extra flags...]
  local cache="$1"
  shift
  "$SWEEPD" --listen "unix:$SOCK" --cache-dir "$cache" "$@" \
    2>> "$SCRATCH/sweepd.log" &
  SWEEPD_PID=$!
}

echo "--- reference: single-process --jobs 1 run"
"$BIN" --smoke --jobs 1 --json "$SCRATCH/ref.json" > /dev/null 2> /dev/null

echo "--- two concurrent --connect clients against one server"
start_sweepd "$SCRATCH/cache"
"$BIN" --smoke --jobs 1 --connect "unix:$SOCK" --client-id w0 \
  --json "$SCRATCH/c0.json" --summary-json "$SCRATCH/c0_summary.json" \
  > /dev/null 2> /dev/null &
C0=$!
"$BIN" --smoke --jobs 1 --connect "unix:$SOCK" --client-id w1 \
  --json "$SCRATCH/c1.json" --summary-json "$SCRATCH/c1_summary.json" \
  > /dev/null 2> /dev/null &
C1=$!
wait "$C0"
wait "$C1"
cmp "$SCRATCH/ref.json" "$SCRATCH/c0.json"
cmp "$SCRATCH/ref.json" "$SCRATCH/c1.json"
# Every job was leased exactly once across the two clients, and each client
# assembled the complete grid from the server's store.
assert_summary "$SCRATCH/c0_summary.json" \
  'ok' 'net["role"] == "connect"' 'launch is None' 'sweep["points"] > 0'
python3 - "$SCRATCH/c0_summary.json" "$SCRATCH/c1_summary.json" \
  "$SCRATCH/c0.json" << 'EOF'
import json, sys
c0, c1 = (json.load(open(p)) for p in sys.argv[1:3])
pulled = c0["net"]["jobs_pulled"] + c1["net"]["jobs_pulled"]
tallies = c0["net"]["workers"]
assert tallies == c1["net"]["workers"], "clients saw different lease stats"
assert sum(tallies.values()) == pulled, (tallies, pulled)
assert pulled > 0, "no jobs were leased at all"
schemes = len({r["scheme"] for r in json.load(open(sys.argv[3]))["results"]})
assert pulled * schemes == c0["sweep"]["points"], (pulled, schemes, c0["sweep"])
print(f"service gate: {pulled} jobs split as {tallies}")
EOF
kill "$SWEEPD_PID"
wait "$SWEEPD_PID" 2> /dev/null || true
SWEEPD_PID=""

echo "--- server SIGKILLed mid-sweep, restarted; client must recover"
# --crash-after-leases 2: the daemon SIGKILLs itself while handling the
# second LEASE, *before* replying — job 1's grant is lost in flight, after
# job 0's results are already fsync-durable in the cache.
start_sweepd "$SCRATCH/cache2" --crash-after-leases 2
"$BIN" --smoke --jobs 1 --connect "unix:$SOCK" --client-id w0 \
  --json "$SCRATCH/crash.json" --summary-json "$SCRATCH/crash_summary.json" \
  > /dev/null 2> "$SCRATCH/crash_client.log" &
CLIENT=$!
# The daemon murders itself; reap it, then restart it plain on the same
# socket and cache while the client is inside its reconnect window.
wait "$SWEEPD_PID" 2> /dev/null || true
SWEEPD_PID=""
start_sweepd "$SCRATCH/cache2"
wait "$CLIENT"
cmp "$SCRATCH/ref.json" "$SCRATCH/crash.json"
assert_summary "$SCRATCH/crash_summary.json" \
  'ok' 'net["reconnects"] >= 1' 'net["jobs_pulled"] >= 1' \
  'sweep["points"] > 0' 'sweep["cache_hits"] >= 1'
kill "$SWEEPD_PID"
wait "$SWEEPD_PID" 2> /dev/null || true
SWEEPD_PID=""

echo "service crash-recovery gate: OK"
