#!/usr/bin/env bash
# vcsteer_cli flag check (registered as the `vcsteer_cli_malformed_flag`
# ctest; also runnable by hand):
#
#     scripts/cli_malformed_flag_test.sh build/vcsteer_cli
#
# Every command line below is malformed: a number that is signed, out of
# range or followed by garbage, a --budget other than full or smoke, or a
# value flag given last. Each must print the usage and exit 2 before any
# simulation starts.
set -uo pipefail

BIN="$1"
status=0
while read -r -a args; do
  err=$("$BIN" "${args[@]}" 2>&1 > /dev/null)
  rc=$?
  if [[ $rc -ne 2 || $err != usage:* ]]; then
    echo "FAIL: vcsteer_cli ${args[*]} exited $rc (want usage and exit 2)"
    status=1
  fi
done <<'CASES'
--vcs -1
--vcs 300
--vcs 255
--vcs 5x
--vcs +3
--vcs 99999999999999999999
--clusters 2x
--clusters 0
--clusters 9
--budget smok
--budget
--vcs
--clusters
--trace
--scheme
CASES
exit $status
