#!/usr/bin/env bash
# Example-CLI flag check (registered as the `vcsteer_cli_malformed_flag`,
# `pipeline_viewer_malformed_flag` and `compiler_explorer_malformed_flag`
# ctests; also runnable by hand):
#
#     scripts/cli_malformed_flag_test.sh build/vcsteer_cli
#     scripts/cli_malformed_flag_test.sh build/pipeline_viewer
#     scripts/cli_malformed_flag_test.sh build/compiler_explorer
#
# Every command line below is malformed: a number that is signed, out of
# range or followed by garbage, a --budget other than full or smoke, or a
# value flag given last. Each line names the program it runs; the program
# must print the usage and exit 2 within 10 s, before any simulation starts.
set -uo pipefail

BIN="$1"
PROG="$(basename "$BIN")"
status=0
cases=0
while read -r prog args; do
  [[ $prog == "$PROG" ]] || continue
  read -r -a argv <<< "$args"
  cases=$((cases + 1))
  err=$(timeout 10 "$BIN" "${argv[@]}" 2>&1 > /dev/null)
  rc=$?
  if [[ $rc -ne 2 || $err != usage:* ]]; then
    echo "FAIL: $PROG ${argv[*]} exited $rc (want usage and exit 2)"
    status=1
  fi
done <<'CASES'
vcsteer_cli --vcs -1
vcsteer_cli --vcs 300
vcsteer_cli --vcs 255
vcsteer_cli --vcs 5x
vcsteer_cli --vcs +3
vcsteer_cli --vcs 99999999999999999999
vcsteer_cli --clusters 2x
vcsteer_cli --clusters 0
vcsteer_cli --clusters 9
vcsteer_cli --budget smok
vcsteer_cli --budget
vcsteer_cli --vcs
vcsteer_cli --clusters
vcsteer_cli --trace
vcsteer_cli --scheme
pipeline_viewer --skip -5
pipeline_viewer --skip 1000000001
pipeline_viewer --vcs -1
pipeline_viewer --vcs 300
pipeline_viewer --uops 5x
pipeline_viewer --uops 0
pipeline_viewer --uops 10000001
pipeline_viewer --clusters 2x
pipeline_viewer --clusters 0
pipeline_viewer --clusters 9
pipeline_viewer --capacity abc
pipeline_viewer --capacity 0
pipeline_viewer --print 3x
pipeline_viewer --window 10:5x
pipeline_viewer --uops
pipeline_viewer --skip
pipeline_viewer --vcs
pipeline_viewer --trace
pipeline_viewer --json
compiler_explorer 164.gzip-1 0
compiler_explorer 164.gzip-1 -1
compiler_explorer 164.gzip-1 300
compiler_explorer 164.gzip-1 2x
compiler_explorer 164.gzip-1 2 extra
CASES
if [[ $cases -eq 0 ]]; then
  echo "FAIL: no cases for '$PROG'"
  status=1
fi
exit $status
