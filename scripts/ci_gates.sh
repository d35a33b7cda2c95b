#!/usr/bin/env bash
# Consolidated CI gate harness — every gate the workflow runs, runnable
# locally against any build directory:
#
#     scripts/ci_gates.sh [gate...]          # default: all gates, in order
#     BUILD_DIR=build-asan scripts/ci_gates.sh tier1 golden
#
# Gates:
#   tier1     ctest suite minus the golden label
#   golden    golden-reference fixtures (fig5/fig7 + ablation smoke)
#   ablation  topology-aware ablation smoke sweep produces a sane summary
#   smoke     a plain fig5 smoke sweep simulates every point; a
#             --prune-model 3 one simulates exactly its 3-config frontier
#             and fills every other point with a model estimate
#   model     analytical estimator + pruned search: fig5/fig7 smoke with
#             --prune-model 999 must write results JSON byte-identical to
#             the plain runs (the model only reorders work), with model
#             rank agreement Spearman >= 0.9 and top-3 overlap >= 2 on
#             both grids; autotune_search --smoke must cover a >= 5520
#             point grid while simulating at most 20% of it, and its
#             mostly model-tagged JSON must be byte-identical at --jobs 2
#             and --jobs 4
#   observe   observer layer: a fig7 smoke sweep's --summary-json carries
#             per-phase timing spans and event counts, and the
#             pipeline_viewer's event counts reconcile exactly with the
#             simulator's own SimStats counters
#   perf      perf trajectory: runs every workload BENCHMARK.json lists
#             once through perfbench (seed 0, run_seconds) via
#             scripts/perf_gate.py, plus the tracked microbench kernels as
#             3-repetition medians, and writes BENCH_perf.json at the repo
#             root (from a Release BUILD_DIR only; other build types write
#             it to $GATE_OUT). A run that is not correct, seed-0 digests
#             included, fails the gate; a timing never does (compare
#             revisions with scripts/ab.py). About 45 s on 4 cores, plus
#             ~30 s for perfbench's first build.
#
# Assertions run against the benches' --summary-json documents (via
# scripts/assert_summary.py) rather than grepping stderr text, so a wording
# change can't silently turn a gate into a no-op.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
CTEST_JOBS="${CTEST_JOBS:-2}"

# Gate artifacts (summary/sweep JSON) land here; CI sets GATE_OUT to a
# workspace path so they can be uploaded when a gate fails.
if [[ -n "${GATE_OUT:-}" ]]; then
  mkdir -p "$GATE_OUT"
  GATE_OUT="$(cd "$GATE_OUT" && pwd)"
else
  GATE_OUT="$(mktemp -d)"
  trap 'rm -rf "$GATE_OUT"' EXIT
fi

assert_summary() {
  python3 "$ROOT/scripts/assert_summary.py" "$@"
}

build_type() {
  sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" \
      2>/dev/null || true
}

gate_tier1() {
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$CTEST_JOBS" -LE golden
}

gate_golden() {
  # Diffs the fig5/fig7 + ablation smoke sweeps against tests/golden
  # fixtures (VCSTEER_REGEN_GOLDEN=1 regenerates them; see README). The
  # produced JSON lands in $BUILD_DIR/golden_out/.
  ctest --test-dir "$BUILD_DIR" -L golden --output-on-failure
}

gate_observe() {
  # The summary of any sweep must break its wall clock into per-phase spans
  # and carry the event counters (experiments constructed, cycles simulated).
  "$BUILD_DIR/fig7_fourcluster" --smoke --jobs 2 \
    --summary-json "$GATE_OUT/observe_summary.json"
  assert_summary "$GATE_OUT/observe_summary.json" \
    'ok' 'events["experiments"] > 0' 'events["cycles"] > 0' \
    'phases["trace_build_s"] > 0' 'phases["simulate_s"] > 0' \
    'phases["warmup_s"] >= 0' 'phases["annotate_s"] >= 0'
  # The viewer runs a TimelineObserver core and exits non-zero when its
  # event counts disagree with SimStats; assert on the JSON too so the gate
  # does not depend on the exit-code plumbing alone.
  "$BUILD_DIR/pipeline_viewer" --trace 164.gzip-1 --scheme vc --clusters 4 \
    --uops 20000 --window 100:200 --quiet \
    --json "$GATE_OUT/observe_viewer.json"
  assert_summary "$GATE_OUT/observe_viewer.json" \
    'reconciled' 'dropped_events == 0' \
    'events["commits"] == stats["committed_uops"]' \
    'events["steers"] == stats["dispatched_uops"]' \
    'events["cycles"] == stats["cycles"]' \
    'events["copy_injects"] == stats["copies_routed"]' \
    'len(timeline) > 0'
}

gate_model() {
  # Two-stage pruned search must be invisible in the output: with a frontier
  # covering the whole grid (--prune-model 999) every point is simulated and
  # the results JSON must be byte-identical to the plain run — the model may
  # only ever *reorder* work, never change a simulated number. The same
  # summaries carry the model-vs-sim rank agreement over the simulated
  # frontier, the estimator's accuracy contract: Spearman >= 0.9 and at
  # least 2 of the top-3 configs shared on both figure grids.
  for fig in fig5_twocluster fig7_fourcluster; do
    "$BUILD_DIR/$fig" --smoke --jobs 2 \
      --json "$GATE_OUT/model_${fig}_plain.json"
    "$BUILD_DIR/$fig" --smoke --jobs 2 --prune-model 999 \
      --json "$GATE_OUT/model_${fig}_pruned.json" \
      --summary-json "$GATE_OUT/model_${fig}_summary.json"
    cmp "$GATE_OUT/model_${fig}_plain.json" \
        "$GATE_OUT/model_${fig}_pruned.json"
    assert_summary "$GATE_OUT/model_${fig}_summary.json" \
      'ok' 'sweep["simulated"] == sweep["points"]' \
      'model["estimated"] == sweep["points"]' \
      'model["spearman"] >= 0.9' 'model["top3_overlap"] >= 2'
  done
  # The autotune bench is the pruned search at its intended scale: a grid
  # an order of magnitude beyond any figure sweep (>= 5520 points, 10x the
  # 552-point ablation grid) of which the simulator sees at most 20%. Most
  # of its JSON is model estimates, and which thread builds each of the
  # model evaluator's shared entries depends on scheduling: the output must
  # not, so a --jobs 4 run must write the same bytes as the --jobs 2 run.
  "$BUILD_DIR/autotune_search" --smoke --jobs 2 \
    --json "$GATE_OUT/model_autotune_j2.json" \
    --summary-json "$GATE_OUT/model_autotune_summary.json"
  assert_summary "$GATE_OUT/model_autotune_summary.json" \
    'ok' 'sweep["points"] >= 5520' \
    'sweep["simulated"] * 5 <= sweep["points"]' \
    'model["estimated"] == sweep["points"]' \
    'model["pruned"] + sweep["simulated"] == sweep["points"]'
  "$BUILD_DIR/autotune_search" --smoke --jobs 4 \
    --json "$GATE_OUT/model_autotune_j4.json"
  cmp "$GATE_OUT/model_autotune_j2.json" "$GATE_OUT/model_autotune_j4.json"
}

gate_perf() {
  # Kernel-level trajectory, recorded when the google-benchmark binary was
  # built (find_package(benchmark) is optional). Repetitions give
  # perf_gate.py per-kernel median aggregates.
  local microbench_json=""
  if [[ -x "$BUILD_DIR/microbench" ]]; then
    microbench_json="$GATE_OUT/perf_microbench.json"
    "$BUILD_DIR/microbench" \
      --benchmark_filter='BM_WakeupSelect|BM_ValueTableChurn|BM_SoAValueTableChurn|BM_ArenaRunReused|BM_ModelEstimateInterval|BM_TraceExperimentBuild' \
      --benchmark_repetitions=3 \
      --benchmark_format=json > "$microbench_json"
  fi
  # Only a Release run may rewrite the repo-root file; numbers from any
  # other build type land in $GATE_OUT so a default `ci_gates.sh` run from
  # a dev tree cannot silently degrade the committed BENCH_perf.json.
  local perf_out="$GATE_OUT/BENCH_perf.json"
  if [[ "$(build_type)" == "Release" ]]; then
    perf_out="$ROOT/BENCH_perf.json"
  else
    echo "ci_gates: non-Release build: writing perf numbers to $perf_out," \
         "leaving the committed file untouched" >&2
  fi
  # perfbench builds its own optimised copy of src/ and runs from the repo
  # root; a run that is not correct (seed-0 digests included) fails here.
  (cd "$ROOT" && python3 scripts/perf_gate.py "$perf_out" \
    ${microbench_json:+"$microbench_json"})
}

gate_ablation() {
  "$BUILD_DIR/ablation_interconnect" --smoke --jobs 2 \
    --json "$GATE_OUT/ablation_interconnect.json" \
    --summary-json "$GATE_OUT/ablation_summary.json"
  assert_summary "$GATE_OUT/ablation_summary.json" \
    'ok' 'sweep["points"] > 0' 'sweep["simulated"] == sweep["points"]'
}

gate_smoke() {
  "$BUILD_DIR/fig5_twocluster" --smoke --jobs 2 \
    --summary-json "$GATE_OUT/smoke_cold.json"
  assert_summary "$GATE_OUT/smoke_cold.json" \
    'ok' 'sweep["simulated"] == sweep["points"]'
  # 6 smoke traces x 5 schemes: the frontier's 3 configs are simulated on
  # every trace (18 points) and the model fills in the other 12.
  "$BUILD_DIR/fig5_twocluster" --smoke --jobs 2 --prune-model 3 \
    --summary-json "$GATE_OUT/smoke_pruned.json"
  assert_summary "$GATE_OUT/smoke_pruned.json" \
    'ok' 'sweep["simulated"] == 18' 'model["pruned"] == 12' \
    'model["pruned"] + sweep["simulated"] == sweep["points"]'
}

ALL_GATES=(tier1 golden ablation smoke observe model perf)
if [[ $# -eq 0 ]]; then
  GATES=("${ALL_GATES[@]}")
else
  GATES=("$@")
fi
for gate in "${GATES[@]}"; do
  if ! declare -F "gate_$gate" > /dev/null; then
    echo "ci_gates: unknown gate '$gate' (known: ${ALL_GATES[*]})" >&2
    exit 2
  fi
done
for gate in "${GATES[@]}"; do
  echo "=== gate: $gate ==="
  "gate_$gate"
  echo "=== gate: $gate OK ==="
done
