#!/usr/bin/env python3
"""Perf-trajectory gate: derive kuops/s from bench runs and track it.

    perf_gate.py SUMMARY_JSON[,SUMMARY_JSON...] RESULTS_JSON OUT_JSON \
                 [MICROBENCH_JSON]

Reads the bench's --summary-json documents (wall time + the sweep.uops
simulated-uop counter) and --json results document (per-point scheme +
committed uops, for the per-scheme split), compares the derived throughput
against the previous contents of OUT_JSON when one exists (the committed
BENCH_perf.json baseline), and rewrites OUT_JSON.

SUMMARY_JSON takes a comma-separated list of summaries from REPEATED runs
of the same bench: the gate derives each run's kuops/s and records the
median run's summary wholesale (wall, phases, per-scheme spans stay
internally consistent because they come from one actual run). Three runs
tame the documented ±7% single-core-VM wall-clock wobble; a single path
still works and degenerates to the old one-run behaviour. The per-run
rates land in "runs_kuops_per_sec" so the recorded spread is visible next
to the median. Output schema:

    {"bench": ..., "host": ..., "wall_seconds": ..., "total_uops": ...,
     "kuops_per_sec": ..., "runs_kuops_per_sec": [...],
     "schemes": {"OP": {"uops": ..., "simulate_s": ...,
                        "kuops_per_sec": ...}, ...},
     "phases": {"trace_build_s": ..., "annotate_s": ..., "warmup_s": ...,
                "simulate_s": ..., "cache_io_s": ...},
     "microbench": {"BM_WakeupSelect": {"real_time_ns": ...,
                                        "items_per_second": ...}, ...}}

"phases" is copied from the summary's per-phase wall-clock spans (where the
run actually spent its time — trace generation vs. the cycle loop).
MICROBENCH_JSON, when given, is a google-benchmark --benchmark_format=json
report; the gate records the wakeup/select and value-table kernels (through
CoreState and on the SoA table directly), arena reuse and the analytical
model's walk — see TRACKED_KERNELS — so the committed baseline tracks
kernel-level trajectories alongside the end-to-end rate. Run the microbench
with --benchmark_repetitions=3: the gate prefers each kernel's "median"
aggregate over single-repetition samples, the same wobble defence as the
multi-summary median.

Per-scheme rates come from the summary's "schemes" map when present: the
bench times each scheme's own simulate span (batched lanes included), so
the rates differ per scheme. With an older summary the gate falls back to
splitting the
per-point uops over the shared wall clock.
Wall-clock numbers are only comparable run-over-run on one machine, so the
baseline comparison is skipped — loudly — when the recorded host differs
(a CI runner never warns against a dev-box baseline; it builds its own
trajectory through the uploaded artifact instead).

The gate is NON-BLOCKING: it always exits 0. A same-host throughput drop
beyond 10% prints a loud warning for the PR author; CI never fails on it
(wall-clock noise on shared runners would make that gate flaky).
"""
import json
import os
import platform
import sys


def host_id() -> str:
    """Comparison key for 'same machine'. PERF_GATE_HOST overrides the raw
    hostname so fleets of ephemeral runners (CI) can opt into a shared
    class name and still get run-over-run comparisons."""
    return os.environ.get("PERF_GATE_HOST") or platform.node()


# Microbench kernels tracked in the baseline (bench/microbench.cpp).
TRACKED_KERNELS = ("BM_WakeupSelect", "BM_ValueTableChurn",
                   "BM_SoAValueTableChurn", "BM_ArenaRunReused",
                   "BM_ModelEstimateInterval")


def read_microbench(path: str) -> dict:
    """Extracts the tracked kernels from a google-benchmark JSON report.
    With --benchmark_repetitions the per-kernel "median" aggregate wins over
    any single-repetition sample. Missing file / schema drift yields {} —
    the gate never blocks on it."""
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_gate: cannot read microbench report ({e}); skipping",
              file=sys.stderr)
        return {}
    kernels = {}
    medians = {}
    for bench in report.get("benchmarks", []):
        name = bench.get("name", "")
        is_aggregate = bench.get("run_type") == "aggregate"
        if is_aggregate:
            if bench.get("aggregate_name") != "median":
                continue
            # Aggregates are named "<run name>_<aggregate>"; record them
            # under the run name so repeated and single runs share keys.
            name = name.removesuffix("_median")
        if name.split("/")[0] not in TRACKED_KERNELS:
            continue
        entry = {"real_time_ns": round(float(bench.get("real_time", 0.0)), 1)}
        if "items_per_second" in bench:
            entry["items_per_second"] = round(bench["items_per_second"], 1)
        # One entry per kernel: keep the first (smallest) size variant.
        (medians if is_aggregate else kernels).setdefault(name, entry)
    kernels.update(medians)
    return kernels


def main() -> int:
    if len(sys.argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 0
    summary_arg, results_path, out_path = sys.argv[1:4]
    microbench_path = sys.argv[4] if len(sys.argv) == 5 else None
    try:
        summaries = []
        for path in summary_arg.split(","):
            with open(path) as f:
                summaries.append(json.load(f))
        with open(results_path) as f:
            results = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_gate: cannot read inputs ({e}); skipping", file=sys.stderr)
        return 0

    # Each summary is one repeated run of the same cold sweep. Derive each
    # run's end-to-end rate and keep the median run's whole summary: the
    # recorded wall/phases/per-scheme spans then describe one real run
    # instead of an average no run actually produced.
    rated = []
    for summary in summaries:
        wall = summary.get("wall_seconds", 0.0)
        sweep = summary.get("sweep", {})
        if wall <= 0.0 or sweep.get("simulated", 0) != sweep.get("points", -1):
            print("perf_gate: run was not a cold full simulation; skipping",
                  file=sys.stderr)
            return 0
        rated.append((sweep.get("uops", 0) / 1000.0 / wall, summary))
    rated.sort(key=lambda rs: rs[0])
    runs_kuops = [round(rate, 3) for rate, _ in rated]
    # Lower median on an even count: still an actual run, and the
    # pessimistic pick of the two middles.
    summary = rated[(len(rated) - 1) // 2][1]
    wall = summary["wall_seconds"]
    sweep = summary["sweep"]

    schemes = {}
    measured = summary.get("schemes", {})
    if isinstance(measured, dict) and measured:
        # The bench timed each scheme's own simulate span, so per-scheme
        # rates are real throughputs, not one shared wall clock.
        for label, entry in measured.items():
            uops = int(entry.get("uops", 0))
            sim_s = float(entry.get("simulate_s", 0.0))
            schemes[label] = {"uops": uops, "simulate_s": round(sim_s, 6)}
            if sim_s > 0.0:
                schemes[label]["kuops_per_sec"] = round(
                    uops / 1000.0 / sim_s, 3)
    else:
        # Older bench binary without the per-scheme summary: fall back to
        # the per-point results document and share the run's wall clock.
        try:
            for point in results.get("results", []):
                entry = schemes.setdefault(point["scheme"], {"uops": 0})
                entry["uops"] += point["committed_uops"]
        except (KeyError, TypeError) as e:
            # Schema drift must not break the non-blocking gate; skip
            # rather than traceback.
            print(f"perf_gate: results JSON missing expected fields ({e}); "
                  "skipping", file=sys.stderr)
            return 0
        for entry in schemes.values():
            entry["kuops_per_sec"] = round(entry["uops"] / 1000.0 / wall, 3)
    total_uops = sweep.get("uops", 0)
    per_point_sum = sum(s["uops"] for s in schemes.values())
    if total_uops != per_point_sum:
        print(f"perf_gate: WARNING: summary sweep.uops ({total_uops}) != sum "
              f"of per-point committed_uops ({per_point_sum}); the two "
              "documents disagree — using the summary counter",
              file=sys.stderr)

    doc = {
        "bench": summary.get("bench", ""),
        "host": host_id(),
        "wall_seconds": round(wall, 6),
        "total_uops": total_uops,
        "kuops_per_sec": round(total_uops / 1000.0 / wall, 3),
        "runs_kuops_per_sec": runs_kuops,
        "schemes": schemes,
        "phases": {k: round(v, 6)
                   for k, v in summary.get("phases", {}).items()},
    }
    if microbench_path is not None:
        doc["microbench"] = read_microbench(microbench_path)

    baseline = None
    try:
        with open(out_path) as f:
            baseline = json.load(f)
    except (OSError, ValueError):
        pass

    try:
        with open(out_path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    except OSError as e:
        print(f"perf_gate: cannot write {out_path} ({e}); skipping",
              file=sys.stderr)
        return 0

    print(f"perf_gate: {doc['bench']}: {doc['kuops_per_sec']:.1f} kuops/s "
          f"({total_uops} uops in {wall:.2f}s"
          + (f"; median of {len(runs_kuops)} runs "
             f"{runs_kuops[0]:.0f}..{runs_kuops[-1]:.0f}"
             if len(runs_kuops) > 1 else "") + ")")
    if baseline and baseline.get("kuops_per_sec"):
        base_host = baseline.get("host", "")
        if base_host != doc["host"]:
            print(f"perf_gate: baseline was measured on "
                  f"'{base_host or 'unknown'}', this run on '{doc['host']}'; "
                  "cross-machine wall clocks are not comparable — skipping "
                  "the regression comparison")
            return 0
        base = baseline["kuops_per_sec"]
        ratio = doc["kuops_per_sec"] / base
        print(f"perf_gate: baseline {base:.1f} kuops/s -> {ratio:.2f}x")
        if ratio < 0.9:
            print("perf_gate: WARNING: >10% throughput regression vs the "
                  "committed BENCH_perf.json (non-blocking; investigate or "
                  "re-baseline with the change that explains it)",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
