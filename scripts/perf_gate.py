#!/usr/bin/env python3
"""Record perfbench and the tracked microbench kernels in one JSON file.

    scripts/perf_gate.py OUT_JSON [MICROBENCH_JSON]

Run from the repository root. Runs each BENCHMARK.json workload once through
perfbench/run.py, at seed 0 and run_seconds, into OUT_JSON's "workloads".
Exits 1 when a run is not correct, digests included; a timing never fails it.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The benchmark's own runner. No bytecode is written into perfbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from steadiness import run_once  # noqa: E402

# Microbench kernels tracked in the baseline (bench/microbench.cpp).
TRACKED_KERNELS = ("BM_WakeupSelect", "BM_ValueTableChurn",
                   "BM_SoAValueTableChurn", "BM_ArenaRunReused",
                   "BM_ModelEstimateInterval", "BM_TraceExperimentBuild")

# Nanoseconds per google-benchmark time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def read_microbench(path: str) -> dict:
    """Extracts the tracked kernels from a google-benchmark JSON report.
    real_time is converted to ns from the entry's time_unit (ns when
    absent); a kernel in a unit not in NS_PER_UNIT is skipped with a note
    on stderr. With --benchmark_repetitions the per-kernel "median"
    aggregate wins over any single-repetition sample. Missing file / schema
    drift yields {} — the gate never blocks on it."""
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
        unit = bench.get("time_unit", "ns")
        if unit not in NS_PER_UNIT:
            print(f"perf_gate: {name}: unknown time_unit {unit!r}; skipping",
                  file=sys.stderr)
            continue
        real_time_ns = float(bench.get("real_time", 0.0)) * NS_PER_UNIT[unit]
        entry = {"real_time_ns": round(real_time_ns, 1)}
        if "items_per_second" in bench:
            entry["items_per_second"] = round(bench["items_per_second"], 1)
        # One entry per kernel: keep the first (smallest) size variant.
        (medians if is_aggregate else kernels).setdefault(name, entry)
    kernels.update(medians)
    return kernels


def main() -> int:
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    doc = {"host": os.uname().nodename, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        doc["workloads"][workload] = run_once(workload, 0, seconds)
        print(f"perf_gate: {workload}: {doc['workloads'][workload]}")
    if None in doc["workloads"].values():
        return 1
    if len(sys.argv) == 3:
        doc["microbench"] = read_microbench(sys.argv[2])
    with open(sys.argv[1], "w") as f:
        f.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
