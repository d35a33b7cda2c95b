#!/usr/bin/env python3
"""Record perfbench's end-to-end metrics in one JSON file.

    scripts/perf_gate.py OUT_JSON

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


def main() -> int:
    if len(sys.argv) != 2:
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
    with open(sys.argv[1], "w") as f:
        f.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
