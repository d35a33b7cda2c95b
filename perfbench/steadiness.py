#!/usr/bin/env python3
"""Check that the benchmark is steady on one build.

    python3 perfbench/steadiness.py [--sets 2] [--runs 10] [--seconds S]
                                    [--workload W ...]

Run from the repository root. For every workload, runs `--sets` sets of
`--runs` runs of perfbench/run.py (--trace 0), each run with its own seed,
and prints each end-to-end metric's median and quartiles per set. A set is
steady when every metric's quartile spread (q3 - q1) / median is within the
metric's bound in BENCHMARK.json, setup_s included; two sets agree when each
later set's median is not worse than the first set's by more than the bound.
Raw values go to .perfbench_out/steadiness.json. Exits non-zero when a set
is unsteady, the sets disagree, or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  run {workload} seed {seed} failed (exit {proc.returncode})")
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Share by which `second` is worse than `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    raw = {}
    seed = 100
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                seed += 1
                got = run_once(workload, seed, seconds)
                ok = ok and got is not None
                if got is not None:
                    runs.append(got)
            sets.append(runs)
        raw[workload] = sets
        print(f"{workload}: {args.sets} sets x {args.runs} runs, {seconds} s each")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(sets):
                values = [r[name] for r in runs if name in r]
                if len(values) < 2:
                    print(f"  {name:<14} set {s}: too few runs")
                    ok = False
                    continue
                med, q1, q3, spread = summary(values)
                meds.append(med)
                steady = spread <= bound
                ok = ok and steady
                print(f"  {name:<14} set {s}: median {med:.6g} {m['unit']}"
                      f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.2%}"
                      f" (bound {bound:.0%}){'' if steady else '  UNSTEADY'}")
            for s in range(1, len(meds)):
                worse = worse_by(meds[0], meds[s], m["better"])
                agree = worse <= bound
                ok = ok and agree
                print(f"  {name:<14} set {s} vs set 0: {worse:+.2%} worse"
                      f" -> {'agree' if agree else 'DISAGREE'}")
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
