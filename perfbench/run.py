#!/usr/bin/env python3
"""Build and run the vcsteer repository benchmark.

    python3 perfbench/run.py --workload figs-cold|search-pruned|sweepd-lease \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (an optimised build of the
library from src/, the vcsteer-sweepd daemon and the perfbench binary) into
$CARGO_TARGET_DIR (default .bench_build), runs the binary, checks the
workload digests recorded in perfbench/digests.json for the default seed,
and prints as its last line one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json names (end_to_end with --trace 0, per_layer with
--trace 1). Exits non-zero when a check fails; prints no result when the
build or the run fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figs-cold", "search-pruned", "sweepd-lease")
DEFAULT_SEED = 0
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def run_binary(binary, args, work_dir, trace_out):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--trace-out", trace_out]
    # Own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail(f"perfbench exited {proc.returncode} without a result")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)

    work_dir = os.path.join(".perfbench_run", str(os.getpid()))
    trace_out = os.path.join(".perfbench_out",
                             f"trace-{args.workload}-seed{args.seed}.json")
    text, result = run_binary(os.path.join(build_dir, "perfbench"), args,
                              work_dir, trace_out)
    for line in text:
        print(line)

    attempted, failed = result["attempted"], result["failed"]
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as f:
            recorded = json.load(f)
        for workload, digest in result["digests"].items():
            attempted += 1
            if recorded.get(workload) != digest:
                failed += 1
                print(f"perfbench: {workload} digest {digest} differs from the "
                      f"recorded {recorded.get(workload)}", file=sys.stderr)
            else:
                print(f"digest ({workload}): {digest} matches digests.json")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        attempted += 1
        if got is None or got["unit"] != m["unit"]:
            failed += 1
            print(f"perfbench: metric {m['name']} missing or not in {m['unit']}",
                  file=sys.stderr)
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(f"  {'error_rate':<28} {failed / attempted:18.6f} ratio "
          f"({failed} failed of {attempted} checks)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
