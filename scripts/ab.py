#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark: BASE against the working tree.

    scripts/ab.py BASE [--workload W]... [--pairs N] [--seeds 0|A-B]
                       [--out FILE]

Checks BASE (any git revision) out with `git worktree` beside the working
tree, at a path of the same length (peak_rss_mb follows the build path),
and removes it on every exit path. Each side builds and runs through its
own perfbench/run.py, into a build directory inside its own tree. Every
workload (default: those BENCHMARK.json lists) runs N pairs (default 10)
of BENCHMARK.json's run_seconds each, alternating which side goes first.
`--seeds 0` gives every pair seed 0; `--seeds 21-30` gives pair i the
i-th seed of the range, one pair per seed. Any run that run.py does not
report `correct` aborts; on seed 0 that includes the digests recorded in
perfbench/digests.json.

Per workload and per end-to-end metric of BENCHMARK.json it prints each
side's median, q1 and q3 (as perfbench/steadiness.py computes them) and
the pairs the change won (ties count for neither side), then a verdict by
the interleaved-pairs rule with the metric's bound from BENCHMARK.json:
  gain        at least 10 pairs, the change won at least 9/10 of them,
              and the medians differ by more than the base's q3 - q1;
  worse       the change's median is worse than the base's by more than
              the bound;
  unresolved  the base's q3 - q1 exceeds the bound (relative to its
              median) and not every change run beats every base run;
  no change   otherwise.
The raw runs go to --out as JSON (default .perfbench_out/ab-<base>.json).
Exits 1 when a run fails, 0 otherwise, whatever the verdicts.
"""
import argparse
import json
import os
import random
import shutil
import signal
import string
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"

# The benchmark's own statistics, so both tools judge spread alike. No
# bytecode is written into perfbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from steadiness import summary, worse_by  # noqa: E402


class RunFailed(Exception):
    pass


def git(*args, cwd=ROOT, check=True):
    return subprocess.run(["git", *args], cwd=cwd, check=check, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def same_length_sibling(path):
    """An unused path beside `path` whose name has the same length."""
    parent, name = os.path.split(path)
    letters = string.ascii_lowercase
    for _ in range(100):
        candidate = "".join(random.choice(letters) for _ in name)
        if len(name) > 1:
            candidate = "." + candidate[1:]
        full = os.path.join(parent, candidate)
        if not os.path.exists(full):
            return full
    raise RunFailed(f"no free {len(name)}-character name beside {path}")


def parse_seeds(text):
    """'S' -> (S, None); 'A-B' -> (None, [A..B])."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        if lo < 0 or hi < lo:
            raise argparse.ArgumentTypeError(f"bad seed range {text}")
        return None, list(range(lo, hi + 1))
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"bad seed {text}")
    return seed, None


def run_side(tree, workload, seed, seconds):
    """One run of `tree`'s own perfbench/run.py; returns its result JSON.

    steadiness.run_once runs the run.py beside it from the current
    directory, so it cannot run the base side.
    """
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, BUILD_DIR))
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode != 0 or not result or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RunFailed(f"{workload} seed {seed} in {tree} is not correct")
    return result


def verdict(metric, base, change):
    """The interleaved-pairs verdict for one metric over paired runs."""
    higher = metric["better"] == "higher"
    better = (lambda c, b: c > b) if higher else (lambda c, b: c < b)
    wins = sum(1 for c, b in zip(change, base) if better(c, b))
    b_med, b_q1, b_q3, b_spread = summary(base)
    c_med = summary(change)[0]
    if (len(base) >= 10 and wins * 10 >= 9 * len(base) and
            better(c_med, b_med) and abs(c_med - b_med) > b_q3 - b_q1):
        call = "gain"
    elif worse_by(b_med, c_med, metric["better"]) > metric["bound"]:
        call = "worse"
    elif (b_spread > metric["bound"] and
          not all(better(c, b) for c in change for b in base)):
        call = "unresolved"
    else:
        call = "no change"
    return wins, call


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every "
                             "workload BENCHMARK.json lists)")
    parser.add_argument("--pairs", type=int,
                        help="pairs per workload (default 10, or the length "
                             "of a --seeds range)")
    parser.add_argument("--seeds", type=parse_seeds, default=(0, None),
                        help="one seed for every pair, or a range A-B giving "
                             "pair i the i-th seed (default 0)")
    parser.add_argument("--out", help="raw runs JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seed, seed_range = args.seeds
    pairs = args.pairs or (len(seed_range) if seed_range else 10)
    if pairs < 2 or (seed_range and pairs != len(seed_range)):
        parser.error("--pairs must be at least 2 and match a --seeds range")
    seeds = seed_range or [seed] * pairs
    try:
        base_sha = git("rev-parse", "--verify", args.base + "^{commit}").stdout
    except subprocess.CalledProcessError as e:
        parser.error(f"unknown revision {args.base}: {e.stderr.strip()}")
    base_sha = base_sha.strip()
    out = args.out or os.path.join(ROOT, ".perfbench_out",
                                   f"ab-{base_sha[:12]}.json")

    # SIGTERM unwinds like Ctrl-C, so the worktree goes on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base_tree = same_length_sibling(ROOT)
    git("worktree", "add", "--detach", base_tree, base_sha)
    try:
        runs = []
        trees = {"base": base_tree, "change": ROOT}
        for side, tree in trees.items():
            # Builds the side and warms it up; the timing is discarded.
            print(f"ab: building {side} ({tree})", file=sys.stderr)
            run_side(tree, workloads[0], seeds[0], 1)
        for workload in workloads:
            for i, pair_seed in enumerate(seeds):
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                for side in order:
                    result = run_side(trees[side], workload, pair_seed, seconds)
                    runs.append({"workload": workload, "pair": i,
                                 "seed": pair_seed, "side": side,
                                 "first": side == order[0],
                                 "metrics": {k: v["value"] for k, v in
                                             result["metrics"].items()}})
                    print(f"ab: {workload} pair {i + 1}/{pairs} seed "
                          f"{pair_seed} {side} done", file=sys.stderr)
    except RunFailed as e:
        print(f"ab: {e}; aborting", file=sys.stderr)
        return 1
    finally:
        git("worktree", "remove", "--force", base_tree, check=False)
        shutil.rmtree(base_tree, ignore_errors=True)
        git("worktree", "prune", check=False)

    verdicts = []
    print(f"base {base_sha[:12]} vs working tree {ROOT}; {pairs} pairs, "
          f"seeds {seeds[0]}..{seeds[-1]}, {seconds:g} s runs")
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<14} {'base median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'wins':>7}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            # Runs were appended pair by pair, so the lists pair up.
            side = {s: [r["metrics"][name] for r in runs
                        if r["workload"] == workload and r["side"] == s]
                    for s in ("base", "change")}
            wins, call = verdict(metric, side["base"], side["change"])
            stats = {s: summary(side[s])[:3] for s in side}
            cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
                     for m, q1, q3 in (stats["base"], stats["change"])]
            print(f"  {name:<14} {cells[0]:>30} {cells[1]:>30} "
                  f"{wins:>3}/{pairs:<3}  {call}")
            verdicts.append({"workload": workload, "metric": name,
                             "base": dict(zip(("median", "q1", "q3"),
                                              stats["base"])),
                             "change": dict(zip(("median", "q1", "q3"),
                                                stats["change"])),
                             "wins": wins, "pairs": pairs, "verdict": call})
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"base": base_sha, "seeds": seeds, "seconds": seconds,
                   "runs": runs, "summary": verdicts}, f, indent=1)
    print(f"\nraw runs: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
