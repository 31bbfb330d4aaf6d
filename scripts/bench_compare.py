#!/usr/bin/env python3
"""Compare the repository benchmark between a base revision and the working tree.

Run from the repository root (or through `make bench-compare`):

    python3 scripts/bench_compare.py --base HEAD~1 --workload campaign --pairs 5 --seconds 25

BASE is checked out with `git worktree add` into a temporary directory that
is removed on exit; it must already contain _perfbench/. Each pair runs
`python3 _perfbench/run.py --workload W --seed i --seconds S --trace 0`
once in the base tree and once in the working tree, alternating which side
runs first so drift on a shared host falls on both sides alike. The last
line of every run's standard output is its JSON result; for each
end-to-end metric named in BENCHMARK.json the script prints, per side, the
median and the interquartile range over the pairs, then the change of the
medians. Every run takes about SECONDS plus setup and build time.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def run_bench(tree, build, workload, seed, seconds):
    """Runs the benchmark once in tree and returns its JSON result."""
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    cmd = ["python3", "_perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"bench_compare: {' '.join(cmd)} failed in {tree} (exit {out.returncode})")
    return json.loads(lines[-1])


def quartiles(xs):
    """Returns (q1, median, q3) of xs; a single value is its own spread."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, choices=["figures", "campaign", "rmtd"])
    ap.add_argument("--pairs", type=int, required=True, help="runs per side")
    ap.add_argument("--seconds", type=int, required=True, help="measured seconds per run")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("bench_compare: --pairs must be at least 1")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = [(m["name"], m["unit"]) for m in json.load(f)["end_to_end"]]

    tmp = tempfile.mkdtemp(prefix="bench-compare.")
    base_tree = os.path.join(tmp, "base")
    subprocess.run(["git", "worktree", "add", "--detach", "--quiet", base_tree, args.base], check=True)
    results = {"base": [], "head": []}
    try:
        if not os.path.isfile(os.path.join(base_tree, "_perfbench", "run.py")):
            sys.exit(f"bench_compare: {args.base} has no _perfbench/run.py")
        sides = {
            "base": (base_tree, os.path.join(tmp, "build-base")),
            "head": (root, os.path.join(root, ".bench_build")),
        }
        for i in range(1, args.pairs + 1):
            order = ["base", "head"] if i % 2 else ["head", "base"]
            for side in order:
                tree, build = sides[side]
                print(f"pair {i}/{args.pairs}: {side}", file=sys.stderr)
                results[side].append(run_bench(tree, build, args.workload, i, args.seconds))
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree])
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload}: base {args.base} vs working tree, "
          f"{args.pairs} pair(s) of {args.seconds} s; median [q1, q3]")
    for side in ("base", "head"):
        att = sum(r["attempted"] for r in results[side])
        fail = sum(r["failed"] for r in results[side])
        ok = all(r["correct"] for r in results[side])
        print(f"  {side}: correct={ok} failed {fail} of {att} operations")
    for name, unit in metrics:
        cols = []
        meds = {}
        for side in ("base", "head"):
            xs = [r["metrics"][name]["value"] for r in results[side] if name in r["metrics"]]
            if not xs:
                cols.append(f"{'-':>36}")
                continue
            q1, med, q3 = quartiles(xs)
            meds[side] = med
            cols.append(f"{med:12.4g} [{q1:.4g}, {q3:.4g}]".rjust(36))
        change = ""
        if len(meds) == 2 and meds["base"]:
            change = f"{100 * (meds['head'] - meds['base']) / meds['base']:+7.1f}%"
        print(f"  {name:<18} {unit:<10} base {cols[0]}  head {cols[1]}  {change}")


if __name__ == "__main__":
    main()
