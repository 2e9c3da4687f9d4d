#!/usr/bin/env python3
"""Records the benchmark baseline: two sets of untraced runs of every
workload, one seed per run, plus one traced run per workload.

Run from the repository root:

    python3 cntbench/scripts/record.py --runs 10 --out cntbench/results/seed.json

For each set it reports every end-to-end metric's spread (the distance
between the first and third quartiles of its per-run values, as a share
of their median) and whether set B's median lies within the metric's
bound of set A's. Both are what `BENCHMARK.json`'s bounds are checked
against. Exits 1 when any run fails or mismatches.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MANIFEST = "cntbench/Cargo.toml"


def build(env):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        check=True,
        env=env,
    )
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "cntbench")


def run_once(binary, workload, seed, seconds, traced):
    proc = subprocess.run(
        [binary, "run", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if traced else "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = next(
        (json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("cntbench-record ")),
        None,
    )
    result = json.loads(lines[-1]) if lines else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        print(f"  {workload} seed {seed}: exit {proc.returncode}, result {result}", file=sys.stderr)
    return ok, record


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--out", default="cntbench/results/seed.json")
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)

    ok = True
    sets = {}
    for index, name in enumerate(["A", "B"]):
        print(f"set {name}", file=sys.stderr)
        runs = []
        for i in range(args.runs):
            seed = 1 + index * args.runs + i
            for workload in workloads:
                passed, record = run_once(binary, workload, seed, seconds, False)
                ok &= passed
                if record:
                    runs.append(record)
        sets[name] = runs
    traced = []
    for workload in workloads:
        passed, record = run_once(binary, workload, 1, seconds, True)
        ok &= passed
        if record:
            traced.append(record)

    summary = []
    print(f"{'workload':<18} {'metric':<14} {'A median':>12} {'A spread':>9} "
          f"{'B median':>12} {'B spread':>9} {'B worse':>8} {'bound':>6}")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            row = {"workload": workload, "metric": name, "bound": metric["bound"]}
            for set_name, runs in sets.items():
                values = [r["metrics"][name]["median"] for r in runs if r["workload"] == workload]
                row[set_name] = {
                    "median": statistics.median(values),
                    "spread": spread(values),
                    "n": len(values),
                }
            row["b_worse_by"] = worse_by(row["A"]["median"], row["B"]["median"], metric["better"])
            summary.append(row)
            print(f"{workload:<18} {name:<14} {row['A']['median']:>12.4f} "
                  f"{row['A']['spread']:>9.4f} {row['B']['median']:>12.4f} "
                  f"{row['B']['spread']:>9.4f} {row['b_worse_by']:>8.4f} {metric['bound']:>6}")

    with open(args.out, "w") as f:
        json.dump({"run_seconds": seconds, "sets": sets, "traced": traced, "summary": summary},
                  f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
