#!/usr/bin/env python3
"""Self-checks of the benchmark. Run from the root of the repository.

    python3 perfbench/check.py counters --workload nested [--seed 1]
        Runs the traced run twice on one seed and exits 1 unless every count
        (every per-layer metric whose unit is "count") agrees exactly. On
        `nested` it also prints how each count compares with the counts
        recorded when the benchmark was defined.

    python3 perfbench/check.py overhead --workload table1-small [--seed 1] [--runs 3]
        Runs the untraced and the traced run `--runs` times each, alternating,
        and prints the median of each end-to-end metric untraced, traced, and
        traced minus untraced.

Both build the benchmark with cargo first, as the benchmark command does.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = [
    "cargo", "run", "--release", "--offline", "--quiet",
    "--manifest-path", "perfbench/Cargo.toml", "--",
]

# The counts of one traced `nested` solve when the benchmark was defined.
NESTED_COUNTS = {
    "lp.float_pivots": 1076,
    "lp.exact_pivots": 29973,
    "lp.lu_updates": 29973,
    "lp.lu_refactorizations": 162,
    "lp.separation_rounds": 3,
    "lp.products_total": 4175,
    "lp.products_generated": 2366,
    "lp.rows": 1435,
    "lp.cols": 5669,
    "handelman.constraints": 1400,
    "lang.transitions": 40,
}


def run(workload, seed, seconds, trace):
    """One benchmark run; returns its result object."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(COMMAND + args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"no result from {workload} (exit {done.returncode})")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload}: a verdict check failed (exit {done.returncode})")
    return result


def counters(options):
    first, second = (run(options.workload, options.seed, 1, 1) for _ in range(2))
    counts = {name: metric["value"] for name, metric in first["metrics"].items()
              if metric["unit"] == "count"}
    differ = [name for name, value in counts.items()
              if second["metrics"][name]["value"] != value]
    for name, value in counts.items():
        note = "DIFFERS between runs" if name in differ else "repeats"
        if options.workload == "nested" and name in NESTED_COUNTS:
            note += f"; recorded {NESTED_COUNTS[name]}"
        print(f"{name:28} {value:>12g}  {note}")
    if differ:
        sys.exit(f"counts differ between two traced runs: {', '.join(differ)}")
    print(f"all {len(counts)} counts repeat exactly")


def overhead(options):
    untraced, traced = [], []
    for _ in range(options.runs):
        untraced.append(run(options.workload, options.seed, options.seconds, 0))
        traced.append(run(options.workload, options.seed, options.seconds, 1))
    print(f"{'metric':18} {'untraced':>14} {'traced':>14} {'traced - untraced':>18}")
    for name, metric in untraced[0]["metrics"].items():
        plain = statistics.median(r["metrics"][name]["value"] for r in untraced)
        with_trace = statistics.median(r["metrics"]["traced." + name]["value"] for r in traced)
        print(f"{name:18} {plain:14.6g} {with_trace:14.6g} {with_trace - plain:18.6g} "
              f"{metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=["counters", "overhead"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--runs", type=int, default=3)
    options = parser.parse_args()
    if options.check == "counters":
        counters(options)
    else:
        overhead(options)


if __name__ == "__main__":
    main()
