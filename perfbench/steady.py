"""Steadiness command: run every workload repeatedly, in two sets.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10

It makes two sets of ``runs`` rounds, one after the other: the first
with seeds 1..runs, the second with seeds runs+1..2*runs. A round runs
every workload of ``BENCHMARK.json`` once, untraced, each in its own
process, for the declared ``run_seconds``; the workload order is
reversed on every other round, so a slow stretch of the machine does not
always hit the same workload.

For each set and every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``), the spread ``(q3 - q1) /
median`` and that spread as a share of the metric's bound. Then, per
metric, how far the second set's median is worse than the first's, as a
share of the bound, and whether the share of failed operations is the
same in both sets. Nothing is timed here apart from each run's own wall
time, printed for the run budget: every metric is the one a run reports
about itself.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_workload(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run in a fresh process; returns its result line."""
    completed = subprocess.run(
        [
            sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True, check=False, cwd=ROOT,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: "
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def run_set(workloads, seeds, seconds: int) -> dict:
    """One set: a round per seed, alternating the workload order."""
    results = {w: [] for w in workloads}
    for index, seed in enumerate(seeds):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            started = time.perf_counter()
            result = run_workload(workload, seed, seconds)
            took = time.perf_counter() - started
            results[workload].append(result)
            values = " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            )
            print(
                f"seed {seed} {workload} ({took:.1f} s): {values}",
                flush=True,
            )
    return results


def main(argv=None) -> int:
    sys.path.insert(0, BENCH_DIR)
    from common import median, quartiles

    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    sets = [
        run_set(
            workloads, range(first, first + args.runs), spec["run_seconds"]
        )
        for first in (1, args.runs + 1)
    ]
    worst = 0.0
    for number, results in enumerate(sets, 1):
        print(f"\nset {number}")
        print(
            f"{'workload':<20} {'metric':<12} {'median':>11} {'q1':>11} "
            f"{'q3':>11} {'spread':>7} {'bound':>6} {'of bound':>8}"
        )
        for workload in workloads:
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                values = [r["metrics"][name]["value"] for r in results[workload]]
                q1, mid, q3 = quartiles(values)
                spread = (q3 - q1) / mid
                worst = max(worst, spread / bound)
                print(
                    f"{workload:<20} {name:<12} {mid:>11.5g} {q1:>11.5g} "
                    f"{q3:>11.5g} {spread:>7.2%} {bound:>6.2f} "
                    f"{spread / bound:>8.2f}"
                )
    print(f"\nlargest spread as a share of its bound: {worst:.2f}")

    print("\nsecond set against the first")
    print(
        f"{'workload':<20} {'metric':<12} {'median 1':>11} {'median 2':>11} "
        f"{'worse by':>8} {'bound':>6} {'of bound':>8}"
    )
    worst = 0.0
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first, second = (
                median([r["metrics"][name]["value"] for r in s[workload]])
                for s in sets
            )
            change = (second - first) / first
            worse = change if metric["better"] == "lower" else -change
            worst = max(worst, worse / bound)
            print(
                f"{workload:<20} {name:<12} {first:>11.5g} {second:>11.5g} "
                f"{worse:>+8.2%} {bound:>6.2f} {worse / bound:>+8.2f}"
            )
        shares = [
            sorted({r["failed"] / r["attempted"] for r in s[workload]})
            for s in sets
        ]
        correct = all(r["correct"] for s in sets for r in s[workload])
        print(
            f"{workload:<20} failed shares {shares[0]} and {shares[1]}, "
            f"equal={shares[0] == shares[1]}, correct={correct}"
        )
    print(
        f"\nlargest worsening of a median as a share of its bound: "
        f"{worst:+.2f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
