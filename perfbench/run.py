"""The repo benchmark: one workload per run, or all of them.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

A single-workload run prints its workload-level figures as ``name =
value unit`` lines and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload untraced and then traced, each in
its own process, prints every figure by name with its unit, and reports
the tracing overhead as the traced minus the untraced ``op_ms_p50``.

The program receives only inputs generated from ``--seed``. The package
is imported from ``src/`` next to this directory; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

#: Native math libraries run on one thread. Their default, one thread per
#: core, spins on the second core of a small shared machine, so executed
#: training slowed up to 3.5x whenever another process ran beside it.
#: Set before numpy is imported; the serve daemon inherits it.
for _var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR,
    WORK_DIR,
    MissingSourceError,
    Outcome,
    median,
    result_line,
    use_source_tree,
)

#: The workloads ``BENCHMARK.json`` declares.
WORKLOADS = ("sweep-cold", "cells-warm-metrics", "train-executed")
#: Runnable by name, but not declared: its figures were too unsteady on a
#: shared 2-vCPU machine to hold a bound (see the README).
UNDECLARED = ("serve-jobs",)


def _module(workload: str):
    if workload == "sweep-cold":
        import sweep_cold as module
    elif workload == "cells-warm-metrics":
        import cells_warm as module
    elif workload == "train-executed":
        import train_executed as module
    else:
        import serve_jobs as module
    return module


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload in this process; prints the result line."""
    started = time.perf_counter()
    import numpy  # noqa: F401
    import repro.distdgl  # noqa: F401
    import repro.distgnn  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.serve  # noqa: F401
    import_s = time.perf_counter() - started

    from layers import PER_LAYER, SERVE_LAYER, instrument, layer_metrics
    from tracing import NULL_TRACER, Tracer

    tracer = Tracer() if trace else NULL_TRACER
    if trace:
        instrument(tracer)
    try:
        outcome: Outcome = _module(workload).run(seed, seconds, tracer)
    finally:
        if trace:
            tracer.restore()
    setup_s, unit = outcome.metrics["setup_s"]
    outcome.metrics["setup_s"] = (import_s + setup_s, unit)
    if trace:
        outcome.extra["trace.op_ms_p50"] = median(outcome.op_ms)
        names = PER_LAYER
        if workload == "serve-jobs":
            names = PER_LAYER + SERVE_LAYER
        outcome.layers = layer_metrics(
            tracer, outcome.extra, outcome.timed_seconds, outcome.setups,
            names,
        )
        tracer.dump(
            os.path.join(WORK_DIR, f"spans-{workload}-{seed}.json")
        )
    for name, (value, unit) in outcome.named.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")
    print(
        f"{workload}: attempted = {outcome.attempted}, "
        f"failed = {outcome.failed}"
    )
    for reason in outcome.failures:
        print(f"{workload}: FAILED {reason}", file=sys.stderr)
    print(result_line(outcome, trace), flush=True)
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    script = os.path.join(BENCH_DIR, "run.py")
    attempted = failed = 0
    correct = True
    flat = {}
    for workload in WORKLOADS + UNDECLARED:
        results = {}
        for trace in (0, 1):
            completed = subprocess.run(
                [
                    sys.executable, script, "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace),
                ],
                capture_output=True, text=True, check=False,
            )
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload}: run failed (exit {completed.returncode})")
                return 1
            for line in lines[:-1]:
                if trace == 0:
                    print(line)
            results[trace] = json.loads(lines[-1])
        for trace, kind in ((0, "end-to-end"), (1, "per-layer")):
            result = results[trace]
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            print(
                f"{workload} [{kind}] attempted={result['attempted']} "
                f"failed={result['failed']} correct={result['correct']}"
            )
            for name, metric in result["metrics"].items():
                print(
                    f"  {name} = {metric['value']:.6g} {metric['unit']}"
                )
                flat[f"{workload}/{name}"] = metric
        plain = results[0]["metrics"]["op_ms_p50"]["value"]
        traced = results[1]["metrics"]["trace.op_ms_p50"]["value"]
        overhead = 100.0 * (traced - plain) / plain
        print(
            f"  tracing overhead on op_ms_p50: {traced - plain:+.4g} ms "
            f"({overhead:+.3g}%)"
        )
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": flat,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + UNDECLARED + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
