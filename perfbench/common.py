"""Shared plumbing of the repo benchmark: paths, statistics, results.

The benchmark imports the package from ``<root>/src`` of the checkout it
lives in, so it always measures the code next to it. It refuses to run
(exit code 2, no result line) when that source tree is missing.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for the daemon's job artifacts and the span dumps.
WORK_DIR = os.path.join(ROOT, ".perfbench")


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (or refuse)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingSourceError(
            f"no package source at {os.path.join(SRC, 'repro')}"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def median(values: List[float]) -> float:
    """Median of a non-empty list."""
    return float(statistics.median(values))


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way ``statistics.quantiles(n=4)`` cuts them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100), nearest-rank on sorted values."""
    ordered = sorted(values)
    rank = max(int(round(q / 100.0 * len(ordered) + 0.5)) - 1, 0)
    return float(ordered[min(rank, len(ordered) - 1)])


def p90_if_tailed(values: List[float]) -> Optional[float]:
    """The p90, or ``None`` when fewer than ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return percentile(values, 90.0)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def timed_setups(build: Callable[[], object], repeats: int = 3):
    """Run ``build`` ``repeats`` times; return (median seconds, last value).

    Set-up is repeated so that ``setup_s`` is a median, not one sample.
    Every repetition does the full work (caches are bypassed by ``build``).
    The previous value is dropped before the next build, so that only one
    set-up is held at a time and ``peak_rss_mb`` is not inflated by two.
    """
    seconds = []
    value = None
    for _ in range(repeats):
        value = None
        started = time.perf_counter()
        value = build()
        seconds.append(time.perf_counter() - started)
    return median(seconds), value


@dataclass
class Outcome:
    """What one workload run produced.

    ``metrics`` holds the end-to-end figures, ``named`` the figures
    named after the job this workload times (printed, not part of the
    result line), ``layers`` the per-layer figures of a traced run.
    """

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks_failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Wall seconds of the timed phase, number of set-ups, the timed
    #: unit's durations (ms) and workload-measured per-layer figures.
    timed_seconds: float = 0.0
    setups: int = 3
    op_ms: List[float] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def op(self, ok: bool, what: str = "") -> None:
        """Count one operation; a failed one is kept with its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A correctness check is an operation too; a failed one also
        makes the run incorrect."""
        self.op(bool(ok), f"check failed: {what}")
        if not ok:
            self.checks_failed += 1


def result_line(outcome: Outcome, trace: bool) -> str:
    """The final JSON line: end-to-end metrics, or per-layer when traced."""
    source = outcome.layers if trace else outcome.metrics
    return json.dumps(
        {
            "correct": outcome.checks_failed == 0,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in source.items()
            },
        }
    )
