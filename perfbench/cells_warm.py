"""Workload ``cells-warm-metrics``: many warm tiny cells with obs on.

Both engines over all 12 partitioners on three ``tiny`` stand-ins (OR,
EU, HW) at k=8. Partitions are warmed in set-up, so no partitioning
happens in the timed phase: the work is engine construction (masters and
the halo), simulation, the obs registry at the ``metrics`` level and the
export of each pass's records through ``records_to_json``.

One operation is one cell; the timed unit (``op_ms_p50``) is one pass
over the 36 cells plus the export of its records. In the traced run every
other pass runs with obs off, which gives ``obs.overhead_ms_per_cell``.
"""

from __future__ import annotations

import os
import time
from typing import List

from common import (
    WORK_DIR,
    Outcome,
    median,
    p90_if_tailed,
    self_peak_rss_mb,
    timed_setups,
)

GRAPHS = ("OR", "EU", "HW")
SCALE = "tiny"
K = 8


def _cells(graphs):
    """(graph, partitioner, family) for every cell of a pass."""
    from repro.partitioning import (
        EDGE_PARTITIONER_NAMES,
        VERTEX_PARTITIONER_NAMES,
    )

    for graph in graphs:
        for name in EDGE_PARTITIONER_NAMES:
            yield graph, name, "edge"
        for name in VERTEX_PARTITIONER_NAMES:
            yield graph, name, "vertex"


def _run_cell(graph, name, family, seed):
    from repro.experiments import TrainingParams, runner

    run = runner.run_distgnn if family == "edge" else runner.run_distdgl
    return run(graph, name, K, TrainingParams(), seed=seed)


def setup(seed: int, tracer):
    """Fresh graphs, an emptied partition cache, then one pass of every
    cell with obs off: it fills the partition cache and the partitions'
    lazy quality state, and its records are what the timed passes (obs
    on) are checked against."""
    from repro.experiments import cache
    from repro.graph import dataset_specs

    cache.clear_cache()
    specs = dataset_specs()
    graphs = []
    for key in GRAPHS:
        with tracer.span("graph.generate_ms"):
            graphs.append(specs[key].generate(SCALE, seed))
    reference = [
        _run_cell(graph, name, family, seed)
        for graph, name, family in _cells(graphs)
    ]
    return graphs, reference


def run_pass(graphs, seed, tracer, outcome, op_base, cell_ms):
    """One warm pass and its export; returns (seconds, records, json)."""
    from repro.experiments import records_to_json
    from repro.obs import api as obs

    obs.reset()
    records = []
    op = op_base
    started = time.perf_counter()
    for graph, name, family in _cells(graphs):
        op += 1
        began = time.perf_counter()
        try:
            with tracer.operation(op):
                records.append(_run_cell(graph, name, family, seed))
            outcome.op(True)
        except Exception as exc:  # a cell that raises is failed
            outcome.op(False, f"{graph.name}/{name}: {exc!r}")
        cell_ms.append((time.perf_counter() - began) * 1e3)
    with tracer.operation(op), tracer.span("experiments.export_ms"):
        exported = records_to_json(records)
    return time.perf_counter() - started, records, exported


def check_pass(records, exported, reference, first, outcome) -> None:
    """Obs changes no deterministic field; books balance; export loads."""
    import checks
    from repro.experiments import load_records

    for record, plain in zip(records, reference):
        problems = checks.check_same_cell(record, plain)
        problems += checks.check_traffic_books(record)
        outcome.check(not problems, "; ".join(problems))
    if first is not None:
        outcome.check(records == first, "a later pass gave other records")
    path = os.path.join(WORK_DIR, f"warm-{os.getpid()}.json")
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(exported)
        problems = checks.check_round_trip(records, load_records(path))
    finally:
        os.remove(path)
    outcome.check(not problems, "; ".join(problems))


def run(seed: int, seconds: float, tracer) -> Outcome:
    """Set up three times, then warm passes at the metrics level.

    Each pass is checked right after it, outside its timing, against
    the obs-off records of the set-up pass.
    """
    from repro.obs import api as obs

    outcome = Outcome()
    setup_s, (graphs, reference) = timed_setups(
        lambda: setup(seed, tracer)
    )
    metrics_s: List[float] = []
    off_s: List[float] = []
    cell_ms: List[float] = []
    first = None
    ops = 0
    series = 0
    rss = 0.0
    deadline = time.perf_counter() + seconds
    try:
        while True:
            # The traced run alternates metrics and off passes; the
            # untraced run measures the metrics level only.
            passes = len(metrics_s) + len(off_s)
            level = "off" if tracer.enabled and passes % 2 else "metrics"
            obs.configure(level)
            took, records, exported = run_pass(
                graphs, seed, tracer, outcome, ops,
                cell_ms if level == "metrics" else [],
            )
            ops += len(records) + 1
            rss = self_peak_rss_mb()
            if level == "metrics":
                metrics_s.append(took)
                series = len(obs.snapshot())
                obs.configure("off")
                check_pass(records, exported, reference, first, outcome)
                first = records
            else:
                off_s.append(took)
            if time.perf_counter() + took > deadline:
                break
    finally:
        obs.configure("off")
        obs.reset()
    outcome.check(series > 0, "obs snapshot is empty at the metrics level")
    cells_per_pass = len(first) if first else 1

    op_s = median(metrics_s)
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_ms_p50": (op_s * 1e3, "ms"),
        "work_per_s": (cells_per_pass / op_s, "1/s"),
    }
    outcome.named = {
        "warm_cell_ms_p50": (op_s * 1e3 / cells_per_pass, "ms"),
        "warm_cell_samples": (float(len(cell_ms)), "count"),
    }
    p90 = p90_if_tailed(cell_ms)
    if p90 is not None:
        outcome.named["warm_cell_ms_p90"] = (p90, "ms")
        outcome.extra["experiments.warm_cell_ms_p90"] = p90
    outcome.extra["obs.series"] = float(series)
    if off_s:
        outcome.extra["obs.overhead_ms_per_cell"] = (
            (median(metrics_s) - median(off_s)) * 1e3 / cells_per_pass
        )
    outcome.timed_seconds = sum(metrics_s) + sum(off_s)
    outcome.op_ms = [s * 1e3 for s in metrics_s]
    return outcome
