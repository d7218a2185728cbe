"""Workload ``sweep-cold``: every partitioner, cold, at small scale.

All 12 partitioners on the OR (social, power law) and EU (web, skewed
R-MAT) stand-ins at ``small`` scale and k=8: the six vertex-cut ones feed
``run_distgnn``, the six edge-cut ones ``run_distdgl``, with default
``TrainingParams`` and obs off. Each pass starts from an empty partition
cache, so the partitioner kernels and the first-call quality metrics do
most of the work, as in the paper's partitioning-time figures.

One operation is one cell; the timed unit (``op_ms_p50``) is one pass
over all 24 cells. Passes repeat while another one fits in the run.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import Outcome, median, self_peak_rss_mb, timed_setups

GRAPHS = ("OR", "EU")
SCALE = "small"
K = 8


def setup(seed: int, tracer):
    """Generate both graphs afresh (bypassing the dataset cache)."""
    from repro.graph import dataset_specs

    specs = dataset_specs()
    graphs = []
    for key in GRAPHS:
        with tracer.span("graph.generate_ms"):
            graphs.append(specs[key].generate(SCALE, seed))
    return graphs


def run_pass(graphs, seed: int, tracer, outcome: Outcome, op_base: int):
    """One cold pass; returns (seconds, records by (graph, name))."""
    from repro.experiments import TrainingParams, cache, runner
    from repro.partitioning import (
        EDGE_PARTITIONER_NAMES,
        VERTEX_PARTITIONER_NAMES,
    )

    params = TrainingParams()
    cache.clear_cache()
    records = {}
    op = op_base
    started = time.perf_counter()
    for graph in graphs:
        for family, names, run in (
            ("edge", EDGE_PARTITIONER_NAMES, runner.run_distgnn),
            ("vertex", VERTEX_PARTITIONER_NAMES, runner.run_distdgl),
        ):
            for name in names:
                op += 1
                try:
                    with tracer.operation(op):
                        records[(graph.name, family, name)] = run(
                            graph, name, K, params, seed=seed
                        )
                    outcome.op(True)
                except Exception as exc:  # a cell that raises is failed
                    outcome.op(False, f"{graph.name}/{name}: {exc!r}")
    return time.perf_counter() - started, records


def check_pass(graphs, seed: int, records, outcome: Outcome,
               previous) -> None:
    """Partitions cover exactly once; RF/cut recomputed; paper orders."""
    import checks
    from repro.experiments import cache

    for graph in graphs:
        rf: Dict[str, float] = {}
        cut: Dict[str, float] = {}
        for (gname, family, name), record in records.items():
            if gname != graph.name:
                continue
            if family == "edge":
                partition, _ = cache.cached_edge_partition(
                    graph, name, K, seed
                )
                problems = checks.check_edge_partition(
                    graph, partition, record, K
                )
                rf[name] = record.replication_factor
            else:
                partition, _ = cache.cached_vertex_partition(
                    graph, name, K, seed
                )
                problems = checks.check_vertex_partition(
                    graph, partition, record, K
                )
                cut[name] = record.edge_cut
            outcome.check(not problems, "; ".join(problems))
        if "hep100" in rf and "kahip" in cut:
            problems = checks.check_paper_orderings(rf, cut)
            outcome.check(not problems, f"{graph.name}: {problems}")
    if previous is not None:
        same = all(
            checks.deterministic(records[key])
            == checks.deterministic(previous[key])
            for key in records if key in previous
        )
        outcome.check(same, "a later pass gave other records")


def run(seed: int, seconds: float, tracer) -> Outcome:
    """Set up three times, then run whole cold passes for ``seconds``."""
    outcome = Outcome()
    setup_s, graphs = timed_setups(lambda: setup(seed, tracer))
    cells = 0
    pass_seconds: List[float] = []
    previous = None
    deadline = time.perf_counter() + seconds
    while True:
        took, records = run_pass(
            graphs, seed, tracer, outcome, op_base=cells
        )
        cells += len(records)
        pass_seconds.append(took)
        rss = self_peak_rss_mb()  # end of the timed pass, before checks
        check_pass(graphs, seed, records, outcome, previous)
        previous = records
        if time.perf_counter() + median(pass_seconds) > deadline:
            break
    per_pass = cells // len(pass_seconds)
    op_s = median(pass_seconds)
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_ms_p50": (op_s * 1e3, "ms"),
        "work_per_s": (per_pass / op_s, "1/s"),
    }
    outcome.named = {
        "sweep_cells_per_s": (per_pass / op_s, "cells/s"),
        "passes": (float(len(pass_seconds)), "count"),
    }
    outcome.timed_seconds = sum(pass_seconds)
    outcome.op_ms = [s * 1e3 for s in pass_seconds]
    return outcome
