"""Which package functions a traced run wraps, and the per-layer figures.

:func:`instrument` installs spans around calls into the package's public
functions; the simulation layers (``cluster``, ``costmodel``, ``comm``)
are not wrapped and show up inside the engine spans that call them. The
``obs`` hooks (``obs.count`` and friends) are not wrapped either: a span
per hook would cost more than the hook, so the obs layer is timed by
difference instead (``obs.overhead_ms_per_cell``).

:data:`PER_LAYER` is the fixed list of per-layer metrics every traced
run reports, whatever its workload; a layer a workload does not exercise
reports 0 (for a kernel on a warm workload, that 0 is the point).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

from common import median
from tracing import LAYERS, Tracer

EDGE_NAMES = ("random-ec", "dbh", "hdrf", "2ps-l", "hep10", "hep100")
VERTEX_NAMES = ("random-vc", "ldg", "spinner", "metis", "bytegnn", "kahip")
FULLBATCH_PARTITIONERS = ("random", "hdrf", "hep100")
MINIBATCH_PARTITIONERS = ("random", "metis")

PER_LAYER: List[Tuple[str, str]] = (
    [("graph.generate_ms", "ms")]
    + [(f"partitioning.kernel_ms.{n}", "ms") for n in EDGE_NAMES]
    + [(f"partitioning.kernel_ms.{n}", "ms") for n in VERTEX_NAMES]
    + [
        ("partitioning.quality_ms.vertexcut", "ms"),
        ("partitioning.quality_ms.edgecut", "ms"),
        ("partitioning.masters_ms", "ms"),
        ("experiments.cache_hits", "count"),
        ("experiments.cache_misses", "count"),
        ("experiments.export_ms", "ms"),
        ("experiments.warm_cell_ms_p90", "ms"),
        ("distgnn.engine_init_ms", "ms"),
        ("distgnn.simulate_ms", "ms"),
    ]
    + [
        (f"distgnn.fullbatch_epoch_ms.{n}", "ms")
        for n in FULLBATCH_PARTITIONERS
    ]
    + [
        ("distdgl.engine_init_ms", "ms"),
        ("distdgl.run_training_ms", "ms"),
    ]
    + [
        (f"distdgl.minibatch_step_ms.{n}", "ms")
        for n in MINIBATCH_PARTITIONERS
    ]
    + [
        ("gnn.sample_blocks_ms", "ms"),
        ("obs.overhead_ms_per_cell", "ms"),
        ("obs.series", "count"),
    ]
    + [(f"self_pct.{layer}", "%") for layer in LAYERS if layer != "serve"]
    + [
        ("self_pct.bench", "%"),
        ("trace.spans", "count"),
        ("trace.overhead_pct", "%"),
        ("trace.op_ms_p50", "ms"),
    ]
)

#: Figures only the ``serve-jobs`` workload reports. That workload is not
#: declared in ``BENCHMARK.json`` (see the README), so the declared
#: workloads leave these out.
SERVE_LAYER: List[Tuple[str, str]] = [
    ("serve.submit_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.job_ms_p90", "ms"),
    ("self_pct.serve", "%"),
]


def _registry_name(family: str, name: str) -> str:
    """The registry docstring's name: the two Random baselines differ."""
    key = name.lower()
    if key == "random":
        return "random-ec" if family == "edge" else "random-vc"
    return key


def instrument(tracer: Tracer) -> None:
    """Wrap the package's public functions with spans (traced run only)."""
    from repro.distdgl import engine as dgl_engine
    from repro.distdgl import minibatch as dgl_minibatch
    from repro.distdgl import DistDglEngine
    from repro.distgnn import DistGnnEngine
    from repro.experiments import cache, runner
    from repro.gnn.models import GnnModel
    from repro.partitioning import EdgePartition

    def wrap_factory(family: str, attr: str) -> None:
        make = getattr(cache, attr)

        def traced_make(name: str):
            partitioner = make(name)
            span_name = (
                "partitioning.kernel_ms." + _registry_name(family, name)
            )
            kernel = partitioner.partition

            def partition(*args, **kwargs):
                tracer.bump("kernel_calls")
                with tracer.span(span_name):
                    return kernel(*args, **kwargs)

            partitioner.partition = partition
            return partitioner

        tracer.patch(cache, attr, traced_make)

    wrap_factory("edge", "make_edge_partitioner")
    wrap_factory("vertex", "make_vertex_partitioner")

    seen: "weakref.WeakSet" = weakref.WeakSet()

    def wrap_quality(attr: str, kind: str) -> None:
        quality = getattr(runner, attr)

        def traced(partition, *args, **kwargs):
            first = partition not in seen
            seen.add(partition)
            name = (
                f"partitioning.quality_ms.{kind}" if first
                else f"partitioning.quality_repeat.{kind}"
            )
            with tracer.span(name):
                return quality(partition, *args, **kwargs)

        tracer.patch(runner, attr, traced)

    wrap_quality("edge_partition_quality", "vertexcut")
    wrap_quality("vertex_partition_quality", "edgecut")

    def wrap_lookup(attr: str) -> None:
        lookup = getattr(runner, attr)

        def traced(*args, **kwargs):
            before = tracer.counts.get("kernel_calls", 0)
            with tracer.span("experiments.cache_lookup"):
                result = lookup(*args, **kwargs)
            missed = tracer.counts.get("kernel_calls", 0) > before
            if tracer.op_id is not None:
                tracer.bump(
                    "timed_cache_misses" if missed else "timed_cache_hits"
                )
            return result

        tracer.patch(runner, attr, traced)

    wrap_lookup("cached_edge_partition")
    wrap_lookup("cached_vertex_partition")

    tracer.wrap(runner, "run_distgnn", "experiments.run_distgnn")
    tracer.wrap(runner, "run_distdgl", "experiments.run_distdgl")
    tracer.wrap(EdgePartition, "masters", "partitioning.masters_ms")
    tracer.wrap(DistGnnEngine, "__init__", "distgnn.engine_init_ms")
    tracer.wrap(DistGnnEngine, "simulate_training", "distgnn.simulate_ms")
    tracer.wrap(DistDglEngine, "__init__", "distdgl.engine_init_ms")
    tracer.wrap(DistDglEngine, "run_training", "distdgl.run_training_ms")
    tracer.wrap(dgl_engine, "sample_blocks", "gnn.sample_blocks_ms")
    tracer.wrap(dgl_minibatch, "sample_blocks", "gnn.sample_blocks_ms")
    tracer.wrap(GnnModel, "forward", "gnn.forward")
    tracer.wrap(GnnModel, "backward", "gnn.backward")


def _ms(values: List[float]) -> float:
    return median(values) * 1e3 if values else 0.0


def layer_metrics(
    tracer: Tracer,
    extra: Dict[str, float],
    timed_seconds: float,
    setups: int,
    names: List[Tuple[str, str]] = PER_LAYER,
) -> Dict[str, Tuple[float, str]]:
    """Every figure of ``names`` from the spans of one traced run.

    ``extra`` carries figures the workload measured itself (obs overhead,
    serve ratios, p90s, the traced op median); ``timed_seconds`` is the
    wall time of the timed phase, the base of the self-time shares.
    """
    values: Dict[str, float] = {}
    generate = tracer.durations("graph.generate_ms")
    values["graph.generate_ms"] = sum(generate) * 1e3 / max(setups, 1)
    # Kernel and quality spans: the timed phase only (op id set), so a
    # warm workload's set-up partitioning does not read as timed work.
    timed: Dict[str, List[float]] = {}
    for name, start, end, _, op in tracer.spans:
        if op is not None:
            timed.setdefault(name, []).append(end - start)
    for name, unit in names:
        if name in values or unit != "ms":
            continue
        if name.startswith(("partitioning.", "distgnn.", "distdgl.", "gnn.")):
            values[name] = _ms(timed.get(name, []))
    values["experiments.export_ms"] = _ms(
        timed.get("experiments.export_ms", [])
    )
    values["experiments.cache_hits"] = float(
        tracer.counts.get("timed_cache_hits", 0)
    )
    values["experiments.cache_misses"] = float(
        tracer.counts.get("timed_cache_misses", 0)
    )
    values["serve.submit_ms"] = _ms(timed.get("serve.submit_ms", []))
    values["serve.poll_ms"] = _ms(timed.get("serve.poll_ms", []))
    own, covered = tracer.self_seconds()
    base = max(timed_seconds, 1e-9)
    for layer in LAYERS:
        values[f"self_pct.{layer}"] = 100.0 * own.get(layer, 0.0) / base
    values["self_pct.bench"] = 100.0 * max(base - covered, 0.0) / base
    spans = sum(1 for s in tracer.spans if s[4] is not None)
    values["trace.spans"] = float(spans)
    values["trace.overhead_pct"] = (
        100.0 * spans * tracer.cost_per_span() / base
    )
    values.update(extra)
    return {
        name: (float(values.get(name, 0.0)), unit) for name, unit in names
    }
