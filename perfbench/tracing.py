"""Spans recorded from outside the program, around calls into its layers.

A traced run wraps public functions of the package (module attributes
and methods) so that each call records a span: name, start, end, parent
span and operation id. Spans are kept in memory and written once, at the
end of the run. A layer is the first dotted component of a span name
(``partitioning.kernel_ms.hdrf`` belongs to ``partitioning``); its self
time is the time its spans cover minus the part their child spans cover.

The untraced run uses :data:`NULL_TRACER`, whose ``span`` is a no-op, and
wraps nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "LAYERS"]

#: The package layers a span can be attributed to. Time inside an
#: operation that no layer span covers is the benchmark's own.
LAYERS = (
    "graph", "partitioning", "experiments", "distgnn", "distdgl",
    "gnn", "obs", "serve",
)


class NullTracer:
    """Does nothing; the untraced run's tracer."""

    enabled = False

    def span(self, name: str):
        """A no-op context manager."""
        return contextlib.nullcontext()

    def operation(self, op_id: int):
        """A no-op context manager."""
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


class Tracer:
    """In-memory span recorder with function wrapping.

    Spans are tuples ``(name, start, end, parent, op_id)``; ``parent`` is
    the index of the enclosing span or -1. Only one thread records (the
    benchmark is single-threaded where it traces).
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, Optional[int]]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.op_id: Optional[int] = None
        self.counts: Dict[str, int] = {}

    # ----------------------------------------------------------- spans
    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Tag every span opened inside with ``op_id``."""
        previous = self.op_id
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = previous

    def bump(self, name: str, amount: int = 1) -> None:
        """Add to a named count recorded at a layer boundary."""
        self.counts[name] = self.counts.get(name, 0) + amount

    # -------------------------------------------------------- wrapping
    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------- analysis
    def durations(self, name: str) -> List[float]:
        """Durations (seconds) of every finished span called ``name``."""
        return [e - s for n, s, e, _, _ in self.spans if n == name]

    def self_seconds(self) -> Tuple[Dict[str, float], float]:
        """Self time per layer over the timed phase's spans.

        A span's self time is its duration minus the part its child spans
        cover; spans nest strictly (one recording thread), so a child's
        interval lies inside its parent's and the subtraction is exact.
        Returns the per-layer totals and the time the outermost timed
        spans cover. Set-up spans (no operation id) are left out.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        covered = 0.0
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            layer = name.split(".", 1)[0]
            own = (end - start) - child_time[index]
            totals[layer] = totals.get(layer, 0.0) + own
            if parent < 0:
                covered += end - start
        return totals, covered

    def cost_per_span(self, samples: int = 20000) -> float:
        """Measured seconds one empty span costs on this machine."""
        probe = Tracer()
        started = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - started) / samples

    def dump(self, path: str) -> None:
        """Write every span once, as JSON, at the end of the run."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                handle,
            )
