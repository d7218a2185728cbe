"""Workload ``serve-jobs``: a ``repro serve`` daemon under a closed loop.

One daemon (one runner worker, obs off) is driven over loopback by a
single-threaded closed loop acting as two tenants, each keeping one job
outstanding: when a tenant's job is done, the loop fetches its records
and submits that tenant's next job. Jobs are small ``tiny``-scale DistDGL
sweeps over two partitioners and two machine counts (4 cells), with a
parameter set no earlier job used, so they compute fresh. Every
:data:`REPEAT_EVERY`-th job instead repeats one of the last
:data:`REPEAT_WINDOW` fresh specs, so the dedup cache answers it while
the other tenant's job computes.

Jobs are all DistDGL jobs of the same shape so that job latency has one
mode: a tiny DistGNN cell costs about a sixth of a DistDGL one, and a mix
of the two put the median on the edge between two modes (``op_ms_p50``
ranged 110-320 ms over seeds). DistGNN cells are timed by the
``cells-warm-metrics`` workload. Only the streaming partitioners, whose
tiny-scale kernels take milliseconds, are used: the first job on each
(graph, partitioner, k) partitions inside the daemon, and a slow kernel
there would make the first seconds of a run unlike the rest.

The job mix is a chosen one, not a measured one: the repository holds
no record of served traffic to derive it from. Its repeat share decides
how much of the work is dedup reads, so every run prints the
``dedup_ratio`` it served.

One operation is one job; ``op_ms_p50`` is the median admission-to-done
time taken from the daemon's own ``created_at``/``finished_at``, so the
client's poll interval is not part of it. ``work_per_s`` is served cells
over the time the daemon held at least one admitted job, again from its
own timestamps: the stretches in which both jobs had finished and the
client had not yet noticed are left out. Set-up is the daemon start, up
to the first ready ``/healthz``.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    SRC,
    WORK_DIR,
    Outcome,
    median,
    p90_if_tailed,
    pid_peak_rss_mb,
)

GRAPHS = ("OR", "EU", "HW")
PARTITIONERS = ("random", "ldg", "spinner", "bytegnn")
PAIRS = tuple(itertools.combinations(PARTITIONERS, 2))
MACHINES = (4, 8)
TENANTS = ("tenant-a", "tenant-b")
REPEAT_EVERY = 4
REPEAT_WINDOW = 6
#: Pause between poll rounds; job latency is read from the daemon's
#: timestamps, so this only bounds how fast a finished job is noticed.
#: Each poll takes the daemon's interpreter lock from its runner, so
#: frequent polls slow the jobs, the more so on a busy machine.
POLL_PAUSE_S = 0.05
#: How many fresh specs are recomputed in-process for the record check.
CHECKED_SPECS = 8
READY_TIMEOUT_S = 60.0
#: Daemon starts per run; ``setup_s`` is their median, the last is kept.
STARTS = 5


class Daemon:
    """One ``repro serve`` process on a free loopback port."""

    def __init__(self, data_dir: str, obs_level: str) -> None:
        from repro.serve import ServeClient

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(os.path.join(data_dir, "daemon.log"), "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(self.port), "--workers", "1",
                "--data-dir", data_dir, "--obs-level", obs_level,
            ],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.client = ServeClient(f"http://127.0.0.1:{self.port}")

    def wait_ready(self) -> None:
        """Poll ``/healthz`` until it answers (part of set-up time)."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            try:
                self.client.healthz()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> None:
        """Shut the daemon down and wait for it, whatever state it is in."""
        try:
            if self.process.poll() is None:
                try:
                    self.client.shutdown()
                    self.process.wait(timeout=15)
                except (OSError, subprocess.TimeoutExpired):
                    self.process.terminate()
                    try:
                        self.process.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        self.process.kill()
                        self.process.wait()
        finally:
            self._log.close()
            shutil.rmtree(self.data_dir, ignore_errors=True)


class SpecSource:
    """The seeded job sequence: fresh specs, and a fixed share of repeats."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.fresh = 0
        self.submitted: List[Dict] = []

    def next(self, tenant: str) -> Dict:
        """The next spec; ``repeat_of`` is the index of the job repeated."""
        index = len(self.submitted)
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            fresh = [e for e in self.submitted if e["repeat_of"] is None]
            window = fresh[-REPEAT_WINDOW:]
            original = window[int(self.rng.integers(len(window)))]
            spec = dict(original["spec"], tenant=tenant)
            entry = {"spec": spec, "repeat_of": original["index"]}
        else:
            # Graphs and partitioner pairs take turns, from a point the
            # seed sets, so every run has the same share of each
            # (differently priced) combination.
            turn = self.seed + self.fresh
            graph = GRAPHS[turn % len(GRAPHS)]
            names = PAIRS[turn // len(GRAPHS) % len(PAIRS)]
            self.fresh += 1
            spec = {
                "engine": "distdgl",
                "graph": graph,
                "partitioners": [str(n) for n in names],
                "machines": list(MACHINES),
                # A hidden size no earlier job used: the cells are new
                # to the dedup cache, the partitions are not.
                "params": [{"hidden_dim": 16 + self.fresh}],
                "scale": "tiny",
                "seed": self.seed,
                "tenant": tenant,
            }
            entry = {"spec": spec, "repeat_of": None}
        entry["index"] = index
        self.submitted.append(entry)
        return entry


def _records(payload) -> List:
    """Records from a job payload, through the package's own loader."""
    from repro.experiments import load_records

    path = os.path.join(WORK_DIR, f"served-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload["records"], handle)
    try:
        return load_records(path)
    finally:
        os.remove(path)


def _queue_waits_ms(data_dir: str) -> List[float]:
    """Admission-to-dispatch waits from the daemon's job traces."""
    waits = []
    for path in glob.glob(os.path.join(data_dir, "job-*", "trace.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if (
                    event.get("name") == "serve.dispatch"
                    and event.get("kind") == "span-begin"
                ):
                    waits.append(float(event["wait_seconds"]) * 1e3)
    return waits


def busy_seconds(spans: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` spans."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(spans):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def run(seed: int, seconds: float, tracer) -> Outcome:
    """Start the daemon :data:`STARTS` times (keeping the last), then
    run the closed loop."""
    import checks
    from repro.experiments import TrainingParams, run_distdgl_grid
    from repro.graph import load_dataset

    outcome = Outcome()
    os.makedirs(WORK_DIR, exist_ok=True)
    obs_level = "trace" if tracer.enabled else "off"
    base = os.path.join(WORK_DIR, f"serve-{os.getpid()}")
    setups: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for attempt in range(STARTS):
            started = time.perf_counter()
            daemon = Daemon(f"{base}-{attempt}", obs_level)
            daemon.wait_ready()
            setups.append(time.perf_counter() - started)
            if attempt < STARTS - 1:
                daemon.stop()
                daemon = None
        source = SpecSource(seed)
        jobs: List[Dict] = []
        outstanding: Dict[str, Dict] = {}
        op = 0

        def submit(tenant: str) -> None:
            nonlocal op
            op += 1
            entry = source.next(tenant)
            with tracer.operation(op), tracer.span("serve.submit_ms"):
                summary = daemon.client.submit(entry["spec"])
            entry.update(op=op, id=summary["id"])
            outstanding[tenant] = entry

        started = time.perf_counter()
        deadline = started + seconds
        for tenant in TENANTS:
            submit(tenant)
        while outstanding:
            progressed = False
            for tenant in list(outstanding):
                entry = outstanding[tenant]
                with tracer.operation(entry["op"]), tracer.span(
                    "serve.poll_ms"
                ):
                    summary = daemon.client.job(entry["id"])
                if summary["state"] in ("queued", "running"):
                    continue
                progressed = True
                del outstanding[tenant]
                if summary["state"] == "done":
                    with tracer.operation(entry["op"]), tracer.span(
                        "serve.poll_ms"
                    ):
                        payload = daemon.client.job(
                            entry["id"], records=True
                        )
                    entry["summary"] = summary
                    entry["payload"] = payload
                    outcome.op(True)
                else:
                    outcome.op(False, f"{entry['id']}: {summary['state']}")
                jobs.append(entry)
                # However short the run, it serves at least one repeat.
                if (
                    time.perf_counter() < deadline
                    or len(source.submitted) < REPEAT_EVERY
                ):
                    submit(tenant)
            if not progressed:
                time.sleep(POLL_PAUSE_S)
        wall = time.perf_counter() - started
        rss = pid_peak_rss_mb(daemon.process.pid)
        waits = _queue_waits_ms(daemon.data_dir) if tracer.enabled else []
    finally:
        if daemon is not None:
            daemon.stop()

    done = [j for j in jobs if "summary" in j]
    spans = [
        (j["summary"]["created_at"], j["summary"]["finished_at"])
        for j in done
    ]
    job_ms = [(end - start) * 1e3 for start, end in spans]
    busy = busy_seconds(spans)
    cells = sum(j["summary"]["cells_total"] for j in done)
    hits = sum(j["summary"]["dedup_hits"] for j in done)

    # Checks: repeats are all dedup hits with identical records; a
    # fixed number of fresh specs equal an in-process grid run.
    records = {j["index"]: _records(j["payload"]) for j in done}
    checked = 0
    for job in done:
        if job["repeat_of"] is not None:
            original = records.get(job["repeat_of"])
            if original is None:
                continue
            problems = checks.check_repeat(
                job["summary"], records[job["index"]], original
            )
            outcome.check(not problems, "; ".join(problems))
        elif checked < CHECKED_SPECS:
            checked += 1
            spec = job["spec"]
            graph = load_dataset(spec["graph"], "tiny", seed=spec["seed"])
            params = [TrainingParams(**p) for p in spec["params"]]
            reference = run_distdgl_grid(
                graph, spec["partitioners"], spec["machines"], params,
                seed=spec["seed"],
            )
            problems = checks.check_served(records[job["index"]], reference)
            outcome.check(not problems, "; ".join(problems))
    outcome.check(
        any(j["repeat_of"] is not None for j in done),
        "no repeated spec was served",
    )

    outcome.metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_ms_p50": (median(job_ms), "ms"),
        "work_per_s": (cells / busy, "1/s"),
    }
    outcome.named = {
        "job_ms_p50": (median(job_ms), "ms"),
        "served_cells_per_s": (cells / busy, "cells/s"),
        "dedup_ratio": (hits / max(cells, 1), "ratio"),
        "jobs": (float(len(jobs)), "count"),
    }
    p90 = p90_if_tailed(job_ms)
    if p90 is not None:
        outcome.named["job_ms_p90"] = (p90, "ms")
        outcome.extra["serve.job_ms_p90"] = p90
    outcome.extra["serve.dedup_ratio"] = hits / max(cells, 1)
    if waits:
        outcome.extra["serve.queue_wait_ms"] = median(waits)
    outcome.setups = 0
    outcome.timed_seconds = wall
    outcome.op_ms = job_ms
    return outcome
