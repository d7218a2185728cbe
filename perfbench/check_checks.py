"""Tests that check the benchmark's correctness checks.

Each check is fed a right output (it must pass) and a deliberately wrong
one (it must fail). Run from the root of a checkout::

    python3 perfbench/check_checks.py

or with ``python3 -m pytest perfbench/check_checks.py``. The file name
keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import types

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
from common import ROOT, use_source_tree  # noqa: E402

use_source_tree()

from repro.distgnn import DistributedFullBatchTrainer  # noqa: E402
from repro.experiments import (  # noqa: E402
    TrainingParams,
    cached_edge_partition,
    cached_vertex_partition,
    run_distdgl,
    run_distgnn,
)
from repro.graph import (  # noqa: E402
    load_dataset,
    planted_community_task,
    random_split,
)
from repro.obs import api as obs  # noqa: E402

K = 4


def _graph():
    return load_dataset("OR", "tiny", seed=3)


def _edge_cell(name="hdrf"):
    graph = _graph()
    record = run_distgnn(graph, name, K, TrainingParams(), seed=3)
    partition, _ = cached_edge_partition(graph, name, K, 3)
    return graph, partition, record


def _vertex_cell(name="metis"):
    graph = _graph()
    record = run_distdgl(graph, name, K, TrainingParams(), seed=3)
    partition, _ = cached_vertex_partition(graph, name, K, 3)
    return graph, partition, record


def _fake_edge_partition(partition, assignment=None, edges=None):
    return types.SimpleNamespace(
        edges=partition.edges if edges is None else edges,
        assignment=(
            partition.assignment if assignment is None else assignment
        ),
    )


# --------------------------------------------------------- sweep-cold
def test_edge_partition_check_passes_on_real_output():
    graph, partition, record = _edge_cell()
    assert checks.check_edge_partition(graph, partition, record, K) == []


def test_edge_moved_with_rf_kept_fails():
    graph, partition, record = _edge_cell()
    edges, base = partition.edges, partition.assignment
    rf = checks.replication_factor(edges, base, graph.num_vertices, K)
    # Move one edge to another partition, keeping the reported RF.
    for index in range(edges.shape[0]):
        moved = base.copy()
        moved[index] = (moved[index] + 1) % K
        new_rf = checks.replication_factor(
            edges, moved, graph.num_vertices, K
        )
        if new_rf != rf:
            break
    fake = _fake_edge_partition(partition, assignment=moved)
    assert checks.check_edge_partition(graph, fake, record, K)


def test_edge_assigned_twice_fails():
    graph, partition, record = _edge_cell()
    edges = partition.edges.copy()
    edges[1] = edges[0]  # edge 0 twice, edge 1 never
    fake = _fake_edge_partition(partition, edges=edges)
    assert checks.check_edge_partition(graph, fake, record, K)


def test_edge_partition_id_out_of_range_fails():
    graph, partition, record = _edge_cell()
    assignment = partition.assignment.copy()
    assignment[0] = K
    fake = _fake_edge_partition(partition, assignment=assignment)
    assert checks.check_edge_partition(graph, fake, record, K)


def test_vertex_partition_check_passes_on_real_output():
    graph, partition, record = _vertex_cell()
    assert checks.check_vertex_partition(graph, partition, record, K) == []


def test_vertex_moved_with_cut_kept_fails():
    graph, partition, record = _vertex_cell()
    assignment = partition.assignment.copy()
    vertex = int(np.argmax(graph.degrees()))
    assignment[vertex] = (assignment[vertex] + 1) % K
    fake = types.SimpleNamespace(assignment=assignment)
    assert checks.check_vertex_partition(graph, fake, record, K)


def test_vertex_missing_fails():
    graph, partition, record = _vertex_cell()
    fake = types.SimpleNamespace(assignment=partition.assignment[:-1])
    assert checks.check_vertex_partition(graph, fake, record, K)


def test_paper_orderings():
    rf = {"hep100": 2.0, "hdrf": 3.0, "random": 5.0}
    cut = {"metis": 0.2, "kahip": 0.1, "random": 0.8}
    assert checks.check_paper_orderings(rf, cut) == []
    assert checks.check_paper_orderings(dict(rf, hdrf=1.5), cut)
    assert checks.check_paper_orderings(rf, dict(cut, kahip=0.9))


# ------------------------------------------------- cells-warm-metrics
def _metrics_and_plain():
    graph = _graph()
    obs.configure("metrics")
    try:
        with_obs = run_distgnn(graph, "hdrf", K, TrainingParams(), seed=3)
    finally:
        obs.configure("off")
        obs.reset()
    plain = run_distgnn(graph, "hdrf", K, TrainingParams(), seed=3)
    return with_obs, plain


def test_same_cell_check():
    with_obs, plain = _metrics_and_plain()
    assert checks.check_same_cell(with_obs, plain) == []
    nudged = dataclasses.replace(
        with_obs, epoch_seconds=with_obs.epoch_seconds * (1 + 1e-12)
    )
    assert checks.check_same_cell(nudged, plain)


def test_traffic_books_check():
    with_obs, _ = _metrics_and_plain()
    assert checks.check_traffic_books(with_obs) == []
    books = dict(with_obs.obs_metrics)
    books["bytes_received_total"] = books["bytes_received_total"] + 1.0
    broken = dataclasses.replace(with_obs, obs_metrics=books)
    assert checks.check_traffic_books(broken)


def test_round_trip_check():
    with_obs, plain = _metrics_and_plain()
    assert checks.check_round_trip([with_obs, plain], [with_obs, plain]) == []
    altered = dataclasses.replace(plain, network_bytes=plain.network_bytes + 1)
    assert checks.check_round_trip([with_obs, plain], [with_obs, altered])


# -------------------------------------------------------- serve-jobs
def test_served_record_with_a_field_altered_fails():
    _, plain = _metrics_and_plain()
    served = dataclasses.replace(plain, partitioning_seconds=123.0)
    assert checks.check_served([served], [plain]) == []
    altered = dataclasses.replace(plain, replication_factor=1.0)
    assert checks.check_served([altered], [plain])
    assert checks.check_served([plain, plain], [plain])


def test_repeat_check():
    _, plain = _metrics_and_plain()
    job = {"id": "job-1", "dedup_hits": 4, "cells_total": 4}
    assert checks.check_repeat(job, [plain], [plain]) == []
    assert checks.check_repeat(dict(job, dedup_hits=3), [plain], [plain])
    other = dataclasses.replace(plain, epoch_seconds=0.5)
    assert checks.check_repeat(job, [other], [plain])


# ---------------------------------------------------- train-executed
def _trainer():
    graph = _graph()
    task = planted_community_task(graph, 4, 8, seed=3)
    mask = random_split(graph, seed=3).train_mask(graph.num_vertices)
    partition, _ = cached_edge_partition(graph, "hdrf", K, 3)
    trainer = DistributedFullBatchTrainer(
        partition, task.features, task.labels, mask,
        hidden_dim=8, num_layers=2, num_classes=4, seed=3,
    )
    initial = [
        tuple(layer.params[key].copy()
              for key in ("w_self", "w_neigh", "bias"))
        for layer in trainer.model.layers
    ]
    reference = checks.centralized_sage_loss(
        graph, initial, task.features, task.labels, mask
    )
    return trainer, reference


def test_first_loss_perturbed_by_1e6_relative_fails():
    trainer, reference = _trainer()
    loss = trainer.train_epoch()
    assert checks.check_first_loss(loss, reference) == []
    assert checks.check_first_loss(loss * (1 + 1e-6), reference)


def test_trajectory_check():
    trainer, _ = _trainer()
    losses = trainer.train(5)
    same = {"a": list(losses), "b": list(losses)}
    assert checks.check_trajectories(same) == []
    drifted = list(losses)
    drifted[2] *= 1 + 1e-6
    assert checks.check_trajectories({"a": list(losses), "b": drifted})
    rising = sorted(losses)
    assert checks.check_trajectories({"a": rising, "b": rising})


def test_minibatch_check():
    falling = list(np.linspace(2.0, 0.5, 40))
    assert checks.check_minibatch(falling, 0.9, 8) == []
    assert checks.check_minibatch(falling[::-1], 0.9, 8)
    assert checks.check_minibatch(falling, 1.0 / 8, 8)


# ------------------------------------------------------ the contract
def test_benchmark_json_names_match_the_code():
    from layers import PER_LAYER, SERVE_LAYER
    from run import UNDECLARED, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    # The undeclared serve-jobs workload reports its own figures on top.
    assert UNDECLARED == ("serve-jobs",)
    assert not set(dict(SERVE_LAYER)) & set(dict(PER_LAYER))


def main() -> int:
    tests = [
        (name, fn) for name, fn in globals().items()
        if name.startswith("test_") and callable(fn)
    ]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
