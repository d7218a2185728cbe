"""Correctness checks, computed apart from the program under test.

Every function here returns a list of problems (empty when the output is
right), so the benchmark can count each check and ``check_checks.py``
can feed each one a deliberately wrong output and see it fail.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence

import numpy as np

#: Relative tolerance for sums taken in another order (float64).
REASSOC_RTOL = 1e-9


def _close(a: float, b: float, rtol: float = 1e-12) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=1e-15)


# ---------------------------------------------------------------------
# Partitions (sweep-cold)
# ---------------------------------------------------------------------
def canonical_edges(graph) -> np.ndarray:
    """The graph's undirected edges ``u <= v``, rebuilt from its CSR."""
    indptr, indices = graph.symmetric_csr()
    src = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    keep = src <= indices
    pairs = np.stack([src[keep], indices[keep]], axis=1)
    return np.unique(pairs, axis=0)


def replication_factor(edges: np.ndarray, assignment: np.ndarray,
                       num_vertices: int, k: int) -> float:
    """RF from a boolean vertex x partition cover matrix."""
    cover = np.zeros((num_vertices, k), dtype=bool)
    cover[edges[:, 0], assignment] = True
    cover[edges[:, 1], assignment] = True
    return float(cover.sum() / cover.any(axis=1).sum())


def edge_cut(edges: np.ndarray, assignment: np.ndarray) -> float:
    """Share of undirected edges whose endpoints lie in two partitions."""
    cut = assignment[edges[:, 0]] != assignment[edges[:, 1]]
    return float(cut.sum() / edges.shape[0])


def check_edge_partition(graph, partition, record, k: int) -> List[str]:
    """Every edge once, in [0, k); RF recomputed equals the record's."""
    problems = []
    edges = canonical_edges(graph)
    assignment = np.asarray(partition.assignment)
    own = np.asarray(partition.edges)
    if own.shape != edges.shape or not np.array_equal(
        np.unique(own, axis=0), edges
    ) or np.unique(own, axis=0).shape[0] != own.shape[0]:
        problems.append("edge set differs from the graph's edges")
        return problems
    if assignment.shape != (edges.shape[0],):
        problems.append("not one partition per edge")
        return problems
    if assignment.min() < 0 or assignment.max() >= k:
        problems.append("partition id outside [0, k)")
        return problems
    rf = replication_factor(own, assignment, graph.num_vertices, k)
    if not _close(rf, record.replication_factor):
        problems.append(
            f"RF {record.replication_factor!r} != recomputed {rf!r}"
        )
    return problems


def check_vertex_partition(graph, partition, record, k: int) -> List[str]:
    """Every vertex once, in [0, k); edge-cut recomputed equals record."""
    problems = []
    assignment = np.asarray(partition.assignment)
    if assignment.shape != (graph.num_vertices,):
        problems.append("not one partition per vertex")
        return problems
    if assignment.min() < 0 or assignment.max() >= k:
        problems.append("partition id outside [0, k)")
        return problems
    cut = edge_cut(canonical_edges(graph), assignment)
    if not _close(cut, record.edge_cut):
        problems.append(f"edge-cut {record.edge_cut!r} != recomputed {cut!r}")
    return problems


def check_paper_orderings(
    rf: Dict[str, float], cut: Dict[str, float]
) -> List[str]:
    """RF(hep100) < RF(hdrf) < RF(random); metis, kahip cut < random."""
    problems = []
    if not rf["hep100"] < rf["hdrf"] < rf["random"]:
        problems.append(
            f"RF ordering broken: hep100 {rf['hep100']:.4f}, "
            f"hdrf {rf['hdrf']:.4f}, random {rf['random']:.4f}"
        )
    for name in ("metis", "kahip"):
        if not cut[name] < cut["random"]:
            problems.append(
                f"edge-cut {name} {cut[name]:.4f} not below random "
                f"{cut['random']:.4f}"
            )
    return problems


# ---------------------------------------------------------------------
# Records (cells-warm-metrics, serve-jobs)
# ---------------------------------------------------------------------
def deterministic(record):
    """The record without its wall-clock field and obs summary."""
    return dataclasses.replace(
        record, partitioning_seconds=0.0, obs_metrics=None
    )


def check_same_cell(with_obs, without_obs) -> List[str]:
    """Obs on must not change any deterministic field of a record."""
    if deterministic(with_obs) != deterministic(without_obs):
        return [
            f"{with_obs.graph}/{with_obs.partitioner}: record with obs "
            "differs from the record without"
        ]
    return []


def check_traffic_books(record) -> List[str]:
    """Bytes sent equal bytes received in the record's obs summary."""
    metrics = record.obs_metrics or {}
    sent = metrics.get("bytes_sent_total")
    received = metrics.get("bytes_received_total")
    if sent is None or received is None:
        return [f"{record.graph}/{record.partitioner}: no traffic totals"]
    if not _close(sent, received):
        return [
            f"{record.graph}/{record.partitioner}: sent {sent!r} != "
            f"received {received!r}"
        ]
    return []


def check_round_trip(records: Sequence, loaded: Sequence) -> List[str]:
    """``load_records`` of the export gives back the records."""
    if list(records) != list(loaded):
        return ["exported records do not load back equal"]
    return []


def check_served(served: Sequence, reference: Sequence) -> List[str]:
    """Served records equal an in-process grid run (wall clock aside)."""
    if len(served) != len(reference):
        return [f"{len(served)} served records, {len(reference)} expected"]
    for a, b in zip(served, reference):
        if deterministic(a) != deterministic(b):
            return [
                f"served record {a.graph}/{a.partitioner}/k={a.num_machines}"
                " differs from the in-process run"
            ]
    return []


def check_repeat(job: Dict, records: Sequence, original: Sequence) -> List[str]:
    """A repeated spec is all dedup hits and returns identical records."""
    problems = []
    if job["dedup_hits"] != job["cells_total"]:
        problems.append(
            f"{job['id']}: {job['dedup_hits']} dedup hits for "
            f"{job['cells_total']} cells"
        )
    if list(records) != list(original):
        problems.append(f"{job['id']}: repeated spec returned other records")
    return problems


# ---------------------------------------------------------------------
# Executed training (train-executed)
# ---------------------------------------------------------------------
def centralized_sage_loss(graph, weights, features, labels, train_mask):
    """Mean cross-entropy of a GraphSAGE forward pass, computed whole.

    The neighbour sum is a sparse adjacency product: the undirected
    edge list (a self-loop counts from both ends, as in the trainers)
    sorted by destination and summed per row with ``np.add.reduceat``.
    ``weights`` is a list of ``(w_self, w_neigh, bias)`` per layer.
    """
    edges = graph.undirected_edges()
    dst = np.concatenate([edges[:, 0], edges[:, 1]])
    src = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(dst, kind="stable")
    dst, src = dst[order], src[order]
    n = graph.num_vertices
    rows, starts = np.unique(dst, return_index=True)
    degree = np.zeros(n)
    degree[rows] = np.diff(np.append(starts, dst.shape[0]))
    degree = np.maximum(degree, 1.0)
    h = np.asarray(features, dtype=np.float64)
    for index, (w_self, w_neigh, bias) in enumerate(weights):
        sums = np.zeros_like(h)
        sums[rows] = np.add.reduceat(h[src], starts, axis=0)
        out = h @ w_self + (sums / degree[:, None]) @ w_neigh + bias
        h = np.maximum(out, 0.0) if index < len(weights) - 1 else out
    logits = h[train_mask]
    logits = logits - logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    picked = log_probs[np.arange(logits.shape[0]), labels[train_mask]]
    return float(-picked.mean())


def check_first_loss(loss: float, reference: float) -> List[str]:
    """The first distributed loss equals the centralized one."""
    if not math.isclose(loss, reference, rel_tol=REASSOC_RTOL):
        return [f"first loss {loss!r} != centralized {reference!r}"]
    return []


def check_trajectories(losses: Dict[str, List[float]]) -> List[str]:
    """Full-batch loss trajectories agree across partitions and fall."""
    problems = []
    names = sorted(losses)
    length = min(len(v) for v in losses.values())
    base = losses[names[0]]
    for name in names[1:]:
        for epoch in range(length):
            if not math.isclose(
                losses[name][epoch], base[epoch], rel_tol=REASSOC_RTOL
            ):
                problems.append(
                    f"epoch {epoch}: {name} loss {losses[name][epoch]!r} "
                    f"!= {names[0]} {base[epoch]!r}"
                )
                break
    for name in names:
        if length < 2 or not losses[name][length - 1] < losses[name][0]:
            problems.append(f"{name}: full-batch loss did not fall")
    return problems


def check_minibatch(steps: List[float], accuracy: float,
                    num_classes: int) -> List[str]:
    """Mini-batch loss falls and test accuracy beats chance."""
    problems = []
    window = max(min(len(steps) // 4, 10), 1)
    if len(steps) < 2 or not (
        np.mean(steps[-window:]) < np.mean(steps[:window])
    ):
        problems.append("mini-batch loss did not fall")
    chance = 1.0 / num_classes
    if not accuracy > chance + 0.1:
        problems.append(
            f"test accuracy {accuracy:.3f} not above chance {chance:.3f}"
        )
    return problems
