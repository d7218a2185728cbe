"""Workload ``train-executed``: real numpy GraphSAGE training.

``DistributedFullBatchTrainer`` on OR ``small`` over the random, hdrf and
hep100 partitions at k=8, and ``DistributedMiniBatchTrainer`` on EU
``small`` over the random and metis partitions. Graphs, partitions,
features, labels and trainers are built in set-up. The timed work is the
scatter-add aggregation of full-batch epochs and the neighbourhood
sampling of mini-batch steps.

One operation is one epoch or one step. The timed unit (``op_ms_p50``) is
one round: one ``train_epoch`` of each full-batch trainer, then
:data:`STEPS_PER_ROUND` ``train_step`` calls of each mini-batch trainer.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import Outcome, median, self_peak_rss_mb, timed_setups
from layers import FULLBATCH_PARTITIONERS, MINIBATCH_PARTITIONERS

K = 8
NUM_CLASSES = 8
FEATURE_SIZE = 16
HIDDEN_DIM = 32
STEPS_PER_ROUND = 10
#: Rounds every run makes, however short: the checks compare the first
#: epoch's loss with later ones.
MIN_ROUNDS = 3


def setup(seed: int, tracer):
    """Graphs, tasks, partitions and trainers, all built afresh."""
    from repro.distdgl import DistributedMiniBatchTrainer
    from repro.distgnn import DistributedFullBatchTrainer
    from repro.graph import dataset_specs, planted_community_task, random_split
    from repro.partitioning import (
        make_edge_partitioner,
        make_vertex_partitioner,
    )

    specs = dataset_specs()
    with tracer.span("graph.generate_ms"):
        social = specs["OR"].generate("small", seed)
    with tracer.span("graph.generate_ms"):
        web = specs["EU"].generate("small", seed)
    full = {}
    social_task = planted_community_task(
        social, NUM_CLASSES, FEATURE_SIZE, seed=seed
    )
    social_split = random_split(social, seed=seed)
    train_mask = social_split.train_mask(social.num_vertices)
    initial = None
    for name in FULLBATCH_PARTITIONERS:
        partition = make_edge_partitioner(name).partition(
            social, K, seed=seed
        )
        trainer = DistributedFullBatchTrainer(
            partition, social_task.features, social_task.labels,
            train_mask, hidden_dim=HIDDEN_DIM, num_layers=2,
            num_classes=NUM_CLASSES, seed=seed,
        )
        if initial is None:
            initial = [
                tuple(layer.params[key].copy()
                      for key in ("w_self", "w_neigh", "bias"))
                for layer in trainer.model.layers
            ]
        full[name] = trainer
    web_task = planted_community_task(
        web, NUM_CLASSES, FEATURE_SIZE, seed=seed
    )
    web_split = random_split(web, seed=seed)
    mini = {}
    for name in MINIBATCH_PARTITIONERS:
        partition = make_vertex_partitioner(name).partition(
            web, K, seed=seed
        )
        mini[name] = DistributedMiniBatchTrainer(
            partition, web_split, web_task.features, web_task.labels,
            hidden_dim=HIDDEN_DIM, num_layers=2, num_classes=NUM_CLASSES,
            global_batch_size=64, seed=seed,
        )
    return {
        "social": social, "social_task": social_task,
        "train_mask": train_mask, "initial": initial, "full": full,
        "web_split": web_split, "mini": mini,
    }


def run(seed: int, seconds: float, tracer) -> Outcome:
    """Set up three times, then whole training rounds for ``seconds``."""
    import checks

    outcome = Outcome()
    setup_s, state = timed_setups(lambda: setup(seed, tracer))
    full_losses: Dict[str, List[float]] = {n: [] for n in state["full"]}
    step_losses: Dict[str, List[float]] = {n: [] for n in state["mini"]}
    epoch_ms: Dict[str, List[float]] = {n: [] for n in state["full"]}
    step_ms: Dict[str, List[float]] = {n: [] for n in state["mini"]}
    round_s: List[float] = []
    op = 0
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        for name, trainer in state["full"].items():
            op += 1
            began = time.perf_counter()
            try:
                with tracer.operation(op), tracer.span(
                    f"distgnn.fullbatch_epoch_ms.{name}"
                ):
                    full_losses[name].append(trainer.train_epoch())
                outcome.op(True)
            except Exception as exc:  # an epoch that raises is failed
                outcome.op(False, f"epoch {name}: {exc!r}")
            epoch_ms[name].append((time.perf_counter() - began) * 1e3)
        for name, trainer in state["mini"].items():
            for _ in range(STEPS_PER_ROUND):
                op += 1
                began = time.perf_counter()
                try:
                    with tracer.operation(op), tracer.span(
                        f"distdgl.minibatch_step_ms.{name}"
                    ):
                        step_losses[name].append(trainer.train_step())
                    outcome.op(True)
                except Exception as exc:  # a step that raises is failed
                    outcome.op(False, f"step {name}: {exc!r}")
                step_ms[name].append((time.perf_counter() - began) * 1e3)
        took = time.perf_counter() - started
        round_s.append(took)
        if (
            len(round_s) >= MIN_ROUNDS
            and time.perf_counter() + took > deadline
        ):
            break
    rss = self_peak_rss_mb()

    # Checks against a centralized forward pass and the method's
    # properties: equal trajectories, falling losses, above-chance
    # accuracy.
    task = state["social_task"]
    reference = checks.centralized_sage_loss(
        state["social"], state["initial"], task.features, task.labels,
        state["train_mask"],
    )
    for name, losses in full_losses.items():
        problems = checks.check_first_loss(losses[0], reference)
        outcome.check(not problems, f"{name}: {problems}")
    problems = checks.check_trajectories(full_losses)
    outcome.check(not problems, "; ".join(problems))
    for name, trainer in state["mini"].items():
        accuracy = trainer.evaluate(state["web_split"].test)
        problems = checks.check_minibatch(
            step_losses[name], accuracy, NUM_CLASSES
        )
        outcome.check(not problems, f"{name}: {problems}")

    epochs = [ms for v in epoch_ms.values() for ms in v]
    steps = [ms for v in step_ms.values() for ms in v]
    op_s = median(round_s)
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_ms_p50": (op_s * 1e3, "ms"),
        "work_per_s": (
            (len(epochs) + len(steps)) / len(round_s) / op_s, "1/s"
        ),
    }
    outcome.named = {
        "fullbatch_epoch_ms_p50": (median(epochs), "ms"),
        "minibatch_step_ms_p50": (median(steps), "ms"),
        "rounds": (float(len(round_s)), "count"),
    }
    outcome.timed_seconds = sum(round_s)
    outcome.op_ms = [s * 1e3 for s in round_s]
    return outcome
