"""Annotation propagation over the lexical graph.

The seed and validation sets are annotated lexical units of the graph,
and their annotations are read from it.  A regressor is trained on the
seed (inputs are LU embedding vectors) and applied outward in
breadth-first waves: wave k holds the target LUs whose shortest path to
the nearest seed LU is k hops, with synsets acting as transit nodes.
Because the default mode keeps the model frozen, wave order cannot
affect predictions; an optional mode folds each wave's raw predictions
into the training set and retrains before the next wave.  Targets with
no path to any seed are predicted with the seed-trained model and
flagged with wave -1.  The result holds one raw row per target; the
labels and wave numbers are derived when it is written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import node_token
from .graph import LEXICAL_UNIT, NUM_DIMENSIONS, NodeId, WordNetGraph
from .mlp import MLPConfig, TrainReport, binarize, predict, train_mlp


class PropagationError(ValueError):
    """Invalid propagation inputs."""


class Wave(NamedTuple):
    distance: int
    lus: tuple[NodeId, ...]


@dataclass
class PropagationPlan:
    waves: list[Wave]
    unreachable: tuple[NodeId, ...]


@dataclass
class PropagationResult:
    """One raw prediction row per target LU."""

    predictions: dict[NodeId, np.ndarray]
    plan: PropagationPlan
    report: TrainReport
    wave_reports: list[TrainReport] = field(default_factory=list)


def _check_lu_nodes(g: WordNetGraph, nodes: Iterable[NodeId], role: str) -> None:
    for node in nodes:
        if node not in g.nodes:
            raise PropagationError(f"{role} node {node} is not in the graph")
        if node.kind != LEXICAL_UNIT:
            raise PropagationError(f"{role} node {node} is not a lexical unit")


def _check_disjoint(a: set[NodeId], b: Iterable[NodeId], what: str) -> None:
    """Raise PropagationError naming up to five LUs that `a` and `b` share."""
    overlap = a.intersection(b)
    if overlap:
        sample = ", ".join(str(n) for n in sorted(overlap)[:5])
        raise PropagationError(f"{what} overlap: {sample}")


def build_plan(
    g: WordNetGraph, seed: Iterable[NodeId], targets: Iterable[NodeId]
) -> PropagationPlan:
    """Multi-source BFS from the seed over the full graph's index view.

    Wave k collects exactly the target LUs at shortest-path distance k
    from the nearest seed LU; waves with no targets are omitted.  Targets
    never reached go to `unreachable`.
    """
    seed_set = set(seed)
    target_set = set(targets)
    _check_disjoint(seed_set, target_set, "seed and targets")
    _check_lu_nodes(g, sorted(seed_set), "seed")
    _check_lu_nodes(g, sorted(target_set), "target")

    view = g.walk_view  # its indices follow sorted NodeId order
    visited = {view.index[n] for n in seed_set}
    frontier = sorted(visited)
    remaining = {view.index[n] for n in target_set}
    waves: list[Wave] = []
    distance = 0
    while frontier and remaining:
        distance += 1
        next_frontier = []
        for i in frontier:
            for _edge, m in view.adjacent[i]:
                if m not in visited:
                    visited.add(m)
                    next_frontier.append(m)
        hit = sorted(m for m in next_frontier if m in remaining)
        if hit:
            waves.append(Wave(distance=distance, lus=tuple(view.nodes[m] for m in hit)))
            remaining.difference_update(hit)
        frontier = next_frontier
    return PropagationPlan(
        waves=waves,
        unreachable=tuple(view.nodes[m] for m in sorted(remaining)),
    )


def require_embeddings(embeddings, lus: Iterable[NodeId]) -> None:
    """Raise PropagationError naming the first ten LU tokens that have no
    embedding."""
    missing = [node_token(lu) for lu in lus if node_token(lu) not in embeddings]
    if missing:
        more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
        raise PropagationError("missing embeddings for: " + ", ".join(missing[:10]) + more)


def embedding_matrix(embeddings, lus: Iterable[NodeId]) -> np.ndarray:
    """The embedding rows of `lus`; a non-finite row raises
    PropagationError naming its LU's token."""
    lus = list(lus)
    if not lus:
        return np.zeros((0, embeddings.dim))
    x = np.stack([embeddings.vector_of(node_token(lu)) for lu in lus])
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise PropagationError(f"non-finite embedding for {node_token(lus[int(np.argmax(bad))])}")
    return x


def training_set(g: WordNetGraph, embeddings, lus) -> tuple[np.ndarray, np.ndarray]:
    """The embedding rows and the graph's annotation rows of `lus`; an LU
    without an annotation or an embedding raises PropagationError naming it."""
    for lu in lus:
        if lu not in g.annotations:
            raise PropagationError(f"{lu} has no annotation")
    require_embeddings(embeddings, lus)
    y = np.stack([g.annotations[lu] for lu in lus]) if lus else np.zeros((0, NUM_DIMENSIONS))
    return embedding_matrix(embeddings, lus), y


def propagate(
    g: WordNetGraph,
    embeddings,
    cfg: MLPConfig,
    seed: Iterable[NodeId],
    val: Iterable[NodeId],
    targets: Iterable[NodeId],
    retrain_per_wave: bool = False,
) -> PropagationResult:
    """Train on the seed LUs' annotations, validate on the val LUs', then
    predict the targets wave by wave.  A validation LU in the seed would let
    early stopping select on training rows, so the two sets must be
    disjoint, as must the seed and the targets.

    With retrain_per_wave off (the default) one frozen model predicts
    every wave, but float32 products round with the row count, so a
    wave's rows can differ in the last bits from one batch ``predict``
    over all targets.  With it on, each completed wave's raw predictions
    are appended to the training inputs and the model is retrained from
    scratch before the next wave; the validation set is never extended.
    """
    seed_ids = sorted(set(seed))
    if not seed_ids:
        raise PropagationError("seed annotations are empty")
    val_ids = sorted(set(val))
    _check_disjoint(set(seed_ids), val_ids, "seed and validation sets")
    target_ids = sorted(set(targets))
    require_embeddings(embeddings, (*seed_ids, *val_ids, *target_ids))
    plan = build_plan(g, seed_ids, target_ids)

    x_train, y_train = training_set(g, embeddings, seed_ids)
    val_set = training_set(g, embeddings, val_ids)
    model, report = train_mlp(cfg, (x_train, y_train), val_set)
    initial_model = model
    wave_reports: list[TrainReport] = []

    predictions: dict[NodeId, np.ndarray] = {}
    for wi, wave in enumerate(plan.waves):
        x_wave = embedding_matrix(embeddings, wave.lus)
        raw = predict(model, x_wave)
        predictions.update(zip(wave.lus, raw))
        if retrain_per_wave and wi < len(plan.waves) - 1:
            x_train = np.concatenate([x_train, x_wave])
            y_train = np.concatenate([y_train, raw])
            model, wave_report = train_mlp(cfg, (x_train, y_train), val_set)
            wave_reports.append(wave_report)

    if plan.unreachable:
        raw = predict(initial_model, embedding_matrix(embeddings, plan.unreachable))
        predictions.update(zip(plan.unreachable, raw))

    return PropagationResult(
        predictions=predictions, plan=plan, report=report, wave_reports=wave_reports
    )


def save_propagation(result: PropagationResult, path) -> None:
    """One JSON object per predicted LU, waves first, unreachable (wave
    -1) last, with its raw row and the labels binarize(raw)."""
    plan = result.plan
    with open(path, "w", encoding="utf-8") as fh:
        for wave in (*plan.waves, Wave(-1, plan.unreachable)):
            for lu in wave.lus:
                raw = result.predictions[lu]
                record = {
                    "lu": [lu.id, lu.lang],
                    "wave": wave.distance,
                    "raw": [float(v) for v in raw],
                    "labels": [bool(b) for b in binarize(raw)],
                }
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
