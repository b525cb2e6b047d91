"""Annotation propagation: BFS wave planning and wave-by-wave prediction."""

import json
import re
from collections import deque

import numpy as np
import pytest

from emoprop.corpus import node_token
from emoprop.graph import Edge, NodeId, WordNetGraph, LEXICAL_UNIT
from emoprop.mlp import MLPConfig, predict, train_mlp
from emoprop.propagate import (
    PropagationError,
    Wave,
    build_plan,
    propagate,
    save_propagation,
)
from emoprop.synth import SynthConfig, generate
from helpers import (
    ANTONYMY_LL,
    ConstantTable,
    chain_graph,
    lu,
    random_table,
    reference_adjacency,
    synset,
)


class TestBuildPlan:
    def test_lu_synset_lu_is_wave_two(self):
        g = chain_graph(n_synsets=1, lus_per=2)
        plan = build_plan(g, [lu(0)], [lu(1)])
        assert [(w.distance, w.lus) for w in plan.waves] == [(2, (lu(1),))]
        assert plan.unreachable == ()

    def test_direct_lu_edge_is_wave_one(self):
        g = WordNetGraph()
        g.add_node(lu(0))
        g.add_node(lu(1))
        g.add_edge(Edge(lu(0), lu(1), ANTONYMY_LL))
        plan = build_plan(g, [lu(0)], [lu(1)])
        assert [(w.distance, w.lus) for w in plan.waves] == [(1, (lu(1),))]

    def test_isolated_target_unreachable(self):
        g = chain_graph(n_synsets=1, lus_per=2)
        g.add_node(lu(99))
        plan = build_plan(g, [lu(0)], [lu(1), lu(99)])
        assert plan.unreachable == (lu(99),)
        assert plan.waves == [Wave(2, (lu(1),))]

    def test_waves_skip_empty_distances(self):
        g = chain_graph(n_synsets=3, lus_per=2)
        plan = build_plan(g, [lu(0)], [lu(2), lu(3), lu(4)])
        assert [(w.distance, w.lus) for w in plan.waves] == [
            (3, (lu(2), lu(3))),
            (4, (lu(4),)),
        ]

    def test_overlap_rejected(self):
        g = chain_graph(n_synsets=1, lus_per=2)
        with pytest.raises(PropagationError, match="overlap"):
            build_plan(g, [lu(0)], [lu(0), lu(1)])

    def test_synset_in_seed_rejected(self):
        g = chain_graph(n_synsets=1, lus_per=2)
        with pytest.raises(PropagationError, match="not a lexical unit"):
            build_plan(g, [synset(0)], [lu(1)])

    def test_unknown_lu_rejected(self):
        g = chain_graph(n_synsets=1, lus_per=2)
        with pytest.raises(PropagationError, match="seed node .* is not in the graph"):
            build_plan(g, [lu(50)], [lu(1)])
        with pytest.raises(PropagationError, match="target node .* is not in the graph"):
            build_plan(g, [lu(0)], [lu(50)])

    def test_matches_reference_bfs(self):
        """Wave distances equal multi-source shortest paths on random graphs,
        found over an adjacency built without the graph's index view."""
        for seed in range(8):
            g = generate(
                SynthConfig(communities=2, synsets_per_community=4, lus_per_synset=2, seed=seed)
            )
            lus = sorted(n for n in g.nodes if n.kind == LEXICAL_UNIT)
            seed_lus = lus[:3]
            targets = lus[5:]
            plan = build_plan(g, seed_lus, targets)

            adj = reference_adjacency(g)
            dist = {n: 0 for n in seed_lus}
            queue = deque(seed_lus)
            while queue:
                node = queue.popleft()
                for _edge, nb in adj[node]:
                    if nb not in dist:
                        dist[nb] = dist[node] + 1
                        queue.append(nb)

            expected = {}
            for t in targets:
                if t in dist:
                    expected.setdefault(dist[t], []).append(t)
            assert [(w.distance, list(w.lus)) for w in plan.waves] == [
                (d, sorted(expected[d])) for d in sorted(expected)
            ]
            assert plan.unreachable == tuple(sorted(t for t in targets if t not in dist))


def _chain_fixture():
    """Four synsets, three LUs each, embeddings and random annotations on
    the graph; the seed and validation LUs, then the targets."""
    g = chain_graph(n_synsets=4, lus_per=3)
    lus = [lu(i) for i in range(12)]
    rng = np.random.default_rng(8)
    table = ConstantTable({node_token(n): rng.normal(size=8) for n in lus}, 8)
    for n in lus:
        g.set_annotation(n, rng.random(26))
    cfg = MLPConfig(variant="base", input_dim=8, batch_size=8, max_epochs=30, patience=10, seed=1)
    return g, table, cfg, lus[:4], lus[4:6], lus[6:]


def _initial_model(g, table, cfg, seed_lus, val_lus):
    """The model propagate trains on the seed before its first wave."""
    x_train = np.stack([table.vector_of(node_token(n)) for n in seed_lus])
    y_train = np.stack([g.annotations[n] for n in seed_lus])
    x_val = np.stack([table.vector_of(node_token(n)) for n in val_lus])
    y_val = np.stack([g.annotations[n] for n in val_lus])
    model, _ = train_mlp(cfg, (x_train, y_train), (x_val, y_val))
    return model


class TestPropagate:
    def test_missing_embedding_named(self):
        g, table, cfg, seed_lus, val_lus, targets = _chain_fixture()
        del table.vectors[node_token(lu(7))]
        with pytest.raises(PropagationError, match="missing embeddings for: .*L#pl#7"):
            propagate(g, table, cfg, seed_lus, val_lus, targets)

    @pytest.mark.parametrize("role, index, value", [("seed", 3, np.nan), ("target", 7, np.inf)])
    def test_non_finite_embedding_named(self, role, index, value):
        g, table, cfg, seed_lus, val_lus, targets = _chain_fixture()
        assert lu(index) in {"seed": seed_lus, "target": targets}[role]
        table.vectors[node_token(lu(index))][2] = value
        with pytest.raises(PropagationError, match=f"^non-finite embedding for L#pl#{index}$"):
            propagate(g, table, cfg, seed_lus, val_lus, targets)

    def test_empty_seed(self):
        g, table, cfg, _, val_lus, targets = _chain_fixture()
        with pytest.raises(PropagationError, match="seed annotations are empty"):
            propagate(g, table, cfg, [], val_lus, targets)

    @pytest.mark.parametrize("role", ["seed", "val"])
    def test_unannotated_lu_named(self, role):
        g, table, cfg, seed_lus, val_lus, targets = _chain_fixture()
        unannotated = {"seed": seed_lus, "val": val_lus}[role][1]
        del g.annotations[unannotated]
        with pytest.raises(PropagationError, match=re.escape(f"{unannotated} has no annotation")):
            propagate(g, table, cfg, seed_lus, val_lus, targets)

    def test_validation_overlapping_seed_rejected(self):
        """Early stopping on seed rows would select on training data."""
        g, table, cfg, seed_lus, val_lus, targets = _chain_fixture()
        shared = ", ".join(str(n) for n in seed_lus[1:3])
        with pytest.raises(
            PropagationError, match=re.escape(f"seed and validation sets overlap: {shared}")
        ):
            propagate(g, table, cfg, seed_lus, [*seed_lus[1:3], *val_lus], targets)

    def test_missing_embeddings_counted_past_ten(self):
        g, table, cfg, seed_lus, val_lus, _ = _chain_fixture()
        extra = [lu(i) for i in range(100, 112)]
        for n in extra:
            g.add_node(n)
        shown = ", ".join(node_token(n) for n in extra[:10])
        with pytest.raises(PropagationError) as err:
            propagate(g, table, cfg, seed_lus, val_lus, extra)
        assert str(err.value) == f"missing embeddings for: {shown} (+2 more)"

    def test_empty_targets(self):
        g, table, cfg, seed_lus, val_lus, _ = _chain_fixture()
        result = propagate(g, table, cfg, seed_lus, val_lus, [])
        assert result.predictions == {}
        assert result.plan.waves == []
        assert result.report.epochs_run >= 1

    def test_frozen_equals_batch_prediction(self):
        g, table, cfg, seed_lus, val_lus, targets = _chain_fixture()
        result = propagate(g, table, cfg, seed_lus, val_lus, targets)
        assert set(result.predictions) == set(targets)
        ordered = sorted(targets)
        model = _initial_model(g, table, cfg, seed_lus, val_lus)
        batch = predict(model, np.stack([table.vector_of(node_token(t)) for t in ordered]))
        for row, t in zip(batch, ordered):
            np.testing.assert_allclose(result.predictions[t], row, atol=1e-10)

    def test_wave_structure(self):
        g, table, cfg, seed_lus, val_lus, targets = _chain_fixture()
        result = propagate(g, table, cfg, seed_lus, val_lus, targets)
        assert [(w.distance, len(w.lus)) for w in result.plan.waves] == [(3, 3), (4, 3)]
        assert {t for wave in result.plan.waves for t in wave.lus} == set(result.predictions)
        assert result.wave_reports == []

    def test_retrain_diverges_from_frozen(self):
        g, table, cfg, seed_lus, val_lus, targets = _chain_fixture()
        frozen = propagate(g, table, cfg, seed_lus, val_lus, targets)
        retrained = propagate(g, table, cfg, seed_lus, val_lus, targets, retrain_per_wave=True)
        assert len(retrained.wave_reports) == len(frozen.plan.waves) - 1
        last = frozen.plan.waves[-1].lus[0]
        diff = np.abs(frozen.predictions[last] - retrained.predictions[last]).max()
        assert diff > 1e-9
        first = frozen.plan.waves[0].lus[0]
        np.testing.assert_array_equal(
            frozen.predictions[first], retrained.predictions[first]
        )

    def test_unreachable_uses_initial_model(self):
        g, table, cfg, seed_lus, val_lus, targets = _chain_fixture()
        g.add_node(lu(99))
        rng = np.random.default_rng(123)
        table.vectors[node_token(lu(99))] = rng.normal(size=8)
        result = propagate(
            g, table, cfg, seed_lus, val_lus, targets + [lu(99)], retrain_per_wave=True
        )
        assert result.plan.unreachable == (lu(99),)

        initial = _initial_model(g, table, cfg, seed_lus, val_lus)
        expected = predict(initial, np.stack([table.vector_of(node_token(lu(99)))]))
        np.testing.assert_array_equal(result.predictions[lu(99)], expected[0])

    def test_labels_are_binarized_raw(self, tmp_path):
        """The saved labels are derived from the raw rows when written."""
        g, table, cfg, seed_lus, val_lus, targets = _chain_fixture()
        result = propagate(g, table, cfg, seed_lus, val_lus, targets)
        path = tmp_path / "prop.jsonl"
        save_propagation(result, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(result.predictions)
        for record in records:
            assert record["labels"] == [v >= 0.5 for v in record["raw"]]


class TestPropagationIO:
    def _result(self):
        g, table, cfg, seed_lus, val_lus, targets = _chain_fixture()
        g.add_node(lu(99))
        table.vectors[node_token(lu(99))] = np.random.default_rng(123).normal(size=8)
        return propagate(g, table, cfg, seed_lus, val_lus, targets + [lu(99)])

    def test_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "prop.jsonl"
        save_propagation(result, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        loaded = {NodeId(LEXICAL_UNIT, *r["lu"]): r for r in records}
        assert len(loaded) == len(records)
        assert set(loaded) == set(result.predictions)
        waves = {t: w.distance for w in result.plan.waves for t in w.lus}
        for node, raw in result.predictions.items():
            got = loaded[node]
            assert got["wave"] == waves.get(node, -1)
            np.testing.assert_array_equal(got["raw"], raw)
            assert got["labels"] == [v >= 0.5 for v in got["raw"]]

    def test_unreachable_written_last(self, tmp_path):
        result = self._result()
        path = tmp_path / "prop.jsonl"
        save_propagation(result, path)
        waves = [json.loads(line)["wave"] for line in path.read_text().splitlines()]
        assert waves[-1] == -1
        assert all(w > 0 for w in waves[:-1])
        assert waves[:-1] == sorted(waves[:-1])

    def test_loaded_ids_are_node_ids(self, tmp_path):
        result = self._result()
        path = tmp_path / "prop.jsonl"
        save_propagation(result, path)
        for line in path.read_text().splitlines():
            r = json.loads(line)
            num, lang = r["lu"]
            assert type(num) is int and type(lang) is str
            assert NodeId(LEXICAL_UNIT, num, lang) in result.predictions
            assert r["labels"] == [v >= 0.5 for v in r["raw"]]
