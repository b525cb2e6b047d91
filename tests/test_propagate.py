"""Annotation propagation: BFS wave planning and wave-by-wave prediction."""

import json
from collections import deque

import numpy as np
import pytest

from emoprop.corpus import node_token
from emoprop.graph import Edge, NodeId, WordNetGraph, LEXICAL_UNIT
from emoprop.mlp import MLPConfig, predict, train_mlp
from emoprop.propagate import (
    PropagationError,
    build_plan,
    load_propagation,
    propagate,
    save_propagation,
)
from emoprop.synth import SynthConfig, generate
from helpers import ANTONYMY_LL, ConstantTable, chain_graph, lu, random_table, synset


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
        assert plan.reachable() == [lu(1)]

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
        """Wave distances equal multi-source shortest paths on random graphs."""
        for seed in range(8):
            g = generate(
                SynthConfig(communities=2, synsets_per_community=4, lus_per_synset=2, seed=seed)
            )
            lus = g.lexical_units()
            seed_lus = lus[:3]
            targets = lus[5:]
            plan = build_plan(g, seed_lus, targets)

            dist = {n: 0 for n in seed_lus}
            queue = deque(seed_lus)
            while queue:
                node = queue.popleft()
                for _rel, nb in g.neighbors(node):
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
    """Four synsets, three LUs each, embeddings and random annotations."""
    g = chain_graph(n_synsets=4, lus_per=3)
    lus = [lu(i) for i in range(12)]
    rng = np.random.default_rng(8)
    table = ConstantTable({node_token(n): rng.normal(size=8) for n in lus}, 8)
    annotations = {n: rng.random(26) for n in lus}
    seed_ann = {n: annotations[n] for n in lus[:4]}
    val_ann = {n: annotations[n] for n in lus[4:6]}
    targets = lus[6:]
    cfg = MLPConfig(variant="base", input_dim=8, batch_size=8, max_epochs=30, patience=10, seed=1)
    return g, table, cfg, seed_ann, val_ann, targets


class TestPropagate:
    def test_missing_embedding_named(self):
        g, table, cfg, seed_ann, val_ann, targets = _chain_fixture()
        del table.vectors[node_token(lu(7))]
        with pytest.raises(PropagationError, match="missing embeddings for: .*L#pl#7"):
            propagate(g, table, cfg, seed_ann, val_ann, targets)

    def test_empty_seed(self):
        g, table, cfg, _, val_ann, targets = _chain_fixture()
        with pytest.raises(PropagationError, match="seed annotations are empty"):
            propagate(g, table, cfg, {}, val_ann, targets)

    def test_empty_targets(self):
        g, table, cfg, seed_ann, val_ann, _ = _chain_fixture()
        result = propagate(g, table, cfg, seed_ann, val_ann, [])
        assert result.predictions == {}
        assert result.plan.waves == []
        assert result.report.epochs_run >= 1

    def test_frozen_equals_batch_prediction(self):
        g, table, cfg, seed_ann, val_ann, targets = _chain_fixture()
        result = propagate(g, table, cfg, seed_ann, val_ann, targets)
        assert set(result.predictions) == set(targets)
        ordered = sorted(targets)
        batch = predict(result.model, np.stack([table.vector_of(node_token(t)) for t in ordered]))
        for row, t in zip(batch, ordered):
            np.testing.assert_allclose(result.predictions[t].raw, row, atol=1e-10)

    def test_wave_structure(self):
        g, table, cfg, seed_ann, val_ann, targets = _chain_fixture()
        result = propagate(g, table, cfg, seed_ann, val_ann, targets)
        assert [(w.distance, len(w.lus)) for w in result.plan.waves] == [(3, 3), (4, 3)]
        for wave in result.plan.waves:
            for t in wave.lus:
                assert result.predictions[t].wave == wave.distance
        assert result.wave_reports == []

    def test_retrain_diverges_from_frozen(self):
        g, table, cfg, seed_ann, val_ann, targets = _chain_fixture()
        frozen = propagate(g, table, cfg, seed_ann, val_ann, targets)
        retrained = propagate(g, table, cfg, seed_ann, val_ann, targets, retrain_per_wave=True)
        assert len(retrained.wave_reports) == len(frozen.plan.waves) - 1
        last = frozen.plan.waves[-1].lus[0]
        diff = np.abs(frozen.predictions[last].raw - retrained.predictions[last].raw).max()
        assert diff > 1e-9
        first = frozen.plan.waves[0].lus[0]
        np.testing.assert_array_equal(
            frozen.predictions[first].raw, retrained.predictions[first].raw
        )

    def test_unreachable_uses_initial_model(self):
        g, table, cfg, seed_ann, val_ann, targets = _chain_fixture()
        g.add_node(lu(99))
        rng = np.random.default_rng(123)
        table.vectors[node_token(lu(99))] = rng.normal(size=8)
        result = propagate(
            g, table, cfg, seed_ann, val_ann, targets + [lu(99)], retrain_per_wave=True
        )
        pred = result.predictions[lu(99)]
        assert pred.wave == -1

        seed_ids = sorted(seed_ann)
        val_ids = sorted(val_ann)
        x_train = np.stack([table.vector_of(node_token(n)) for n in seed_ids])
        y_train = np.stack([seed_ann[n] for n in seed_ids])
        x_val = np.stack([table.vector_of(node_token(n)) for n in val_ids])
        y_val = np.stack([val_ann[n] for n in val_ids])
        initial, _ = train_mlp(cfg, (x_train, y_train), (x_val, y_val))
        expected = predict(initial, np.stack([table.vector_of(node_token(lu(99)))]))
        np.testing.assert_array_equal(pred.raw, expected[0])

    def test_labels_are_binarized_raw(self):
        g, table, cfg, seed_ann, val_ann, targets = _chain_fixture()
        result = propagate(g, table, cfg, seed_ann, val_ann, targets)
        for pred in result.predictions.values():
            assert pred.labels.dtype == bool
            np.testing.assert_array_equal(pred.labels, pred.raw >= 0.5)


def _record(**changes) -> dict:
    """A valid propagation record with `changes` applied; None drops a field."""
    record = {"lu": [0, "pl"], "wave": 1, "raw": [0.0] * 26, "labels": [False] * 26}
    record.update(changes)
    return {k: v for k, v in record.items() if v is not None}


class TestPropagationIO:
    def _result(self):
        g, table, cfg, seed_ann, val_ann, targets = _chain_fixture()
        g.add_node(lu(99))
        table.vectors[node_token(lu(99))] = np.random.default_rng(123).normal(size=8)
        return propagate(g, table, cfg, seed_ann, val_ann, targets + [lu(99)])

    def test_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "prop.jsonl"
        save_propagation(result, path)
        loaded = load_propagation(path)
        assert set(loaded) == set(result.predictions)
        for node, pred in result.predictions.items():
            got = loaded[node]
            assert got.wave == pred.wave
            np.testing.assert_array_equal(got.raw, pred.raw)
            np.testing.assert_array_equal(got.labels, pred.labels)

    def test_unreachable_written_last(self, tmp_path):
        result = self._result()
        path = tmp_path / "prop.jsonl"
        save_propagation(result, path)
        waves = [json.loads(line)["wave"] for line in path.read_text().splitlines()]
        assert waves[-1] == -1
        assert all(w > 0 for w in waves[:-1])
        assert waves[:-1] == sorted(waves[:-1])

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "prop.jsonl"
        good = json.dumps(
            {"lu": [0, "pl"], "wave": 1, "raw": [0.0] * 26, "labels": [False] * 26}
        )
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(PropagationError, match="line 2: invalid JSON"):
            load_propagation(path)

    def test_wrong_vector_length(self, tmp_path):
        path = tmp_path / "prop.jsonl"
        bad = json.dumps({"lu": [0, "pl"], "wave": 1, "raw": [0.0] * 25, "labels": [False] * 26})
        path.write_text(bad + "\n", encoding="utf-8")
        with pytest.raises(PropagationError, match="line 1: wrong vector length"):
            load_propagation(path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([_record()], "expected an object"),
            (_record(lu=None), "missing field 'lu'"),
            (_record(wave=None), "missing field 'wave'"),
            (_record(lu=[0]), r"node reference must be \[id, lang\]"),
            (_record(lu=["0", "pl"]), "node id must be an integer"),
            (_record(wave="1"), "wave must be an integer"),
            (_record(raw=["0.5"] * 26), "raw values must be numbers"),
            (_record(labels=["abc"] * 26), "labels must be booleans"),
        ],
        ids=["array", "no-lu", "no-wave", "short-lu", "string-id", "string-wave", "string-raw",
             "string-labels"],
    )
    def test_malformed_record(self, tmp_path, bad, message):
        path = tmp_path / "prop.jsonl"
        lines = [json.dumps(_record(lu=[1, "pl"])), json.dumps(bad)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(PropagationError, match="line 2: " + message):
            load_propagation(path)

    def test_duplicate_lu(self, tmp_path):
        """A second record for an LU is refused, not loaded over the first."""
        path = tmp_path / "prop.jsonl"
        lines = [json.dumps(_record(wave=1)), json.dumps(_record(lu=[1, "pl"])), json.dumps(_record(wave=3))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(PropagationError, match=r"line 3: duplicate prediction for .*id=0, lang='pl'"):
            load_propagation(path)

    def test_loaded_ids_are_node_ids(self, tmp_path):
        result = self._result()
        path = tmp_path / "prop.jsonl"
        save_propagation(result, path)
        loaded = load_propagation(path)
        assert all(n.kind == LEXICAL_UNIT for n in loaded)
