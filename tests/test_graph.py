"""Graph construction, the graph contract and JSON-lines serialization."""

import numpy as np
import pytest

from emoprop.graph import (
    DIMENSIONS,
    LEXICAL_UNIT,
    NUM_DIMENSIONS,
    SYNSET,
    Edge,
    GraphError,
    NodeId,
    RelationType,
    WordNetGraph,
    parse_wordnet_file,
    validate_annotation,
    write_wordnet_file,
)
from emoprop.synth import SynthConfig, generate
from helpers import ANTONYMY_LL, HYPO, MEMBER, ann, chain_graph, lu, reference_adjacency, synset


class TestDimensions:
    def test_twenty_six_unique_names(self):
        assert NUM_DIMENSIONS == 26
        assert len(set(DIMENSIONS)) == 26

    def test_prefix_counts(self):
        """6 polarity grades, 8 emotions, 12 valuations, in that order."""
        prefixes = [name.split("_")[0] for name in DIMENSIONS]
        assert prefixes == ["pol"] * 6 + ["emo"] * 8 + ["val"] * 12


class TestAnnotationValidation:
    def test_accepts_26_values(self):
        arr = validate_annotation([0.5] * 26)
        assert arr.shape == (26,)
        assert arr.dtype == np.float64

    def test_wrong_length(self):
        with pytest.raises(GraphError, match="expected 26"):
            validate_annotation([0.0] * 25)

    def test_non_finite(self):
        values = [0.0] * 26
        values[3] = float("nan")
        with pytest.raises(GraphError, match="non-finite"):
            validate_annotation(values)

    @pytest.mark.parametrize("value", [1.5, -0.1])
    def test_out_of_range_rejected(self, value):
        with pytest.raises(GraphError, match=r"value outside \[0, 1\]"):
            validate_annotation([value] + [0.0] * 25)


class TestGraphConstruction:
    def test_duplicate_node_rejected(self):
        g = WordNetGraph()
        g.add_node(synset(1))
        with pytest.raises(GraphError, match="duplicate"):
            g.add_node(synset(1))

    def test_bad_kind(self):
        with pytest.raises(GraphError, match="kind"):
            WordNetGraph().add_node(NodeId("word", 1, "pl"))

    def test_negative_id(self):
        with pytest.raises(GraphError, match="unsigned"):
            WordNetGraph().add_node(synset(-1))

    def test_bad_language(self):
        for lang in ("", "PL", "ünï", "p l"):
            with pytest.raises(GraphError, match="language"):
                WordNetGraph().add_node(NodeId(SYNSET, 1, lang))

    def test_edge_unknown_endpoint(self):
        g = WordNetGraph()
        g.add_node(synset(0))
        with pytest.raises(GraphError, match="unknown endpoint"):
            g.add_edge(Edge(synset(0), synset(1), HYPO))

    def test_edge_category_must_match_kinds(self):
        g = WordNetGraph()
        g.add_node(synset(0))
        g.add_node(lu(0))
        with pytest.raises(GraphError, match="category SS"):
            g.add_edge(Edge(synset(0), lu(0), HYPO))
        with pytest.raises(GraphError, match="category"):
            g.add_edge(Edge(lu(0), synset(0), MEMBER))

    def test_bad_category_and_empty_name(self):
        g = WordNetGraph()
        g.add_node(synset(0))
        g.add_node(synset(1))
        with pytest.raises(GraphError, match="category"):
            g.add_edge(Edge(synset(0), synset(1), RelationType("x", "SX", False)))
        for name in ("", "is a"):
            with pytest.raises(GraphError, match="relation name"):
                g.add_edge(Edge(synset(0), synset(1), RelationType(name, "SS", False)))

    def test_annotation_only_on_lus(self):
        g = WordNetGraph()
        g.add_node(synset(0))
        with pytest.raises(GraphError, match="not a lexical unit"):
            g.set_annotation(synset(0), ann(0))
        with pytest.raises(GraphError, match="unknown endpoint"):
            g.set_annotation(lu(0), ann(0))

    def test_lemma_stored(self):
        g = WordNetGraph()
        g.add_node(lu(7), lemma="radość")
        assert g.lemmas[lu(7)] == "radość"


def _neighbors(g, node):
    """``node``'s entries in the graph's index view, as (edge, NodeId)."""
    view = g.walk_view
    return [(e, view.nodes[m]) for e, m in view.adjacent[view.index[node]]]


class TestNeighbors:
    def test_isolated_node_empty(self):
        g = WordNetGraph()
        g.add_node(synset(0))
        assert _neighbors(g, synset(0)) == []

    def test_single_edge_both_directions(self):
        g = WordNetGraph()
        g.add_node(synset(0))
        g.add_node(synset(1))
        edge = Edge(synset(0), synset(1), HYPO)
        g.add_edge(edge)
        assert _neighbors(g, synset(0)) == [(edge, synset(1))]
        # the reverse direction reuses the forward relation
        assert _neighbors(g, synset(1)) == [(edge, synset(0))]

    def test_triangle_sorted(self):
        g = WordNetGraph()
        for i in range(3):
            g.add_node(synset(i))
        g.add_edge(Edge(synset(2), synset(0), HYPO))
        g.add_edge(Edge(synset(1), synset(2), HYPO))
        g.add_edge(Edge(synset(0), synset(1), HYPO))
        for i in range(3):
            entries = _neighbors(g, synset(i))
            assert len(entries) == 2
            others = [nb for _, nb in entries]
            assert others == sorted(n for n in (synset(0), synset(1), synset(2)) if n != synset(i))

    def test_sorted_by_neighbor_then_relation_name(self):
        g = WordNetGraph()
        g.add_node(synset(0))
        g.add_node(synset(1))
        e_b = Edge(synset(0), synset(1), RelationType("bravo", "SS", False))
        e_a = Edge(synset(0), synset(1), RelationType("alpha", "SS", False))
        g.add_edge(e_b)
        g.add_edge(e_a)
        assert _neighbors(g, synset(0)) == [(e_a, synset(1)), (e_b, synset(1))]

    def test_degree_sum_is_twice_edge_count(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = WordNetGraph()
            n = int(rng.integers(3, 12))
            for i in range(n):
                g.add_node(synset(i))
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.4:
                        g.add_edge(Edge(synset(a), synset(b), HYPO))
            total = sum(len(_neighbors(g, node)) for node in g.nodes)
            assert total == 2 * len(g.edges)

    def test_node_listings_sorted(self):
        g = chain_graph(n_synsets=3, lus_per=2)
        assert g.synsets() == sorted(g.synsets())
        assert len([n for n in g.nodes if n.kind == LEXICAL_UNIT]) == 6


def _write(tmp_path, text):
    path = tmp_path / "graph.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


class TestWalkView:
    def test_matches_reference_adjacency(self):
        """The index view's entries equal an adjacency built from the edge
        list, with parallel edges, a self-loop and inter-lingual edges."""
        g = generate(SynthConfig(communities=2, synsets_per_community=5, lus_per_synset=2, seed=3))
        g.add_edge(Edge(synset(0), synset(1), RelationType("alpha", "SS", False)))
        g.add_edge(Edge(synset(1), synset(1), HYPO))
        reference = reference_adjacency(g)
        assert g.walk_view.nodes == sorted(reference)
        for node in g.nodes:
            assert _neighbors(g, node) == reference[node]


class TestParseAndWrite:
    def _fixture_graph(self):
        g = WordNetGraph()
        g.add_node(synset(17, "pl"))
        g.add_node(synset(3, "en"))
        g.add_node(lu(42, "pl"), lemma="radość")
        g.add_node(lu(5, "en"))
        g.add_edge(Edge(synset(17, "pl"), lu(42, "pl"), MEMBER))
        g.add_edge(Edge(synset(3, "en"), lu(5, "en"), MEMBER))
        g.add_edge(
            Edge(synset(17, "pl"), synset(3, "en"), RelationType("synonymy-il", "SS", True))
        )
        g.set_annotation(lu(42, "pl"), ann(5))
        return g

    def test_round_trip(self, tmp_path):
        g = self._fixture_graph()
        path = tmp_path / "graph.jsonl"
        write_wordnet_file(g, path)
        h = parse_wordnet_file(path)
        assert h.nodes == g.nodes
        assert sorted(h.edges) == sorted(g.edges)
        assert h.lemmas == g.lemmas
        assert set(h.annotations) == set(g.annotations)
        for node in g.annotations:
            np.testing.assert_array_equal(h.annotations[node], g.annotations[node])

    def test_counts_mirror_input(self, tmp_path):
        g = self._fixture_graph()
        path = tmp_path / "graph.jsonl"
        write_wordnet_file(g, path)
        h = parse_wordnet_file(path)
        assert len(h.nodes) == 4
        assert len(h.edges) == 3
        assert len(h.annotations) == 1

    def test_parsed_graph_shares_nodes_and_relations(self, tmp_path):
        """Edges and annotations hold the graph's own NodeId objects, even
        when they name a node before its line, and each relation is one
        RelationType object."""
        g = self._fixture_graph()
        g.add_edge(Edge(synset(3, "en"), lu(5, "en"), MEMBER))
        path = tmp_path / "graph.jsonl"
        write_wordnet_file(g, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[4:] + lines[:4]), encoding="utf-8")
        h = parse_wordnet_file(path)
        own = {node: node for node in h.nodes}
        for e in h.edges:
            assert e.src is own[e.src] and e.dst is own[e.dst]
        for node in h.annotations:
            assert node is own[node]
        assert len({id(e.rel) for e in h.edges}) == len({e.rel for e in h.edges}) == 2

    def test_nodes_after_edges_and_annotations_write_same_bytes(self, tmp_path):
        g = self._fixture_graph()
        path = tmp_path / "graph.jsonl"
        write_wordnet_file(g, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert all('"kind": "edge"' in line for line in lines[4:7])
        moved = tmp_path / "nodes_last.jsonl"
        moved.write_text("".join(lines[4:] + lines[:4]), encoding="utf-8")
        rewritten = tmp_path / "rewritten.jsonl"
        write_wordnet_file(parse_wordnet_file(moved), rewritten)
        assert rewritten.read_bytes() == path.read_bytes()

    def test_three_language_synth_round_trip_is_byte_identical(self, tmp_path):
        cfg = SynthConfig(
            communities=3, synsets_per_community=5, languages=("pl", "en", "de"),
            label_noise=0.2, seed=3,
        )
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_wordnet_file(generate(cfg), first)
        write_wordnet_file(parse_wordnet_file(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_write_is_deterministic(self, tmp_path):
        g = self._fixture_graph()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_wordnet_file(g, p1)
        write_wordnet_file(g, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file(self, tmp_path):
        g = parse_wordnet_file(_write(tmp_path, ""))
        assert not g.nodes and not g.edges and not g.annotations

    def test_blank_lines_skipped(self, tmp_path):
        text = '{"kind":"synset","id":1,"lang":"pl"}\n\n\n'
        g = parse_wordnet_file(_write(tmp_path, text))
        assert g.nodes == {synset(1)}

    def test_unknown_endpoint_reports_line(self, tmp_path):
        text = (
            '{"kind":"synset","id":1,"lang":"pl"}\n'
            '{"kind":"edge","src":["synset",1,"pl"],"dst":["synset",2,"pl"],'
            '"rel":"hyponymy","category":"SS","interlingual":false}\n'
        )
        with pytest.raises(GraphError, match=r"line 2: unknown endpoint"):
            parse_wordnet_file(_write(tmp_path, text))

    def test_node_order_independent_of_edges(self, tmp_path):
        """Edges may reference nodes defined later in the file."""
        text = (
            '{"kind":"edge","src":["synset",1,"pl"],"dst":["synset",2,"pl"],'
            '"rel":"hyponymy","category":"SS","interlingual":false}\n'
            '{"kind":"synset","id":1,"lang":"pl"}\n'
            '{"kind":"synset","id":2,"lang":"pl"}\n'
        )
        g = parse_wordnet_file(_write(tmp_path, text))
        assert len(g.edges) == 1

    def test_malformed_json_reports_line(self, tmp_path):
        text = '{"kind":"synset","id":1,"lang":"pl"}\n{oops\n'
        with pytest.raises(GraphError, match="line 2: malformed JSON"):
            parse_wordnet_file(_write(tmp_path, text))

    def test_duplicate_node_reports_line(self, tmp_path):
        line = '{"kind":"synset","id":1,"lang":"pl"}\n'
        with pytest.raises(GraphError, match="line 2: duplicate"):
            parse_wordnet_file(_write(tmp_path, line + line))

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(GraphError, match="unknown kind 'word'"):
            parse_wordnet_file(_write(tmp_path, '{"kind":"word","id":1,"lang":"pl"}\n'))

    def test_unknown_field(self, tmp_path):
        text = '{"kind":"synset","id":1,"lang":"pl","pos":"n"}\n'
        with pytest.raises(GraphError, match="unknown field 'pos'"):
            parse_wordnet_file(_write(tmp_path, text))

    def test_missing_field(self, tmp_path):
        with pytest.raises(GraphError, match="missing field"):
            parse_wordnet_file(_write(tmp_path, '{"kind":"synset","id":1}\n'))

    def test_lemma_only_on_lus(self, tmp_path):
        text = '{"kind":"synset","id":1,"lang":"pl","lemma":"x"}\n'
        with pytest.raises(GraphError, match="lemma"):
            parse_wordnet_file(_write(tmp_path, text))

    def test_lemma_must_be_a_string(self, tmp_path):
        text = '{"kind":"lu","id":1,"lang":"pl","lemma":5}\n'
        with pytest.raises(GraphError, match="^line 1: lemma must be a string, got 5$"):
            parse_wordnet_file(_write(tmp_path, text))

    def test_bool_id_rejected(self, tmp_path):
        with pytest.raises(GraphError, match="integer"):
            parse_wordnet_file(_write(tmp_path, '{"kind":"lu","id":true,"lang":"pl"}\n'))

    def test_annotation_wrong_length(self, tmp_path):
        text = (
            '{"kind":"lu","id":1,"lang":"pl"}\n'
            '{"kind":"annotation","lu":[1,"pl"],"values":[0.0,1.0]}\n'
        )
        with pytest.raises(GraphError, match="line 2.*expected 26"):
            parse_wordnet_file(_write(tmp_path, text))

    def test_duplicate_annotation(self, tmp_path):
        values = "[" + ",".join(["0.0"] * 26) + "]"
        text = (
            '{"kind":"lu","id":1,"lang":"pl"}\n'
            + f'{{"kind":"annotation","lu":[1,"pl"],"values":{values}}}\n' * 2
        )
        with pytest.raises(GraphError, match="line 3: duplicate annotation"):
            parse_wordnet_file(_write(tmp_path, text))

    @pytest.mark.parametrize(
        "record, match",
        [
            ('"src":["synset",1,"pl"],"dst":["lu",2,"pl"],"rel":"member","category":"SL",'
             '"interlingual":false,"weight":1', "line 3: unknown field 'weight'"),
            ('"src":["synset",1,"pl"],"dst":["lu",2,"pl"],"rel":"member","category":"SL"',
             "line 3: missing field 'interlingual'"),
            ('"src":["synset",true,"pl"],"dst":["lu",2,"pl"],"rel":"member","category":"SL",'
             '"interlingual":false', "line 3: node id must be an integer, got True"),
            ('"src":["synset",1],"dst":["lu",2,"pl"],"rel":"member","category":"SL",'
             '"interlingual":false', r"line 3: node reference must be \[kind, id, lang\]"),
        ],
    )
    def test_edge_record_schema(self, tmp_path, record, match):
        text = (
            '{"kind":"synset","id":1,"lang":"pl"}\n{"kind":"lu","id":2,"lang":"pl"}\n'
            f'{{"kind":"edge",{record}}}\n'
        )
        with pytest.raises(GraphError, match=match):
            parse_wordnet_file(_write(tmp_path, text))

    @pytest.mark.parametrize(
        "record, match",
        [
            ('"lu":[2,"pl"],"values":VALUES,"source":"x"', "line 2: unknown field 'source'"),
            ('"lu":[2,"pl"]', "line 2: missing field 'values'"),
            ('"values":VALUES', "line 2: missing field 'lu'"),
            ('"lu":[true,"pl"],"values":VALUES', "line 2: node id must be an integer, got True"),
            ('"lu":[2,"pl",0],"values":VALUES', r"line 2: node reference must be \[id, lang\]"),
            ('"lu":[2,5],"values":VALUES', "line 2: language must be a string, got 5"),
            ('"lu":[2,"pl"],"values":5', "line 2: annotation for .*: expected a list of numbers, got 5$"),
            ('"lu":[2,"pl"],"values":null', "line 2: .*expected a list of numbers, got None$"),
            ('"lu":[2,"pl"],"values":"abc"', "line 2: .*expected a list of numbers, got 'abc'$"),
            ('"lu":[2,"pl"],"values":["0.5"]', r"line 2: .*expected a list of numbers, got \['0.5'\]"),
        ],
    )
    def test_annotation_record_schema(self, tmp_path, record, match):
        values = "[" + ",".join(["0.0"] * 26) + "]"
        text = (
            '{"kind":"lu","id":2,"lang":"pl"}\n'
            f'{{"kind":"annotation",{record.replace("VALUES", values)}}}\n'
        )
        with pytest.raises(GraphError, match=match):
            parse_wordnet_file(_write(tmp_path, text))

    @pytest.mark.parametrize("value", ["1.5", "-0.1"])
    def test_out_of_range_annotation_reports_line(self, tmp_path, value):
        values = "[" + ",".join([value] + ["0.0"] * 25) + "]"
        text = (
            '{"kind":"lu","id":1,"lang":"pl"}\n'
            f'{{"kind":"annotation","lu":[1,"pl"],"values":{values}}}\n'
        )
        with pytest.raises(GraphError, match=r"^line 2: .*value outside \[0, 1\]$"):
            parse_wordnet_file(_write(tmp_path, text))

    @pytest.mark.parametrize("value", [1.5, -0.1])
    def test_write_refuses_out_of_range_annotation(self, tmp_path, value):
        """An annotation stored past set_annotation is refused before the
        file is opened, so no file the parser would refuse is written."""
        g = self._fixture_graph()
        g.annotations[lu(5, "en")] = ann(3, value=value)
        path = tmp_path / "graph.jsonl"
        match = r"^annotation for NodeId\(kind='lu', id=5, lang='en'\): .*value outside"
        with pytest.raises(GraphError, match=match):
            write_wordnet_file(g, path)
        assert not path.exists()

    def test_write_refuses_annotation_keyed_by_a_synset(self, tmp_path):
        """An annotation line names its node as [id, lang], and the parser
        reads it as the LU with that id, so an annotation stored on a
        synset is refused before the file is opened."""
        g = self._fixture_graph()
        g.add_node(lu(17, "pl"))
        g.annotations[synset(17, "pl")] = ann(2)
        path = tmp_path / "graph.jsonl"
        match = r"^annotation target NodeId\(kind='synset', id=17, lang='pl'\) is not a lexical unit$"
        with pytest.raises(GraphError, match=match):
            write_wordnet_file(g, path)
        assert not path.exists()

    @pytest.mark.parametrize("dst_lang, flag", [("pl", "true"), ("en", "false")])
    def test_interlingual_mismatch_reports_line(self, tmp_path, dst_lang, flag):
        text = (
            '{"kind":"synset","id":1,"lang":"pl"}\n'
            f'{{"kind":"edge","src":["synset",1,"pl"],"dst":["synset",2,"{dst_lang}"],'
            f'"rel":"syn","category":"SS","interlingual":{flag}}}\n'
            f'{{"kind":"synset","id":2,"lang":"{dst_lang}"}}\n'
        )
        with pytest.raises(GraphError, match=r"^line 2: interlingual=.* does not match endpoint"):
            parse_wordnet_file(_write(tmp_path, text))


class TestGraphContract:
    """The builder refuses an inter-lingual flag that disagrees with the
    endpoint languages and an annotation value outside [0, 1]."""

    def test_same_language_edge_flagged_interlingual(self):
        g = WordNetGraph()
        g.add_node(synset(0, "pl"))
        g.add_node(synset(1, "pl"))
        edge = Edge(synset(0, "pl"), synset(1, "pl"), RelationType("syn", "SS", True))
        with pytest.raises(GraphError, match=r"interlingual=True .* \(pl -> pl\)"):
            g.add_edge(edge)
        assert g.edges == []

    def test_cross_language_edge_without_flag(self):
        g = WordNetGraph()
        g.add_node(synset(0, "pl"))
        g.add_node(synset(0, "en"))
        with pytest.raises(GraphError, match=r"interlingual=False .* \(pl -> en\)"):
            g.add_edge(Edge(synset(0, "pl"), synset(0, "en"), HYPO))
        assert g.edges == []

    @pytest.mark.parametrize("value", [1.5, -0.1])
    def test_annotation_out_of_range(self, value):
        g = WordNetGraph()
        g.add_node(lu(1))
        with pytest.raises(GraphError, match=r"annotation for .*: annotation value outside"):
            g.set_annotation(lu(1), ann(3, value=value))
        assert g.annotations == {}


class TestLLEdges:
    def test_lu_to_lu_edge_traversable(self):
        g = WordNetGraph()
        g.add_node(lu(0))
        g.add_node(lu(1))
        g.add_edge(Edge(lu(0), lu(1), ANTONYMY_LL))
        assert _neighbors(g, lu(0)) == [(g.edges[0], lu(1))]
