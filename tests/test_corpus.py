"""Walk generation: token formats, self-avoidance, determinism."""

import re

import numpy as np
import pytest

from emoprop.corpus import (
    SEED_CHUNK,
    CorpusConfig,
    WalkCorpus,
    _seed_words,
    _stream_states,
    edge_token,
    generate_corpus,
    load_corpus_sequences,
    node_token,
    random_walk,
    save_corpus,
)
from emoprop.graph import (
    Edge,
    GraphError,
    NodeId,
    RelationType,
    WordNetGraph,
)
from emoprop.synth import SynthConfig, generate
from helpers import HYPO, lu, reference_adjacency, synset

NODE_RE = re.compile(r"^[SL]#[a-z]+#\d+$")
EDGE_RE = re.compile(r"^ri?(SS|SL|LS|LL)#.+$")


class TestTokens:
    def test_synset_token(self):
        assert node_token(synset(17, "pl")) == "S#pl#17"

    def test_lu_token(self):
        assert node_token(lu(42, "en")) == "L#en#42"

    def test_edge_token_plain(self):
        e = Edge(synset(0), synset(1), HYPO)
        assert edge_token(e) == "rSS#hyponymy"

    def test_edge_token_interlingual(self):
        e = Edge(synset(0, "pl"), synset(0, "en"), RelationType("synonymy-il", "SS", True))
        assert edge_token(e) == "riSS#synonymy-il"

    def test_edge_token_direction_independent(self):
        """Both traversal directions of an edge share one token."""
        e = Edge(synset(0), lu(0), RelationType("membership", "SL", False))
        assert edge_token(e) == "rSL#membership"

    def test_node_tokens_injective(self):
        nodes = [synset(1, "pl"), synset(1, "en"), lu(1, "pl"), synset(11, "pl")]
        assert len({node_token(n) for n in nodes}) == len(nodes)


def _path_graph():
    """A - B - C synset path."""
    g = WordNetGraph()
    for i in range(3):
        g.add_node(synset(i))
    g.add_edge(Edge(synset(0), synset(1), HYPO))
    g.add_edge(Edge(synset(1), synset(2), HYPO))
    return g


class TestRandomWalk:
    def test_length_one(self):
        g = _path_graph()
        rng = np.random.default_rng(0)
        assert random_walk(g, synset(1), 1, rng) == ["S#pl#1"]

    def test_isolated_start(self):
        g = WordNetGraph()
        g.add_node(synset(7))
        rng = np.random.default_rng(0)
        assert random_walk(g, synset(7), 10, rng) == ["S#pl#7"]

    def test_middle_of_path_never_revisits(self):
        """From B with l = 3 the walk reaches A or C and must stop there."""
        g = _path_graph()
        for seed in range(50):
            tokens = random_walk(g, synset(1), 3, np.random.default_rng(seed))
            assert len(tokens) == 3
            assert tokens[0] == "S#pl#1"
            assert tokens[2] in ("S#pl#0", "S#pl#2")

    def test_uniform_first_step(self):
        """Two admissible neighbors are chosen with probability 1/2 each."""
        g = _path_graph()
        hits = 0
        n = 10000
        for seed in range(n):
            tokens = random_walk(g, synset(1), 3, np.random.default_rng(seed))
            hits += tokens[2] == "S#pl#0"
        assert abs(hits / n - 0.5) < 0.02

    def test_dead_end_stops_early(self):
        g = _path_graph()
        tokens = random_walk(g, synset(0), 10, np.random.default_rng(1))
        # forced path A -> B -> C, then no unvisited neighbor remains
        assert tokens == ["S#pl#0", "rSS#hyponymy", "S#pl#1", "rSS#hyponymy", "S#pl#2"]

    def test_token_cap_on_dense_graph(self):
        g = WordNetGraph()
        for i in range(8):
            g.add_node(synset(i))
        for a in range(8):
            for b in range(a + 1, 8):
                g.add_edge(Edge(synset(a), synset(b), HYPO))
        for seed in range(20):
            tokens = random_walk(g, synset(0), 5, np.random.default_rng(seed))
            assert len(tokens) == 2 * 5 - 1
            nodes = tokens[0::2]
            assert len(set(nodes)) == len(nodes)

    def test_monolingual_filter(self):
        g = WordNetGraph()
        g.add_node(synset(0, "pl"))
        g.add_node(synset(1, "pl"))
        g.add_node(synset(0, "en"))
        g.add_edge(Edge(synset(0, "pl"), synset(1, "pl"), HYPO))
        g.add_edge(Edge(synset(0, "pl"), synset(0, "en"), RelationType("syn", "SS", True)))
        for seed in range(30):
            rng = np.random.default_rng(seed)
            tokens = random_walk(g, synset(0, "pl"), 5, rng, cross_lingual=False)
            assert all("#pl#" in t for t in tokens[0::2])

    def test_cross_lingual_reaches_other_language(self):
        g = WordNetGraph()
        g.add_node(synset(0, "pl"))
        g.add_node(synset(0, "en"))
        g.add_edge(Edge(synset(0, "pl"), synset(0, "en"), RelationType("syn", "SS", True)))
        tokens = random_walk(g, synset(0, "pl"), 2, np.random.default_rng(0))
        assert tokens == ["S#pl#0", "riSS#syn", "S#en#0"]

    def test_bad_inputs(self):
        g = _path_graph()
        with pytest.raises(GraphError, match="unknown node"):
            random_walk(g, synset(99), 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="length"):
            random_walk(g, synset(0), 0, np.random.default_rng(0))


def _reference_walk(adj, start, length, rng, cross_lingual):
    """The walk as first written, on `NodeId`s and `reference_adjacency`
    lists, formatting each token as it goes.  Walks must reproduce its
    tokens."""
    tokens = [node_token(start)]
    visited = {start}
    current = start
    for _ in range(length - 1):
        admissible = [
            (e, m)
            for e, m in adj[current]
            if m not in visited and (cross_lingual or m.lang == current.lang)
        ]
        if not admissible:
            break
        edge, nxt = admissible[rng.integers(len(admissible))]
        tokens.append(edge_token(edge))
        tokens.append(node_token(nxt))
        visited.add(nxt)
        current = nxt
    return tokens


def _reference_corpus(g, cfg):
    """Walk i drawn from a fresh generator on its own spawned stream."""
    adj = reference_adjacency(g)
    candidates = sorted(g.nodes)
    sequences = []
    for i in range(cfg.num_walks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,)))
        start = candidates[rng.integers(len(candidates))]
        sequences.append(_reference_walk(adj, start, cfg.length, rng, cfg.cross_lingual))
    return sequences


class TestGenerateCorpus:
    @pytest.mark.parametrize(
        "synth, cross_lingual",
        [
            (SynthConfig(communities=3, synsets_per_community=6, lus_per_synset=3, seed=2), True),
            (SynthConfig(communities=3, synsets_per_community=6, lus_per_synset=3, seed=2), False),
            (
                SynthConfig(
                    communities=2,
                    synsets_per_community=8,
                    lus_per_synset=1,
                    languages=("pl", "en", "de"),
                    intra_probability=0.15,
                    seed=4,
                ),
                True,
            ),
        ],
        ids=["bilingual", "monolingual", "three-languages"],
    )
    def test_matches_reference_walks(self, synth, cross_lingual):
        g = generate(synth)
        # past the first seeding chunk, so walks of two chunks are compared
        cfg = CorpusConfig(
            num_walks=SEED_CHUNK + 100, length=12, cross_lingual=cross_lingual, seed=3
        )
        corpus = generate_corpus(g, cfg)
        reference = _reference_corpus(g, cfg)
        assert corpus.sequences == reference
        # walks stop at many depths, and cross-lingual ones change language
        assert len({len(seq) for seq in reference}) >= 5
        langs = [{tok.split("#")[1] for tok in seq[0::2]} for seq in reference]
        assert max(map(len, langs)) == (len(synth.languages) if cross_lingual else 1)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**70])
    def test_bulk_seeding_matches_numpy(self, seed):
        """The bulk-hashed seed words are numpy's SeedSequence state words,
        over two chunks and on both sides of index 2**32, where a spawn key
        takes a second 32-bit word; the PCG64 states built from them over
        three chunks are those numpy's generators report."""
        for start, stop in [(0, 2 * SEED_CHUNK), (2**32 - SEED_CHUNK, 2**32), (2**32, 2**32 + 9)]:
            want = [
                np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
                for i in range(start, stop)
            ]
            assert np.array_equal(np.stack(_seed_words(seed, start, stop), axis=1), want)
        count = 3 * SEED_CHUNK + 5
        want = [
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,))).state["state"]
            for i in range(count)
        ]
        assert list(_stream_states(seed, count)) == [(w["state"], w["inc"]) for w in want]

    def test_walk_view_follows_graph_edits(self):
        """The index view is rebuilt after a node or edge is added."""
        g = _path_graph()
        assert g.walk_view.tokens == ["S#pl#0", "S#pl#1", "S#pl#2"]
        g.add_node(synset(3))
        edge = Edge(synset(2), synset(3), HYPO)
        g.add_edge(edge)
        tokens = random_walk(g, synset(0), 10, np.random.default_rng(0))
        assert tokens[-1] == "S#pl#3"
        view = g.walk_view
        assert view.adjacent[3] == [(edge, 2)]
        assert view.relation_tokens == {HYPO: "rSS#hyponymy"}

    def test_single_node_graph(self):
        g = WordNetGraph()
        g.add_node(lu(3, "en"))
        corpus = generate_corpus(g, CorpusConfig(num_walks=5, length=10, seed=0))
        assert corpus.sequences == [["L#en#3"]] * 5

    def test_determinism(self):
        g = generate(SynthConfig(communities=2, synsets_per_community=4, seed=1))
        a = generate_corpus(g, CorpusConfig(num_walks=50, length=8, seed=42))
        b = generate_corpus(g, CorpusConfig(num_walks=50, length=8, seed=42))
        assert a.sequences == b.sequences
        c = generate_corpus(g, CorpusConfig(num_walks=50, length=8, seed=43))
        assert a.sequences != c.sequences

    def test_walk_count(self):
        g = _path_graph()
        cfg = CorpusConfig(num_walks=7, length=4, seed=9, cross_lingual=False)
        corpus = generate_corpus(g, cfg)
        assert len(corpus.sequences) == 7

    def test_start_distribution_uniform(self):
        """Binomial bound: 10^4 walks over 100 nodes start 100 +/- 40 each."""
        g = WordNetGraph()
        for i in range(100):
            g.add_node(synset(i))
        corpus = generate_corpus(g, CorpusConfig(num_walks=10000, length=1, seed=5))
        counts = {}
        for seq in corpus.sequences:
            counts[seq[0]] = counts.get(seq[0], 0) + 1
        assert len(counts) == 100
        assert all(abs(c - 100) < 40 for c in counts.values())

    def test_invariants_on_synth_graph(self):
        g = generate(SynthConfig(communities=2, synsets_per_community=5, seed=3))
        length = 6
        corpus = generate_corpus(g, CorpusConfig(num_walks=200, length=length, seed=11))
        for seq in corpus.sequences:
            assert len(seq) <= 2 * length - 1
            assert len(seq) % 2 == 1
            for i, tok in enumerate(seq):
                pattern = NODE_RE if i % 2 == 0 else EDGE_RE
                assert pattern.match(tok), (i, tok)
            nodes = seq[0::2]
            assert len(set(nodes)) == len(nodes)

    def test_monolingual_single_language_per_sequence(self):
        g = generate(SynthConfig(communities=2, synsets_per_community=5, seed=3))
        cfg = CorpusConfig(num_walks=150, length=8, seed=11, cross_lingual=False)
        corpus = generate_corpus(g, cfg)
        for seq in corpus.sequences:
            langs = {tok.split("#")[1] for tok in seq[0::2]}
            assert len(langs) == 1

    def test_bad_parameters(self):
        g = _path_graph()
        with pytest.raises(ValueError, match="num_walks"):
            generate_corpus(g, CorpusConfig(num_walks=0, length=3))
        with pytest.raises(ValueError, match="length"):
            generate_corpus(g, CorpusConfig(num_walks=3, length=0))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            generate_corpus(g, CorpusConfig(num_walks=3, length=3, seed=-1))
        with pytest.raises(GraphError, match="empty graph"):
            generate_corpus(WordNetGraph(), CorpusConfig(num_walks=3, length=3))


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        g = generate(SynthConfig(communities=2, synsets_per_community=4, seed=1))
        corpus = generate_corpus(g, CorpusConfig(num_walks=30, length=5, seed=2))
        path = tmp_path / "corpus.txt"
        save_corpus(corpus, path)
        assert load_corpus_sequences(path) == corpus.sequences

    def test_save_format(self, tmp_path):
        corpus = WalkCorpus(sequences=[["S#pl#0", "rSS#hyponymy", "S#pl#1"], ["L#en#2"]])
        path = tmp_path / "corpus.txt"
        save_corpus(corpus, path)
        assert path.read_text(encoding="utf-8") == (
            "S#pl#0 rSS#hyponymy S#pl#1\nL#en#2\n"
        )

    def test_save_is_deterministic(self, tmp_path):
        g = generate(SynthConfig(communities=2, synsets_per_community=4, seed=1))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_corpus(generate_corpus(g, CorpusConfig(num_walks=25, length=6, seed=7)), p1)
        save_corpus(generate_corpus(g, CorpusConfig(num_walks=25, length=6, seed=7)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_one_object_per_distinct_token(self, tmp_path):
        path = tmp_path / "corpus.txt"
        text = "S#pl#0 rSS#hyponymy S#pl#1\nS#pl#1 rSS#hyponymy S#pl#0\n"
        path.write_text(text, encoding="utf-8")
        sequences = load_corpus_sequences(path)
        tokens = [tok for seq in sequences for tok in seq]
        assert len(tokens) == 6
        assert len({id(tok) for tok in tokens}) == len(set(tokens)) == 3

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("A b C\n\nD\n", encoding="utf-8")
        assert load_corpus_sequences(path) == [["A", "b", "C"], ["D"]]
