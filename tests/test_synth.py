"""Synthetic bilingual graph generator: structure, labels, determinism."""

import numpy as np
import pytest

from emoprop.graph import DIMENSION_INDEX, LEXICAL_UNIT, SYNSET, write_wordnet_file
from emoprop.synth import (
    CROSS_RELATION_NAME,
    INTRA_RELATION,
    MEMBERSHIP_RELATION,
    SynthConfig,
    community_prototype,
    generate,
)

from helpers import reference_synth


class TestSynthConfig:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.communities == 4
        assert cfg.languages == ("pl", "en")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"communities": 0},
            {"synsets_per_community": 0},
            {"lus_per_synset": 0},
            {"languages": ()},
            {"intra_probability": 0.0},
            {"intra_probability": 1.5},
            {"inter_probability": -0.1},
            {"intra_probability": 0.1, "inter_probability": 0.1},
            {"interlingual_fraction": 1.5},
            {"label_noise": 1.0},
            {"seed": -1},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)


class TestPrototypes:
    def test_neutral_community(self):
        v = community_prototype(0)
        assert v[DIMENSION_INDEX["pol_neutral"]] == 1.0
        assert v.sum() == 1.0

    def test_non_neutral_structure(self):
        """One non-neutral polarity, one emotion, one valuation each."""
        for c in range(1, 9):
            v = community_prototype(c)
            assert v[:5].sum() == 1.0  # polarity grades other than neutral
            assert v[5] == 0.0
            assert v[6:14].sum() == 1.0  # emotions
            assert v[14:].sum() == 1.0  # valuations

    def test_pairwise_distinct(self):
        protos = [tuple(community_prototype(c)) for c in range(10)]
        assert len(set(protos)) == 10


class TestGenerate:
    def test_node_counts(self):
        cfg = SynthConfig(communities=4, synsets_per_community=10, lus_per_synset=3)
        g = generate(cfg)
        lus = [n for n in g.nodes if n.kind == LEXICAL_UNIT]
        synsets = [n for n in g.nodes if n.kind == SYNSET]
        assert len(lus) == 4 * 10 * 3 * 2
        assert len(synsets) == 4 * 10 * 2
        assert set(g.annotations) == set(lus)

    def test_noise_zero_gives_exact_prototypes(self):
        cfg = SynthConfig(communities=3, synsets_per_community=4, lus_per_synset=2, seed=5)
        g = generate(cfg)
        n_syn, n_lu = cfg.synsets_per_community, cfg.lus_per_synset
        for node, values in g.annotations.items():
            community = (node.id // n_lu) // n_syn
            np.testing.assert_array_equal(values, community_prototype(community))

    def test_same_community_same_labels(self):
        cfg = SynthConfig(communities=2, synsets_per_community=3, lus_per_synset=2)
        g = generate(cfg)
        n = cfg.synsets_per_community * cfg.lus_per_synset
        by_comm = {}
        for node, values in g.annotations.items():
            by_comm.setdefault((node.lang, node.id // n), []).append(tuple(values))
        for group in by_comm.values():
            assert len(set(group)) == 1

    def test_membership_edges(self):
        cfg = SynthConfig(communities=2, synsets_per_community=3, lus_per_synset=2)
        g = generate(cfg)
        per_lu = {n: 0 for n in g.nodes if n.kind == LEXICAL_UNIT}
        for e in g.edges:
            if e.rel == MEMBERSHIP_RELATION:
                assert e.dst in per_lu
                assert e.src.id == e.dst.id // cfg.lus_per_synset
                per_lu[e.dst] += 1
        assert all(c == 1 for c in per_lu.values())

    def test_interlingual_fraction_zero(self):
        g = generate(SynthConfig(interlingual_fraction=0.0))
        assert not any(e.rel.interlingual for e in g.edges)

    def test_interlingual_fraction_one(self):
        cfg = SynthConfig(
            communities=3, synsets_per_community=5, interlingual_fraction=1.0
        )
        g = generate(cfg)
        cross = [e for e in g.edges if e.rel.interlingual]
        assert len(cross) == cfg.communities * cfg.synsets_per_community
        for e in cross:
            assert e.rel.name == CROSS_RELATION_NAME
            assert e.src.lang != e.dst.lang
            assert e.src.id == e.dst.id  # paired synset within the community

    def test_intra_edges_stay_in_community(self):
        cfg = SynthConfig(communities=3, synsets_per_community=6, seed=2)
        g = generate(cfg)
        n = cfg.synsets_per_community
        for e in g.edges:
            if e.rel == INTRA_RELATION:
                assert e.src.lang == e.dst.lang
                assert e.src.id // n == e.dst.id // n

    @pytest.mark.parametrize(
        "cfg",
        [
            SynthConfig(communities=3, synsets_per_community=6, label_noise=0.2, seed=4),
            SynthConfig(
                communities=4, synsets_per_community=5, languages=("pl", "en", "de"),
                inter_probability=0.1, label_noise=0.3, seed=9,
            ),
            SynthConfig(communities=3, synsets_per_community=7, languages=("en",), seed=2),
            SynthConfig(communities=5, synsets_per_community=1, interlingual_fraction=1.0),
        ],
        ids=["noisy", "three-languages", "monolingual", "one-synset"],
    )
    def test_matches_per_pair_reference(self, cfg, tmp_path):
        """The block draws give the bytes of one draw per synset pair."""
        write_wordnet_file(generate(cfg), tmp_path / "block.jsonl")
        write_wordnet_file(reference_synth(cfg), tmp_path / "loop.jsonl")
        assert (tmp_path / "block.jsonl").read_bytes() == (tmp_path / "loop.jsonl").read_bytes()

    def test_determinism(self):
        cfg = SynthConfig(label_noise=0.3, seed=21)
        g1 = generate(cfg)
        g2 = generate(cfg)
        assert g1.nodes == g2.nodes
        assert g1.edges == g2.edges
        assert list(g1.annotations) == list(g2.annotations)
        for node in g1.annotations:
            np.testing.assert_array_equal(g1.annotations[node], g2.annotations[node])

    def test_seeds_differ(self):
        gold_a = generate(SynthConfig(label_noise=0.3, seed=1)).annotations
        gold_b = generate(SynthConfig(label_noise=0.3, seed=2)).annotations
        same = all(np.array_equal(gold_a[n], gold_b[n]) for n in gold_a)
        assert not same

    def test_noise_flip_rate(self):
        """Per-dimension flips happen at the configured rate (binomial 4 sigma)."""
        noise = 0.3
        cfg = SynthConfig(
            communities=4,
            synsets_per_community=8,
            lus_per_synset=3,
            label_noise=noise,
            seed=33,
        )
        g = generate(cfg)
        n_syn, n_lu = cfg.synsets_per_community, cfg.lus_per_synset
        flips = 0
        total = 0
        for node, values in g.annotations.items():
            proto = community_prototype((node.id // n_lu) // n_syn)
            flips += int(np.sum(values != proto))
            total += values.size
        rate = flips / total
        sigma = np.sqrt(noise * (1 - noise) / total)
        assert abs(rate - noise) < 4 * sigma

    def test_noisy_values_stay_binary(self):
        g = generate(SynthConfig(label_noise=0.4, seed=3))
        for values in g.annotations.values():
            assert set(np.unique(values)) <= {0.0, 1.0}

    def test_single_language(self):
        g = generate(SynthConfig(languages=("pl",)))
        assert {n.lang for n in g.nodes} == {"pl"}
        assert not any(e.rel.interlingual for e in g.edges)
        assert len(g.annotations) == 4 * 10 * 3
