"""Deterministic generator of bilingual lexical graphs with planted annotations.

Builds, per language, community-clustered synset graphs, attaches lexical
units, links matching communities across languages with inter-lingual
synonymy edges, and assigns every lexical unit a community-specific
annotation prototype with optional per-dimension label noise.  Community
structure correlates with labels, so embedding-based propagation has a
recoverable signal and a computable chance baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    DIMENSION_INDEX,
    LEXICAL_UNIT,
    NUM_DIMENSIONS,
    SYNSET,
    Edge,
    NodeId,
    RelationType,
    WordNetGraph,
)

INTRA_RELATION = RelationType("hyponymy", "SS", False)
INTER_RELATION = RelationType("related", "SS", False)
MEMBERSHIP_RELATION = RelationType("membership", "SL", False)
CROSS_RELATION_NAME = "synonymy-il"

_POL_NEUTRAL = DIMENSION_INDEX["pol_neutral"]


@dataclass
class SynthConfig:
    communities: int = 4
    synsets_per_community: int = 10
    lus_per_synset: int = 3
    languages: tuple[str, ...] = ("pl", "en")
    intra_probability: float = 0.3
    inter_probability: float = 0.02
    interlingual_fraction: float = 0.5
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.communities < 1 or self.synsets_per_community < 1 or self.lus_per_synset < 1:
            raise ValueError("all counts must be >= 1")
        if not self.languages:
            raise ValueError("at least one language required")
        if not 0.0 < self.intra_probability <= 1.0:
            raise ValueError("intra_probability must be in (0, 1]")
        if not 0.0 <= self.inter_probability <= 1.0:
            raise ValueError("inter_probability must be in [0, 1]")
        if self.intra_probability <= self.inter_probability:
            raise ValueError("intra_probability must exceed inter_probability")
        if not 0.0 <= self.interlingual_fraction <= 1.0:
            raise ValueError("interlingual_fraction must be in [0, 1]")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def community_prototype(index: int) -> np.ndarray:
    """Annotation prototype of community ``index``.

    Community 0 is the designated neutral community (pol_neutral only);
    every other community activates one non-neutral polarity grade, one
    emotion and one valuation, cycling so that prototypes are pairwise
    distinct for up to lcm(5, 8, 12) = 120 non-neutral communities.
    """
    v = np.zeros(NUM_DIMENSIONS)
    if index == 0:
        v[_POL_NEUTRAL] = 1.0
        return v
    i = index - 1
    v[i % 5] = 1.0
    v[6 + i % 8] = 1.0
    v[14 + i % 12] = 1.0
    return v


def generate(cfg: SynthConfig) -> WordNetGraph:
    """Build the graph, with every lexical unit annotated in ``g.annotations``.

    Deterministic per cfg.seed.  The annotations are the planted truth;
    callers mask whichever portion they hold out.
    """
    rng = np.random.default_rng(cfg.seed)
    g = WordNetGraph()
    n_comm = cfg.communities
    n_syn = cfg.synsets_per_community
    n_lu = cfg.lus_per_synset

    synset_ids: dict[tuple[str, int], list[NodeId]] = {}

    for lang in cfg.languages:
        for c in range(n_comm):
            members = []
            for j in range(n_syn):
                node = NodeId(SYNSET, c * n_syn + j, lang)
                g.add_node(node)
                members.append(node)
            synset_ids[(lang, c)] = members

    prototypes = [community_prototype(c) for c in range(n_comm)]
    for lang in cfg.languages:
        for c in range(n_comm):
            for syn in synset_ids[(lang, c)]:
                for m in range(n_lu):
                    lu = NodeId(LEXICAL_UNIT, syn.id * n_lu + m, lang)
                    g.add_node(lu)
                    g.add_edge(Edge(syn, lu, MEMBERSHIP_RELATION))
                    values = prototypes[c].copy()
                    if cfg.label_noise > 0.0:
                        flips = rng.random(NUM_DIMENSIONS) < cfg.label_noise
                        values = np.abs(values - flips.astype(np.float64))
                    g.set_annotation(lu, values)

    # one draw per synset pair, in the order of a per-pair loop: a block
    # of n draws yields the same doubles as n single draws
    upper_pairs = np.transpose(np.triu_indices(n_syn, k=1))
    for lang in cfg.languages:
        # intra-community synset edges, pairs a < b in row-major order
        for c in range(n_comm):
            members = synset_ids[(lang, c)]
            hits = rng.random(len(upper_pairs)) < cfg.intra_probability
            for a, b in upper_pairs[hits].tolist():
                g.add_edge(Edge(members[a], members[b], INTRA_RELATION))
        # sparser edges across communities of the same language
        for c1 in range(n_comm):
            for c2 in range(c1 + 1, n_comm):
                members_1, members_2 = synset_ids[(lang, c1)], synset_ids[(lang, c2)]
                hits = rng.random((n_syn, n_syn)) < cfg.inter_probability
                for a, b in np.argwhere(hits).tolist():
                    g.add_edge(Edge(members_1[a], members_2[b], INTER_RELATION))

    # inter-lingual synonymy between paired communities of consecutive languages
    n_links = int(round(cfg.interlingual_fraction * n_syn))
    for li in range(len(cfg.languages) - 1):
        lang_a, lang_b = cfg.languages[li], cfg.languages[li + 1]
        for c in range(n_comm):
            if n_links == 0:
                continue
            chosen = rng.choice(n_syn, size=n_links, replace=False)
            rel = RelationType(CROSS_RELATION_NAME, "SS", True)
            for j in sorted(int(j) for j in chosen):
                g.add_edge(Edge(synset_ids[(lang_a, c)][j], synset_ids[(lang_b, c)][j], rel))

    return g
